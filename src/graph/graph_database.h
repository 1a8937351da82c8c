#pragma once

#include <deque>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/label_dict.h"

namespace gbda {

/// Summary statistics of a database, matching the columns of Table III.
struct DatabaseStats {
  size_t num_graphs = 0;
  size_t max_vertices = 0;   // V_m
  size_t max_edges = 0;      // E_m
  double avg_degree = 0.0;   // d, averaged over graphs
  double avg_vertices = 0.0;
  size_t num_vertex_labels = 0;  // |L_V|
  size_t num_edge_labels = 0;    // |L_E|
  bool scale_free = false;
};

/// A graph collection with shared vertex/edge label dictionaries — the
/// database D of the similarity-search problem statement. Graphs are
/// append-only and addressed by dense ids in [0, size()). Retiring graphs
/// is the dynamic serving layer's business (service/dynamic_service.h),
/// which keeps no GraphDatabase once it has indexed the initial corpus.
///
/// Storage is a deque so `graph(id)` references stay valid across Add.
class GraphDatabase {
 public:
  GraphDatabase() = default;

  /// Appends a graph and returns its id. The caller must have produced
  /// label ids from this database's dictionaries.
  size_t Add(Graph graph);

  size_t size() const { return graphs_.size(); }
  bool empty() const { return graphs_.empty(); }

  const Graph& graph(size_t id) const { return graphs_[id]; }

  LabelDict& vertex_labels() { return vertex_labels_; }
  LabelDict& edge_labels() { return edge_labels_; }
  const LabelDict& vertex_labels() const { return vertex_labels_; }
  const LabelDict& edge_labels() const { return edge_labels_; }

  /// Maximum vertex count across graphs — the n of the complexity analyses.
  size_t MaxVertices() const;

  /// Table III style statistics. The scale-free flag aggregates per-graph
  /// degree histograms and runs the power-law test of stats.h.
  DatabaseStats Stats() const;

  /// Estimated heap footprint of all stored graphs.
  size_t MemoryBytes() const;

 private:
  std::deque<Graph> graphs_;
  LabelDict vertex_labels_;
  LabelDict edge_labels_;
};

/// The graph count of the corpus a frozen scan runs over, for the
/// agreement check of PrepareScan's CorpusRef overload. The scan itself
/// reads only the index, so no Graph is reachable through this view. The
/// database must outlive the CorpusRef.
class CorpusRef {
 public:
  CorpusRef(const GraphDatabase* db) : db_(db) {}

  size_t size() const { return db_->size(); }

 private:
  const GraphDatabase* db_;
};

}  // namespace gbda
