#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/label_dict.h"

namespace gbda {

/// Shared validation for tombstone-removal batches (GraphDatabase and the
/// incremental GbdaIndex apply the same contract): every id must be in
/// [0, size), currently live per `is_live`, and unique within the batch.
/// Returns the first violation; callers mutate only after an OK, so a
/// failed removal is always a no-op.
Status ValidateRemovalBatch(const std::vector<size_t>& ids, size_t size,
                            const std::function<bool(size_t)>& is_live,
                            const std::string& context);

/// Summary statistics of a database, matching the columns of Table III.
/// Tombstoned (removed) graphs are excluded.
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
/// addressed by dense stable ids: Add appends, RemoveGraphs tombstones in
/// place, and an id never changes meaning over the database's lifetime.
///
/// Storage is a deque so `graph(id)` references stay valid across Add —
/// the dynamic serving layer (src/service/dynamic_service.h) publishes
/// snapshots holding Graph pointers while the writer keeps appending.
/// Tombstoned slots keep their payload until the database is destroyed
/// (in-flight snapshots may still scan them); a compaction pass is future
/// work, see docs/ARCHITECTURE.md "Dynamic corpus".
class GraphDatabase {
 public:
  GraphDatabase() = default;

  /// Appends a graph and returns its stable id. The caller must have
  /// produced label ids from this database's dictionaries.
  size_t Add(Graph graph);

  /// Tombstones the given ids. Fails without modifying anything when any id
  /// is out of range, already removed, or duplicated in the call.
  Status RemoveGraphs(const std::vector<size_t>& ids);

  /// Total id slots, including tombstoned ones (ids are dense in [0, size)).
  size_t size() const { return graphs_.size(); }
  bool empty() const { return graphs_.empty(); }

  /// True when `id` has not been removed. Out-of-range ids are not alive.
  bool is_live(size_t id) const {
    return id < graphs_.size() && (alive_.empty() || alive_[id]);
  }
  /// Number of live (non-tombstoned) graphs.
  size_t num_live() const { return alive_.empty() ? graphs_.size() : num_live_; }
  bool has_tombstones() const { return num_live() != graphs_.size(); }
  /// Live ids in ascending order — the dense enumeration a compacted
  /// rebuild of this database would use.
  std::vector<size_t> LiveIds() const;

  const Graph& graph(size_t id) const { return graphs_[id]; }

  LabelDict& vertex_labels() { return vertex_labels_; }
  LabelDict& edge_labels() { return edge_labels_; }
  const LabelDict& vertex_labels() const { return vertex_labels_; }
  const LabelDict& edge_labels() const { return edge_labels_; }

  /// Maximum vertex count across live graphs — the n of the complexity
  /// analyses.
  size_t MaxVertices() const;

  /// Table III style statistics over live graphs. The scale-free flag
  /// aggregates per-graph degree histograms and runs the power-law test of
  /// stats.h.
  DatabaseStats Stats() const;

  /// Estimated heap footprint of all stored graphs (tombstoned payloads
  /// included — they are retained, see the class comment).
  size_t MemoryBytes() const;

 private:
  std::deque<Graph> graphs_;
  /// Liveness per id; empty means "everything alive" (the frozen-database
  /// fast path — no removal ever happened).
  std::vector<uint8_t> alive_;
  size_t num_live_ = 0;
  LabelDict vertex_labels_;
  LabelDict edge_labels_;
};

/// A dense read-only view of the corpus a scan runs over: either a whole
/// GraphDatabase (the frozen offline world) or a snapshot's vector of live
/// graph pointers (the dynamic world, where dense position i maps to the
/// i-th live graph; see src/service/dynamic_service.h). Only size() and
/// graph() are ever needed by the scan and the prefilter, so both worlds
/// share one code path and stay bit-identical. The viewed storage must
/// outlive the CorpusRef.
class CorpusRef {
 public:
  CorpusRef(const GraphDatabase* db) : db_(db) {}
  CorpusRef(const std::vector<const Graph*>* graphs) : graphs_(graphs) {}

  size_t size() const { return db_ ? db_->size() : graphs_->size(); }
  const Graph& graph(size_t i) const {
    return db_ ? db_->graph(i) : *(*graphs_)[i];
  }

 private:
  const GraphDatabase* db_ = nullptr;
  const std::vector<const Graph*>* graphs_ = nullptr;
};

}  // namespace gbda
