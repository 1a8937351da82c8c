/// \file prefilter.h
/// Optional candidate pruning in front of Algorithm 1's probabilistic test.
/// The Prefilter precomputes a cheap FilterProfile per database graph and
/// discards, in Step 2, any candidate whose admissible GED lower bound
/// (size and label-multiset differences) already exceeds tau_hat — before
/// branches or the posterior are touched. The bounds are sound, so the
/// Step 4 result set loses no true match; only provably-far graphs skip
/// the O(nd + tau_hat^3) evaluation.

#pragma once

#include <cstdint>
#include <vector>

#include "core/index_reader.h"
#include "graph/graph_database.h"

namespace gbda {

/// Cheap per-graph summary used by the layered prefilter: vertex/edge counts
/// and sorted label multisets, virtual (epsilon) edges excluded. All four
/// are admissible GED lower bounds when differenced, so a candidate can be
/// discarded without touching its branch multiset whenever any of them
/// already exceeds tau.
struct FilterProfile {
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  std::vector<LabelId> vertex_labels;  // ascending
  std::vector<LabelId> edge_labels;    // ascending
};

/// Vertex/edge counts and sorted label multisets of `g`, skipping epsilon
/// edges — no branch extraction.
FilterProfile BuildFilterProfile(const Graph& g);

/// The same profile read off a graph's branches: the roots are the vertex
/// labels, and since graphs have no self-loops each (non-epsilon) edge
/// label sits in exactly the two branches of its endpoints, so the
/// edge-label multiset is every second element of the sorted union. Equals
/// BuildFilterProfile(g) for `branches` = ExtractBranches(g).
FilterProfile BuildFilterProfile(const BranchSetRef& branches);

/// The same profile for a graph held as branch ids: entry ids[i] of
/// `dictionary` is its i-th branch. Every id must be < dictionary.size().
FilterProfile BuildFilterProfile(Span<const uint64_t> ids,
                                 const BranchDictionary& dictionary);

/// Admissible GED lower bound from two filter profiles:
///   max(|ΔV|, |ΔE|, vertex-label multiset distance + edge-label multiset
///       distance),
/// each operation changing at most one unit of one quantity. O(n) per pair.
int64_t FilterLowerBound(const FilterProfile& a, const FilterProfile& b);

/// The layered prefilter of the multi-layer indexing direction discussed in
/// the paper's related work [35]: a size layer (O(1)) then a label layer
/// (O(n)) in front of the probabilistic test. Sound for any search with
/// threshold tau — it only removes candidates whose GED provably exceeds
/// tau — so recall is unaffected while the expensive stage sees fewer
/// candidates.
class Prefilter {
 public:
  /// Precomputes profiles for every database graph from its Graph.
  explicit Prefilter(const GraphDatabase* db);

  /// Precomputes profiles for every graph of `index` from its branch ids
  /// and the dictionary — the serving snapshots' construction, which reads
  /// no Graph.
  explicit Prefilter(const IndexReader& index);

  /// Ids of database graphs whose lower bound does not exceed tau.
  std::vector<size_t> Candidates(const Graph& query, int64_t tau) const;

  /// True when graph `id` survives the filter at threshold tau.
  bool Passes(const FilterProfile& query_profile, size_t id,
              int64_t tau) const;

  size_t size() const { return profiles_.size(); }
  size_t MemoryBytes() const;

 private:
  std::vector<FilterProfile> profiles_;
};

}  // namespace gbda
