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
#include <memory>
#include <vector>

#include "graph/graph_database.h"

namespace gbda {

/// Cheap per-graph summary used by the layered prefilter: vertex/edge counts
/// and sorted label multisets. All four are admissible GED lower bounds when
/// differenced, so a candidate can be discarded without touching its branch
/// multiset whenever any of them already exceeds tau.
struct FilterProfile {
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  std::vector<LabelId> vertex_labels;  // ascending
  std::vector<LabelId> edge_labels;    // ascending
};

/// 64-bit FNV-1a fingerprint of one branch: the root label followed by the
/// ascending edge-label multiset. Deterministic and content-only, so
/// isomorphic branches (Definition 3) always hash equal: the multiset
/// intersection of two graphs' fingerprints can only OVERcount
/// |B_G1 ∩ B_G2| (a collision merges distinct branch types), which makes it
/// an admissible common-branch upper bound and, through
/// GBD = max(|V1|, |V2|) - |B_G1 ∩ B_G2|, an admissible GBD lower bound.
/// The per-graph sorted fingerprints live in one place, the fp_keys
/// candidate column (core/candidate_columns.h); the bound-pruning scan
/// intersects them with the query's (docs/ARCHITECTURE.md, "Bound
/// pruning"). The raw-array overload fingerprints branches straight out of
/// a flat label pool without materializing Branch objects.
uint64_t BranchFingerprint(LabelId root, const LabelId* edge_labels,
                           size_t count);
uint64_t BranchFingerprint(LabelId root, const std::vector<LabelId>& edge_labels);

/// Vertex/edge counts and sorted label multisets of `g` — no branch
/// extraction.
FilterProfile BuildFilterProfile(const Graph& g);

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
  /// Precomputes profiles for every database graph.
  explicit Prefilter(const GraphDatabase* db);

  /// Adopts precomputed per-graph profiles (position = graph id). Profiles
  /// are shared immutably, so the dynamic serving layer can assemble the
  /// dense prefilter of a snapshot from its per-graph profile store in
  /// O(live) pointer copies (docs/ARCHITECTURE.md, "Dynamic corpus").
  explicit Prefilter(
      std::vector<std::shared_ptr<const FilterProfile>> profiles);

  /// Ids of database graphs whose lower bound does not exceed tau.
  std::vector<size_t> Candidates(const Graph& query, int64_t tau) const;

  /// True when graph `id` survives the filter at threshold tau.
  bool Passes(const FilterProfile& query_profile, size_t id,
              int64_t tau) const;

  size_t size() const { return profiles_.size(); }
  size_t MemoryBytes() const;

 private:
  std::vector<std::shared_ptr<const FilterProfile>> profiles_;
};

}  // namespace gbda
