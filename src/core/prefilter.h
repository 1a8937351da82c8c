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

#include "core/branch.h"
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
  /// Ascending 64-bit fingerprints of the graph's branches (root label +
  /// ascending edge-label multiset, FNV-1a). Isomorphic branches
  /// (Definition 3) always hash equal, so the fingerprint multiset
  /// intersection can only OVERcount |B_G1 ∩ B_G2| (hash collisions merge
  /// distinct branch types) — an admissible common-branch upper bound, and
  /// through GBD = max(|V1|, |V2|) - |B_G1 ∩ B_G2| an admissible GBD lower
  /// bound, at a uint64 two-pointer merge instead of the full
  /// lexicographic branch merge. Feeds the bound-pruning scan
  /// (CommonBranchUpperBound; docs/ARCHITECTURE.md, "Serving layer").
  std::vector<uint64_t> branch_keys;
};

/// 64-bit FNV-1a fingerprint of one branch: the root label followed by the
/// ascending edge-label multiset. Deterministic and content-only, so
/// isomorphic branches (Definition 3) always hash equal — the property
/// every admissible bound over branch_keys rests on. The raw-array overload
/// exists so src/ann can fingerprint branches straight out of a mapped
/// index's flat label pool without materializing Branch objects.
uint64_t BranchFingerprint(LabelId root, const LabelId* edge_labels,
                           size_t count);
uint64_t BranchFingerprint(LabelId root, const std::vector<LabelId>& edge_labels);

FilterProfile BuildFilterProfile(const Graph& g);

/// As above, but fingerprints the caller's already-extracted branch
/// multiset instead of re-running ExtractBranches — for callers that hold
/// both (PrepareScan extracts the query's branches anyway). `branches`
/// must be ExtractBranches(g).
FilterProfile BuildFilterProfile(const Graph& g,
                                 const BranchMultiset& branches);

/// Admissible GED lower bound from two filter profiles:
///   max(|ΔV|, |ΔE|, vertex-label multiset distance + edge-label multiset
///       distance),
/// each operation changing at most one unit of one quantity. O(n) per pair.
int64_t FilterLowerBound(const FilterProfile& a, const FilterProfile& b);

/// Upper bound on |B_Ga ∩ B_Gb|, the common-branch count of Definition 3:
/// the multiset intersection of the two profiles' branch fingerprints.
/// Isomorphic branches hash equal, so the fingerprint intersection can only
/// overcount the true branch intersection — admissible. Through
/// GBD = max(|V1|, |V2|) - |B_G1 ∩ B_G2| this is exactly a GBD lower bound:
///   GBD >= max(|V1|, |V2|) - CommonBranchUpperBound,
/// the cheap per-candidate bound the bound-pruning scan feeds into
/// PosteriorEngine::PhiSuffixMax (docs/ARCHITECTURE.md, "Serving layer").
/// O(n) two-pointer uint64 merge — no branch or edge-label storage is
/// touched.
int64_t CommonBranchUpperBound(const FilterProfile& a, const FilterProfile& b);

/// Decision form of CommonBranchUpperBound: true iff the fingerprint
/// intersection is <= cap. Early-exits in both directions — as soon as the
/// intersection exceeds cap, or as soon as the remaining tails cannot lift
/// it above cap — so a typical call inspects far fewer elements than the
/// counting form. This is the top-k scan's hot tier-2 test: it folds the
/// whole "does the Phi upper bound rank this candidate strictly after the
/// current k-th best" question into one capped merge (gbda_search.cc).
bool CommonBranchUpperBoundAtMost(const FilterProfile& a,
                                  const FilterProfile& b, int64_t cap);

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

  /// The precomputed profile of graph `id` (position = scan id), for bound
  /// computations beyond the pass/fail test — e.g. the top-k scan's GBD
  /// lower bound via CommonBranchUpperBound.
  const FilterProfile& profile(size_t id) const { return *profiles_[id]; }

  size_t size() const { return profiles_.size(); }
  size_t MemoryBytes() const;

 private:
  std::vector<std::shared_ptr<const FilterProfile>> profiles_;
};

}  // namespace gbda
