/// \file proximity_graph.h
/// Sub-linear candidate generation for approximate top-k
/// (docs/ARCHITECTURE.md, "Approximate candidate navigation"): a
/// Vamana-style proximity graph over the corpus, with graphs embedded by
/// their branch-id multisets (the fp_keys candidate column) and compared
/// under
///   FingerprintDistance(a, b) = max(|Ka|, |Kb|) - |Ka ∩ Kb|,
/// which over dictionary ids is GBD itself (Definition 4; the name predates
/// the dictionary). The offline builder
/// (randomized insertion + greedy search + RobustPrune, degree-bounded)
/// produces a CSR adjacency the beam-search navigator walks at query time;
/// the navigator only PICKS candidates — every score the user sees comes
/// from the exact verification path (core ScanCandidateList), so
/// approximate mode can miss matches but never fabricates one.
///
/// The CSR form serializes into the v4 arena's ann_graph section
/// (storage/index_arena.h) and is consumed in place from a mapped artifact
/// through ProximityGraphRef — the same owned/borrowed split the branch
/// store uses.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "common/result.h"
#include "common/span.h"
#include "core/index_reader.h"

namespace gbda {

/// Offline construction knobs (Vamana's R / L / alpha).
struct AnnBuildParams {
  /// Out-degree bound R. Every node keeps at most this many neighbors,
  /// except the entry point, which the reachability repair pass (see
  /// BuildProximityGraph) may push past the bound.
  uint32_t graph_degree = 32;
  /// Beam width L of the builder's greedy searches (>= graph_degree is
  /// typical; larger = better graphs, slower builds).
  uint32_t build_window = 64;
  /// RobustPrune's diversity slack (>= 1.0): a candidate is dropped when an
  /// already-kept neighbor is alpha-times closer to it than the node is.
  /// 1.0 prunes hardest; ~1.2 keeps longer "highway" edges that help
  /// navigation escape local clusters.
  double alpha = 1.2;
  /// Seed of the insertion order and the random initial edges; builds are
  /// deterministic given (corpus, params).
  uint64_t seed = 17;
};

/// Non-owning CSR view of a proximity graph — either over a ProximityGraph's
/// own vectors or over a mapped arena section. The backing storage must
/// outlive the ref. Node i's out-neighbors are
/// neighbors[offsets[i] .. offsets[i+1]).
struct ProximityGraphRef {
  const uint64_t* offsets = nullptr;  // num_nodes + 1 entries
  const uint32_t* neighbors = nullptr;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint32_t entry_point = 0;
  uint32_t degree_bound = 0;

  bool empty() const { return num_nodes == 0; }
};

/// Owned CSR proximity graph (the builder's output).
struct ProximityGraph {
  uint32_t degree_bound = 0;
  uint32_t entry_point = 0;
  std::vector<uint64_t> offsets;  // num_nodes + 1 entries (offsets[0] == 0)
  std::vector<uint32_t> neighbors;

  size_t num_nodes() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  ProximityGraphRef ref() const;
};

/// The per-node keys the builder and the navigator compute distances over:
/// node i's keys are the ascending branch ids of corpus graph i. A view of
/// an index's fp_offsets / fp_keys columns, read in place (one contiguous
/// pool, so distance evaluations stay cache-friendly); it owns no id.
class FingerprintStore {
 public:
  FingerprintStore() = default;

  /// Views the index's fp_offsets / fp_keys columns (index.columns()) —
  /// the ids the scan intersects, under the dictionary PrepareScan maps
  /// query_fps through, so build-time and query-time geometry agree by
  /// construction. Works for every backing: a mapped artifact, an owned
  /// index or a dynamic snapshot. The index must outlive the store and
  /// must not be mutated while the store is in use.
  static FingerprintStore FromIndex(const IndexReader& index);

  size_t size() const { return size_; }
  Span<const uint64_t> keys(size_t id) const {
    return Span<const uint64_t>(keys_ + offsets_[id],
                                static_cast<size_t>(offsets_[id + 1] -
                                                    offsets_[id]));
  }

 private:
  const uint64_t* offsets_ = nullptr;  // size() + 1 entries
  const uint64_t* keys_ = nullptr;
  size_t size_ = 0;
};

/// The navigation metric: max(|a|, |b|) - |a ∩ b| over two ascending
/// branch-id multisets — GBD, so graph pairs that rank well under the
/// posterior tend to be near each other.
/// Symmetric, non-negative, 0 for identical multisets (including two empty
/// ones). The intersection runs on the dispatched scan kernels
/// (common/kernels.h); the default resolves them per call, while the
/// builder and the navigator resolve them once and pass the table.
int64_t FingerprintDistance(
    Span<const uint64_t> a, Span<const uint64_t> b,
    const ScanKernels& kernels =
        GetScanKernels(ResolveKernels(KernelDispatch::kAuto)));

/// FingerprintDistance(a, b) <= t, decided without the full merge: false
/// when the size difference already exceeds t, else the capped
/// intersect_at_most test, which stops as soon as the answer is known.
/// Any t is valid (t < 0 is always false).
bool FingerprintDistanceAtMost(
    Span<const uint64_t> a, Span<const uint64_t> b, int64_t t,
    const ScanKernels& kernels =
        GetScanKernels(ResolveKernels(KernelDispatch::kAuto)));

namespace internal {
/// RobustPrune's alpha test as an integer cap: the largest d >= 0 with
/// double(d) * alpha <= double(dist_pj) under IEEE double arithmetic, or
/// -1 when none passes (alpha = +inf: 0 * inf is NaN). The test is
/// monotone in d, so `d <= cap` decides it for every d. Exposed for tests.
int64_t AlphaPruneCap(int64_t dist_pj, double alpha);
}  // namespace internal

/// Offline Vamana-style build: random bounded-degree initialization, then
/// one randomized insertion pass (greedy search from the entry point +
/// RobustPrune of the visited set, backward edges re-pruned on overflow),
/// then a reachability repair pass — nodes BFS-unreachable from the entry
/// point are appended to the entry point's list (its degree alone may
/// exceed graph_degree), so every node is reachable and a beam search with
/// window >= corpus size provably visits the whole corpus (the property
/// the full-window bit-identity tests pin). Deterministic in
/// (store, params). Fails on invalid params (degree or window of 0,
/// alpha < 1.0).
Result<ProximityGraph> BuildProximityGraph(const FingerprintStore& store,
                                           const AnnBuildParams& params);

/// Beam search ("GreedySearch" with a `window`-bounded priority queue):
/// from the entry point, repeatedly expand the closest unexpanded candidate
/// to `query_keys`, keeping the best `window` nodes seen; stops when the
/// closest unexpanded candidate is farther than the worst of a full
/// window. Returns the ids to hand to exact verification — every expanded
/// node plus the final window, deduplicated, in deterministic order.
/// Distance ties break by smaller id, so navigation is deterministic even
/// on tie-heavy corpora (e.g. all-identical graphs).
/// `graph.num_nodes` must equal `store.size()`.
std::vector<uint32_t> NavigateProximityGraph(const ProximityGraphRef& graph,
                                             const FingerprintStore& store,
                                             Span<const uint64_t> query_keys,
                                             size_t window);

/// Serialized section payload (the v4 arena's ann_graph section,
/// storage/index_arena.h):
///   u32 format_version (= kAnnGraphFormatVersion)
///   u32 degree_bound
///   u32 entry_point
///   u32 reserved (0)
///   u64 num_nodes
///   u64 num_edges
///   u64 offsets[num_nodes + 1]
///   u32 neighbors[num_edges]
/// Fixed little-endian-native layout like every other arena section; the
/// 32-byte scalar header keeps the u64 offsets 8-aligned whenever the
/// payload itself is 8-aligned (arena sections are 64-byte aligned).
inline constexpr uint32_t kAnnGraphFormatVersion = 1;

std::string SerializeProximityGraph(const ProximityGraph& graph);

/// Validates a section payload and returns a ref pointing INTO `data`
/// (zero-copy; `data` must be 8-byte aligned and outlive the ref).
/// Checks the format version, the exact payload length, entry_point and
/// every neighbor id against num_nodes, and the offsets array
/// (offsets[0] == 0, nondecreasing, ends at num_edges) — O(nodes + edges)
/// once at open, so query-time navigation is unchecked. `expected_nodes`
/// cross-checks the graph against the artifact's corpus size.
Result<ProximityGraphRef> ParseProximityGraphSection(
    const void* data, size_t length, uint64_t expected_nodes,
    const std::string& source);

}  // namespace gbda
