/// \file navigator.h
/// The query-time half of approximate mode: AnnContext bundles everything
/// navigation needs over one corpus (the fingerprint store plus a
/// proximity graph, owned or mmap-borrowed), and AnnSearchTopK runs
/// navigate-then-verify for one prepared query — beam search picks
/// candidates, core's ScanCandidateList scores them with the exact
/// posterior arithmetic and the admissible pruning bounds. The serving layer
/// (GbdaService) holds one AnnContext per published snapshot, built or
/// adopted at most once; see docs/ARCHITECTURE.md, "Approximate candidate
/// navigation".

#pragma once

#include <string>

#include "ann/proximity_graph.h"
#include "common/result.h"
#include "core/gbda_search.h"
#include "core/posterior.h"
#include "core/prefilter.h"

namespace gbda {

/// Immutable per-corpus navigation state. Thread-safe for concurrent
/// readers after construction (everything is read-only). Movable; the
/// graph ref tracks the owned graph across moves (vector buffers are
/// stable under move).
class AnnContext {
 public:
  /// Builds the proximity graph offline over `store` (BuildProximityGraph)
  /// and owns it. The expensive path — O(corpus * build cost) — run once
  /// per corpus/snapshot and cached by the services.
  static Result<AnnContext> Build(FingerprintStore store,
                                  const AnnBuildParams& params);

  /// Adopts an already-validated graph (a mapped arena section,
  /// GbdaIndexView::ann_graph()) instead of building one. The mapped
  /// storage must outlive the context. Fails when the graph's node count
  /// does not match the store.
  static Result<AnnContext> Adopt(FingerprintStore store,
                                  const ProximityGraphRef& graph);

  ProximityGraphRef graph() const {
    return adopted_.offsets != nullptr ? adopted_ : owned_.ref();
  }
  const FingerprintStore& store() const { return store_; }
  /// The graph this context owns, if Build made it — empty after Adopt.
  /// Used by callers persisting the graph (gbda_indexctl).
  const ProximityGraph& owned_graph() const { return owned_; }

 private:
  AnnContext() = default;

  FingerprintStore store_;
  ProximityGraph owned_;
  ProximityGraphRef adopted_;
};

/// Approximate top-k for one prepared query: navigate the proximity graph
/// with a window of max(ctx.options.search_window_size, k), then verify
/// every visited candidate through ScanCandidateList — the same admission,
/// scoring and early-termination arithmetic as the exhaustive scan — and
/// sort/truncate the survivors to the top k. The result is a subset of the
/// exhaustive top-k with bit-exact scores; with a window >= corpus size it
/// IS the exhaustive top-k (the repair pass guarantees full reachability).
///
/// `ctx` must be a ranking context (apply_gamma == false) prepared against
/// the same index/corpus the context's store was built from; `k >= 1`.
/// Fills candidates_visited (navigation), verified_count /
/// pruned_by_bound (verification) and the deterministic
/// candidates_evaluated / prefiltered_out counters over the visited set.
/// Thread-compatible under ScanRange's rules (own result per concurrent
/// call; the posterior engine may be shared).
Status AnnSearchTopK(const AnnContext& ann, const ScanContext& ctx,
                     const IndexReader& index, const Prefilter* prefilter,
                     size_t k, PosteriorEngine* posterior,
                     SearchResult* result);

}  // namespace gbda
