#include "ann/navigator.h"

#include <algorithm>
#include <utility>

namespace gbda {

Result<AnnContext> AnnContext::Build(FingerprintStore store,
                                     const AnnBuildParams& params) {
  AnnContext ctx;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  if (!graph.ok()) return graph.status();
  ctx.store_ = std::move(store);
  ctx.owned_ = std::move(*graph);
  return ctx;
}

Result<AnnContext> AnnContext::Adopt(FingerprintStore store,
                                     const ProximityGraphRef& graph) {
  if (graph.offsets == nullptr) {
    return Status::InvalidArgument("cannot adopt an unset proximity graph");
  }
  if (graph.num_nodes != store.size()) {
    return Status::FailedPrecondition(
        "proximity graph covers " + std::to_string(graph.num_nodes) +
        " nodes but the key store holds " +
        std::to_string(store.size()) + " graphs");
  }
  AnnContext ctx;
  ctx.store_ = std::move(store);
  ctx.adopted_ = graph;
  return ctx;
}

Status AnnSearchTopK(const AnnContext& ann, const ScanContext& ctx,
                     const IndexReader& index, const Prefilter* prefilter,
                     size_t k, PosteriorEngine* posterior,
                     SearchResult* result) {
  if (ctx.apply_gamma) {
    return Status::InvalidArgument(
        "approximate navigation serves ranking queries only (threshold "
        "queries are defined over the whole corpus)");
  }
  if (k == 0 || k == kScanAllMatches) {
    return Status::InvalidArgument(
        "approximate navigation needs a concrete k >= 1");
  }
  // The window can always hold a full result; a window below k could only
  // lower recall with nothing saved.
  const size_t window = std::max(ctx.options.search_window_size, k);
  const std::vector<uint32_t> visited = NavigateProximityGraph(
      ann.graph(), ann.store(),
      Span<const uint64_t>(ctx.query_fps.data(), ctx.query_fps.size()),
      window);
  result->candidates_visited += visited.size();
  // The same PR-5 early termination the exhaustive ranking scan arms: only
  // provably strictly-worse candidates of the VISITED set are skipped, so
  // the survivors still contain its exact top-k. k >= |visited| can never
  // prune; skip the witness bookkeeping like the full scan does.
  const bool early_terminate =
      ctx.options.early_termination && k < visited.size();
  ScanBounds bounds(k);
  GBDA_RETURN_IF_ERROR(ScanCandidateList(ctx, index, prefilter, visited,
                                         posterior, result,
                                         early_terminate ? &bounds : nullptr));
  SortTopK(&result->matches, k);
  return Status::OK();
}

}  // namespace gbda
