// Google-benchmark microbenchmarks of the library's computational kernels:
// branch extraction, GBD evaluation, Lambda1 matrices, assignment solvers,
// the seriation eigenvector, exact A* GED, and the runtime-dispatched scan
// kernels (scalar vs AVX2 side by side).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baselines/astar_ged.h"
#include "baselines/graph_seriation.h"
#include "baselines/greedy_sort_ged.h"
#include "baselines/lsap_ged.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "core/branch.h"
#include "core/lambda1.h"
#include "math/hungarian.h"
#include "graph/generators.h"

namespace gbda {
namespace {

Graph MakeGraph(size_t n, bool scale_free, uint64_t seed) {
  Rng rng(seed);
  GeneratorOptions opts;
  opts.num_vertices = n;
  opts.scale_free = scale_free;
  opts.edges_per_vertex = scale_free ? 2 : 0;
  opts.extra_edges = n;
  opts.num_vertex_labels = 10;
  opts.num_edge_labels = 5;
  return *GenerateConnectedGraph(opts, &rng);
}

void BM_BranchExtraction(benchmark::State& state) {
  const Graph g = MakeGraph(static_cast<size_t>(state.range(0)), true, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractBranches(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BranchExtraction)->Range(64, 16384)->Complexity();

void BM_GbdFromBranches(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BranchMultiset b1 = ExtractBranches(MakeGraph(n, true, 2));
  const BranchMultiset b2 = ExtractBranches(MakeGraph(n, true, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GbdFromBranches(b1, b2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GbdFromBranches)->Range(64, 16384)->Complexity();

// One size's whole Lambda1 matrix, the one pass every column is read from.
void BM_Lambda1Column(benchmark::State& state) {
  const int64_t tau_max = state.range(0);
  for (auto _ : state) {
    const Lambda1Calculator calc(MakeModelParams(1000, 10, 5), tau_max);
    benchmark::DoNotOptimize(calc.Column(tau_max).data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Lambda1Column)->DenseRange(5, 30, 5)->Complexity();

void BM_HungarianAssignment(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  DenseMatrix cost(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) cost.At(r, c) = rng.Uniform(0.0, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(cost));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HungarianAssignment)->Range(16, 512)->Complexity();

void BM_GreedySortAssignment(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(8);
  DenseMatrix cost(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) cost.At(r, c) = rng.Uniform(0.0, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignmentGreedySort(cost));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedySortAssignment)->Range(16, 512)->Complexity();

void BM_SeriationProfile(benchmark::State& state) {
  const Graph g = MakeGraph(static_cast<size_t>(state.range(0)), true, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSeriationProfile(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SeriationProfile)->Range(64, 4096)->Complexity();

void BM_LsapGedPair(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph a = MakeGraph(n, true, 10);
  const Graph b = MakeGraph(n, true, 11);
  const auto pa = BuildVertexProfiles(a);
  const auto pb = BuildVertexProfiles(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LsapGedLowerBound(pa, pb));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LsapGedPair)->Range(16, 256)->Complexity();

// -- Scan kernels (common/kernels.h): scalar vs AVX2 -------------------------
//
// Sorted ascending uint64 key arrays with a controlled overlap fraction —
// the exact shape the tier-2 cut and the fp-exact scoring path feed the
// kernels. Each benchmark registers once per implementation so `--bench`
// output shows the two side by side on identical inputs.

std::vector<uint64_t> SortedKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v += 1 + (rng.NextUint64() % 64);
    keys[i] = v;
  }
  return keys;
}

// Shares roughly half of `base`'s keys, interleaved with fresh ones.
std::vector<uint64_t> OverlappingKeys(const std::vector<uint64_t>& base,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    keys.push_back(i % 2 == 0 ? base[i] : base[i] + 1 + (rng.NextUint64() % 32));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void BM_KernelIntersectCount(benchmark::State& state) {
  const KernelImpl impl = static_cast<KernelImpl>(state.range(1));
  if (impl == KernelImpl::kAvx2 && !CpuSupportsAvx2()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const ScanKernels& kernels = GetScanKernels(impl);
  state.SetLabel(kernels.name);
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> a = SortedKeys(n, 21);
  const std::vector<uint64_t> b = OverlappingKeys(a, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels.intersect_count(a.data(), a.size(), b.data(), b.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_KernelIntersectCount)
    ->ArgsProduct({{64, 512, 4096, 32768},
                   {static_cast<int64_t>(KernelImpl::kScalar),
                    static_cast<int64_t>(KernelImpl::kAvx2)}});

void BM_KernelIntersectAtMost(benchmark::State& state) {
  const KernelImpl impl = static_cast<KernelImpl>(state.range(1));
  if (impl == KernelImpl::kAvx2 && !CpuSupportsAvx2()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const ScanKernels& kernels = GetScanKernels(impl);
  state.SetLabel(kernels.name);
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> a = SortedKeys(n, 23);
  const std::vector<uint64_t> b = OverlappingKeys(a, 24);
  // A cap around half the true intersection exercises the early exit the
  // tier-2 cut lives on.
  const int64_t cap =
      kernels.intersect_count(a.data(), a.size(), b.data(), b.size()) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.intersect_at_most(
        a.data(), a.size(), b.data(), b.size(), cap));
  }
}
BENCHMARK(BM_KernelIntersectAtMost)
    ->ArgsProduct({{64, 512, 4096, 32768},
                   {static_cast<int64_t>(KernelImpl::kScalar),
                    static_cast<int64_t>(KernelImpl::kAvx2)}});

void BM_ExactGedSmall(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph a = MakeGraph(n, false, 12);
  const Graph b = MakeGraph(n, false, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactGed(a, b));
  }
}
BENCHMARK(BM_ExactGedSmall)->DenseRange(4, 8, 1);

}  // namespace
}  // namespace gbda
