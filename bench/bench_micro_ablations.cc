// Ablation microbenchmarks for the design choices called out in docs/ARCHITECTURE.md:
//  - one Lambda1 matrix for every tau <= tau_max vs one matrix per tau
//    (Section VI-B);
//  - the Omega2 coverage recurrence vs the paper's inclusion-exclusion form;
//  - sorted-merge branch intersection vs a hash-multiset intersection vs
//    the id intersection an index runs (one branch dictionary);
//  - GMM fit time by component count K, on integer GBD-like samples (EM
//    runs once per distinct value) and on all-distinct continuous samples.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/kernels.h"
#include "common/rng.h"
#include "core/branch.h"
#include "core/branch_dictionary.h"
#include "core/lambda1.h"
#include "graph/generators.h"
#include "math/gmm.h"

namespace gbda {
namespace {

// --- Lambda1: one matrix for every tau vs one matrix per tau ----------------

void BM_Lambda1SharedTables(benchmark::State& state) {
  const int64_t tau_max = state.range(0);
  const ModelParams params = MakeModelParams(500, 10, 5);
  for (auto _ : state) {
    // One matrix, derived in one pass, serves every tau <= tau_max and
    // every phi (the Section VI-B scheme).
    const Lambda1Calculator calc(params, tau_max);
    benchmark::DoNotOptimize(calc.Column(tau_max).data());
  }
}
BENCHMARK(BM_Lambda1SharedTables)->DenseRange(10, 30, 10);

void BM_Lambda1NaivePerTau(benchmark::State& state) {
  const int64_t tau_max = state.range(0);
  const ModelParams params = MakeModelParams(500, 10, 5);
  for (auto _ : state) {
    // Naive: derive a separate matrix for every tau.
    double acc = 0.0;
    for (int64_t tau = 0; tau <= tau_max; ++tau) {
      const Lambda1Calculator calc(params, tau);
      acc += calc.Column(tau_max)[static_cast<size_t>(tau)];
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Lambda1NaivePerTau)->DenseRange(10, 30, 10);

// --- Omega2: recurrence vs inclusion-exclusion ------------------------------

void BM_Omega2Recurrence(benchmark::State& state) {
  const int64_t v = state.range(0);
  for (auto _ : state) {
    const Omega2Table table(v, 12);
    benchmark::DoNotOptimize(table.At(12, 10));
  }
}
BENCHMARK(BM_Omega2Recurrence)->Arg(16)->Arg(32);

void BM_Omega2InclusionExclusion(benchmark::State& state) {
  const int64_t v = state.range(0);
  for (auto _ : state) {
    double acc = 0.0;
    for (int64_t y = 0; y <= 12; ++y) {
      for (int64_t m = 0; m <= std::min<int64_t>(2 * y, v); ++m) {
        acc += Omega2InclusionExclusion(m, y, v);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Omega2InclusionExclusion)->Arg(16)->Arg(32);

// --- Branch intersection: sorted merge vs hashing ---------------------------

BranchMultiset MakeBranches(size_t n, uint64_t seed) {
  Rng rng(seed);
  GeneratorOptions opts;
  opts.num_vertices = n;
  opts.scale_free = true;
  opts.edges_per_vertex = 2;
  opts.num_vertex_labels = 10;
  opts.num_edge_labels = 5;
  return ExtractBranches(*GenerateConnectedGraph(opts, &rng));
}

void BM_IntersectionSortedMerge(benchmark::State& state) {
  const BranchMultiset a = MakeBranches(static_cast<size_t>(state.range(0)), 1);
  const BranchMultiset b = MakeBranches(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BranchIntersectionSize(a, b));
  }
}
BENCHMARK(BM_IntersectionSortedMerge)->Range(256, 16384);

// The same intersection as an index counts it: both multisets as ascending
// ids of one dictionary, on the dispatched intersect_count kernel.
void BM_IntersectionIds(benchmark::State& state) {
  const BranchMultiset a = MakeBranches(static_cast<size_t>(state.range(0)), 1);
  const BranchMultiset b = MakeBranches(static_cast<size_t>(state.range(0)), 2);
  BranchDictionary dictionary;
  const auto ids_of = [&dictionary](const BranchSetRef& set) {
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < set.size(); ++i) {
      ids.push_back(dictionary.Intern(set.root(i), set.edge_labels(i)));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const std::vector<uint64_t> ia = ids_of(a);
  const std::vector<uint64_t> ib = ids_of(b);
  const ScanKernels& kernels =
      GetScanKernels(ResolveKernels(KernelDispatch::kAuto));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels.intersect_count(ia.data(), ia.size(), ib.data(), ib.size()));
  }
}
BENCHMARK(BM_IntersectionIds)->Range(256, 16384);

size_t HashIntersection(const BranchSetRef& a, const BranchSetRef& b) {
  // Strawman alternative: count via a hash multimap keyed by a cheap hash.
  const auto same = [&a, &b](size_t i, size_t j) {
    return CompareBranches(a.root(i), a.edge_labels(i), b.root(j),
                           b.edge_labels(j)) == 0;
  };
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  auto hash = [](const BranchSetRef& set, size_t i) {
    size_t h = set.root(i) * 1000003u;
    for (LabelId l : set.edge_labels(i)) h = h * 31 + l;
    return h;
  };
  for (size_t i = 0; i < a.size(); ++i) buckets[hash(a, i)].push_back(i);
  size_t common = 0;
  for (size_t j = 0; j < b.size(); ++j) {
    auto it = buckets.find(hash(b, j));
    if (it == buckets.end()) continue;
    for (auto pit = it->second.begin(); pit != it->second.end(); ++pit) {
      if (same(*pit, j)) {
        it->second.erase(pit);
        ++common;
        break;
      }
    }
  }
  return common;
}

void BM_IntersectionHashed(benchmark::State& state) {
  const BranchMultiset a = MakeBranches(static_cast<size_t>(state.range(0)), 1);
  const BranchMultiset b = MakeBranches(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashIntersection(a, b));
  }
}
BENCHMARK(BM_IntersectionHashed)->Range(256, 16384);

// --- GMM fit: component count K ---------------------------------------------

// Continuous samples: every value is distinct, so EM evaluates its E step
// once per sample.
void BM_GmmFit(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> data;
  for (int i = 0; i < 20000; ++i) {
    data.push_back(rng.Bernoulli(0.5) ? rng.Gaussian(5.0, 2.0)
                                      : rng.Gaussian(20.0, 3.0));
  }
  GmmFitOptions opts;
  opts.num_components = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianMixture::Fit(data, opts));
  }
}
BENCHMARK(BM_GmmFit)->DenseRange(1, 5, 1);

// Integer samples shaped like sampled pair GBDs (a few rounded modes over
// [0, 94]), the Lambda2 fit's real input: the E step runs once per distinct
// value. Args: sample count, K.
void BM_GmmFitIntegerGbd(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> data;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const double x = rng.Bernoulli(0.6) ? rng.Gaussian(20.0, 7.0)
                                        : rng.Gaussian(50.0, 12.0);
    data.push_back(std::clamp(std::round(x), 0.0, 94.0));
  }
  GmmFitOptions opts;
  opts.num_components = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianMixture::Fit(data, opts));
  }
}
BENCHMARK(BM_GmmFitIntegerGbd)
    ->ArgsProduct({{2000, 20000}, {1, 3, 5}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gbda
