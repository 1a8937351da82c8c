#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/branch_dictionary.h"
#include "core/gbd_prior.h"
#include "core/ged_prior.h"
#include "core/posterior.h"
#include "graph/generators.h"
#include "math/log_combinatorics.h"

namespace gbda {
namespace {

std::vector<BranchMultiset> MakeBranchSamples(size_t count, uint64_t seed) {
  Rng rng(seed);
  GeneratorOptions opts;
  opts.num_vertices = 12;
  opts.extra_edges = 6;
  opts.num_vertex_labels = 4;
  opts.num_edge_labels = 3;
  std::vector<BranchMultiset> branches;
  for (size_t i = 0; i < count; ++i) {
    opts.num_vertices = 8 + static_cast<size_t>(rng.UniformInt(0, 8));
    Result<Graph> g = GenerateConnectedGraph(opts, &rng);
    branches.push_back(ExtractBranches(*g));
  }
  return branches;
}

/// GbdPrior::Fit over `branches`, coded as the ids of one dictionary.
Result<GbdPrior> FitOver(const std::vector<BranchMultiset>& branches,
                         const GbdPriorOptions& options, Rng* rng) {
  BranchDictionary dictionary;
  std::vector<std::vector<uint64_t>> ids(branches.size());
  for (size_t g = 0; g < branches.size(); ++g) {
    const BranchSetRef set = branches[g];
    for (size_t b = 0; b < set.size(); ++b) {
      ids[g].push_back(dictionary.Intern(set.root(b), set.edge_labels(b)));
    }
    std::sort(ids[g].begin(), ids[g].end());
  }
  const std::vector<Span<const uint64_t>> spans(ids.begin(), ids.end());
  return GbdPrior::Fit(spans, options, rng);
}

TEST(GedPriorTest, RowsAreNormalizedDistributions) {
  GedPriorTable table(4, 3, 10);
  for (int64_t v : {3, 10, 50, 200}) {
    const std::vector<double>& row = table.Row(v);
    ASSERT_EQ(row.size(), 11u);
    double total = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "v=" << v;
  }
}

TEST(GedPriorTest, ProbabilityOutsideRangeIsZero) {
  GedPriorTable table(4, 3, 5);
  EXPECT_EQ(table.Probability(-1, 10), 0.0);
  EXPECT_EQ(table.Probability(6, 10), 0.0);
  EXPECT_GT(table.Probability(3, 10), 0.0);
}

TEST(GedPriorTest, RowsAreCachedAndDeterministic) {
  GedPriorTable table(4, 3, 8);
  const std::vector<double> first = table.Row(20);
  EXPECT_EQ(table.num_cached_rows(), 1u);
  const std::vector<double> second = table.Row(20);
  EXPECT_EQ(table.num_cached_rows(), 1u);
  EXPECT_EQ(first, second);

  GedPriorTable other(4, 3, 8);
  EXPECT_EQ(other.Row(20), first);
}

TEST(GedPriorTest, EagerBuildWarmsRows) {
  GedPriorTable table(4, 3, 6);
  table.EagerBuild({5, 10, 15, 10, 5});
  EXPECT_EQ(table.num_cached_rows(), 3u);
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(GedPriorTest, SerializationRoundTrip) {
  GedPriorTable table(7, 2, 6);
  table.EagerBuild({4, 9});
  BinaryWriter writer;
  table.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  Result<GedPriorTable> loaded = GedPriorTable::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->tau_max(), 6);
  EXPECT_EQ(loaded->num_cached_rows(), 2u);
  EXPECT_EQ(loaded->Row(4), table.Row(4));
  EXPECT_EQ(loaded->Row(9), table.Row(9));
}

TEST(GedPriorTest, DeserializeRejectsNonFiniteOrNegativeRowEntries) {
  GedPriorTable table(7, 2, 6);
  table.EagerBuild({4, 9});
  BinaryWriter writer;
  table.Serialize(&writer);
  // Header (3 x i64) and row count, then row 0: its size and its length
  // word, then tau_max + 1 doubles.
  const size_t entry2 = 4 * 8 + 8 + 8 + 2 * sizeof(double);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -0.25}) {
    std::string bytes = writer.buffer();
    std::memcpy(&bytes[entry2], &bad, sizeof(bad));
    BinaryReader reader(bytes);
    Result<GedPriorTable> loaded = GedPriorTable::Deserialize(&reader);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GbdPriorTest, DeserializeRejectsNonFiniteOrNegativeTables) {
  Rng rng(9);
  Result<GbdPrior> prior =
      FitOver(MakeBranchSamples(20, 10), GbdPriorOptions(), &rng);
  ASSERT_TRUE(prior.ok());
  ASSERT_GT(prior->table_size(), 5u);
  BinaryWriter writer;
  prior->Serialize(&writer);
  // pairs, floor, component count, 3 doubles per component, the table's
  // length word, then the table.
  const size_t floor_at = 8;
  const size_t table5 = 3 * 8 + prior->gmm().components().size() * 24 + 8 +
                        5 * sizeof(double);
  for (const size_t at : {floor_at, table5}) {
    for (double bad : {std::nan(""), HUGE_VAL, -1e-3}) {
      std::string bytes = writer.buffer();
      std::memcpy(&bytes[at], &bad, sizeof(bad));
      BinaryReader reader(bytes);
      Result<GbdPrior> loaded = GbdPrior::Deserialize(&reader);
      ASSERT_FALSE(loaded.ok()) << "offset " << at << " value " << bad;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(GbdPriorTest, RequiresAtLeastTwoGraphs) {
  Rng rng(1);
  GbdPriorOptions opts;
  std::vector<BranchMultiset> one = MakeBranchSamples(1, 2);
  EXPECT_FALSE(FitOver(one, opts, &rng).ok());
}

TEST(GbdPriorTest, FitsAndTabulates) {
  Rng rng(3);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(60, 4);
  GbdPriorOptions opts;
  opts.num_sample_pairs = 500;
  Result<GbdPrior> prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  EXPECT_EQ(prior->pairs_sampled(), 500u);
  // Probabilities positive everywhere thanks to the floor.
  for (int64_t phi = 0; phi <= 20; ++phi) {
    EXPECT_GT(prior->Probability(phi), 0.0);
  }
  // Mass concentrates on the observed GBD range (roughly <= 16 here).
  EXPECT_GT(prior->Probability(10), prior->Probability(1000));
}

TEST(GbdPriorTest, UsesAllPairsWhenFew) {
  Rng rng(5);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(10, 6);
  GbdPriorOptions opts;
  opts.num_sample_pairs = 100000;
  Result<GbdPrior> prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(prior.ok());
  EXPECT_EQ(prior->pairs_sampled(), 45u);  // C(10,2)
}

TEST(GbdPriorTest, HistogramCountsMatchSamples) {
  Rng rng(7);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(12, 8);
  GbdPriorOptions opts;
  Result<GbdPrior> prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(prior.ok());
  size_t total = 0;
  for (size_t c : prior->sample_histogram()) total += c;
  EXPECT_EQ(total, prior->pairs_sampled());
}

TEST(GbdPriorTest, SerializationRoundTrip) {
  Rng rng(9);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(20, 10);
  GbdPriorOptions opts;
  Result<GbdPrior> prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(prior.ok());
  BinaryWriter writer;
  prior->Serialize(&writer);
  BinaryReader reader(writer.buffer());
  Result<GbdPrior> loaded = GbdPrior::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int64_t phi = 0; phi <= 30; ++phi) {
    EXPECT_DOUBLE_EQ(loaded->Probability(phi), prior->Probability(phi));
  }
  EXPECT_EQ(loaded->sample_histogram(), prior->sample_histogram());
}

TEST(PosteriorTest, RejectsTauBeyondTableRange) {
  Rng rng(11);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(20, 12);
  GbdPriorOptions opts;
  Result<GbdPrior> gbd_prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(gbd_prior.ok());
  GedPriorTable ged_prior(4, 3, 5);
  PosteriorEngine engine(4, 3, 5, &ged_prior, &*gbd_prior);
  EXPECT_FALSE(engine.Phi(10, 3, 6).ok());
  EXPECT_FALSE(engine.Phi(0, 3, 2).ok());
  EXPECT_TRUE(engine.Phi(10, 3, 5).ok());
}

TEST(PosteriorTest, PhiIsNonNegativeAndMonotoneInTau) {
  Rng rng(13);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(30, 14);
  GbdPriorOptions opts;
  Result<GbdPrior> gbd_prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(gbd_prior.ok());
  GedPriorTable ged_prior(4, 3, 8);
  PosteriorEngine engine(4, 3, 8, &ged_prior, &*gbd_prior);
  for (int64_t phi = 0; phi <= 6; ++phi) {
    double prev = -1.0;
    for (int64_t tau_hat = 0; tau_hat <= 8; ++tau_hat) {
      Result<double> p = engine.Phi(12, phi, tau_hat);
      ASSERT_TRUE(p.ok());
      EXPECT_GE(*p, 0.0);
      EXPECT_GE(*p, prev - 1e-12);  // sum over tau grows with tau_hat
      prev = *p;
    }
  }
}

// Every (v, phi, tau_hat) the shared-table tests sweep: v in [1, 64],
// phi in [0, 2 * tau_max + 2] (past the support at every v), tau_hat in
// [0, tau_max].
constexpr int64_t kSweepTauMax = 6;

struct PosteriorSweep {
  std::vector<double> phi;
  std::vector<std::vector<double>> suffix_max;
};

// Sweeps every point in `reverse` or forward order and returns the values
// in forward order, so sweeps in either order compare element-wise.
PosteriorSweep Sweep(PosteriorEngine* engine, bool reverse = false) {
  PosteriorSweep out;
  std::vector<std::tuple<int64_t, int64_t, int64_t>> points;
  for (int64_t v = 1; v <= 64; ++v) {
    for (int64_t phi = 0; phi <= 2 * kSweepTauMax + 2; ++phi) {
      for (int64_t tau_hat = 0; tau_hat <= kSweepTauMax; ++tau_hat) {
        points.emplace_back(v, phi, tau_hat);
      }
    }
  }
  out.phi.resize(points.size());
  out.suffix_max.resize(points.size());
  for (size_t n = 0; n < points.size(); ++n) {
    const size_t i = reverse ? points.size() - 1 - n : n;
    const auto [v, phi, tau_hat] = points[i];
    Result<double> p = engine->Phi(v, phi, tau_hat);
    Result<const PhiRow*> row = engine->Row(v, tau_hat);
    EXPECT_TRUE(p.ok() && row.ok());
    if (!p.ok() || !row.ok()) return out;
    out.phi[i] = *p;
    out.suffix_max[i] = (*row)->suffix_max;
  }
  return out;
}

void ExpectSameSweep(const PosteriorSweep& got, const PosteriorSweep& want) {
  ASSERT_EQ(got.phi.size(), want.phi.size());
  for (size_t i = 0; i < want.phi.size(); ++i) {
    EXPECT_EQ(got.phi[i], want.phi[i]) << "point " << i;
    EXPECT_EQ(got.suffix_max[i], want.suffix_max[i]) << "point " << i;
  }
}

Result<GbdPrior> SweepGbdPrior() {
  Rng rng(17);
  GbdPriorOptions opts;
  return FitOver(MakeBranchSamples(30, 18), opts, &rng);
}

TEST(PosteriorTest, SharedLambda1ColumnsMatchAPrivateTable) {
  Result<GbdPrior> gbd_prior = SweepGbdPrior();
  ASSERT_TRUE(gbd_prior.ok());
  GedPriorTable private_table(4, 3, kSweepTauMax);
  PosteriorEngine reference(4, 3, kSweepTauMax, &private_table, &*gbd_prior);
  const PosteriorSweep want = Sweep(&reference);

  // A first engine warms the shared table (in the opposite order); a second
  // engine on it then reads every Lambda1 column the first one derived.
  // Rows read no column past the support, so each v holds the columns
  // phi in [0, min(v, 2 * kSweepTauMax)].
  GedPriorTable shared(4, 3, kSweepTauMax);
  PosteriorEngine first(4, 3, kSweepTauMax, &shared, &*gbd_prior);
  ExpectSameSweep(Sweep(&first, /*reverse=*/true), want);
  // One Lambda1 matrix per swept size v in [1, 64], which serves every
  // column the rows read (phi in [0, min(v, 2 * kSweepTauMax)]).
  const size_t matrices = shared.num_cached_matrices();
  EXPECT_EQ(matrices, 64u);
  EXPECT_EQ(private_table.num_cached_matrices(), matrices);

  PosteriorEngine second(4, 3, kSweepTauMax, &shared, &*gbd_prior);
  ExpectSameSweep(Sweep(&second), want);
  EXPECT_EQ(shared.num_cached_matrices(), matrices);
}

TEST(PosteriorTest, ConcurrentEnginesOnOneTableMatchTheSerialEngine) {
  Result<GbdPrior> gbd_prior = SweepGbdPrior();
  ASSERT_TRUE(gbd_prior.ok());
  GedPriorTable private_table(4, 3, kSweepTauMax);
  PosteriorEngine serial(4, 3, kSweepTauMax, &private_table, &*gbd_prior);
  const PosteriorSweep want = Sweep(&serial);

  // Four threads on one engine, as a service's pool workers share it, sweep
  // the same (v, phi) points — half of them in reverse — so they race to
  // build the same Phi rows of the engine and the same Lambda1 matrices and
  // Lambda3 rows of the one table.
  GedPriorTable shared(4, 3, kSweepTauMax);
  PosteriorEngine engine(4, 3, kSweepTauMax, &shared, &*gbd_prior);
  constexpr size_t kThreads = 4;
  std::vector<PosteriorSweep> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = Sweep(&engine, t % 2 == 1); });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ExpectSameSweep(got[t], want);
  }
  EXPECT_EQ(shared.num_cached_matrices(),
            private_table.num_cached_matrices());
  EXPECT_EQ(shared.num_cached_rows(), private_table.num_cached_rows());
}

TEST(GedPriorTest, Lambda1ColumnsAreNotPersisted) {
  GedPriorTable table(4, 3, 6);
  table.EagerBuild({5, 12});
  // Each row was derived from its size's memoised matrix.
  EXPECT_EQ(table.num_cached_matrices(), 2u);
  BinaryWriter before;
  table.Serialize(&before);
  const size_t bytes = table.MemoryBytes();

  // Columns at sizes with and without a row: the memo grows by the one
  // size without a row, the persisted table and its reported footprint do
  // not.
  for (int64_t phi = 0; phi <= 8; ++phi) {
    EXPECT_EQ(table.Lambda1Column(5, phi).size(), 7u);
    EXPECT_EQ(table.Lambda1Column(40, phi).size(), 7u);
  }
  EXPECT_EQ(table.num_cached_matrices(), 3u);
  EXPECT_EQ(table.num_cached_rows(), 2u);
  EXPECT_EQ(table.MemoryBytes(), bytes);
  BinaryWriter after;
  table.Serialize(&after);
  EXPECT_EQ(after.buffer(), before.buffer());

  // A column equals the one a calculator of the same model derives at
  // tau_max, though the table's matrix has tau_max + 1 levels.
  const Lambda1Calculator calc(MakeModelParams(40, 4, 3), 6);
  const Span<double> column = table.Lambda1Column(40, 3);
  EXPECT_EQ(std::vector<double>(column.begin(), column.end()),
            std::vector<double>(calc.Column(3).begin(), calc.Column(3).end()));
  EXPECT_EQ(table.num_cached_matrices(), 3u);
}

/// The Jeffreys row derived tau-major, taking ln Lambda1 afresh for each
/// neighbour: the reference GedPriorTable::Row must reproduce bit for bit.
/// Its Lambda1 matrix is the production one (lambda1_test pins that matrix
/// to a per-phi reference).
std::vector<double> ReferenceBuildRow(int64_t v, int64_t num_vertex_labels,
                                      int64_t num_edge_labels,
                                      int64_t tau_max) {
  const int64_t tau_hi = tau_max + 1;
  const Lambda1Calculator lambda1(
      MakeModelParams(std::max<int64_t>(v, 1), num_vertex_labels,
                      num_edge_labels),
      tau_hi);
  auto log_at = [&](int64_t tau, int64_t phi) {
    const double p = lambda1.Column(phi)[static_cast<size_t>(tau)];
    return p > 0.0 ? std::log(p) : NegInf();
  };
  std::vector<double> weights(static_cast<size_t>(tau_max + 1), 0.0);
  for (int64_t tau = 0; tau <= tau_max; ++tau) {
    double fisher = 0.0;
    for (int64_t phi = 0; phi <= 2 * tau_hi; ++phi) {
      const double p = lambda1.Column(phi)[static_cast<size_t>(tau)];
      if (p <= 0.0) continue;
      const double here = std::log(p);
      const double left = tau > 0 ? log_at(tau - 1, phi) : NegInf();
      const double right = log_at(tau + 1, phi);
      double z;
      const bool has_left = !std::isinf(left);
      const bool has_right = !std::isinf(right);
      if (has_left && has_right) {
        z = 0.5 * (right - left);
      } else if (has_right) {
        z = right - here;
      } else if (has_left) {
        z = here - left;
      } else {
        continue;
      }
      fisher += p * z * z;
    }
    weights[static_cast<size_t>(tau)] = std::sqrt(std::max(fisher, 0.0));
  }
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    std::fill(weights.begin(), weights.end(),
              1.0 / static_cast<double>(tau_max + 1));
    return weights;
  }
  for (double& w : weights) w /= total;
  return weights;
}

TEST(GedPriorTest, RowsMatchTheReferenceBitForBit) {
  // Includes v = 0 (clamped to 1), v = 1 with one vertex label (a single
  // branch type, so the uniform fallback) and sizes past 2 * tau_max.
  for (int64_t lv : {1, 4, 62}) {
    for (int64_t tau_max : {0, 1, 5, 10}) {
      GedPriorTable table(lv, 3, tau_max);
      for (int64_t v : {0, 1, 2, 7, 23, 95, 1000}) {
        const std::vector<double> want = ReferenceBuildRow(v, lv, 3, tau_max);
        const std::vector<double>& got = table.Row(v);
        ASSERT_EQ(got.size(), want.size());
        for (size_t tau = 0; tau < want.size(); ++tau) {
          EXPECT_EQ(std::memcmp(&got[tau], &want[tau], sizeof(double)), 0)
              << "lv=" << lv << " tau_max=" << tau_max << " v=" << v
              << " tau=" << tau << ": " << got[tau] << " vs " << want[tau];
        }
      }
    }
  }
}

TEST(PosteriorTest, MemoizationKicksIn) {
  Rng rng(15);
  const std::vector<BranchMultiset> branches = MakeBranchSamples(20, 16);
  GbdPriorOptions opts;
  Result<GbdPrior> gbd_prior = FitOver(branches, opts, &rng);
  ASSERT_TRUE(gbd_prior.ok());
  GedPriorTable ged_prior(4, 3, 5);
  PosteriorEngine engine(4, 3, 5, &ged_prior, &*gbd_prior);
  ASSERT_TRUE(engine.Phi(10, 2, 5).ok());
  EXPECT_EQ(engine.memo_hits(), 0u);
  ASSERT_TRUE(engine.Phi(10, 2, 5).ok());
  EXPECT_EQ(engine.memo_hits(), 1u);
}

}  // namespace
}  // namespace gbda
