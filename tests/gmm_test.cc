#include "math/gmm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "math/gaussian.h"
#include "math/log_combinatorics.h"

namespace gbda {
namespace {

/// What an EM fit produced, as the reference reports it.
struct ReferenceFit {
  std::vector<GmmComponent> components;
  double log_likelihood = 0.0;
  int iterations_used = 0;
};

std::vector<double> ReferenceCentres(const std::vector<double>& data, int k,
                                     Rng* rng) {
  std::vector<double> centres;
  centres.reserve(static_cast<size_t>(k));
  centres.push_back(
      data[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(data.size()) - 1))]);
  std::vector<double> d2(data.size());
  while (centres.size() < static_cast<size_t>(k)) {
    for (size_t i = 0; i < data.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (double c : centres) {
        const double d = data[i] - c;
        best = std::min(best, d * d);
      }
      d2[i] = best;
    }
    const size_t pick = rng->WeightedIndex(d2);
    if (pick >= data.size()) {
      centres.push_back(centres.back());
    } else {
      centres.push_back(data[pick]);
    }
  }
  return centres;
}

/// EM with a per-sample E step, the reference GaussianMixture::Fit must
/// reproduce bit for bit: it takes a log and two exps per sample and
/// component in every iteration.
ReferenceFit ReferenceEm(const std::vector<double>& data,
                         const GmmFitOptions& options) {
  const int k = options.num_components;
  const size_t n = data.size();

  double mean = 0.0;
  for (double x : data) mean += x;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double x : data) var += (x - mean) * (x - mean);
  var /= static_cast<double>(n);
  const double global_sd =
      std::max(std::sqrt(var), options.stddev_floor);

  Rng rng(options.seed);
  ReferenceFit model;
  model.components.resize(static_cast<size_t>(k));
  const std::vector<double> centres = ReferenceCentres(data, k, &rng);
  for (int c = 0; c < k; ++c) {
    model.components[static_cast<size_t>(c)] = {1.0 / k, centres[static_cast<size_t>(c)],
                                                global_sd};
  }

  std::vector<double> resp(n * static_cast<size_t>(k));
  double prev_ll = -std::numeric_limits<double>::infinity();
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    double ll = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double max_log = -std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const GmmComponent& gc = model.components[static_cast<size_t>(c)];
        const double lw = gc.weight > 0.0 ? std::log(gc.weight) : NegInf();
        const double lp = lw + NormalLogPdf(data[i], gc.mean, gc.stddev);
        resp[i * static_cast<size_t>(k) + static_cast<size_t>(c)] = lp;
        max_log = std::max(max_log, lp);
      }
      double denom = 0.0;
      for (int c = 0; c < k; ++c) {
        denom += std::exp(resp[i * static_cast<size_t>(k) + static_cast<size_t>(c)] - max_log);
      }
      const double log_denom = max_log + std::log(denom);
      ll += log_denom;
      for (int c = 0; c < k; ++c) {
        double& r = resp[i * static_cast<size_t>(k) + static_cast<size_t>(c)];
        r = std::exp(r - log_denom);
      }
    }
    ll /= static_cast<double>(n);

    for (int c = 0; c < k; ++c) {
      double nk = 0.0, mu = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double r = resp[i * static_cast<size_t>(k) + static_cast<size_t>(c)];
        nk += r;
        mu += r * data[i];
      }
      GmmComponent& gc = model.components[static_cast<size_t>(c)];
      if (nk < 1e-12) {
        gc = {0.0, mean, global_sd};
        continue;
      }
      mu /= nk;
      double s2 = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double r = resp[i * static_cast<size_t>(k) + static_cast<size_t>(c)];
        s2 += r * (data[i] - mu) * (data[i] - mu);
      }
      s2 /= nk;
      gc.weight = nk / static_cast<double>(n);
      gc.mean = mu;
      gc.stddev = std::max(std::sqrt(s2), options.stddev_floor);
    }

    if (ll - prev_ll < options.tolerance && iter > 0) {
      prev_ll = ll;
      ++iter;
      break;
    }
    prev_ll = ll;
  }
  model.log_likelihood = prev_ll;
  model.iterations_used = iter;

  double wsum = 0.0;
  for (const auto& gc : model.components) wsum += gc.weight;
  for (auto& gc : model.components) gc.weight /= wsum;
  return model;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectMatchesReference(const std::vector<double>& data, int k,
                            const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(data.size()) +
               " K=" + std::to_string(k));
  GmmFitOptions opts;
  opts.num_components = k;
  const ReferenceFit want = ReferenceEm(data, opts);
  Result<GaussianMixture> got = GaussianMixture::Fit(data, opts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->components().size(), want.components.size());
  for (size_t c = 0; c < want.components.size(); ++c) {
    const GmmComponent& g = got->components()[c];
    const GmmComponent& w = want.components[c];
    EXPECT_TRUE(SameBits(g.weight, w.weight)) << "c=" << c << " weight";
    EXPECT_TRUE(SameBits(g.mean, w.mean)) << "c=" << c << " mean";
    EXPECT_TRUE(SameBits(g.stddev, w.stddev)) << "c=" << c << " stddev";
  }
  EXPECT_TRUE(SameBits(got->log_likelihood(), want.log_likelihood));
  EXPECT_EQ(got->iterations_used(), want.iterations_used);
}

/// Integer samples shaped like sampled pair GBDs: a few rounded, clipped
/// modes over [0, ~90].
std::vector<double> GbdLikeSamples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    const double x = u < 0.5   ? rng.Gaussian(18.0, 6.0)
                     : u < 0.8 ? rng.Gaussian(35.0, 9.0)
                               : rng.Gaussian(60.0, 12.0);
    data.push_back(std::clamp(std::round(x), 0.0, 94.0));
  }
  return data;
}

TEST(GmmTest, FitMatchesThePerSampleReferenceBitForBit) {
  for (int k : {1, 3, 5}) {
    ExpectMatchesReference(GbdLikeSamples(2000, 21), k, "gbd-like");
  }
  ExpectMatchesReference(GbdLikeSamples(20000, 22), 3, "gbd-like");

  // Heavy ties: nine samples in ten share one value.
  Rng rng(23);
  std::vector<double> ties;
  for (int i = 0; i < 3000; ++i) {
    ties.push_back(i % 10 != 0 ? 7.0
                               : static_cast<double>(rng.UniformInt(0, 40)));
  }
  // All distinct: continuous samples.
  std::vector<double> continuous;
  for (int i = 0; i < 1500; ++i) {
    continuous.push_back(rng.Bernoulli(0.5) ? rng.Gaussian(5.0, 2.0)
                                            : rng.Gaussian(20.0, 3.0));
  }
  for (int k : {1, 3, 5}) {
    ExpectMatchesReference(ties, k, "ties");
    ExpectMatchesReference(continuous, k, "continuous");
    // One distinct value, alone and repeated.
    ExpectMatchesReference({12.0}, k, "one value");
    ExpectMatchesReference(std::vector<double>(500, 12.0), k, "one value");
  }
  // Fewer distinct values than components.
  std::vector<double> two_values;
  for (int i = 0; i < 400; ++i) two_values.push_back(i % 3 == 0 ? 2.0 : 9.0);
  ExpectMatchesReference(two_values, 3, "two values");
  ExpectMatchesReference(two_values, 5, "two values");
  // -0.0 and +0.0 share one value's E step.
  std::vector<double> signed_zeros;
  for (int i = 0; i < 300; ++i) {
    const double cycle[] = {0.0, -0.0, 1.0, -0.0, 2.0, -1.0};
    signed_zeros.push_back(cycle[i % 6]);
  }
  ExpectMatchesReference(signed_zeros, 3, "signed zeros");
}

TEST(GmmTest, FitRejectsNonFiniteSamples) {
  GmmFitOptions opts;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Result<GaussianMixture> gmm =
        GaussianMixture::Fit({1, 2, 3, bad, 5, 6, 7, 8}, opts);
    ASSERT_FALSE(gmm.ok()) << "sample " << bad;
    EXPECT_EQ(gmm.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GmmTest, FromComponentsRejectsNonFiniteFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const GmmComponent& bad :
       {GmmComponent{nan, 0.0, 1.0}, GmmComponent{inf, 0.0, 1.0},
        GmmComponent{0.5, nan, 1.0}, GmmComponent{0.5, inf, 1.0},
        GmmComponent{0.5, -inf, 1.0}, GmmComponent{0.5, 0.0, nan},
        GmmComponent{0.5, 0.0, inf}}) {
    Result<GaussianMixture> gmm =
        GaussianMixture::FromComponents({{0.5, 1.0, 1.0}, bad});
    ASSERT_FALSE(gmm.ok()) << bad.weight << " " << bad.mean << " "
                           << bad.stddev;
    EXPECT_EQ(gmm.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GmmTest, FitFailsOnEmptyData) {
  GmmFitOptions opts;
  EXPECT_FALSE(GaussianMixture::Fit({}, opts).ok());
}

TEST(GmmTest, FitFailsOnNonPositiveK) {
  GmmFitOptions opts;
  opts.num_components = 0;
  EXPECT_FALSE(GaussianMixture::Fit({1.0, 2.0}, opts).ok());
}

TEST(GmmTest, RecoversSingleGaussian) {
  Rng rng(5);
  std::vector<double> data;
  for (int i = 0; i < 20000; ++i) data.push_back(rng.Gaussian(4.0, 1.5));
  GmmFitOptions opts;
  opts.num_components = 1;
  Result<GaussianMixture> gmm = GaussianMixture::Fit(data, opts);
  ASSERT_TRUE(gmm.ok()) << gmm.status().ToString();
  ASSERT_EQ(gmm->components().size(), 1u);
  EXPECT_NEAR(gmm->components()[0].mean, 4.0, 0.05);
  EXPECT_NEAR(gmm->components()[0].stddev, 1.5, 0.05);
  EXPECT_NEAR(gmm->components()[0].weight, 1.0, 1e-9);
}

TEST(GmmTest, SeparatesTwoModes) {
  Rng rng(7);
  std::vector<double> data;
  for (int i = 0; i < 10000; ++i) data.push_back(rng.Gaussian(0.0, 1.0));
  for (int i = 0; i < 10000; ++i) data.push_back(rng.Gaussian(20.0, 1.0));
  GmmFitOptions opts;
  opts.num_components = 2;
  Result<GaussianMixture> gmm = GaussianMixture::Fit(data, opts);
  ASSERT_TRUE(gmm.ok());
  double lo = 1e9, hi = -1e9;
  for (const GmmComponent& c : gmm->components()) {
    lo = std::min(lo, c.mean);
    hi = std::max(hi, c.mean);
    EXPECT_NEAR(c.weight, 0.5, 0.05);
  }
  EXPECT_NEAR(lo, 0.0, 0.2);
  EXPECT_NEAR(hi, 20.0, 0.2);
}

TEST(GmmTest, WeightsSumToOne) {
  Rng rng(11);
  std::vector<double> data;
  for (int i = 0; i < 3000; ++i) data.push_back(rng.Gaussian(5.0, 2.0));
  GmmFitOptions opts;
  opts.num_components = 3;
  Result<GaussianMixture> gmm = GaussianMixture::Fit(data, opts);
  ASSERT_TRUE(gmm.ok());
  double total = 0.0;
  for (const GmmComponent& c : gmm->components()) total += c.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GmmTest, DegenerateRepeatedDataRespectsVarianceFloor) {
  std::vector<double> data(500, 3.0);
  GmmFitOptions opts;
  opts.num_components = 2;
  Result<GaussianMixture> gmm = GaussianMixture::Fit(data, opts);
  ASSERT_TRUE(gmm.ok());
  for (const GmmComponent& c : gmm->components()) {
    EXPECT_GE(c.stddev, opts.stddev_floor);
  }
  // Mass should concentrate at 3.
  EXPECT_GT(gmm->IntervalProbability(2.0, 4.0), 0.9);
}

TEST(GmmTest, PdfIntegratesToOneNumerically) {
  Result<GaussianMixture> gmm = GaussianMixture::FromComponents(
      {{0.4, 0.0, 1.0}, {0.6, 5.0, 2.0}});
  ASSERT_TRUE(gmm.ok());
  double integral = 0.0;
  const double step = 0.01;
  for (double x = -20.0; x < 30.0; x += step) integral += gmm->Pdf(x) * step;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(GmmTest, CdfAndIntervalConsistent) {
  Result<GaussianMixture> gmm = GaussianMixture::FromComponents(
      {{0.5, 1.0, 1.0}, {0.5, 8.0, 1.5}});
  ASSERT_TRUE(gmm.ok());
  EXPECT_NEAR(gmm->IntervalProbability(0.0, 10.0),
              gmm->Cdf(10.0) - gmm->Cdf(0.0), 1e-12);
  EXPECT_EQ(gmm->IntervalProbability(5.0, 5.0), 0.0);
  EXPECT_EQ(gmm->IntervalProbability(6.0, 5.0), 0.0);
}

TEST(GmmTest, FromComponentsValidation) {
  EXPECT_FALSE(GaussianMixture::FromComponents({}).ok());
  EXPECT_FALSE(GaussianMixture::FromComponents({{1.0, 0.0, 0.0}}).ok());
  EXPECT_FALSE(GaussianMixture::FromComponents({{-1.0, 0.0, 1.0}}).ok());
  EXPECT_FALSE(GaussianMixture::FromComponents({{0.0, 0.0, 1.0}}).ok());
  // Weights are renormalised.
  Result<GaussianMixture> gmm =
      GaussianMixture::FromComponents({{2.0, 0.0, 1.0}, {2.0, 1.0, 1.0}});
  ASSERT_TRUE(gmm.ok());
  EXPECT_NEAR(gmm->components()[0].weight, 0.5, 1e-12);
}

TEST(GmmTest, DeterministicForFixedSeed) {
  Rng rng(13);
  std::vector<double> data;
  for (int i = 0; i < 2000; ++i) data.push_back(rng.Gaussian(2.0, 1.0));
  GmmFitOptions opts;
  opts.num_components = 2;
  Result<GaussianMixture> a = GaussianMixture::Fit(data, opts);
  Result<GaussianMixture> b = GaussianMixture::Fit(data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->components().size(); ++i) {
    EXPECT_DOUBLE_EQ(a->components()[i].mean, b->components()[i].mean);
    EXPECT_DOUBLE_EQ(a->components()[i].stddev, b->components()[i].stddev);
  }
}

}  // namespace
}  // namespace gbda
