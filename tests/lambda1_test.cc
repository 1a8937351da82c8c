#include "core/lambda1.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/ged_prior.h"

namespace gbda {
namespace {

/// Lambda1 evaluated one phi at a time, the reference the one-pass matrix
/// must reproduce bit for bit: inner2 re-evaluates every Omega4(x, r, m)
/// and Omega3(r, phi) for each phi.
class ReferenceLambda1 {
 public:
  ReferenceLambda1(const ModelParams& params, int64_t tau_max)
      : params_(params),
        tau_max_(tau_max),
        m_cap_(std::min<int64_t>(2 * tau_max, params.v)),
        omega2_(params.v, tau_max) {
    omega1_.resize(static_cast<size_t>(tau_max + 1));
    for (int64_t tau = 0; tau <= tau_max; ++tau) {
      auto& row = omega1_[static_cast<size_t>(tau)];
      row.resize(static_cast<size_t>(tau + 1), 0.0);
      for (int64_t x = 0; x <= tau; ++x) {
        row[static_cast<size_t>(x)] = Omega1(x, tau, params_);
      }
    }
  }

  std::vector<double> Column(int64_t phi) const {
    std::vector<double> column(static_cast<size_t>(tau_max_ + 1), 0.0);
    if (phi < 0) return column;
    const std::vector<std::vector<double>> inner = Inner2(phi);
    const int64_t x_cap = std::min<int64_t>(tau_max_, params_.v);
    for (int64_t tau = 0; tau <= tau_max_; ++tau) {
      double total = 0.0;
      const auto& o1row = omega1_[static_cast<size_t>(tau)];
      for (int64_t x = 0; x <= std::min(tau, x_cap); ++x) {
        const double o1 = o1row[static_cast<size_t>(x)];
        if (o1 <= 0.0) continue;
        const int64_t y = tau - x;
        const int64_t m_hi = std::min<int64_t>(2 * y, m_cap_);
        double inner_sum = 0.0;
        for (int64_t m = 0; m <= m_hi; ++m) {
          const double o2 = omega2_.At(m, y);
          if (o2 <= 0.0) continue;
          inner_sum += o2 * inner[static_cast<size_t>(x)][static_cast<size_t>(m)];
        }
        total += o1 * inner_sum;
      }
      column[static_cast<size_t>(tau)] = total;
    }
    return column;
  }

 private:
  std::vector<std::vector<double>> Inner2(int64_t phi) const {
    const int64_t x_cap = std::min<int64_t>(tau_max_, params_.v);
    std::vector<std::vector<double>> inner(
        static_cast<size_t>(x_cap + 1),
        std::vector<double>(static_cast<size_t>(m_cap_ + 1), 0.0));
    for (int64_t x = 0; x <= x_cap; ++x) {
      for (int64_t m = 0; m <= m_cap_; ++m) {
        const int64_t r_lo = std::max(x, m);
        const int64_t r_hi = std::min(x + m, params_.v);
        double acc = 0.0;
        for (int64_t r = r_lo; r <= r_hi; ++r) {
          const double o4 = Omega4(x, r, m, params_);
          if (o4 <= 0.0) continue;
          const double o3 = Omega3(r, phi, params_);
          if (o3 <= 0.0) continue;
          acc += o3 * o4;
        }
        inner[static_cast<size_t>(x)][static_cast<size_t>(m)] = acc;
      }
    }
    return inner;
  }

  ModelParams params_;
  int64_t tau_max_;
  int64_t m_cap_;
  Omega2Table omega2_;
  std::vector<std::vector<double>> omega1_;  // [tau][x]
};

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// Fails at the first entry whose bits differ (so +0.0 vs -0.0 fails too).
void ExpectSameBits(Span<double> got, const std::vector<double>& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t tau = 0; tau < want.size(); ++tau) {
    if (Bits(got[tau]) != Bits(want[tau])) {
      ADD_FAILURE() << where << " tau=" << tau << ": " << got[tau]
                    << " != " << want[tau];
      return;
    }
  }
}

TEST(Lambda1Test, OnePassMatrixMatchesThePerPhiReferenceBitForBit) {
  // Every column of the one-pass matrix, and every column a GedPriorTable
  // serves from its per-size matrix at tau_max + 1 levels, against the
  // per-phi reference at tau_max — including phi past the support.
  for (int64_t v : {1, 2, 3, 5, 7, 23, 95, 1000, 100000}) {
    for (int64_t tau_max : {0, 1, 2, 5, 10, 30}) {
      const ModelParams params = MakeModelParams(v, 3, 3);
      const ReferenceLambda1 reference(params, tau_max);
      const Lambda1Calculator calc(params, tau_max);
      GedPriorTable table(3, 3, tau_max);
      for (int64_t phi = -1; phi <= 2 * tau_max + 3; ++phi) {
        const std::vector<double> want = reference.Column(phi);
        const std::string where = "v=" + std::to_string(v) +
                                  " tau_max=" + std::to_string(tau_max) +
                                  " phi=" + std::to_string(phi);
        ExpectSameBits(calc.Column(phi), want, where + " (matrix)");
        ExpectSameBits(table.Lambda1Column(v, phi), want, where + " (table)");
      }
      EXPECT_EQ(table.num_cached_matrices(), 1u);
    }
  }
}

TEST(Lambda1Test, DegenerateBranchUniverseMatchesTheReference) {
  // |L_V| = 1 at v = 1 leaves one branch type (ln D = 0), Omega3's
  // degenerate branch; |L_V| = 62 is a large alphabet.
  for (int64_t lv : {1, 62}) {
    for (int64_t v : {1, 2, 40}) {
      const ModelParams params = MakeModelParams(v, lv, 1);
      const ReferenceLambda1 reference(params, 6);
      const Lambda1Calculator calc(params, 6);
      for (int64_t phi = -1; phi <= 15; ++phi) {
        ExpectSameBits(calc.Column(phi), reference.Column(phi),
                       "lv=" + std::to_string(lv) + " v=" + std::to_string(v) +
                           " phi=" + std::to_string(phi));
      }
    }
  }
}

class Lambda1Normalization
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(Lambda1Normalization, RowsSumToOneOverPhi) {
  const auto [v, lv, tau_max] = GetParam();
  const Lambda1Calculator calc(MakeModelParams(v, lv, 3), tau_max);
  const double max_edits =
      static_cast<double>(v) + static_cast<double>(v) * (v - 1) / 2.0;
  for (int64_t tau = 0; tau <= tau_max; ++tau) {
    if (static_cast<double>(tau) > max_edits) continue;  // impossible GED
    double total = 0.0;
    for (int64_t phi = 0; phi <= 2 * tau_max; ++phi) {
      const double p = calc.Column(phi)[static_cast<size_t>(tau)];
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-8) << "v=" << v << " tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lambda1Normalization,
    ::testing::Values(std::make_tuple(int64_t{3}, int64_t{3}, int64_t{4}),
                      std::make_tuple(int64_t{4}, int64_t{3}, int64_t{6}),
                      std::make_tuple(int64_t{10}, int64_t{5}, int64_t{8}),
                      std::make_tuple(int64_t{50}, int64_t{42}, int64_t{10}),
                      std::make_tuple(int64_t{1000}, int64_t{10}, int64_t{10})));

TEST(Lambda1Test, ReproducesPaperExample7) {
  // Example 7 evaluates Lambda1(Q', G'2; tau, phi=3) for the Figure 1 pair:
  // |V'1| = 4, |L_V| = 3, |L_E| = 3. The paper reports
  //   Lambda1(2, 3) = 0.5113 and Lambda1(3, 3) = 0.5631.
  const Lambda1Calculator calc(MakeModelParams(4, 3, 3), 4);
  const Span<double> col = calc.Column(3);
  EXPECT_EQ(col[0], 0.0);
  EXPECT_EQ(col[1], 0.0);  // one edit cannot change three branches
  EXPECT_NEAR(col[2], 0.5113, 5e-4);
  EXPECT_NEAR(col[3], 0.5631, 5e-4);
}

TEST(Lambda1Test, ZeroEditsMeansZeroGbd) {
  const Lambda1Calculator calc(MakeModelParams(5, 3, 3), 4);
  EXPECT_NEAR(calc.Column(0)[0], 1.0, 1e-12);  // Lambda1(0, 0) = 1
  EXPECT_EQ(calc.Column(1)[0], 0.0);           // Lambda1(0, phi>0) = 0
}

TEST(Lambda1Test, SupportBoundedByTwiceTau) {
  // One edit changes at most two branches: Lambda1(tau, phi) = 0 for
  // phi > 2 tau (the range analysis of Section V-C).
  const Lambda1Calculator calc(MakeModelParams(8, 4, 3), 5);
  for (int64_t tau = 0; tau <= 5; ++tau) {
    for (int64_t phi = 2 * tau + 1; phi <= 10; ++phi) {
      EXPECT_EQ(calc.Column(phi)[static_cast<size_t>(tau)], 0.0)
          << "tau=" << tau << " phi=" << phi;
    }
  }
}

TEST(Lambda1Test, PhiOutsideTheSupportIsZero) {
  const Lambda1Calculator calc(MakeModelParams(5, 3, 3), 3);
  for (int64_t phi : {-2, -1, 7, 8, 1000}) {
    ASSERT_EQ(calc.Column(phi).size(), 4u);
    for (double p : calc.Column(phi)) {
      EXPECT_TRUE(p == 0.0 && !std::signbit(p)) << "phi=" << phi;
    }
  }
}

TEST(Lambda1Test, LargeGedConcentratesOnLargeGbd) {
  // For big graphs, tau random edits almost surely touch 2*tau distinct
  // branches and all change: Lambda1(tau, 2 tau) should dominate.
  const Lambda1Calculator calc(MakeModelParams(100000, 10, 5), 5);
  for (int64_t tau = 1; tau <= 5; ++tau) {
    EXPECT_GT(calc.Column(2 * tau)[static_cast<size_t>(tau)], 0.95)
        << "tau=" << tau;
  }
}

TEST(Lambda1Test, HandlesTinyGraphs) {
  // v = 1: only vertex relabels exist; tau=1 must put all mass on phi=1
  // (the single branch changes — D > 1 for |LV| >= 2).
  const Lambda1Calculator calc(MakeModelParams(1, 5, 3), 2);
  EXPECT_GT(calc.Column(1)[1], 0.5);
  // tau = 2 exceeds the single relabel slot... the extended K1 has one
  // vertex and zero edges, so 2 distinct targets never exist: row is zero.
  double total_tau2 = 0.0;
  for (int64_t phi = 0; phi <= 4; ++phi) total_tau2 += calc.Column(phi)[2];
  EXPECT_NEAR(total_tau2, 0.0, 1e-12);
}

}  // namespace
}  // namespace gbda
