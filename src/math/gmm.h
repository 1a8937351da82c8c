#pragma once

#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace gbda {

/// One Gaussian component of a mixture.
struct GmmComponent {
  double weight = 0.0;
  double mean = 0.0;
  double stddev = 1.0;
};

/// Tuning knobs for GaussianMixture::Fit. The defaults match the paper's
/// offline stage (Section V-B): a small fixed component count and a bounded
/// number of EM iterations.
struct GmmFitOptions {
  int num_components = 3;
  int max_iterations = 200;
  /// EM stops when the per-point log-likelihood improves by less than this.
  double tolerance = 1e-7;
  /// Lower bound applied to component standard deviations to avoid the
  /// classic EM singularity on repeated values. Interpreted as an absolute
  /// floor; GBD samples are integers so 0.25 keeps components meaningful.
  double stddev_floor = 0.25;
  uint64_t seed = 42;
};

/// One-dimensional Gaussian Mixture Model fitted with expectation-maximisation
/// (k-means++ initialisation). Models the prior distribution of GBD values
/// (Lambda2, Section V-B / Figure 5).
class GaussianMixture {
 public:
  /// Fits a mixture to `data`. Fails on empty data, a non-finite sample or
  /// non-positive K. When the data has fewer distinct values than K, surplus
  /// components collapse onto the floor variance and keep near-zero weight,
  /// which is harmless. Each iteration evaluates the E step's log and exps
  /// once per distinct value and component (GBD samples are integers, so a
  /// few dozen values), then sums the log-likelihood and the M step over
  /// the n samples in order: O(n K) additions and O(d K) transcendental
  /// calls for d distinct values.
  static Result<GaussianMixture> Fit(const std::vector<double>& data,
                                     const GmmFitOptions& options);

  /// Constructs a mixture directly from components (weights must sum to ~1).
  /// Fails on a non-finite field, a non-positive stddev, a negative weight
  /// or weights that sum to zero.
  static Result<GaussianMixture> FromComponents(std::vector<GmmComponent> comps);

  double Pdf(double x) const;
  double Cdf(double x) const;

  /// P[lo <= X <= hi] under the mixture — the continuity-corrected mass of
  /// Eq. 14 when called with [phi - 0.5, phi + 0.5].
  double IntervalProbability(double lo, double hi) const;

  const std::vector<GmmComponent>& components() const { return components_; }

  /// Mean per-point log-likelihood achieved by the final EM iterate.
  double log_likelihood() const { return log_likelihood_; }

  int iterations_used() const { return iterations_used_; }

 private:
  std::vector<GmmComponent> components_;
  double log_likelihood_ = 0.0;
  int iterations_used_ = 0;
};

}  // namespace gbda
