#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/span.h"
#include "math/gmm.h"

namespace gbda {

/// Options for fitting the GBD prior (Section V-B, Step 1.1-1.4).
struct GbdPriorOptions {
  /// Number of graph pairs sampled from the database (the paper's N; it uses
  /// 100,000 — the default here keeps the quick benches fast).
  size_t num_sample_pairs = 20000;
  GmmFitOptions gmm;
  /// Lower bound applied when the fitted density assigns (numerically) zero
  /// mass to a phi value, so the Bayes ratio Lambda3/Lambda2 stays finite.
  double probability_floor = 1e-12;
};

/// The prior distribution of GBD values (Lambda2): a Gaussian Mixture Model
/// fitted on GBDs of sampled database pairs, discretised with the continuity
/// correction of Eq. 14 and tabulated for phi in [0, max |V|].
class GbdPrior {
 public:
  /// Samples pairs, computes their GBDs from the graphs' ascending branch
  /// ids (max(|a|, |b|) - |a ∩ b| on the intersect_count kernel, exact under
  /// one branch dictionary), fits the GMM and tabulates probabilities. Uses
  /// all pairs when the database has fewer than `num_sample_pairs` of them.
  /// Reads the spans only during the call; the same ordered graphs and seed
  /// yield the same prior.
  static Result<GbdPrior> Fit(const std::vector<Span<const uint64_t>>& graphs,
                              const GbdPriorOptions& options, Rng* rng);

  /// Pr[GBD = phi], floored (see GbdPriorOptions::probability_floor).
  double Probability(int64_t phi) const;

  const GaussianMixture& gmm() const { return gmm_; }

  /// Histogram of the sampled GBDs (index = phi) — the blue bars of Fig. 5.
  const std::vector<size_t>& sample_histogram() const { return histogram_; }

  size_t pairs_sampled() const { return pairs_sampled_; }
  size_t table_size() const { return table_.size(); }
  size_t MemoryBytes() const;

  void Serialize(BinaryWriter* writer) const;
  /// Rejects (InvalidArgument) a floor or tabulated probability that is
  /// negative or not finite, which would make every Phi at that GBD NaN.
  static Result<GbdPrior> Deserialize(BinaryReader* reader);

 private:
  GaussianMixture gmm_;
  std::vector<double> table_;
  std::vector<size_t> histogram_;
  size_t pairs_sampled_ = 0;
  double floor_ = 1e-12;
};

}  // namespace gbda
