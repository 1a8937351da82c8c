/// \file posterior.h
/// Step 3 of Algorithm 1: the Bayesian accept test. PosteriorEngine
/// combines the conditional Lambda1 = Pr[GBD | GED] (Eq. 8/27), the GMM
/// prior Lambda2 = Pr[GBD] and the Jeffreys prior Lambda3 = Pr[GED] into
/// Phi = Pr[GED <= tau_hat | GBD], the value Step 4 compares against gamma.
/// Lambda1 columns and Lambda3 rows are memoised once in the shared
/// GedPriorTable and (v, phi, tau_hat) results in the engine, so a database
/// scan pays O(tau_hat^3) only for distinct extended sizes, keeping the
/// per-graph online cost at the O(nd + tau_hat^3) of Theorem 3.

#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/gbd_prior.h"
#include "core/ged_prior.h"

namespace gbda {

/// Evaluates Step 3 of Algorithm 1:
///   Phi = Pr[GED <= tau_hat | GBD = phi]
///       = sum_{tau=0}^{tau_hat} Lambda1(tau,phi) * Lambda3(tau) / Lambda2(phi).
///
/// Lambda1 columns and Lambda3 rows come from the shared GedPriorTable; the
/// engine memoises only what depends on Lambda2, (v, phi, tau_hat) -> Phi
/// results and suffix-max tables, because a database scan evaluates the
/// same sizes and GBD values over and over. Phi can exceed 1 since the GMM
/// prior Lambda2 is not the exact marginal of Lambda1 * Lambda3; the raw
/// value is compared against gamma exactly as the paper does (see
/// docs/ARCHITECTURE.md).
class PosteriorEngine {
 public:
  /// The priors must outlive the engine. `tau_max` bounds the tau_hat values
  /// that can be queried (clamped to the table's). The label counts must be
  /// the table's: it derives Lambda1 for its own label universe.
  PosteriorEngine(int64_t num_vertex_labels, int64_t num_edge_labels,
                  int64_t tau_max, GedPriorTable* ged_prior,
                  const GbdPrior* gbd_prior);

  /// Phi for extended size v and observed GBD = phi. Fails when
  /// tau_hat > tau_max.
  Result<double> Phi(int64_t v, int64_t phi, int64_t tau_hat);

  /// Monotone pruning hook for bound pruning (docs/ARCHITECTURE.md,
  /// "Serving layer"). Phi is not monotone in phi (the GMM prior Lambda2 in
  /// the denominator can dip), so the sound majorant is the suffix maximum:
  /// returns T with T[p] = max over phi' in [p, cap] of Phi(v, phi', tau_hat),
  /// cap = min(v, 2 * tau_hat). Phi(v, phi', tau_hat) == 0.0 exactly for
  /// phi' > cap — a GED <= tau_hat perturbation touches r <= min(2*tau_hat, v)
  /// branches and Omega3 (a Binomial(r, .) pmf) is identically zero past its
  /// support — so for ANY achievable phi >= p,
  ///   Phi(v, phi, tau_hat) <= (p <= cap ? T[p] : 0.0).
  /// The table entries are this engine's own memoised Phi doubles, so the
  /// inequality holds exactly (not just up to rounding) against the values a
  /// scan computes. Memoised per (v, tau_hat); the (cap + 1)-entry build also
  /// warms the Phi memo, reading one Lambda1 column per phi from the table.
  Result<std::vector<double>> PhiSuffixMax(int64_t v, int64_t tau_hat);

  /// Scalar convenience form: max over phi >= phi_lower of
  /// Phi(v, phi, tau_hat), i.e. PhiSuffixMax clamped to 0 past the support.
  Result<double> PhiUpperBound(int64_t v, int64_t phi_lower, int64_t tau_hat);

  int64_t tau_max() const { return tau_max_; }
  size_t memo_hits() const GBDA_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return memo_hits_;
  }
  size_t memo_misses() const GBDA_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return memo_misses_;
  }

 private:
  /// Phi compute + memo; caller holds mutex_ and has validated (v, tau_hat).
  double PhiLocked(int64_t v, int64_t phi, int64_t tau_hat)
      GBDA_REQUIRES(mutex_);

  int64_t tau_max_;
  GedPriorTable* ged_prior_;
  const GbdPrior* gbd_prior_;

  mutable Mutex mutex_;
  // Key: (v, phi, tau_hat) packed.
  std::map<std::tuple<int64_t, int64_t, int64_t>, double> phi_memo_
      GBDA_GUARDED_BY(mutex_);
  // (v, tau_hat) -> suffix-max table over phi in [0, min(v, 2*tau_hat)].
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> suffix_max_memo_
      GBDA_GUARDED_BY(mutex_);
  size_t memo_hits_ GBDA_GUARDED_BY(mutex_) = 0;
  size_t memo_misses_ GBDA_GUARDED_BY(mutex_) = 0;
};

}  // namespace gbda
