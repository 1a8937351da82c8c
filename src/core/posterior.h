/// \file posterior.h
/// Step 3 of Algorithm 1: the Bayesian accept test. PosteriorEngine
/// combines the conditional Lambda1 = Pr[GBD | GED] (Eq. 8/27), the GMM
/// prior Lambda2 = Pr[GBD] and the Jeffreys prior Lambda3 = Pr[GED] into
/// Phi = Pr[GED <= tau_hat | GBD], the value Step 4 compares against gamma.
/// The Lambda1 matrix and the Lambda3 row of each extended size are
/// memoised once in the shared GedPriorTable and each (v, tau_hat) row of
/// Phi once in the engine, so a database scan derives Lambda1 only for
/// distinct extended sizes, keeping the per-graph online cost at the
/// O(nd + tau_hat^3) of Theorem 3.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/gbd_prior.h"
#include "core/ged_prior.h"

namespace gbda {

/// Every Phi value of one extended size v and one tau_hat. Phi(v, phi,
/// tau_hat) is exactly +0.0 for phi > cap = min(v, 2 * tau_hat): a
/// GED <= tau_hat perturbation touches r <= min(2 * tau_hat, v) branches
/// and Omega3 (a Binomial(r, .) pmf) is identically zero past its support,
/// so every Lambda1 term of the sum is +0.0 there. A row therefore stores
/// phi in [0, cap] only and answers +0.0 past it, with no evaluation.
struct PhiRow {
  /// The last phi at which Phi(v, phi, tau_hat) can be nonzero.
  static int64_t Cap(int64_t v, int64_t tau_hat) {
    return std::min(v, 2 * tau_hat);
  }

  /// phi[p] = Phi(v, p, tau_hat) for p in [0, cap].
  std::vector<double> phi;
  /// suffix_max[p] = max over p' in [p, cap] of phi[p'].
  std::vector<double> suffix_max;

  /// Phi(v, p, tau_hat): +0.0 past the support.
  double Phi(int64_t p) const {
    return p >= 0 && static_cast<size_t>(p) < phi.size()
               ? phi[static_cast<size_t>(p)]
               : 0.0;
  }

  /// The bound pruning's monotone majorant (docs/ARCHITECTURE.md, "Bound
  /// pruning"). Phi is not monotone in phi (the GMM prior Lambda2 in the
  /// denominator can dip), so the sound bound is the suffix maximum: for
  /// ANY achievable phi >= p, Phi(phi) <= UpperBound(p). The entries are
  /// this row's own Phi doubles, so the inequality holds exactly, not just
  /// up to rounding, against the values a scan reads.
  double UpperBound(int64_t p) const {
    if (p < 0) p = 0;
    return static_cast<size_t>(p) < suffix_max.size()
               ? suffix_max[static_cast<size_t>(p)]
               : 0.0;
  }
};

/// Evaluates Step 3 of Algorithm 1:
///   Phi = Pr[GED <= tau_hat | GBD = phi]
///       = sum_{tau=0}^{tau_hat} Lambda1(tau,phi) * Lambda3(tau) / Lambda2(phi).
///
/// Lambda1 columns and Lambda3 rows come from the shared GedPriorTable; the
/// engine stores what depends on Lambda2, one immutable PhiRow per
/// (v, tau_hat), because a database scan evaluates the same sizes and GBD
/// values over and over. A row is built outside the lock and published if
/// absent, so one engine serves every thread of a process. Phi can exceed 1
/// since the GMM prior Lambda2 is not the exact marginal of
/// Lambda1 * Lambda3; the raw value is compared against gamma exactly as
/// the paper does (see docs/ARCHITECTURE.md).
class PosteriorEngine {
 public:
  /// The priors must outlive the engine. `tau_max` bounds the tau_hat values
  /// that can be queried (clamped to the table's). The label counts must be
  /// the table's: it derives Lambda1 for its own label universe.
  PosteriorEngine(int64_t num_vertex_labels, int64_t num_edge_labels,
                  int64_t tau_max, GedPriorTable* ged_prior,
                  const GbdPrior* gbd_prior);

  /// The (v, tau_hat) row, built on first use. The pointer stays valid for
  /// the engine's lifetime. Fails when tau_hat is outside [0, tau_max] or
  /// v < 1. Thread-safe.
  Result<const PhiRow*> Row(int64_t v, int64_t tau_hat);

  /// Phi for extended size v and observed GBD = phi: a read of Row(v,
  /// tau_hat). Fails as Row does.
  Result<double> Phi(int64_t v, int64_t phi, int64_t tau_hat);

  int64_t tau_max() const { return tau_max_; }
  /// Row lookups that found the row, and lookups that built it.
  size_t memo_hits() const GBDA_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return memo_hits_;
  }
  size_t memo_misses() const GBDA_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return memo_misses_;
  }

 private:
  PhiRow BuildRow(int64_t v, int64_t tau_hat) const;

  int64_t tau_max_;
  GedPriorTable* ged_prior_;
  const GbdPrior* gbd_prior_;

  mutable Mutex mutex_;
  /// (v, tau_hat) -> row. Rows are never mutated once inserted, and
  /// std::map does not move its values on insertion, so the pointers Row()
  /// hands out stay valid outside the lock.
  std::map<std::pair<int64_t, int64_t>, PhiRow> rows_ GBDA_GUARDED_BY(mutex_);
  size_t memo_hits_ GBDA_GUARDED_BY(mutex_) = 0;
  size_t memo_misses_ GBDA_GUARDED_BY(mutex_) = 0;
};

}  // namespace gbda
