#pragma once

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "core/omega.h"

namespace gbda {

/// Lambda1(tau, phi) = Pr[GBD = phi | GED = tau] (Eq. 8 / 27) for a fixed
/// extended-graph size v and label alphabet: the whole matrix, tau in
/// [0, tau_max] and phi in [0, 2 * tau_max] (one edit changes at most two
/// branches, so every entry past that is +0.0).
///
/// The decomposition follows Section VI-B:
///     Lambda1(tau, phi) = sum_x Omega1(x, tau)
///                           * sum_m Omega2(m, tau - x) * inner2(x, m, phi),
///     inner2(x, m, phi) = sum_r Omega3(r, phi) * Omega4(x, r, m).
/// Neither the Omega2 coverage table nor inner2 depends on tau, and Omega4
/// does not depend on phi, so the constructor derives every entry in one
/// pass over x: each Omega4(x, r, m) and each Omega3(r, phi) is evaluated
/// once, O(tau_max^3) Omega4 terms in all, and the sums take O(tau_max^4)
/// multiply-adds. Working memory and the stored matrix are O(tau_max^2).
class Lambda1Calculator {
 public:
  Lambda1Calculator(const ModelParams& params, int64_t tau_max);

  /// Lambda1(tau, phi) for all tau in [0, tau_max], contiguous and valid for
  /// the calculator's lifetime; all +0.0 for phi outside [0, 2 * tau_max].
  Span<double> Column(int64_t phi) const;

 private:
  int64_t tau_max_;
  /// values_[phi * (tau_max + 1) + tau] for phi in [0, 2 * tau_max + 1]:
  /// column 2 * tau_max + 1 is all +0.0 and stands for every phi past the
  /// support.
  std::vector<double> values_;
};

}  // namespace gbda
