#pragma once

#include <cstdint>
#include <vector>

#include "core/omega.h"

namespace gbda {

/// Computes Lambda1(tau, phi) = Pr[GBD = phi | GED = tau] (Eq. 8 / 27) for a
/// fixed extended-graph size v and label alphabet.
///
/// The decomposition follows Section VI-B: the Omega2 coverage table and the
/// inner sum
///     inner2(x, m, phi) = sum_r Omega3(r, phi) * Omega4(x, r, m)
/// do not depend on tau, so one pass produces Lambda1 for *every* tau in
/// [0, tau_max] at a given phi in O(tau_max^3) — the complexity claimed by
/// Theorem 3 for the online stage.
class Lambda1Calculator {
 public:
  /// Shared tables cost O(tau_max^2) time and memory.
  Lambda1Calculator(const ModelParams& params, int64_t tau_max);

  /// Lambda1(tau, phi) for all tau in [0, tau_max]; O(tau_max^3).
  std::vector<double> Column(int64_t phi) const;

  /// Full matrix[tau][phi], phi in [0, 2*tau_max]; O(tau_max^4). Used by the
  /// offline Jeffreys-prior construction (Section V-C).
  std::vector<std::vector<double>> Matrix() const;

 private:
  /// inner2 for one phi, indexed [x][m].
  std::vector<std::vector<double>> Inner2(int64_t phi) const;

  ModelParams params_;
  int64_t tau_max_;
  int64_t m_cap_;  // min(2*tau_max, v): max vertices coverable by edges
  Omega2Table omega2_;
  std::vector<std::vector<double>> omega1_;  // [tau][x]
};

}  // namespace gbda
