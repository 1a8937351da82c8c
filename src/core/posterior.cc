#include "core/posterior.h"

#include <algorithm>

#include "common/string_util.h"

namespace gbda {

PosteriorEngine::PosteriorEngine(int64_t /*num_vertex_labels*/,
                                 int64_t /*num_edge_labels*/, int64_t tau_max,
                                 GedPriorTable* ged_prior,
                                 const GbdPrior* gbd_prior)
    : tau_max_(std::min(tau_max, ged_prior->tau_max())),
      ged_prior_(ged_prior),
      gbd_prior_(gbd_prior) {}

double PosteriorEngine::PhiLocked(int64_t v, int64_t phi, int64_t tau_hat) {
  const auto key = std::make_tuple(v, phi, tau_hat);
  auto memo_it = phi_memo_.find(key);
  if (memo_it != phi_memo_.end()) {
    ++memo_hits_;
    return memo_it->second;
  }
  ++memo_misses_;

  const std::vector<double>& lambda1 = ged_prior_->Lambda1Column(v, phi);
  const double lambda2 = gbd_prior_->Probability(phi);
  // The Lambda3 row is fetched at the first contributing term, so an
  // all-zero column builds no row (rows are persisted with the index).
  const std::vector<double>* lambda3 = nullptr;
  double total = 0.0;
  for (int64_t tau = 0; tau <= tau_hat; ++tau) {
    const double l1 = lambda1[static_cast<size_t>(tau)];
    if (l1 <= 0.0) continue;
    if (lambda3 == nullptr) lambda3 = &ged_prior_->Row(v);
    total += l1 * (*lambda3)[static_cast<size_t>(tau)] / lambda2;
  }
  phi_memo_.emplace(key, total);
  return total;
}

namespace {

Status ValidatePhiArgs(int64_t v, int64_t tau_hat, int64_t tau_max) {
  if (tau_hat < 0 || tau_hat > tau_max) {
    return Status::InvalidArgument(
        StrFormat("tau_hat %lld outside the index's [0, %lld] range; rebuild "
                  "the index with a larger tau_max",
                  static_cast<long long>(tau_hat),
                  static_cast<long long>(tau_max)));
  }
  if (v < 1) return Status::InvalidArgument("extended size v must be >= 1");
  return Status::OK();
}

}  // namespace

Result<double> PosteriorEngine::Phi(int64_t v, int64_t phi, int64_t tau_hat) {
  Status valid = ValidatePhiArgs(v, tau_hat, tau_max_);
  if (!valid.ok()) return valid;
  MutexLock lock(&mutex_);
  return PhiLocked(v, phi, tau_hat);
}

Result<std::vector<double>> PosteriorEngine::PhiSuffixMax(int64_t v,
                                                          int64_t tau_hat) {
  Status valid = ValidatePhiArgs(v, tau_hat, tau_max_);
  if (!valid.ok()) return valid;
  MutexLock lock(&mutex_);
  const auto key = std::make_pair(v, tau_hat);
  auto it = suffix_max_memo_.find(key);
  if (it == suffix_max_memo_.end()) {
    // Phi's support in phi ends at cap (see the header comment): Omega3 is a
    // Binomial(r, .) pmf with r <= min(2 * tau_hat, v), identically zero past
    // its support, so every Phi beyond cap is exactly 0.0.
    const int64_t cap = std::min<int64_t>(v, 2 * tau_hat);
    std::vector<double> table(static_cast<size_t>(cap + 1), 0.0);
    for (int64_t phi = 0; phi <= cap; ++phi) {
      table[static_cast<size_t>(phi)] = PhiLocked(v, phi, tau_hat);
    }
    for (int64_t phi = cap - 1; phi >= 0; --phi) {
      table[static_cast<size_t>(phi)] = std::max(
          table[static_cast<size_t>(phi)], table[static_cast<size_t>(phi + 1)]);
    }
    it = suffix_max_memo_.emplace(key, std::move(table)).first;
  }
  return it->second;
}

Result<double> PosteriorEngine::PhiUpperBound(int64_t v, int64_t phi_lower,
                                              int64_t tau_hat) {
  Result<std::vector<double>> table = PhiSuffixMax(v, tau_hat);
  if (!table.ok()) return table.status();
  if (phi_lower < 0) phi_lower = 0;
  if (static_cast<size_t>(phi_lower) >= table->size()) return 0.0;
  return (*table)[static_cast<size_t>(phi_lower)];
}

}  // namespace gbda
