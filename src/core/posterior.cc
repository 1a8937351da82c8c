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

PhiRow PosteriorEngine::BuildRow(int64_t v, int64_t tau_hat) const {
  const int64_t cap = PhiRow::Cap(v, tau_hat);
  PhiRow row;
  row.phi.resize(static_cast<size_t>(cap + 1));
  // The Lambda3 row is fetched at the first contributing term, so an
  // all-zero Phi row builds no Lambda3 row (those are persisted with the
  // index).
  const std::vector<double>* lambda3 = nullptr;
  for (int64_t phi = 0; phi <= cap; ++phi) {
    const Span<double> lambda1 = ged_prior_->Lambda1Column(v, phi);
    const double lambda2 = gbd_prior_->Probability(phi);
    double total = 0.0;
    for (int64_t tau = 0; tau <= tau_hat; ++tau) {
      const double l1 = lambda1[static_cast<size_t>(tau)];
      if (l1 <= 0.0) continue;
      if (lambda3 == nullptr) lambda3 = &ged_prior_->Row(v);
      total += l1 * (*lambda3)[static_cast<size_t>(tau)] / lambda2;
    }
    row.phi[static_cast<size_t>(phi)] = total;
  }
  row.suffix_max = row.phi;
  for (int64_t phi = cap - 1; phi >= 0; --phi) {
    row.suffix_max[static_cast<size_t>(phi)] =
        std::max(row.suffix_max[static_cast<size_t>(phi)],
                 row.suffix_max[static_cast<size_t>(phi + 1)]);
  }
  return row;
}

Result<const PhiRow*> PosteriorEngine::Row(int64_t v, int64_t tau_hat) {
  if (tau_hat < 0 || tau_hat > tau_max_) {
    return Status::InvalidArgument(
        StrFormat("tau_hat %lld outside the index's [0, %lld] range; rebuild "
                  "the index with a larger tau_max",
                  static_cast<long long>(tau_hat),
                  static_cast<long long>(tau_max_)));
  }
  if (v < 1) return Status::InvalidArgument("extended size v must be >= 1");
  const auto key = std::make_pair(v, tau_hat);
  {
    MutexLock lock(&mutex_);
    auto it = rows_.find(key);
    if (it != rows_.end()) {
      ++memo_hits_;
      return &it->second;
    }
    ++memo_misses_;
  }
  // As GedPriorTable::Row does: build outside the lock and insert if
  // absent; a racing duplicate is identical and dropped.
  PhiRow row = BuildRow(v, tau_hat);
  MutexLock lock(&mutex_);
  return &rows_.emplace(key, std::move(row)).first->second;
}

Result<double> PosteriorEngine::Phi(int64_t v, int64_t phi, int64_t tau_hat) {
  Result<const PhiRow*> row = Row(v, tau_hat);
  if (!row.ok()) return row.status();
  return (*row)->Phi(phi);
}

}  // namespace gbda
