#include "math/gmm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "math/gaussian.h"
#include "math/log_combinatorics.h"

namespace gbda {
namespace {

/// k-means++ seeding: first centre uniform, later centres proportional to the
/// squared distance to the nearest chosen centre.
std::vector<double> KMeansPlusPlusCentres(const std::vector<double>& data,
                                          int k, Rng* rng) {
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
      // All points coincide with existing centres; duplicate one.
      centres.push_back(centres.back());
    } else {
      centres.push_back(data[pick]);
    }
  }
  return centres;
}

}  // namespace

Result<GaussianMixture> GaussianMixture::Fit(const std::vector<double>& data,
                                             const GmmFitOptions& options) {
  if (data.empty()) return Status::InvalidArgument("GMM fit: empty data");
  if (options.num_components <= 0) {
    return Status::InvalidArgument("GMM fit: num_components must be positive");
  }
  for (double x : data) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("GMM fit: non-finite sample");
    }
  }
  const size_t k = static_cast<size_t>(options.num_components);
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
  GaussianMixture model;
  model.components_.resize(k);
  const std::vector<double> centres =
      KMeansPlusPlusCentres(data, options.num_components, &rng);
  for (size_t c = 0; c < k; ++c) {
    model.components_[c] = {1.0 / options.num_components, centres[c],
                            global_sd};
  }

  // A sample's responsibilities and log-normaliser depend only on its
  // value, and GBD samples repeat a few dozen integers, so the E step runs
  // once per distinct value: values[slot[i]] == data[i]. Values keep their
  // first-occurrence order, so all-distinct data reads `resp` in sequence.
  std::vector<double> values;
  std::vector<size_t> slot(n);
  {
    // Open addressing on the bit pattern (Fibonacci hashing), at most half
    // full. Samples are finite and x + 0.0 folds -0.0 into +0.0, so equal
    // values hash alike (and give the same E step).
    constexpr size_t kEmpty = std::numeric_limits<size_t>::max();
    size_t capacity = 2;
    int shift = 63;
    while (capacity < 2 * n) {
      capacity <<= 1;
      --shift;
    }
    std::vector<size_t> table(capacity, kEmpty);
    for (size_t i = 0; i < n; ++i) {
      const double x = data[i] + 0.0;
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof bits);
      size_t h = static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >> shift);
      while (table[h] != kEmpty && values[table[h]] != x) {
        h = (h + 1) & (capacity - 1);
      }
      if (table[h] == kEmpty) {
        table[h] = values.size();
        values.push_back(x);
      }
      slot[i] = table[h];
    }
  }
  std::vector<double> resp(values.size() * k);  // [value][component]
  std::vector<double> log_norm(values.size());
  std::vector<double> log_weight(k), log_stddev(k);

  double prev_ll = -std::numeric_limits<double>::infinity();
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // E step: responsibilities via log-sum-exp.
    for (size_t c = 0; c < k; ++c) {
      const GmmComponent& gc = model.components_[c];
      log_weight[c] = gc.weight > 0.0 ? std::log(gc.weight) : NegInf();
      log_stddev[c] = std::log(gc.stddev);
    }
    for (size_t d = 0; d < values.size(); ++d) {
      double* r = &resp[d * k];
      double max_log = -std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const GmmComponent& gc = model.components_[c];
        r[c] = log_weight[c] + NormalLogPdf(values[d], gc.mean, gc.stddev,
                                            log_stddev[c]);
        max_log = std::max(max_log, r[c]);
      }
      double denom = 0.0;
      for (size_t c = 0; c < k; ++c) denom += std::exp(r[c] - max_log);
      log_norm[d] = max_log + std::log(denom);
      for (size_t c = 0; c < k; ++c) r[c] = std::exp(r[c] - log_norm[d]);
    }
    // The log-likelihood and the M step sum over the samples in their
    // original order, so every double is the per-sample EM's.
    double ll = 0.0;
    for (size_t i = 0; i < n; ++i) ll += log_norm[slot[i]];
    ll /= static_cast<double>(n);

    // M step.
    for (size_t c = 0; c < k; ++c) {
      double nk = 0.0, mu = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double r = resp[slot[i] * k + c];
        nk += r;
        mu += r * data[i];
      }
      GmmComponent& gc = model.components_[c];
      if (nk < 1e-12) {
        // Dead component: park it at the global statistics with zero weight.
        gc = {0.0, mean, global_sd};
        continue;
      }
      mu /= nk;
      double s2 = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double r = resp[slot[i] * k + c];
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
  model.log_likelihood_ = prev_ll;
  model.iterations_used_ = iter;

  // Renormalise weights against accumulated floating-point drift.
  double wsum = 0.0;
  for (const auto& gc : model.components_) wsum += gc.weight;
  if (wsum <= 0.0) return Status::Internal("GMM fit: all components died");
  for (auto& gc : model.components_) gc.weight /= wsum;
  return model;
}

Result<GaussianMixture> GaussianMixture::FromComponents(
    std::vector<GmmComponent> comps) {
  if (comps.empty()) {
    return Status::InvalidArgument("GMM: component list is empty");
  }
  double wsum = 0.0;
  for (const auto& c : comps) {
    // NaN fails every comparison, so it is rejected by name.
    if (!std::isfinite(c.weight) || !std::isfinite(c.mean) ||
        !std::isfinite(c.stddev)) {
      return Status::InvalidArgument("GMM: component fields must be finite");
    }
    if (c.stddev <= 0.0) {
      return Status::InvalidArgument("GMM: component stddev must be positive");
    }
    if (c.weight < 0.0) {
      return Status::InvalidArgument("GMM: component weight must be non-negative");
    }
    wsum += c.weight;
  }
  if (wsum <= 0.0) {
    return Status::InvalidArgument("GMM: weights sum to zero");
  }
  for (auto& c : comps) c.weight /= wsum;
  GaussianMixture model;
  model.components_ = std::move(comps);
  return model;
}

double GaussianMixture::Pdf(double x) const {
  double p = 0.0;
  for (const auto& c : components_) {
    if (c.weight > 0.0) p += c.weight * NormalPdf(x, c.mean, c.stddev);
  }
  return p;
}

double GaussianMixture::Cdf(double x) const {
  double p = 0.0;
  for (const auto& c : components_) {
    if (c.weight > 0.0) p += c.weight * NormalCdf(x, c.mean, c.stddev);
  }
  return p;
}

double GaussianMixture::IntervalProbability(double lo, double hi) const {
  if (hi <= lo) return 0.0;
  double p = 0.0;
  for (const auto& c : components_) {
    if (c.weight > 0.0) {
      p += c.weight * NormalIntervalProb(lo, hi, c.mean, c.stddev);
    }
  }
  return p;
}

}  // namespace gbda
