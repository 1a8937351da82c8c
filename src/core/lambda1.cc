#include "core/lambda1.h"

#include <algorithm>

namespace gbda {

Lambda1Calculator::Lambda1Calculator(const ModelParams& params, int64_t tau_max)
    : tau_max_(tau_max),
      values_(static_cast<size_t>((2 * tau_max + 2) * (tau_max + 1)), 0.0) {
  const int64_t v = params.v;
  const size_t width = static_cast<size_t>(2 * tau_max + 1);  // phi values
  const size_t height = static_cast<size_t>(tau_max + 1);     // tau values
  const int64_t x_cap = std::min<int64_t>(tau_max, v);
  const int64_t m_cap = std::min<int64_t>(2 * tau_max, v);
  const Omega2Table omega2(v, tau_max);

  // Every term below has r <= x + m <= 2 * tau_max, so phi <= r stays in
  // the matrix; omega3[r][phi] is +0.0 for phi > r, as Omega3 is.
  const int64_t r_cap = std::min<int64_t>(2 * tau_max, v);
  std::vector<double> omega3(static_cast<size_t>(r_cap + 1) * width, 0.0);
  for (int64_t r = 0; r <= r_cap; ++r) {
    for (int64_t phi = 0; phi <= r; ++phi) {
      omega3[static_cast<size_t>(r) * width + static_cast<size_t>(phi)] =
          Omega3(r, phi, params);
    }
  }

  std::vector<double> inner(static_cast<size_t>(m_cap + 1) * width);  // [m][phi]
  std::vector<double> omega4;
  std::vector<double> inner_sum(width);
  // x ascending: each entry accumulates its x terms in the order of the
  // per-column sum, starting from +0.0.
  for (int64_t x = 0; x <= x_cap; ++x) {
    // inner2(x, m, .) for the m that some tau <= tau_max reads: m <= 2y
    // with y = tau - x. R = x + m - t with overlap t in the hypergeometric
    // support.
    const int64_t m_top = std::min<int64_t>(2 * (tau_max - x), m_cap);
    for (int64_t m = 0; m <= m_top; ++m) {
      const int64_t r_lo = std::max(x, m);
      const int64_t r_hi = std::min(x + m, v);
      omega4.clear();
      for (int64_t r = r_lo; r <= r_hi; ++r) {
        omega4.push_back(Omega4(x, r, m, params));
      }
      double* row = &inner[static_cast<size_t>(m) * width];
      for (size_t phi = 0; phi < width; ++phi) {
        double acc = 0.0;
        for (int64_t r = r_lo; r <= r_hi; ++r) {
          const double o4 = omega4[static_cast<size_t>(r - r_lo)];
          if (o4 <= 0.0) continue;
          const double o3 = omega3[static_cast<size_t>(r) * width + phi];
          if (o3 <= 0.0) continue;
          acc += o3 * o4;
        }
        row[phi] = acc;
      }
    }
    for (int64_t tau = x; tau <= tau_max; ++tau) {
      const double o1 = Omega1(x, tau, params);
      if (o1 <= 0.0) continue;
      const int64_t y = tau - x;
      const int64_t m_hi = std::min<int64_t>(2 * y, m_cap);
      std::fill(inner_sum.begin(), inner_sum.end(), 0.0);
      for (int64_t m = 0; m <= m_hi; ++m) {
        const double o2 = omega2.At(m, y);
        if (o2 <= 0.0) continue;
        const double* row = &inner[static_cast<size_t>(m) * width];
        for (size_t phi = 0; phi < width; ++phi) inner_sum[phi] += o2 * row[phi];
      }
      for (size_t phi = 0; phi < width; ++phi) {
        values_[phi * height + static_cast<size_t>(tau)] += o1 * inner_sum[phi];
      }
    }
  }
}

Span<double> Lambda1Calculator::Column(int64_t phi) const {
  if (phi < 0 || phi > 2 * tau_max_) phi = 2 * tau_max_ + 1;
  const size_t height = static_cast<size_t>(tau_max_ + 1);
  return Span<double>(values_.data() + static_cast<size_t>(phi) * height,
                      height);
}

}  // namespace gbda
