#include "math/gaussian.h"

#include <cmath>

namespace gbda {
namespace {
constexpr double kLogSqrt2Pi = 0.9189385332046727418;  // ln(sqrt(2*pi))
constexpr double kInvSqrt2 = 0.7071067811865475244;
}  // namespace

double NormalLogPdf(double x, double mean, double stddev) {
  return NormalLogPdf(x, mean, stddev, std::log(stddev));
}

double NormalLogPdf(double x, double mean, double stddev, double log_stddev) {
  const double z = (x - mean) / stddev;
  return -0.5 * z * z - log_stddev - kLogSqrt2Pi;
}

double NormalPdf(double x, double mean, double stddev) {
  return std::exp(NormalLogPdf(x, mean, stddev));
}

double NormalCdf(double x, double mean, double stddev) {
  return 0.5 * std::erfc(-(x - mean) / stddev * kInvSqrt2);
}

double NormalIntervalProb(double lo, double hi, double mean, double stddev) {
  if (hi <= lo) return 0.0;
  return NormalCdf(hi, mean, stddev) - NormalCdf(lo, mean, stddev);
}

}  // namespace gbda
