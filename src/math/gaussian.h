#pragma once

namespace gbda {

/// Probability density of N(mean, stddev^2) at x. stddev must be positive.
double NormalPdf(double x, double mean, double stddev);

/// Log-density of N(mean, stddev^2) at x.
double NormalLogPdf(double x, double mean, double stddev);

/// The same double, with log_stddev = std::log(stddev) supplied by a caller
/// that evaluates many points of one component.
double NormalLogPdf(double x, double mean, double stddev, double log_stddev);

/// Cumulative distribution of N(mean, stddev^2) at x (erf-based).
double NormalCdf(double x, double mean, double stddev);

/// P[lo <= X <= hi] for X ~ N(mean, stddev^2). Used for the continuity
/// correction of Eq. 14 with [phi - 0.5, phi + 0.5].
double NormalIntervalProb(double lo, double hi, double mean, double stddev);

}  // namespace gbda
