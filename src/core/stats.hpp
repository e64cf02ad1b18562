// Small statistics toolkit: summary statistics, percentiles, least-squares
// fitting, and the normal / Student-t critical values.
//
// Used by the device-characterisation experiments (fitting drift exponents
// from simulated conductance measurements, Sec. IV), by benches that
// report measured distributions, and by the sequential early-stopping
// controller (core/sampling.hpp) that turns fixed Monte-Carlo budgets into
// CI-driven stopping rules.
#pragma once

#include <cstddef>
#include <span>

namespace icsc::core {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population
  double min = 0.0;
  double max = 0.0;
};

Summary summarize(std::span<const double> values);

/// p-th percentile, p in [0, 100], linear interpolation between order
/// statistics (p=50 is the median, p=100 the max). A single sample is
/// every percentile of itself. Throws core::Error on an empty input or
/// p outside [0, 100] -- there is no meaningful value to return.
double percentile(std::span<const double> values, double p);

/// Two-sided critical value of the standard normal: the z with
/// P(-z <= N(0,1) <= z) = confidence. Throws core::Error unless
/// confidence is in (0, 1).
double normal_critical(double confidence);

/// Two-sided critical value of Student's t with `df` degrees of freedom.
/// Exact table entries cover the standard confidences (0.90 / 0.95 /
/// 0.99) up to df = 30; everything else inverts the t CDF via the
/// regularized incomplete beta function. Converges to normal_critical as
/// df grows. Throws core::Error on df < 1 or confidence outside (0, 1).
double student_t_critical(double df, double confidence);

/// Ordinary least squares y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Throws core::Error when x and y differ in length (previously an
/// NDEBUG-vanishing assert).
LinearFit fit_linear(std::span<const double> x, std::span<const double> y);

}  // namespace icsc::core
