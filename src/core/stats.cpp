#include "core/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace icsc::core {

namespace {

void check_confidence(const char* where, double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw Error(where, "confidence must be in (0, 1)",
                "got " + std::to_string(confidence));
  }
}

void check_same_length(const char* where, std::size_t nx, std::size_t ny) {
  if (nx != ny) {
    throw Error(where, "x and y must have the same length",
                std::to_string(nx) + " vs " + std::to_string(ny));
  }
}

/// Acklam's rational approximation to the inverse standard-normal CDF
/// (relative error < 1.15e-9 over the full open interval).
double inverse_normal_cdf(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

/// Continued-fraction evaluation of the regularized incomplete beta
/// function I_x(a, b) (Lentz's method, Numerical-Recipes style).
double incomplete_beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-16;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * incomplete_beta_cf(a, b, x) / a;
  }
  return 1.0 - front * incomplete_beta_cf(b, a, 1.0 - x) / b;
}

/// P(|T_df| <= t): two-sided Student-t CDF mass inside [-t, t].
double student_t_two_sided(double df, double t) {
  if (t <= 0.0) return 0.0;
  const double x = df / (df + t * t);
  return 1.0 - incomplete_beta(0.5 * df, 0.5, x);
}

/// Classic two-sided t table for the standard confidence levels: exact
/// textbook critical values for df = 1..30. Row index df - 1; columns
/// 90% / 95% / 99%.
constexpr std::array<std::array<double, 3>, 30> kStudentTTable = {{
    {6.314, 12.706, 63.657}, {2.920, 4.303, 9.925},  {2.353, 3.182, 5.841},
    {2.132, 2.776, 4.604},   {2.015, 2.571, 4.032},  {1.943, 2.447, 3.707},
    {1.895, 2.365, 3.499},   {1.860, 2.306, 3.355},  {1.833, 2.262, 3.250},
    {1.812, 2.228, 3.169},   {1.796, 2.201, 3.106},  {1.782, 2.179, 3.055},
    {1.771, 2.160, 3.012},   {1.761, 2.145, 2.977},  {1.753, 2.131, 2.947},
    {1.746, 2.120, 2.921},   {1.740, 2.110, 2.898},  {1.734, 2.101, 2.878},
    {1.729, 2.093, 2.861},   {1.725, 2.086, 2.845},  {1.721, 2.080, 2.831},
    {1.717, 2.074, 2.819},   {1.714, 2.069, 2.807},  {1.711, 2.064, 2.797},
    {1.708, 2.060, 2.787},   {1.706, 2.056, 2.779},  {1.703, 2.052, 2.771},
    {1.701, 2.048, 2.763},   {1.699, 2.045, 2.756},  {1.697, 2.042, 2.750},
}};

}  // namespace

double normal_critical(double confidence) {
  check_confidence("core::normal_critical", confidence);
  return inverse_normal_cdf(0.5 * (1.0 + confidence));
}

double student_t_critical(double df, double confidence) {
  check_confidence("core::student_t_critical", confidence);
  if (!(df >= 1.0)) {
    throw Error("core::student_t_critical", "df must be >= 1",
                "got " + std::to_string(df));
  }
  // Fast path: the textbook table at the standard confidences.
  if (df <= 30.0 && df == std::floor(df)) {
    const auto& row = kStudentTTable[static_cast<std::size_t>(df) - 1];
    if (confidence == 0.90) return row[0];
    if (confidence == 0.95) return row[1];
    if (confidence == 0.99) return row[2];
  }
  // General path: bisect the two-sided CDF. Monotone in t, so the answer
  // is deterministic; the normal critical value anchors the bracket.
  const double z = normal_critical(confidence);
  double lo = z;                 // t_df >= z for every finite df
  double hi = std::max(4.0 * z, 4.0);
  while (student_t_two_sided(df, hi) < confidence) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_two_sided(df, mid) < confidence) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * hi) break;
  }
  return 0.5 * (lo + hi);
}

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = values[0];
  s.max = values[0];
  for (const double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (const double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(s.count));
  return s;
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) {
    throw Error("core::percentile", "empty input has no percentiles");
  }
  if (!(p >= 0.0 && p <= 100.0)) {
    throw Error("core::percentile", "p must be in [0, 100]",
                "got " + std::to_string(p));
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank =
      p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
  check_same_length("core::fit_linear", x.size(), y.size());
  LinearFit fit;
  const std::size_t n = x.size();
  if (n < 2) return fit;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (dn * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / dn;
  const double ss_tot = syy - sy * sy / dn;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace icsc::core
