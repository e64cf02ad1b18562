#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace icsc::core {
namespace {

TEST(Summary, KnownValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Summary, Empty) {
  const auto s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summary, SingleSample) {
  const auto s = summarize(std::vector<double>{7.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 7.0);
}

TEST(Percentile, ThrowsOnEmptyInputOrBadP) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50.0), Error);
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(percentile(v, -0.1), Error);
  EXPECT_THROW(percentile(v, 100.1), Error);
  EXPECT_THROW(percentile(v, std::nan("")), Error);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y{1, 3, 5, 7, 9};  // y = 2x + 1
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineRecovered) {
  Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    const double xi = rng.uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(-3.0 * xi + 5.0 + rng.normal(0.0, 0.5));
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, -3.0, 0.05);
  EXPECT_NEAR(fit.intercept, 5.0, 0.3);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFit, DegenerateInputs) {
  const std::vector<double> one{1.0};
  EXPECT_DOUBLE_EQ(fit_linear(one, one).slope, 0.0);
  const std::vector<double> same_x{2.0, 2.0, 2.0};
  const std::vector<double> any_y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(fit_linear(same_x, any_y).slope, 0.0);
}

TEST(LinearFit, ThrowsOnLengthMismatch) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(fit_linear(x, y), Error);
}

TEST(CriticalValues, NormalTextbookPoints) {
  EXPECT_NEAR(normal_critical(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(normal_critical(0.90), 1.644854, 1e-4);
  EXPECT_NEAR(normal_critical(0.99), 2.575829, 1e-4);
}

TEST(CriticalValues, StudentTTextbookPoints) {
  // Table rows (exact) and an off-table df solved through the incomplete
  // beta inversion.
  EXPECT_NEAR(student_t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(10, 0.95), 2.228, 1e-3);
  EXPECT_NEAR(student_t_critical(30, 0.99), 2.750, 1e-3);
  EXPECT_NEAR(student_t_critical(40, 0.95), 2.021, 5e-3);
  EXPECT_NEAR(student_t_critical(120, 0.95), 1.980, 5e-3);
  // t approaches z as df grows.
  EXPECT_NEAR(student_t_critical(1e6, 0.95), normal_critical(0.95), 1e-3);
}

TEST(CriticalValues, RejectBadConfidence) {
  EXPECT_THROW(normal_critical(0.0), Error);
  EXPECT_THROW(normal_critical(1.0), Error);
  EXPECT_THROW(student_t_critical(10, -0.5), Error);
  EXPECT_THROW(student_t_critical(0.0, 0.95), Error);
}

}  // namespace
}  // namespace icsc::core
