#include "core/image.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace icsc::core {
namespace {

TEST(Image, ConstructionAndAccess) {
  Image img(4, 6, 0.25F);
  EXPECT_EQ(img.height(), 4u);
  EXPECT_EQ(img.width(), 6u);
  EXPECT_FLOAT_EQ(img.at(3, 5), 0.25F);
  img.at(1, 2) = 0.9F;
  EXPECT_FLOAT_EQ(img.at(1, 2), 0.9F);
}

TEST(Image, ClampedAccessReplicatesBorder) {
  Image img(2, 2);
  img.at(0, 0) = 1.0F;
  img.at(1, 1) = 0.5F;
  EXPECT_FLOAT_EQ(img.at_clamped(-5, -5), 1.0F);
  EXPECT_FLOAT_EQ(img.at_clamped(10, 10), 0.5F);
  EXPECT_FLOAT_EQ(img.at_clamped(0, 0), 1.0F);
}

TEST(Image, Clamp01) {
  Image img(1, 3);
  img.at(0, 0) = -0.5F;
  img.at(0, 1) = 0.5F;
  img.at(0, 2) = 1.5F;
  img.clamp01();
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(img.at(0, 1), 0.5F);
  EXPECT_FLOAT_EQ(img.at(0, 2), 1.0F);
}

TEST(Image, MseAndPsnr) {
  Image a(2, 2, 0.5F);
  Image b(2, 2, 0.5F);
  EXPECT_DOUBLE_EQ(mse(a, b), 0.0);
  EXPECT_TRUE(std::isinf(psnr(a, b)));
  b.at(0, 0) = 0.6F;
  EXPECT_NEAR(mse(a, b), 0.01 * 0.01 / 4.0 * 100.0, 1e-7);
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(1.0 / mse(a, b)), 1e-9);
}

TEST(Image, MseMismatchedSizesIsNan) {
  Image a(2, 2);
  Image b(2, 3);
  EXPECT_TRUE(std::isnan(mse(a, b)));
}

class SceneSweep : public ::testing::TestWithParam<SceneKind> {};

TEST_P(SceneSweep, ScenesAreNormalizedAndDeterministic) {
  const Image a = make_scene(GetParam(), 48, 64, 123);
  const Image b = make_scene(GetParam(), 48, 64, 123);
  EXPECT_EQ(a.tensor(), b.tensor());
  float lo = 2.0F, hi = -1.0F;
  for (float v : a.tensor().data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, 0.0F);
  EXPECT_LE(hi, 1.0F);
  EXPECT_GT(hi - lo, 0.05F) << "scene should have non-trivial contrast";
}

TEST_P(SceneSweep, DifferentSeedsDiffer) {
  const Image a = make_scene(GetParam(), 32, 32, 1);
  const Image b = make_scene(GetParam(), 32, 32, 2);
  EXPECT_FALSE(a.tensor() == b.tensor());
}

INSTANTIATE_TEST_SUITE_P(AllScenes, SceneSweep,
                         ::testing::Values(SceneKind::kSmoothGradient,
                                           SceneKind::kEdges,
                                           SceneKind::kTexture,
                                           SceneKind::kNaturalComposite));

}  // namespace
}  // namespace icsc::core
