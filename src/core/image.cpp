#include "core/image.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace icsc::core {

float Image::at_clamped(std::ptrdiff_t row, std::ptrdiff_t col) const {
  const auto h = static_cast<std::ptrdiff_t>(height());
  const auto w = static_cast<std::ptrdiff_t>(width());
  if (h == 0 || w == 0) return 0.0F;
  row = std::clamp<std::ptrdiff_t>(row, 0, h - 1);
  col = std::clamp<std::ptrdiff_t>(col, 0, w - 1);
  return pixels_(static_cast<std::size_t>(row), static_cast<std::size_t>(col));
}

void Image::clamp01() {
  pixels_.transform([](float v) { return std::clamp(v, 0.0F, 1.0F); });
}

double mse(const Image& a, const Image& b) {
  const std::size_t n = a.tensor().numel();
  if (n == 0 || n != b.tensor().numel()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double acc = 0.0;
  auto da = a.tensor().data();
  auto db = b.tensor().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(da[i]) - db[i];
    acc += diff * diff;
  }
  return acc / static_cast<double>(n);
}

double psnr(const Image& a, const Image& b) {
  const double err = mse(a, b);
  if (err == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(1.0 / err);
}

Image downscale2x_aligned(const Image& hires) {
  Image out(hires.height() / 2, hires.width() / 2);
  constexpr float kTap[3] = {0.25F, 0.5F, 0.25F};
  for (std::size_t r = 0; r < out.height(); ++r) {
    for (std::size_t c = 0; c < out.width(); ++c) {
      float acc = 0.0F;
      for (int u = -1; u <= 1; ++u) {
        for (int v = -1; v <= 1; ++v) {
          acc += kTap[u + 1] * kTap[v + 1] *
                 hires.at_clamped(static_cast<std::ptrdiff_t>(2 * r) + u,
                                  static_cast<std::ptrdiff_t>(2 * c) + v);
        }
      }
      out.at(r, c) = acc;
    }
  }
  return out;
}

namespace {

void add_gradient(Image& img, Rng& rng) {
  const double gx = rng.uniform(-0.4, 0.4);
  const double gy = rng.uniform(-0.4, 0.4);
  const double base = rng.uniform(0.3, 0.7);
  for (std::size_t r = 0; r < img.height(); ++r) {
    for (std::size_t c = 0; c < img.width(); ++c) {
      const double u = static_cast<double>(r) / std::max<std::size_t>(1, img.height());
      const double v = static_cast<double>(c) / std::max<std::size_t>(1, img.width());
      img.at(r, c) += static_cast<float>(base + gx * u + gy * v);
    }
  }
}

void add_blobs(Image& img, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const double cy = rng.uniform(0.0, static_cast<double>(img.height()));
    const double cx = rng.uniform(0.0, static_cast<double>(img.width()));
    const double sigma = rng.uniform(0.05, 0.2) * static_cast<double>(img.width());
    const double amp = rng.uniform(-0.3, 0.3);
    for (std::size_t r = 0; r < img.height(); ++r) {
      for (std::size_t c = 0; c < img.width(); ++c) {
        const double dy = static_cast<double>(r) - cy;
        const double dx = static_cast<double>(c) - cx;
        img.at(r, c) += static_cast<float>(
            amp * std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma)));
      }
    }
  }
}

void add_rectangles(Image& img, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const std::size_t r0 = rng.below(img.height());
    const std::size_t c0 = rng.below(img.width());
    const std::size_t rh = 1 + rng.below(std::max<std::size_t>(1, img.height() / 3));
    const std::size_t cw = 1 + rng.below(std::max<std::size_t>(1, img.width() / 3));
    const float level = static_cast<float>(rng.uniform(0.1, 0.9));
    for (std::size_t r = r0; r < std::min(img.height(), r0 + rh); ++r) {
      for (std::size_t c = c0; c < std::min(img.width(), c0 + cw); ++c) {
        img.at(r, c) = level;
      }
    }
  }
}

void add_texture(Image& img, Rng& rng) {
  // Sum of random low/mid-frequency sinusoids: band-limited so that a 2x
  // downscale retains recoverable structure (pure white noise would not).
  const int waves = 8;
  for (int i = 0; i < waves; ++i) {
    const double fy = rng.uniform(0.5, 6.0);
    const double fx = rng.uniform(0.5, 6.0);
    const double phase = rng.uniform(0.0, 6.28318);
    const double amp = rng.uniform(0.02, 0.12);
    for (std::size_t r = 0; r < img.height(); ++r) {
      for (std::size_t c = 0; c < img.width(); ++c) {
        const double u = static_cast<double>(r) / std::max<std::size_t>(1, img.height());
        const double v = static_cast<double>(c) / std::max<std::size_t>(1, img.width());
        img.at(r, c) += static_cast<float>(
            amp * std::sin(6.28318 * (fy * u + fx * v) + phase));
      }
    }
  }
}

}  // namespace

Image make_scene(SceneKind kind, std::size_t height, std::size_t width,
                 std::uint64_t seed) {
  Rng rng(seed);
  Image img(height, width, 0.5F);
  switch (kind) {
    case SceneKind::kSmoothGradient:
      img = Image(height, width, 0.0F);
      add_gradient(img, rng);
      add_blobs(img, rng, 4);
      break;
    case SceneKind::kEdges:
      add_rectangles(img, rng, 12);
      break;
    case SceneKind::kTexture:
      add_texture(img, rng);
      break;
    case SceneKind::kNaturalComposite:
      img = Image(height, width, 0.0F);
      add_gradient(img, rng);
      add_blobs(img, rng, 3);
      add_rectangles(img, rng, 5);
      add_texture(img, rng);
      break;
  }
  img.clamp01();
  return img;
}

}  // namespace icsc::core
