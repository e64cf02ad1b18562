// Grayscale image container, quality metrics, and synthetic scene
// generators for the super-resolution experiments of Sec. V.
//
// Real FSRCNN evaluations use Set5/Set14 photographs; offline we generate
// deterministic synthetic scenes (band-limited textures, edges, blobs) that
// exercise the same frequency content an upscaler cares about, so PSNR
// comparisons between exact and approximate pipelines remain meaningful.
#pragma once

#include <cstddef>

#include "core/rng.hpp"
#include "core/tensor.hpp"

namespace icsc::core {

/// Single-channel image with float pixels in [0, 1].
class Image {
public:
  Image() = default;
  Image(std::size_t height, std::size_t width, float fill = 0.0F)
      : pixels_({height, width}, fill) {}
  explicit Image(TensorF pixels) : pixels_(std::move(pixels)) {}

  std::size_t height() const { return pixels_.rank() == 2 ? pixels_.dim(0) : 0; }
  std::size_t width() const { return pixels_.rank() == 2 ? pixels_.dim(1) : 0; }

  float& at(std::size_t row, std::size_t col) { return pixels_(row, col); }
  float at(std::size_t row, std::size_t col) const { return pixels_(row, col); }

  /// Clamped access: out-of-range coordinates replicate the border pixel
  /// (the padding policy of the Sec. V convolution engines).
  float at_clamped(std::ptrdiff_t row, std::ptrdiff_t col) const;

  TensorF& tensor() { return pixels_; }
  const TensorF& tensor() const { return pixels_; }

  /// Clamps every pixel into [0, 1].
  void clamp01();

private:
  TensorF pixels_;
};

/// Mean squared error between equally sized images.
double mse(const Image& a, const Image& b);

/// Peak signal-to-noise ratio in dB for peak value 1.0. Returns +inf for
/// identical images.
double psnr(const Image& a, const Image& b);

/// 2x decimation with a centred [1 2 1]/4 binomial anti-alias filter:
/// lr(i, j) is the filtered HR value *at* (2i, 2j), so a stride-2
/// transposed convolution reconstructs it without sub-pixel shift. This is
/// the LR-generation used for all SR PSNR evaluations (Sec. V).
Image downscale2x_aligned(const Image& hires);

/// Synthetic scene kinds used by tests and benches.
enum class SceneKind {
  kSmoothGradient,   // low-frequency ramp + broad Gaussian blobs
  kEdges,            // rectangles and diagonal edges (high-frequency content)
  kTexture,          // band-limited pseudo-random texture
  kNaturalComposite  // mixture of the above, closest to a natural image
};

/// Deterministically generates a synthetic scene of the requested size.
Image make_scene(SceneKind kind, std::size_t height, std::size_t width,
                 std::uint64_t seed = 7);

}  // namespace icsc::core
