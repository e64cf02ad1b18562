// Mapping convolutional layers onto crossbar tiles (Sec. IV, architecture
// level).
//
// "a proper mapping of the DNN coefficients and operations into the
// various tiles of the computing system": convolutions are lowered onto
// the MVM arrays by the standard im2col transformation -- every kernel
// filter becomes one crossbar row (flattened k*k*Cin weights), every
// output pixel becomes one input vector (the receptive-field patch) -- so
// a [Cout, Cin, k, k] convolution runs as Cout x (k*k*Cin) analog MVMs
// swept across the feature map.
#pragma once

#include <memory>

#include "core/tensor.hpp"
#include "imc/tile.hpp"

namespace icsc::imc {

/// A convolution layer programmed into tiled crossbars via im2col.
///
/// Error contract: the constructor throws icsc::core::Error unless
/// `weights` is rank-4 with a square, odd kernel; forward() throws when
/// the input is not rank-3 or its channel count does not match.
class CrossbarConv {
public:
  /// weights: [Cout, Cin, k, k]; zero padding "same", stride 1, odd k.
  CrossbarConv(const core::TensorF& weights, const TileConfig& config);

  /// Runs the convolution on input [Cin, H, W] -> [Cout, H, W] through the
  /// analog arrays at time `t_seconds` after programming.
  core::TensorF forward(const core::TensorF& input, double t_seconds = 1.0);

  std::size_t out_channels() const { return out_channels_; }
  std::size_t in_channels() const { return in_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t tile_count() const { return matvec_->tile_count(); }
  double total_energy_pj() const { return matvec_->total_energy_pj(); }

  /// Exact reference (software) for accuracy comparisons.
  static core::TensorF reference_forward(const core::TensorF& weights,
                                         const core::TensorF& input);

private:
  std::size_t out_channels_, in_channels_, kernel_;
  std::unique_ptr<TiledMatvec> matvec_;
};

/// RMSE between the analog and the exact convolution output over a random
/// input (the conv-mapping fidelity probe behind bench_imc_accuracy's
/// conv-on-tiles table).
double crossbar_conv_rmse(const core::TensorF& weights,
                          const TileConfig& config, std::size_t height,
                          std::size_t width, double t_seconds,
                          std::uint64_t seed);

}  // namespace icsc::imc
