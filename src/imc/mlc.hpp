// Multilevel-cell weight mapping and digital drift compensation (Sec. IV).
//
// "Multilevel cell (MLC) operation is possible in both PCM and RRAM where
// the device resistance can be tuned as an analog memory with a virtually
// continuous distribution of weights [9]" -- but finite programming
// precision limits the usable level count, so practical accelerators
// either quantise weights onto L discrete conductance levels or slice the
// weight bits across several lower-precision cells. Accuracy should also
// be optimised by "accurate digital compensation of inaccuracies, such as
// drift and temperature/voltage dependence": we implement the standard
// global-scale drift compensation, where the periphery rescales MVM
// outputs by the inverse of the average conductance decay estimated from
// reference cells.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "imc/crossbar.hpp"

namespace icsc::imc {

/// Discrete MLC level grid across the device conductance range.
struct MlcGrid {
  double g_min_us = 0.0;
  double g_max_us = 0.0;
  int levels = 4;

  /// Target conductance of level index l (equally spaced).
  double level_target(int l) const;
  /// Nearest level index for a desired conductance.
  int nearest_level(double g_us) const;
  /// Quantises a conductance onto the grid.
  double quantize(double g_us) const;
};

MlcGrid make_grid(const DeviceSpec& spec, int levels);

/// The effective number of reliably distinguishable levels for a device
/// programmed with the given scheme: levels are "reliable" when the
/// programming error's 3-sigma is below half the level spacing.
int reliable_levels(const DeviceSpec& spec, const ProgramVerifyConfig& config,
                    int probe_cells, std::uint64_t seed);

/// Bit-sliced crossbar: an [out, in] weight matrix is split into `slices`
/// crossbars, each storing `bits_per_slice` bits of the weight magnitude
/// on an MLC grid of 2^bits_per_slice levels; the digital periphery
/// recombines slice outputs with power-of-two weights. This trades array
/// count for per-cell precision requirements. The constructor throws
/// icsc::core::Error unless slices >= 1 and bits_per_slice >= 1.
class BitSlicedCrossbar {
public:
  BitSlicedCrossbar(const core::TensorF& weights, const CrossbarConfig& config,
                    int slices, int bits_per_slice);

  std::vector<float> matvec(std::span<const float> x, double t_seconds = 1.0);

  std::size_t slice_count() const { return slices_.size(); }
  double total_energy_pj() const;

private:
  struct Slice {
    std::unique_ptr<Crossbar> crossbar;
    double scale;  // contribution weight of this slice
  };
  std::vector<Slice> slices_;
  std::size_t out_dim_ = 0;
};

/// Digital drift compensation: reference column. A set of reference cells
/// is programmed to a known conductance at t=0; at read time the periphery
/// measures their average decay and multiplies MVM outputs by the inverse.
/// Removes the *mean* drift (the D2D nu spread remains).
class DriftCompensator {
public:
  DriftCompensator(const DeviceSpec& spec, const ProgramVerifyConfig& pv,
                   int reference_cells, std::uint64_t seed);

  /// Estimated mean decay factor G(t)/G(0) from the reference cells.
  double decay_estimate(double t_seconds);

  /// Applies the inverse decay to an MVM output vector in place.
  void compensate(std::vector<float>& y, double t_seconds);

private:
  DeviceSpec spec_;
  core::Rng rng_;
  std::vector<MemoryCell> reference_;
  std::vector<double> programmed_;  // as-verified conductances
};

/// Accuracy experiment with compensation on/off (the Sec. IV digital
/// compensation ablation): PCM crossbars at time t.
struct CompensationResult {
  double accuracy_uncompensated = 0.0;
  double accuracy_compensated = 0.0;
  double decay_estimate = 0.0;
};

CompensationResult run_drift_compensation_experiment(double t_seconds,
                                                     std::uint64_t seed);

}  // namespace icsc::imc
