// BFloat16 transformer encoder block (Sec. VII).
//
// The CU accelerates "all major Transformer blocks" in bf16. This module
// implements the block numerically -- QKV projection, multi-head
// attention, softmax, residual + layer norm, GELU FFN -- with bf16 storage
// rounding on every tensor (fp32 accumulation inside GEMMs, matching the
// tensor engine), and records the kernel sequence with sizes so the CU and
// fabric models can time it. Every GEMM runs on core::simd::gemm_f32 over
// weights packed once at construction; the output is the same bits on
// every SIMD ISA and thread count. Numerical correctness is validated against an
// fp32 reference in the test suite. The timing models need only the
// shapes, which kernel_trace() gives in closed form; forward()'s recorded
// trace is its oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace icsc::scf {

struct TransformerConfig {
  std::size_t seq_len = 128;
  std::size_t d_model = 256;
  std::size_t heads = 4;
  std::size_t d_ff = 1024;
  std::uint64_t seed = 99;
  bool use_bf16 = true;  // false = fp32 reference path

  /// Optional replacement for the attention softmax -- the hook through
  /// which the Sec. V approximate softmax ([18]) plugs into the Sec. VII
  /// transformer (e.g. icsc::approx::softmax_approx wrapped in a lambda).
  using SoftmaxFn = std::vector<float> (*)(std::span<const float>);
  SoftmaxFn softmax_override = nullptr;

  std::size_t d_head() const { return d_model / heads; }

  /// Throws core::Error unless heads > 0, d_model % heads == 0 and
  /// seq_len > 0 -- the shapes every block kernel derives from.
  void validate() const;
};

/// One kernel invocation in the block, for the performance models.
struct KernelCall {
  enum class Kind { kGemm, kSoftmax, kLayerNorm, kGelu, kResidualAdd };
  Kind kind = Kind::kGemm;
  std::size_t m = 0, k = 0, n = 0;  // GEMM dims, or elements in m for others
  std::string label;
};

/// The kernel sequence of one block forward pass -- the same kinds, shapes
/// and labels, in the same order, as forward() records -- computed from the
/// configuration alone. Throws core::Error on an invalid configuration.
std::vector<KernelCall> kernel_trace(const TransformerConfig& config);

/// Weights of one encoder block (deterministically initialised).
class TransformerBlock {
public:
  /// Throws core::Error on an invalid configuration.
  explicit TransformerBlock(const TransformerConfig& config);

  /// Runs the block on input [seq_len, d_model]; returns same shape.
  /// Appends every kernel invocation to `trace` when non-null. Throws
  /// core::Error when the input has another shape.
  core::TensorF forward(const core::TensorF& input,
                        std::vector<KernelCall>* trace = nullptr) const;

  /// Total FLOPs of one forward pass (GEMMs dominate).
  double flops() const;

  const TransformerConfig& config() const { return config_; }

private:
  TransformerConfig config_;
  // Weights W [out, in] held only as the packed panels of W^T
  // (core::simd::gemm_pack_b), bf16-rounded when use_bf16.
  core::aligned_vector<float> wq_, wk_, wv_, wo_;  // [d_model, d_model]
  core::aligned_vector<float> w1_, w2_;  // [d_ff, d_model], [d_model, d_ff]
  std::vector<float> ln1_gain_, ln1_bias_, ln2_gain_, ln2_bias_;
};

/// Max absolute elementwise difference between two equal-shape tensors.
/// Throws core::Error when the shapes differ.
float max_abs_diff(const core::TensorF& a, const core::TensorF& b);

/// Deterministic random activations [seq_len, d_model] in [-1, 1].
core::TensorF make_activations(const TransformerConfig& config,
                               std::uint64_t seed);

}  // namespace icsc::scf
