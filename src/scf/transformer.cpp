#include "scf/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "core/bfloat16.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/trace.hpp"

namespace icsc::scf {

namespace {

void round_tensor_bf16(core::TensorF& t, bool enabled) {
  if (!enabled) return;
  t.transform([](float v) { return core::bf16_round(v); });
}

/// C = A W^T for A [m, k] and a weight W [n, k] held as packed panels.
core::TensorF linear(const core::TensorF& a,
                     const core::aligned_vector<float>& w, std::size_t n,
                     bool bf16) {
  const std::size_t m = a.dim(0), k = a.dim(1);
  core::TensorF c({m, n});
  core::simd::gemm_f32(a.data().data(), k, w.data(), m, k, n,
                       c.data().data(), n, bf16);
  return c;
}

void softmax_rows(core::TensorF& t, bool bf16,
                  TransformerConfig::SoftmaxFn override_fn) {
  const std::size_t rows = t.dim(0), cols = t.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    if (override_fn != nullptr) {
      const auto probs = override_fn(
          std::span<const float>(&t(r, 0), cols));
      for (std::size_t c = 0; c < cols; ++c) t(r, c) = probs[c];
      continue;
    }
    float peak = t(r, 0);
    for (std::size_t c = 1; c < cols; ++c) peak = std::max(peak, t(r, c));
    float sum = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      t(r, c) = std::exp(t(r, c) - peak);
      sum += t(r, c);
    }
    for (std::size_t c = 0; c < cols; ++c) t(r, c) /= sum;
  }
  round_tensor_bf16(t, bf16);
}

void layer_norm(core::TensorF& t, const std::vector<float>& gain,
                const std::vector<float>& bias, bool bf16) {
  const std::size_t rows = t.dim(0), cols = t.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    float mean = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) mean += t(r, c);
    mean /= static_cast<float>(cols);
    float var = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      const float d = t(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float inv = 1.0F / std::sqrt(var + 1e-5F);
    for (std::size_t c = 0; c < cols; ++c) {
      t(r, c) = (t(r, c) - mean) * inv * gain[c] + bias[c];
    }
  }
  round_tensor_bf16(t, bf16);
}

void gelu(core::TensorF& t, bool bf16) {
  t.transform([](float v) {
    // tanh approximation, as hardware GELU units implement it.
    const float inner = 0.7978845608F * (v + 0.044715F * v * v * v);
    return 0.5F * v * (1.0F + std::tanh(inner));
  });
  round_tensor_bf16(t, bf16);
}

/// A weight [out, in] drawn row by row from `rng`, bf16-rounded when
/// `bf16`, and kept only as the packed panels of W^T (core::simd GEMM
/// layout). Rows are drawn and packed one panel at a time, so no unpacked
/// copy of the whole weight ever exists.
core::aligned_vector<float> random_packed_weights(std::size_t out,
                                                  std::size_t in,
                                                  core::Rng& rng, bool bf16) {
  using core::simd::kGemmPanel;
  core::aligned_vector<float> packed(core::simd::gemm_packed_size(in, out));
  std::vector<float> rows(kGemmPanel * in);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(in));
  for (std::size_t j0 = 0; j0 < out; j0 += kGemmPanel) {
    const std::size_t cols = std::min(kGemmPanel, out - j0);
    for (std::size_t i = 0; i < cols * in; ++i) {
      const auto v = static_cast<float>(rng.normal(0.0, sigma));
      rows[i] = bf16 ? core::bf16_round(v) : v;
    }
    core::simd::gemm_pack_b(rows.data(), 1, in, in, cols,
                            packed.data() + j0 * in);
  }
  return packed;
}

void trace_gemm(std::vector<KernelCall>* trace, std::size_t m, std::size_t k,
                std::size_t n, const std::string& label) {
  if (trace) {
    trace->push_back({KernelCall::Kind::kGemm, m, k, n, label});
  }
}

void trace_other(std::vector<KernelCall>* trace, KernelCall::Kind kind,
                 std::size_t elements, const std::string& label) {
  if (trace) trace->push_back({kind, elements, 0, 0, label});
}

}  // namespace

void TransformerConfig::validate() const {
  const char* problem = nullptr;
  if (heads == 0 || d_model % heads != 0) {
    problem = "d_model must be a positive multiple of heads";
  } else if (seq_len == 0) {
    problem = "seq_len must be positive";
  }
  if (problem == nullptr) return;
  throw core::Error("scf::TransformerConfig", problem,
                    "seq_len=" + std::to_string(seq_len) +
                        " d_model=" + std::to_string(d_model) +
                        " heads=" + std::to_string(heads));
}

std::vector<KernelCall> kernel_trace(const TransformerConfig& config) {
  config.validate();
  const std::size_t s = config.seq_len;
  const std::size_t d = config.d_model;
  const std::size_t dh = config.d_head();
  const std::size_t ff = config.d_ff;
  std::vector<KernelCall> trace;
  trace.reserve(11 + 3 * config.heads);
  auto* out = &trace;
  // Mirrors forward() call for call.
  trace_gemm(out, s, d, d, "q_proj");
  trace_gemm(out, s, d, d, "k_proj");
  trace_gemm(out, s, d, d, "v_proj");
  for (std::size_t head = 0; head < config.heads; ++head) {
    const std::string h = std::to_string(head);
    trace_gemm(out, s, dh, s, "attn_scores_h" + h);
    trace_other(out, KernelCall::Kind::kSoftmax, s * s, "softmax_h" + h);
    trace_gemm(out, s, s, dh, "attn_context_h" + h);
  }
  trace_gemm(out, s, d, d, "out_proj");
  trace_other(out, KernelCall::Kind::kResidualAdd, s * d, "residual1");
  trace_other(out, KernelCall::Kind::kLayerNorm, s * d, "ln1");
  trace_gemm(out, s, d, ff, "ffn_up");
  trace_other(out, KernelCall::Kind::kGelu, s * ff, "gelu");
  trace_gemm(out, s, ff, d, "ffn_down");
  trace_other(out, KernelCall::Kind::kResidualAdd, s * d, "residual2");
  trace_other(out, KernelCall::Kind::kLayerNorm, s * d, "ln2");
  return trace;
}

TransformerBlock::TransformerBlock(const TransformerConfig& config)
    : config_(config) {
  config.validate();
  core::Rng rng(config.seed);
  const std::size_t d = config.d_model;
  const bool bf16 = config.use_bf16;
  wq_ = random_packed_weights(d, d, rng, bf16);
  wk_ = random_packed_weights(d, d, rng, bf16);
  wv_ = random_packed_weights(d, d, rng, bf16);
  wo_ = random_packed_weights(d, d, rng, bf16);
  w1_ = random_packed_weights(config.d_ff, d, rng, bf16);
  w2_ = random_packed_weights(d, config.d_ff, rng, bf16);
  ln1_gain_.assign(config.d_model, 1.0F);
  ln1_bias_.assign(config.d_model, 0.0F);
  ln2_gain_.assign(config.d_model, 1.0F);
  ln2_bias_.assign(config.d_model, 0.0F);
}

core::TensorF TransformerBlock::forward(const core::TensorF& input,
                                        std::vector<KernelCall>* trace) const {
  const std::size_t s = config_.seq_len;
  const std::size_t d = config_.d_model;
  const std::size_t h = config_.heads;
  const std::size_t dh = config_.d_head();
  const bool bf16 = config_.use_bf16;
  if (input.rank() != 2 || input.dim(0) != s || input.dim(1) != d) {
    throw core::Error("scf::TransformerBlock::forward",
                      "input must be [seq_len, d_model] = [" +
                          std::to_string(s) + ", " + std::to_string(d) + "]",
                      "got shape " + core::shape_to_string(input.shape()));
  }

  core::TensorF x = input;
  round_tensor_bf16(x, bf16);

  core::TensorF q, k_mat, v;
  {
    ICSC_TRACE_SPAN("scf/qkv_proj");
    q = linear(x, wq_, d, bf16);
    trace_gemm(trace, s, d, d, "q_proj");
    k_mat = linear(x, wk_, d, bf16);
    trace_gemm(trace, s, d, d, "k_proj");
    v = linear(x, wv_, d, bf16);
    trace_gemm(trace, s, d, d, "v_proj");
  }

  // Attention per head. The head's Q columns are a strided view of q, its
  // K^T and V are packed straight from k_mat and v, and its context lands
  // in its columns of `context` through the row stride d.
  core::TensorF context({s, d});
  core::TensorF attn_out;
  {
    ICSC_TRACE_SPAN("scf/attention");
    const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
    core::aligned_vector<float> kt_h(core::simd::gemm_packed_size(dh, s));
    core::aligned_vector<float> v_h(core::simd::gemm_packed_size(s, dh));
    core::TensorF scores({s, s});
    for (std::size_t head = 0; head < h; ++head) {
      const std::size_t off = head * dh;
      core::simd::gemm_pack_b(k_mat.data().data() + off, 1, d, dh, s,
                              kt_h.data());
      core::simd::gemm_pack_b(v.data().data() + off, d, 1, s, dh,
                              v_h.data());
      core::simd::gemm_f32(q.data().data() + off, d, kt_h.data(), s, dh, s,
                           scores.data().data(), s, bf16);
      trace_gemm(trace, s, dh, s, "attn_scores_h" + std::to_string(head));
      scores *= scale;
      round_tensor_bf16(scores, bf16);
      softmax_rows(scores, bf16, config_.softmax_override);
      trace_other(trace, KernelCall::Kind::kSoftmax, s * s,
                  "softmax_h" + std::to_string(head));
      core::simd::gemm_f32(scores.data().data(), s, v_h.data(), s, s, dh,
                           context.data().data() + off, d, bf16);
      trace_gemm(trace, s, s, dh, "attn_context_h" + std::to_string(head));
    }
    attn_out = linear(context, wo_, d, bf16);
    trace_gemm(trace, s, d, d, "out_proj");
  }

  // Residual + layer norm.
  attn_out += x;
  round_tensor_bf16(attn_out, bf16);
  trace_other(trace, KernelCall::Kind::kResidualAdd, s * d, "residual1");
  layer_norm(attn_out, ln1_gain_, ln1_bias_, bf16);
  trace_other(trace, KernelCall::Kind::kLayerNorm, s * d, "ln1");

  // FFN.
  core::TensorF out;
  {
    ICSC_TRACE_SPAN("scf/ffn");
    auto hidden = linear(attn_out, w1_, config_.d_ff, bf16);  // [s, d_ff]
    trace_gemm(trace, s, d, config_.d_ff, "ffn_up");
    gelu(hidden, bf16);
    trace_other(trace, KernelCall::Kind::kGelu, s * config_.d_ff, "gelu");
    out = linear(hidden, w2_, d, bf16);  // [s, d]
    trace_gemm(trace, s, config_.d_ff, d, "ffn_down");
  }
  out += attn_out;
  round_tensor_bf16(out, bf16);
  trace_other(trace, KernelCall::Kind::kResidualAdd, s * d, "residual2");
  layer_norm(out, ln2_gain_, ln2_bias_, bf16);
  trace_other(trace, KernelCall::Kind::kLayerNorm, s * d, "ln2");
  return out;
}

double TransformerBlock::flops() const {
  const double s = static_cast<double>(config_.seq_len);
  const double d = static_cast<double>(config_.d_model);
  const double ff = static_cast<double>(config_.d_ff);
  // 4 projections + 2 attention GEMMs + 2 FFN GEMMs.
  return 2.0 * (4.0 * s * d * d + 2.0 * s * s * d + 2.0 * s * d * ff);
}

float max_abs_diff(const core::TensorF& a, const core::TensorF& b) {
  if (!a.same_shape(b)) {
    throw core::Error("scf::max_abs_diff", "tensors must have equal shapes",
                      core::shape_to_string(a.shape()) + " vs " +
                          core::shape_to_string(b.shape()));
  }
  float worst = 0.0F;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

core::TensorF make_activations(const TransformerConfig& config,
                               std::uint64_t seed) {
  core::Rng rng(seed);
  core::TensorF x({config.seq_len, config.d_model});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

}  // namespace icsc::scf
