#include "scf/transformer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"

namespace icsc::scf {
namespace {

TransformerConfig tiny_config(bool bf16) {
  TransformerConfig cfg;
  cfg.seq_len = 16;
  cfg.d_model = 32;
  cfg.heads = 4;
  cfg.d_ff = 64;
  cfg.use_bf16 = bf16;
  return cfg;
}

TEST(Transformer, OutputShape) {
  const TransformerBlock block(tiny_config(true));
  const auto x = make_activations(block.config(), 3);
  const auto y = block.forward(x);
  EXPECT_EQ(y.dim(0), 16u);
  EXPECT_EQ(y.dim(1), 32u);
}

TEST(Transformer, Deterministic) {
  const TransformerBlock block(tiny_config(true));
  const auto x = make_activations(block.config(), 5);
  EXPECT_EQ(block.forward(x), block.forward(x));
}

TEST(Transformer, Bf16TracksFp32Reference) {
  // The bf16 path must agree with fp32 to within bf16 resolution:
  // layer-norm keeps activations O(1), so absolute error ~ a few ULP of
  // bf16 (2^-8) accumulated across the block.
  auto cfg_fp = tiny_config(false);
  auto cfg_bf = tiny_config(true);
  const TransformerBlock fp_block(cfg_fp);
  const TransformerBlock bf_block(cfg_bf);
  const auto x = make_activations(cfg_fp, 7);
  const auto y_fp = fp_block.forward(x);
  const auto y_bf = bf_block.forward(x);
  const float diff = max_abs_diff(y_fp, y_bf);
  EXPECT_GT(diff, 0.0F);   // bf16 must actually round
  EXPECT_LT(diff, 0.25F);  // but stay close on normalised activations
}

TEST(Transformer, LayerNormKeepsActivationsNormalized) {
  const TransformerBlock block(tiny_config(true));
  const auto x = make_activations(block.config(), 9);
  const auto y = block.forward(x);
  // Each output row passed a layer norm with unit gain: row mean ~ 0,
  // row variance ~ 1 (bf16 rounding noise allowed).
  for (std::size_t r = 0; r < y.dim(0); ++r) {
    float mean = 0.0F;
    for (std::size_t c = 0; c < y.dim(1); ++c) mean += y(r, c);
    mean /= static_cast<float>(y.dim(1));
    EXPECT_NEAR(mean, 0.0F, 0.05F);
    float var = 0.0F;
    for (std::size_t c = 0; c < y.dim(1); ++c) {
      var += (y(r, c) - mean) * (y(r, c) - mean);
    }
    var /= static_cast<float>(y.dim(1));
    EXPECT_NEAR(var, 1.0F, 0.2F);
  }
}

TEST(Transformer, TraceCoversAllKernels) {
  const auto cfg = tiny_config(true);
  const TransformerBlock block(cfg);
  std::vector<KernelCall> trace;
  block.forward(make_activations(cfg, 11), &trace);
  int gemms = 0, softmaxes = 0, lns = 0, gelus = 0, residuals = 0;
  for (const auto& call : trace) {
    switch (call.kind) {
      case KernelCall::Kind::kGemm: ++gemms; break;
      case KernelCall::Kind::kSoftmax: ++softmaxes; break;
      case KernelCall::Kind::kLayerNorm: ++lns; break;
      case KernelCall::Kind::kGelu: ++gelus; break;
      case KernelCall::Kind::kResidualAdd: ++residuals; break;
    }
  }
  // 4 projections + 2 GEMMs per head + 2 FFN.
  EXPECT_EQ(gemms, 4 + 2 * static_cast<int>(cfg.heads) + 2);
  EXPECT_EQ(softmaxes, static_cast<int>(cfg.heads));
  EXPECT_EQ(lns, 2);
  EXPECT_EQ(gelus, 1);
  EXPECT_EQ(residuals, 2);
}

TEST(Transformer, TraceGemmFlopsMatchAnalytic) {
  const auto cfg = tiny_config(true);
  const TransformerBlock block(cfg);
  std::vector<KernelCall> trace;
  block.forward(make_activations(cfg, 13), &trace);
  double gemm_flops = 0.0;
  for (const auto& call : trace) {
    if (call.kind == KernelCall::Kind::kGemm) {
      gemm_flops += 2.0 * static_cast<double>(call.m) * call.k * call.n;
    }
  }
  EXPECT_NEAR(gemm_flops, block.flops(), 1e-6);
}

TEST(Transformer, FlopsScaleWithModel) {
  auto small = tiny_config(true);
  auto big = small;
  big.d_model = 64;
  big.d_ff = 128;
  EXPECT_GT(TransformerBlock(big).flops(), 2.0 * TransformerBlock(small).flops());
}

TEST(Transformer, AttentionMixesSequencePositions) {
  // Changing one input row must influence other output rows (through
  // attention), unlike a pure MLP.
  const auto cfg = tiny_config(false);
  const TransformerBlock block(cfg);
  auto x = make_activations(cfg, 17);
  const auto y0 = block.forward(x);
  for (std::size_t c = 0; c < cfg.d_model; ++c) x(0, c) += 2.0F;
  const auto y1 = block.forward(x);
  float other_row_change = 0.0F;
  for (std::size_t c = 0; c < cfg.d_model; ++c) {
    other_row_change =
        std::max(other_row_change, std::abs(y1(5, c) - y0(5, c)));
  }
  EXPECT_GT(other_row_change, 1e-4F);
}

TEST(Transformer, InvalidConfigsThrowInEveryBuildType) {
  // Checked with core::Error, not assert, so a Release build rejects them
  // too instead of tracing wrong d_head shapes.
  auto no_heads = tiny_config(true);
  no_heads.heads = 0;
  auto ragged = tiny_config(true);
  ragged.heads = 3;  // 32 % 3 != 0
  auto empty = tiny_config(true);
  empty.seq_len = 0;
  for (const auto& cfg : {no_heads, ragged, empty}) {
    EXPECT_THROW(cfg.validate(), core::Error);
    EXPECT_THROW({ const TransformerBlock block(cfg); }, core::Error);
    EXPECT_THROW(kernel_trace(cfg), core::Error);
  }
  EXPECT_NO_THROW(tiny_config(true).validate());
}

/// An override that is not the built-in softmax: uniform attention.
std::vector<float> uniform_softmax(std::span<const float> row) {
  return std::vector<float>(row.size(), 1.0F / static_cast<float>(row.size()));
}

struct TraceCase {
  std::string name;
  TransformerConfig config;
};

void PrintTo(const TraceCase& c, std::ostream* os) { *os << c.name; }

TransformerConfig sized(std::size_t seq_len, std::size_t d_model,
                        std::size_t heads, std::size_t d_ff, bool bf16) {
  TransformerConfig cfg;
  cfg.seq_len = seq_len;
  cfg.d_model = d_model;
  cfg.heads = heads;
  cfg.d_ff = d_ff;
  cfg.use_bf16 = bf16;
  return cfg;
}

TransformerConfig with_override(TransformerConfig cfg) {
  cfg.softmax_override = &uniform_softmax;
  return cfg;
}

class KernelTraceMatchesForward : public ::testing::TestWithParam<TraceCase> {};

/// The closed-form trace is the shape source for the timing models; the
/// trace forward() records while computing is its oracle.
TEST_P(KernelTraceMatchesForward, CallForCall) {
  const TransformerConfig& cfg = GetParam().config;
  std::vector<KernelCall> recorded;
  TransformerBlock(cfg).forward(make_activations(cfg, 1), &recorded);
  const auto closed_form = kernel_trace(cfg);
  ASSERT_EQ(closed_form.size(), recorded.size());
  EXPECT_EQ(closed_form.size(), 11 + 3 * cfg.heads);
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(closed_form[i].kind, recorded[i].kind) << i;
    EXPECT_EQ(closed_form[i].m, recorded[i].m) << recorded[i].label;
    EXPECT_EQ(closed_form[i].k, recorded[i].k) << recorded[i].label;
    EXPECT_EQ(closed_form[i].n, recorded[i].n) << recorded[i].label;
    EXPECT_EQ(closed_form[i].label, recorded[i].label) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KernelTraceMatchesForward,
    ::testing::Values(
        TraceCase{"tiny", tiny_config(true)},
        TraceCase{"tiny_1head_fp32", sized(16, 32, 1, 64, false)},
        TraceCase{"tiny_8heads_override",
                  with_override(sized(16, 32, 8, 64, true))},
        TraceCase{"s128x256", sized(128, 256, 4, 1024, true)},
        TraceCase{"s128x256_1head_fp32", sized(128, 256, 1, 1024, false)},
        TraceCase{"s128x256_8heads_override",
                  with_override(sized(128, 256, 8, 1024, false))},
        TraceCase{"s256x512_8heads", sized(256, 512, 8, 2048, true)}),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
      return info.param.name;
    });

bool same_bits(const core::TensorF& a, const core::TensorF& b) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// The forward's GEMMs run on core::simd::gemm_f32, which picks its ISA at
/// runtime and splits large GEMMs over the pool; neither may move a bit.
/// 64 x 256 with d_ff 1024 splits both FFN GEMMs in two; 13 x 24 with
/// three 8-wide heads and d_ff 40 leaves every panel and row tile ragged.
TEST(Transformer, ForwardBitIdenticalAcrossIsasAndThreadCounts) {
  using core::simd::Isa;
  std::vector<Isa> isas{Isa::kScalar};
  for (const Isa isa : {Isa::kSse4, Isa::kAvx2, Isa::kNeon}) {
    if (core::simd::isa_supported(isa)) isas.push_back(isa);
  }
  struct Restore {
    ~Restore() {
      core::simd::set_active_isa(core::simd::detected_isa());
      core::set_parallel_threads(0);
    }
  } restore;
  for (const auto& base : {sized(64, 256, 4, 1024, true),
                           sized(13, 24, 3, 40, true)}) {
    for (const bool bf16 : {true, false}) {
      for (const bool override_softmax : {false, true}) {
        TransformerConfig cfg = base;
        cfg.use_bf16 = bf16;
        if (override_softmax) cfg = with_override(cfg);
        const TransformerBlock block(cfg);
        const auto x = make_activations(cfg, 23);
        core::simd::set_active_isa(Isa::kScalar);
        core::TensorF expected;
        {
          const core::ScopedSerial serial;
          expected = block.forward(x);
        }
        for (const Isa isa : isas) {
          core::simd::set_active_isa(isa);
          for (const std::size_t threads : {0, 1, 2, 3, 4}) {
            std::unique_ptr<core::ScopedSerial> serial;
            if (threads == 0) {
              serial = std::make_unique<core::ScopedSerial>();
            } else {
              core::set_parallel_threads(threads);
            }
            EXPECT_TRUE(same_bits(block.forward(x), expected))
                << cfg.seq_len << "x" << cfg.d_model << " bf16=" << bf16
                << " override=" << override_softmax
                << " isa=" << core::simd::isa_name(isa)
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace icsc::scf
