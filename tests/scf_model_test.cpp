#include "scf/model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"

namespace icsc::scf {
namespace {

TransformerConfig tiny() {
  TransformerConfig cfg;
  cfg.seq_len = 16;
  cfg.d_model = 32;
  cfg.heads = 4;
  cfg.d_ff = 64;
  return cfg;
}

TEST(Model, StackComposesBlocks) {
  const TransformerModel model(tiny(), 4);
  EXPECT_EQ(model.layers(), 4);
  const auto x = make_activations(tiny(), 3);
  const auto y = model.forward(x);
  EXPECT_EQ(y.dim(0), 16u);
  EXPECT_EQ(y.dim(1), 32u);
  EXPECT_NEAR(model.flops(), 4.0 * TransformerBlock(tiny()).flops(), 1e-6);
}

TEST(Model, BlocksHaveDistinctWeights) {
  const TransformerModel model(tiny(), 2);
  const auto x = make_activations(tiny(), 5);
  // Output of a 2-block stack differs from running one block twice only if
  // the second block's weights differ; compare against the 1-block model
  // applied twice.
  const TransformerModel single(tiny(), 1);
  const auto twice = single.forward(single.forward(x));
  const auto stacked = model.forward(x);
  EXPECT_GT(max_abs_diff(twice, stacked), 1e-3F);
}

TEST(Model, TraceScalesWithDepth) {
  std::vector<KernelCall> trace1, trace4;
  TransformerModel(tiny(), 1).forward(make_activations(tiny(), 1), &trace1);
  TransformerModel(tiny(), 4).forward(make_activations(tiny(), 1), &trace4);
  EXPECT_EQ(trace4.size(), 4 * trace1.size());
}

TEST(Model, InferenceEstimateSane) {
  TransformerConfig cfg;
  cfg.seq_len = 128;
  cfg.d_model = 256;
  cfg.heads = 4;
  cfg.d_ff = 1024;
  FabricConfig fabric;
  fabric.num_cus = 16;
  const auto est = estimate_model_inference(cfg, 12, fabric);  // BERT-base-ish
  EXPECT_GT(est.sequences_per_second, 1.0);
  EXPECT_LT(est.sequences_per_second, 1e5);
  EXPECT_GT(est.gflops_sustained, 100.0);
  EXPECT_GT(est.power_w, 0.5);
  EXPECT_NEAR(est.joules_per_sequence,
              est.power_w * est.seconds_per_sequence,
              0.05 * est.joules_per_sequence);
}

TEST(Model, DeeperModelsSlower) {
  const TransformerConfig cfg = tiny();
  FabricConfig fabric;
  const auto shallow = estimate_model_inference(cfg, 2, fabric);
  const auto deep = estimate_model_inference(cfg, 8, fabric);
  EXPECT_GT(deep.seconds_per_sequence, 3.0 * shallow.seconds_per_sequence);
}

TEST(Model, EstimateEqualsTheForwardTraceEstimate) {
  // The estimate builds no weights; the oracle is the trace a full
  // numerical forward pass of the stack records.
  FabricConfig fabric;
  fabric.num_cus = 4;
  for (const int layers : {1, 4}) {
    std::vector<KernelCall> trace;
    TransformerModel(tiny(), layers)
        .forward(make_activations(tiny(), 1), &trace);
    const ScalableComputeFabric scf(fabric);
    const auto stats = scf.run_trace(trace);
    const auto est = estimate_model_inference(tiny(), layers, fabric);
    EXPECT_EQ(est.seconds_per_sequence, stats.seconds(fabric.cu.fclk_mhz));
    EXPECT_EQ(est.sequences_per_second,
              1.0 / stats.seconds(fabric.cu.fclk_mhz));
    EXPECT_EQ(est.gflops_sustained, stats.gflops(fabric.cu.fclk_mhz));
    EXPECT_EQ(est.joules_per_sequence, stats.energy_pj * 1e-12);
    EXPECT_EQ(est.power_w, scf.average_power_w(stats));
  }
}

TEST(Model, EstimateRejectsAnEmptyStack) {
  EXPECT_THROW(estimate_model_inference(tiny(), 0, FabricConfig{}),
               core::Error);
}

}  // namespace
}  // namespace icsc::scf
