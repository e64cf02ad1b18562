// Equivalence and accounting tests for the memoized DSE evaluation
// pipeline: cached runs must be bit-identical to the uncached seed path
// for every strategy, serial and parallel; the cache counters must add up;
// and the exhaustive sweep must actually shed schedule_list work.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "hls/dse.hpp"
#include "hls/ir.hpp"

namespace dse = icsc::hls;
namespace core = icsc::core;

namespace {

/// Field-by-field bit comparison of two runs (front indices included).
void expect_identical(const dse::DseResult& a, const dse::DseResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    const auto& pa = a.evaluated[i];
    const auto& pb = b.evaluated[i];
    EXPECT_EQ(pa.unroll, pb.unroll) << "point " << i;
    EXPECT_EQ(pa.budget.alus, pb.budget.alus) << "point " << i;
    EXPECT_EQ(pa.budget.muls, pb.budget.muls) << "point " << i;
    EXPECT_EQ(pa.budget.divs, pb.budget.divs) << "point " << i;
    EXPECT_EQ(pa.budget.mem_ports, pb.budget.mem_ports) << "point " << i;
    EXPECT_EQ(pa.cost.luts, pb.cost.luts) << "point " << i;
    EXPECT_EQ(pa.cost.ffs, pb.cost.ffs) << "point " << i;
    EXPECT_EQ(pa.cost.dsps, pb.cost.dsps) << "point " << i;
    EXPECT_EQ(pa.cost.cycles, pb.cost.cycles) << "point " << i;
    EXPECT_EQ(pa.cost.fits, pb.cost.fits) << "point " << i;
    EXPECT_EQ(pa.cost.bram_kb, pb.cost.bram_kb) << "point " << i;
    EXPECT_EQ(pa.cost.fmax_mhz, pb.cost.fmax_mhz) << "point " << i;
    EXPECT_EQ(pa.cost.latency_us, pb.cost.latency_us) << "point " << i;
    EXPECT_EQ(pa.total_latency_us, pb.total_latency_us) << "point " << i;
    EXPECT_EQ(pa.area_score, pb.area_score) << "point " << i;
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].id, b.front[i].id) << "front " << i;
    EXPECT_EQ(a.front[i].objectives, b.front[i].objectives) << "front " << i;
  }
}

/// A space whose budget axes extend well past the small kernels' resource
/// occupancy, so the effective-budget clamp collapses many grid points.
dse::DseSpace oversized_space() {
  dse::DseSpace space;
  space.unroll_factors = {1, 2, 4};
  space.alu_counts = {1, 2, 4, 8, 16};
  space.mul_counts = {1, 2, 4, 8, 16};
  space.mem_port_counts = {1, 2};
  return space;
}

dse::DseConfig cached_config() {
  dse::DseConfig config;
  config.iterations = 256;
  config.space = oversized_space();
  config.memoize = true;
  return config;
}

dse::DseConfig seed_config() {
  dse::DseConfig config = cached_config();
  config.memoize = false;
  return config;
}

}  // namespace

TEST(DseCache, ExhaustiveBitIdenticalToSeedSerialAndParallel) {
  const auto body = dse::make_fir_kernel(6);
  const auto seed = dse::dse_exhaustive(body, seed_config());
  {
    core::ScopedSerial serial;
    expect_identical(seed, dse::dse_exhaustive(body, cached_config()));
  }
  expect_identical(seed, dse::dse_exhaustive(body, cached_config()));
}

TEST(DseCache, RandomBitIdenticalToSeedSerialAndParallel) {
  const auto body = dse::make_spmv_row_kernel(5);
  const auto seed = dse::dse_random(body, seed_config(), 64, 77);
  {
    core::ScopedSerial serial;
    expect_identical(seed, dse::dse_random(body, cached_config(), 64, 77));
  }
  expect_identical(seed, dse::dse_random(body, cached_config(), 64, 77));
}

TEST(DseCache, HillClimbBitIdenticalToSeedSerialAndParallel) {
  const auto body = dse::make_dot_kernel(4);
  const auto seed = dse::dse_hill_climb(body, seed_config(), 6, 123);
  {
    core::ScopedSerial serial;
    expect_identical(seed, dse::dse_hill_climb(body, cached_config(), 6, 123));
  }
  expect_identical(seed, dse::dse_hill_climb(body, cached_config(), 6, 123));
}

TEST(DseCache, PipelinedExhaustiveBitIdenticalToSeed) {
  auto cached = cached_config();
  auto seed_cfg = seed_config();
  cached.pipelined = seed_cfg.pipelined = true;
  const auto body = dse::make_fir_kernel(4);
  expect_identical(dse::dse_exhaustive(body, seed_cfg),
                   dse::dse_exhaustive(body, cached));
}

TEST(DseCache, HitMissAccountingAddsUp) {
  const auto body = dse::make_dot_kernel(2);
  const auto cached = dse::dse_exhaustive(body, cached_config());
  EXPECT_EQ(cached.cache_hits + cached.cache_misses, cached.evaluations);
  // The oversized axes guarantee heavy dedup on this tiny kernel.
  EXPECT_LT(cached.cache_misses, cached.evaluations / 3);
  EXPECT_GT(cached.cache_hits, 0u);

  const auto uncached = dse::dse_exhaustive(body, seed_config());
  EXPECT_EQ(uncached.cache_hits, 0u);
  EXPECT_EQ(uncached.cache_misses, 0u);
}

TEST(DseCache, ScheduleCallsDropAtLeastThreeFold) {
  const auto body = dse::make_dot_kernel(2);
  core::trace::set_enabled(true);
  core::trace::reset();
  (void)dse::dse_exhaustive(body, seed_config());
  const auto before = core::trace::counters();
  core::trace::reset();
  (void)dse::dse_exhaustive(body, cached_config());
  const auto after = core::trace::counters();
  core::trace::set_enabled(false);
  core::trace::reset();

  const auto old_calls = before.at("dse.schedule_calls");
  const auto new_calls = after.at("dse.schedule_calls");
  EXPECT_GT(old_calls, 0u);
  EXPECT_LE(3 * new_calls, old_calls)
      << "memoized sweep ran " << new_calls << " schedule_list pipelines vs "
      << old_calls << " uncached";
  EXPECT_EQ(after.at("dse.cache_hits") + after.at("dse.cache_misses"),
            before.at("dse.schedule_calls"));
}

TEST(DseCache, GridIsCanonicalRowMajor) {
  const dse::DseSpace space = oversized_space();
  const auto grid = dse::dse_grid(space);
  ASSERT_EQ(grid.size(), space.unroll_factors.size() *
                             space.alu_counts.size() * space.mul_counts.size() *
                             space.mem_port_counts.size());
  std::size_t idx = 0;
  for (const int unroll : space.unroll_factors) {
    for (const int alus : space.alu_counts) {
      for (const int muls : space.mul_counts) {
        for (const int ports : space.mem_port_counts) {
          ASSERT_EQ(grid[idx].unroll, unroll);
          ASSERT_EQ(grid[idx].budget.alus, alus);
          ASSERT_EQ(grid[idx].budget.muls, muls);
          ASSERT_EQ(grid[idx].budget.mem_ports, ports);
          ++idx;
        }
      }
    }
  }
}

TEST(DseCache, DegenerateFmaxMarkedInfeasibleNotNan) {
  dse::DseConfig config;
  config.device.base_fmax_mhz = 0.0;  // degenerate device parameters
  const auto body = dse::make_dot_kernel(4);
  const auto point =
      dse::evaluate_design(body, 2, dse::ResourceBudget{}, config);
  EXPECT_FALSE(point.cost.fits);
  EXPECT_TRUE(std::isinf(point.total_latency_us));
  EXPECT_FALSE(std::isnan(point.total_latency_us));

  // The sweep keeps no such point: every strategy filters it out instead of
  // letting an Inf/NaN latency poison the front.
  config.space = oversized_space();
  for (const bool memoize : {false, true}) {
    config.memoize = memoize;
    const auto result = dse::dse_exhaustive(body, config);
    EXPECT_EQ(result.feasible, 0u);
    EXPECT_TRUE(result.evaluated.empty());
    EXPECT_TRUE(result.front.empty());
    EXPECT_EQ(result.evaluations, dse::dse_grid(config.space).size());
  }
}

TEST(DseCache, EvaluateDesignOffAxisUnrollStillWorks) {
  // Direct callers may evaluate unroll factors outside the space; the
  // strategies' cache must not be a prerequisite for correctness.
  const auto body = dse::make_fir_kernel(4);
  dse::DseConfig config;
  const auto direct = dse::evaluate_design(body, 3, dse::ResourceBudget{}, config);
  EXPECT_EQ(direct.unroll, 3);
  EXPECT_TRUE(std::isfinite(direct.total_latency_us));
}
