// Hot-kernel gate: times every optimized single-thread kernel against the
// retained reference path it replaced, in the same process, and fails on
// any of three gates:
//
//   identity  -- the new path's output must equal the reference bit for bit;
//   floor     -- old_ms / new_ms must reach the row's compiled-in
//                min_speedup;
//   counters  -- the memoized DSE sweep must run >= 3x fewer schedule_list
//                pipelines than the uncached one (trace counters, no timing).
//
// The floor is an in-run ratio of two paths timed alternately on one core,
// so it reads the same on any x86-64 host; no absolute milliseconds are
// compared across machines. Where the SIMD ISAs overlap, a floor is only a
// regression guard that every ISA passes. dna_cluster_reads separates them:
// its floor sits between the vectorized (SSE4/AVX2) and the forced-scalar
// ratios, so a run under ICSC_SIMD=scalar, or a build whose SIMD dispatch
// silently stopped engaging, fails it. EXPERIMENTS.md E14 lists the
// measured per-ISA ratios behind each floor.
//
// Rows (new path vs retained old path):
//   dse_exhaustive            memoized sweep vs uncached sweep
//   conv3x3_fixed_point       ConvLayer::apply vs apply_reference
//   approx_conv_truncated_loa apply_approx vs apply_approx_reference
//   htconv_foveated           apply_foveated vs apply_foveated_reference
//   dna_cluster_reads         cluster_reads (length + q-gram screens against
//                             the threshold, banded Myers on survivors) vs
//                             cluster_reads_reference (full DP per pair);
//                             clusters, representatives and pair counts
//                             must match
//   imc_crossbar_mvm          matvec_raw_batch vs matvec_raw_reference,
//                             each sample repeating the batch for >= 15 ms
//   scf_gemm                  core::simd::gemm_f32 (packed 16-column panels,
//                             4 x 16 register tiles) vs gemm_reference (one
//                             scalar dot-product chain per output) on the
//                             256 x 512 x 2048 ffn_up shape, bf16 store
//
// All measurements run serially (core::ScopedSerial), best of 7, so the
// numbers isolate the single-thread kernel work from thread-pool scaling,
// which bench_hls_dse / bench_fig6_dna already cover. Usage (no arguments;
// exit 0 when every gate holds, 1 otherwise):
//
//   bench_kernels
//   ICSC_SIMD=scalar bench_kernels   # must fail the dna_cluster_reads floor
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "approx/approx_conv.hpp"
#include "approx/conv.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/table.hpp"
#include "core/trace.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hls/dse.hpp"
#include "imc/crossbar.hpp"

namespace {

using namespace icsc;

/// Repetitions per timed path; the best of them is reported.
constexpr int kReps = 7;

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

struct KernelRow {
  std::string name;
  /// Floor on old_ms / new_ms (see the header comment).
  double min_speedup = 0.0;
  double old_ms = 0.0;
  double new_ms = 0.0;
  bool identical = false;
  /// A row-specific gate's FAIL message; empty when it holds.
  std::string gate_failure;
};

double speedup(const KernelRow& row) {
  return row.new_ms > 0.0 ? row.old_ms / row.new_ms : 0.0;
}

/// Best-of-kReps wall time of both paths, the minimum being the standard
/// noise-robust estimator for single-thread micro-kernels. The two paths
/// alternate, so a stretch of contention from other tenants of the host
/// slows repetitions of both instead of every repetition of one.
void time_pair(KernelRow& row, const std::function<void()>& old_path,
               const std::function<void()>& new_path) {
  row.old_ms = wall_ms(old_path);
  row.new_ms = wall_ms(new_path);
  for (int r = 1; r < kReps; ++r) {
    row.old_ms = std::min(row.old_ms, wall_ms(old_path));
    row.new_ms = std::min(row.new_ms, wall_ms(new_path));
  }
}

// The benches must not let the optimizer delete the timed call; a volatile
// sink is enough without pulling in google-benchmark's macros.
template <typename T>
void benchmark_keep(const T& value) {
  static volatile std::size_t sink = 0;
  sink = sink + reinterpret_cast<std::uintptr_t>(&value) % 7;
}

// --- HLS DSE: uncached vs memoized exhaustive sweep --------------------

bool dse_identical(const hls::DseResult& a, const hls::DseResult& b) {
  if (a.evaluations != b.evaluations || a.feasible != b.feasible ||
      a.evaluated.size() != b.evaluated.size() ||
      a.front.size() != b.front.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    const auto& pa = a.evaluated[i];
    const auto& pb = b.evaluated[i];
    if (pa.unroll != pb.unroll || pa.budget.alus != pb.budget.alus ||
        pa.budget.muls != pb.budget.muls ||
        pa.budget.mem_ports != pb.budget.mem_ports ||
        pa.total_latency_us != pb.total_latency_us ||
        pa.area_score != pb.area_score || pa.cost.cycles != pb.cost.cycles) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    if (a.front[i].id != b.front[i].id) return false;
  }
  return true;
}

KernelRow bench_dse() {
  // A budget grid that extends well past the kernel's occupancy, as real
  // sweeps do: most points collapse onto shared effective-budget slots.
  const auto kernel = hls::make_dot_kernel(16);
  hls::DseConfig uncached;
  uncached.iterations = 16384;
  uncached.space.unroll_factors = {1, 2, 4, 8};
  uncached.space.alu_counts = {1, 2, 4, 8, 16, 32};
  uncached.space.mul_counts = {1, 2, 4, 8, 16, 32};
  uncached.space.mem_port_counts = {1, 2, 4};  // 4*6*6*3 = 432 points
  uncached.memoize = false;
  hls::DseConfig cached = uncached;
  cached.memoize = true;

  // Counter-verified schedule_list reduction (the counters gate).
  core::trace::set_enabled(true);
  core::trace::reset();
  const auto old_result = hls::dse_exhaustive(kernel, uncached);
  const std::uint64_t old_calls = core::trace::counters()["dse.schedule_calls"];
  core::trace::reset();
  const auto new_result = hls::dse_exhaustive(kernel, cached);
  const std::uint64_t new_calls = core::trace::counters()["dse.schedule_calls"];
  core::trace::set_enabled(false);
  core::trace::reset();

  KernelRow row;
  row.name = "dse_exhaustive";
  row.min_speedup = 1.5;  // not vectorized: a regression guard
  row.identical = dse_identical(old_result, new_result);
  time_pair(
      row, [&] { benchmark_keep(hls::dse_exhaustive(kernel, uncached)); },
      [&] { benchmark_keep(hls::dse_exhaustive(kernel, cached)); });
  if (new_calls * 3 > old_calls) {
    row.gate_failure = "memoized sweep ran " + std::to_string(new_calls) +
                       " schedule_list pipelines vs " +
                       std::to_string(old_calls) +
                       " uncached (< 3x reduction)";
  }
  return row;
}

// --- Convolution engines ----------------------------------------------

approx::FeatureMap random_map(std::size_t c, std::size_t h, std::size_t w,
                              std::uint64_t seed) {
  core::Rng rng(seed);
  approx::FeatureMap map({c, h, w});
  for (auto& v : map.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return map;
}

approx::ConvLayer random_layer(std::size_t cout, std::size_t cin,
                               std::size_t k, std::uint64_t seed) {
  core::Rng rng(seed);
  approx::ConvLayer layer;
  layer.weights = core::TensorF({cout, cin, k, k});
  for (auto& v : layer.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  layer.bias.assign(cout, 0.05F);
  layer.relu = true;
  return layer;
}

bool maps_identical(const approx::FeatureMap& a, const approx::FeatureMap& b) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

KernelRow bench_conv() {
  const auto layer = random_layer(16, 8, 3, 11);
  const auto input = random_map(8, 56, 56, 12);
  const approx::QuantConfig quant;  // Q7.8 activations, the Table I config
  KernelRow row;
  row.name = "conv3x3_fixed_point";
  row.min_speedup = 3.0;  // every ISA clears it: a regression guard
  const auto ref = layer.apply_reference(input, quant);
  const auto fast = layer.apply(input, quant);
  row.identical = maps_identical(ref, fast);
  time_pair(
      row, [&] { benchmark_keep(layer.apply_reference(input, quant)); },
      [&] { benchmark_keep(layer.apply(input, quant)); });
  return row;
}

KernelRow bench_approx_conv() {
  const auto layer = random_layer(12, 6, 3, 21);
  const auto input = random_map(6, 48, 48, 22);
  const approx::QuantConfig quant;
  approx::ApproxArithConfig arith;
  arith.multiplier = approx::ApproxArithConfig::Multiplier::kTruncated;
  arith.adder = approx::ApproxArithConfig::Adder::kLoa;  // non-associative
  KernelRow row;
  row.name = "approx_conv_truncated_loa";
  row.min_speedup = 1.8;  // every ISA clears it: a regression guard
  const auto ref = approx::apply_approx_reference(layer, input, quant, arith);
  const auto fast = approx::apply_approx(layer, input, quant, arith);
  row.identical = maps_identical(ref, fast);
  time_pair(
      row,
      [&] {
        benchmark_keep(
            approx::apply_approx_reference(layer, input, quant, arith));
      },
      [&] {
        benchmark_keep(approx::apply_approx(layer, input, quant, arith));
      });
  return row;
}

KernelRow bench_htconv() {
  approx::TconvLayer layer;
  core::Rng rng(31);
  layer.weights = core::TensorF({8, 4, 4});
  for (auto& v : layer.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  layer.bias = 0.02F;
  const auto input = random_map(8, 48, 48, 32);
  const auto fovea = approx::FovealRegion::centered(48, 48, 0.25);
  const approx::QuantConfig quant;
  KernelRow row;
  row.name = "htconv_foveated";
  row.min_speedup = 1.4;  // every ISA clears it: a regression guard
  const auto ref = layer.apply_foveated_reference(input, fovea, quant);
  const auto fast = layer.apply_foveated(input, fovea, quant);
  row.identical = ref.height() == fast.height() && ref.width() == fast.width();
  for (std::size_t r = 0; row.identical && r < ref.height(); ++r) {
    for (std::size_t c = 0; c < ref.width(); ++c) {
      if (ref.at(r, c) != fast.at(r, c)) {
        row.identical = false;
        break;
      }
    }
  }
  time_pair(
      row,
      [&] {
        benchmark_keep(layer.apply_foveated_reference(input, fovea, quant));
      },
      [&] { benchmark_keep(layer.apply_foveated(input, fovea, quant)); });
  return row;
}

// --- DNA read clustering ----------------------------------------------

bool clusters_identical(const hetero::dna::ClusterResult& a,
                        const hetero::dna::ClusterResult& b) {
  if (a.pair_comparisons != b.pair_comparisons ||
      a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    if (a.clusters[c].read_indices != b.clusters[c].read_indices ||
        a.clusters[c].representative != b.clusters[c].representative) {
      return false;
    }
  }
  return true;
}

KernelRow bench_dna() {
  namespace dna = hetero::dna;
  core::Rng rng(41);
  std::vector<dna::Strand> strands(96);
  for (auto& s : strands) {
    s.resize(120);
    for (auto& b : s) b = static_cast<dna::Base>(rng.below(4));
  }
  dna::ChannelParams channel;
  channel.mean_coverage = 6.0;
  channel.seed = 42;
  const auto reads = dna::simulate_channel(strands, channel);

  const dna::ClusterParams params;

  KernelRow row;
  row.name = "dna_cluster_reads";
  row.min_speedup = 280.0;  // separates SSE4/AVX2 from scalar
  const auto old_result =
      dna::cluster_reads_reference(reads.reads, params.distance_threshold);
  const auto new_result = dna::cluster_reads(reads.reads, params);
  row.identical = clusters_identical(old_result, new_result);
  time_pair(
      row,
      [&] {
        benchmark_keep(dna::cluster_reads_reference(
            reads.reads, params.distance_threshold));
      },
      [&] { benchmark_keep(dna::cluster_reads(reads.reads, params)); });
  return row;
}

// --- IMC crossbar raw MVM ---------------------------------------------

KernelRow bench_crossbar() {
  const std::size_t out_dim = 64;
  const std::size_t in_dim = 96;
  const std::size_t batch = 4;
  core::Rng rng(51);
  core::TensorF w({out_dim, in_dim});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::CrossbarConfig config;
  config.device = imc::pcm_spec();  // drift live: the worst-case read path
  config.ir_drop_per_row = 1e-4;
  config.seed = 7;
  std::vector<float> xs(batch * in_dim);
  for (auto& v : xs) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto vec = [&](std::size_t m) {
    return std::span<const float>(xs).subspan(m * in_dim, in_dim);
  };

  KernelRow row;
  row.name = "imc_crossbar_mvm";
  row.min_speedup = 0.8;  // same cost by design: no slower than 1.25x
  {
    // Two fresh arrays stay in RNG lockstep, so interleaving the fused
    // scalar oracle with the SoA two-pass MVM must agree bit for bit.
    imc::Crossbar oracle(w, config);
    imc::Crossbar fast(w, config);
    row.identical = true;
    for (std::size_t m = 0; m < batch; ++m) {
      const auto ref = oracle.matvec_raw_reference(vec(m), 10.0);
      const auto got = fast.matvec_raw(vec(m), 10.0);
      for (std::size_t o = 0; o < ref.size(); ++o) {
        if (ref[o] != got[o]) row.identical = false;
      }
    }
  }
  imc::Crossbar old_xbar(w, config);
  imc::Crossbar new_xbar(w, config);
  const auto old_batch = [&] {
    for (std::size_t m = 0; m < batch; ++m) {
      benchmark_keep(old_xbar.matvec_raw_reference(vec(m), 10.0));
    }
  };
  const auto new_batch = [&] {
    benchmark_keep(new_xbar.matvec_raw_batch(xs, batch, 10.0));
  };
  // One batch takes about 2 ms, as short as a stretch of contention from
  // another tenant of the host, and such samples read as low as 0.73x. So
  // each sample repeats the batch, the same number of times on both
  // paths, until the old path's sample lasts at least kMinSampleMs.
  constexpr double kMinSampleMs = 15.0;
  double once_ms = wall_ms(old_batch);
  for (int r = 1; r < 3; ++r) once_ms = std::min(once_ms, wall_ms(old_batch));
  const int repeats =
      std::max(1, static_cast<int>(std::ceil(kMinSampleMs / once_ms)));
  time_pair(
      row,
      [&] {
        for (int r = 0; r < repeats; ++r) old_batch();
      },
      [&] {
        for (int r = 0; r < repeats; ++r) new_batch();
      });
  return row;
}

// --- SCF transformer GEMM ---------------------------------------------

KernelRow bench_gemm() {
  // ffn_up of the 256 x 512 block (d_ff 2048): C = A W^T for A [256, 512]
  // and a [2048, 512] weight, packed once as at TransformerBlock
  // construction, so only the multiply is timed.
  const std::size_t m = 256, k = 512, n = 2048;
  core::Rng rng(61);
  std::vector<float> a(m * k), w(n * k);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 0.05));
  std::vector<float> packed(core::simd::gemm_packed_size(k, n));
  core::simd::gemm_pack_b(w.data(), 1, k, k, n, packed.data());
  std::vector<float> ref(m * n), got(m * n);
  const auto old_path = [&] {
    core::simd::gemm_reference(a.data(), k, w.data(), 1, k, m, k, n,
                               ref.data(), n, true);
  };
  const auto new_path = [&] {
    core::simd::gemm_f32(a.data(), k, packed.data(), m, k, n, got.data(), n,
                         true);
  };

  KernelRow row;
  row.name = "scf_gemm";
  row.min_speedup = 4.0;  // every ISA clears it: a regression guard
  old_path();
  new_path();
  row.identical =
      std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)) == 0;
  time_pair(row, old_path, new_path);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "bench_kernels takes no arguments (got %s)\n",
                 argv[1]);
    return 2;
  }

  // Serial so each ratio isolates single-thread kernel work.
  core::ScopedSerial serial;
  const std::vector<KernelRow> rows = {
      bench_dse(), bench_conv(),     bench_approx_conv(), bench_htconv(),
      bench_dna(), bench_crossbar(), bench_gemm()};

  core::TextTable table({"kernel", "old (ms)", "new (ms)", "speedup", "floor",
                         "bit-identical"});
  for (const auto& row : rows) {
    table.add_row({row.name, core::TextTable::num(row.old_ms, 2),
                   core::TextTable::num(row.new_ms, 2),
                   core::TextTable::num(speedup(row), 2) + "x",
                   core::TextTable::num(row.min_speedup, 2) + "x",
                   row.identical ? "yes" : "NO"});
  }
  std::printf(
      "=== hot kernels, old vs new (serial, best of %d, isa=%s, cpu: %s) "
      "===\n%s",
      kReps, core::simd::isa_name(core::simd::active_isa()),
      core::simd::cpu_features().c_str(), table.to_string().c_str());

  int failures = 0;
  for (const auto& row : rows) {
    if (!row.identical) {
      std::fprintf(stderr, "FAIL: %s outputs diverged from the reference\n",
                   row.name.c_str());
      ++failures;
    }
    if (speedup(row) < row.min_speedup) {
      std::fprintf(stderr,
                   "FAIL: %s speedup %.2fx below its %.2fx floor "
                   "(old %.3f ms, new %.3f ms)\n",
                   row.name.c_str(), speedup(row), row.min_speedup,
                   row.old_ms, row.new_ms);
      ++failures;
    }
    if (!row.gate_failure.empty()) {
      std::fprintf(stderr, "FAIL: %s %s\n", row.name.c_str(),
                   row.gate_failure.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
