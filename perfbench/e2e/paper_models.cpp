// paper_models: the analytic and cycle-approximate models, where `hls` and
// `scf` do nearly all the work -- no conv/SIMD kernels, no DNA, no disk.
//
// One pass: the Sec. III DSE (4 kernels x sequential/pipelined over a
// 768-point space), SPARTA SpMV/BFS/PageRank on a seeded R-MAT graph, the
// Fig. 8 strong (both block configs, to 64 CUs) and weak (to 8 CUs)
// scaling study, and the Fig. 5 DL pipeline as a check.
#include <cmath>
#include <cstring>

#include "common.hpp"
#include "core/graph.hpp"
#include "hetero/dl_pipeline.hpp"
#include "hls/dse.hpp"
#include "hls/sparta.hpp"
#include "scf/fabric.hpp"

namespace e2e {
namespace {

using namespace icsc;

/// Work and simulated statistics of the passes run with tracing off
/// (index 0) or on (index 1).
struct Tally {
  double dse_s = 0.0;
  std::uint64_t dse_points = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  double sparta_s = 0.0;
  std::uint64_t sparta_cycles = 0;
  std::uint64_t sparta_tasks = 0;
  std::uint64_t sparta_requests = 0;
  std::uint64_t sparta_hits = 0;
  double scf_s = 0.0;
  std::uint64_t scf_forwards = 0;
  std::uint64_t scf_kernels = 0;
  std::uint64_t scf_cycles = 0;
  std::uint64_t passes = 0;
};

/// Everything a pass computes that must repeat exactly.
struct Outputs {
  std::uint64_t dse_digest = 0;
  std::uint64_t sparta_cycles = 0;
  std::uint64_t sparta_digest = 0;
  std::vector<std::vector<scf::ScalingPoint>> studies;
  double train_gain = 0.0;
  double infer_gain = 0.0;
};

bool same_points(const std::vector<scf::ScalingPoint>& a,
                 const std::vector<scf::ScalingPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.cus != y.cus ||
        std::memcmp(&x.speedup, &y.speedup, sizeof(double)) != 0 ||
        std::memcmp(&x.efficiency, &y.efficiency, sizeof(double)) != 0 ||
        std::memcmp(&x.gflops, &y.gflops, sizeof(double)) != 0 ||
        std::memcmp(&x.tflops_per_watt, &y.tflops_per_watt,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct Study {
  const char* name;
  scf::TransformerConfig model;
  bool weak;
  int max_cus;
};

class PaperModels final : public Workload {
public:
  explicit PaperModels(Context& ctx) : ctx_(ctx) {}

  void setup() override {
    const bool smoke = ctx_.options.smoke;
    const std::uint64_t seed = ctx_.options.seed;
    kernels_ = {hls::make_fir_kernel(16), hls::make_dot_kernel(16),
                hls::make_spmv_row_kernel(8), hls::make_bfs_expand_kernel(8)};
    dse_.iterations = 4096;
    if (smoke) {
      dse_.space.unroll_factors = {1, 2};
      dse_.space.alu_counts = {1, 2};
      dse_.space.mul_counts = {1};
      dse_.space.mem_port_counts = {1, 2};
    } else {  // bench_hls_dse's 6*8*4*4 = 768-point space
      dse_.space.unroll_factors = {1, 2, 3, 4, 6, 8};
      dse_.space.alu_counts = {1, 2, 3, 4, 5, 6, 7, 8};
      dse_.space.mul_counts = {1, 2, 3, 4};
      dse_.space.mem_port_counts = {1, 2, 3, 4};
    }

    graph_ = core::make_rmat_graph(smoke ? 8 : 16, 8.0, seed);
    apps_ = {{"spmv", hls::make_spmv_tasks(graph_)},
             {"bfs", hls::make_bfs_tasks(graph_)},
             {"pagerank", hls::make_pagerank_tasks(graph_)}};

    scf::TransformerConfig small;  // 128 x 256
    scf::TransformerConfig large;  // 256 x 512
    large.seq_len = 256;
    large.d_model = 512;
    large.heads = 8;
    large.d_ff = 2048;
    if (smoke) {
      small.seq_len = 16;
      small.d_model = 32;
      small.heads = 2;
      small.d_ff = 64;
      large = small;
      large.seq_len = 32;
    }
    small.seed = large.seed = seed;
    const int max_strong = smoke ? 4 : 64;
    // Weak scaling grows the sequence with the CU count; 8 CUs keeps the
    // study to a few seconds (16 CUs alone take about 4 s).
    const int max_weak = smoke ? 2 : 8;
    studies_ = {{"strong_128x256", small, false, max_strong},
                {"strong_256x512", large, false, max_strong},
                {"weak_128x256", small, true, max_weak}};
  }

  void pass(std::uint64_t k) override {
    Tracer& tracer = ctx_.tracer;
    Tally& t = tally_[tracer.on() ? 1 : 0];
    Outputs out;

    for (const auto& kernel : kernels_) {
      for (const bool pipelined : {false, true}) {
        hls::DseConfig config = dse_;
        config.pipelined = pipelined;
        const double t0 = now_s();
        hls::DseResult r;
        {
          Span span(tracer, "e2e/hls.dse", tracer.new_op());
          r = hls::dse_exhaustive(kernel, config);
        }
        t.dse_s += now_s() - t0;
        t.dse_points += r.evaluations;
        t.memo_hits += r.cache_hits;
        t.memo_misses += r.cache_misses;
        out.dse_digest = digest(r, out.dse_digest);
        ++attempted;
      }
    }

    for (const auto& [name, tasks] : apps_) {
      const double t0 = now_s();
      hls::SpartaStats s;
      {
        Span span(tracer, "e2e/hls.sparta", tracer.new_op());
        s = hls::simulate_sparta(tasks, hls::SpartaConfig{});
      }
      t.sparta_s += now_s() - t0;
      t.sparta_cycles += s.cycles;
      t.sparta_tasks += s.tasks_executed;
      t.sparta_requests += s.mem_requests;
      t.sparta_hits += s.cache_hits;
      out.sparta_cycles += s.cycles;
      const std::uint64_t fields[] = {s.cycles, s.mem_requests, s.cache_hits,
                                      s.scratchpad_hits, s.tasks_executed};
      out.sparta_digest = fnv(fields, sizeof fields, out.sparta_digest);
      ctx_.checks.expect(s.tasks_executed == tasks.size(),
                         std::string("sparta ") + name + " ran every task");
      ++attempted;
    }

    for (const auto& study : studies_) {
      const double t0 = now_s();
      // Traced passes call the stage functions the one-call study hides,
      // so the split is per stage; verify() proves them bit-identical.
      out.studies.push_back(tracer.on() ? replica(study, t)
                            : study.weak
                                ? scf::weak_scaling(study.model, {},
                                                    study.max_cus)
                                : scf::strong_scaling(study.model, {},
                                                      study.max_cus));
      t.scf_s += now_s() - t0;
      ++attempted;
    }

    // Fig. 5 DL pipeline: analytic, a correctness check only.
    hetero::PipelineConfig base_train;
    hetero::PipelineConfig comp_train;
    comp_train.io_path = hetero::IoPath::kComputationalStorage;
    comp_train.storage = hetero::storage_computational_ssd();
    hetero::PipelineConfig base_infer = base_train;
    hetero::PipelineConfig comp_infer = comp_train;
    base_infer.training = comp_infer.training = false;
    out.train_gain = hetero::relative_improvement(
        hetero::run_pipeline(base_train), hetero::run_pipeline(comp_train),
        true);
    out.infer_gain = hetero::relative_improvement(
        hetero::run_pipeline(base_infer), hetero::run_pipeline(comp_infer),
        false);
    ++attempted;
    ++t.passes;

    if (k == 0 && !tracer.on()) {
      first_ = out;
      return;
    }
    // Every pass, traced or not, must reproduce the first one exactly.
    bool same = out.dse_digest == first_.dse_digest &&
                out.sparta_digest == first_.sparta_digest &&
                out.train_gain == first_.train_gain &&
                out.infer_gain == first_.infer_gain &&
                out.studies.size() == first_.studies.size();
    for (std::size_t i = 0; same && i < out.studies.size(); ++i) {
      same = same_points(out.studies[i], first_.studies[i]);
    }
    ctx_.checks.expect(same, "paper_models pass " + std::to_string(k) +
                                 (tracer.on() ? " (traced)" : "") +
                                 " repeats pass 0 exactly");
  }

  void verify() override {
    // The stage replica must equal the one-call study bit for bit; traced
    // passes already compared theirs, so run it here only when none ran.
    if (tally_[1].passes == 0) {
      Tally scratch;
      for (std::size_t i = 0; i < studies_.size(); ++i) {
        ctx_.checks.expect(
            same_points(replica(studies_[i], scratch), first_.studies[i]),
            std::string("scf stage replica equals one-call study ") +
                studies_[i].name);
      }
      replica_cycles_ = scratch.scf_cycles;
    } else {
      replica_cycles_ = tally_[1].scf_cycles / tally_[1].passes;
    }

    Pins& pins = ctx_.pins;
    Checks& checks = ctx_.checks;
    pins.record(checks, "hls.dse.front_digest", exact(first_.dse_digest),
                "E7: exhaustive DSE is the reference front (100 % HV)");
    pins.record(checks, "hls.sparta.sim_cycles", exact(first_.sparta_cycles));
    pins.record(checks, "scf.sim_cycles", exact(replica_cycles_));
    const auto& strong_small = first_.studies[0];
    pins.record(checks, "scf.strong_128x256.efficiency_at_max",
                exact(strong_small.back().efficiency),
                "E9: 12 % strong-scaling efficiency at 64 CUs (128x256)");
    pins.record(checks, "scf.weak_128x256.efficiency_at_max",
                exact(first_.studies[2].back().efficiency),
                "E9: 44 % weak-scaling efficiency at 64 CUs (capped here)");
    pins.record(checks, "dl.train_gain", exact(first_.train_gain),
                "E3: up to 10 % (measured 5.9 %)");
    pins.record(checks, "dl.infer_gain", exact(first_.infer_gain),
                "E3: up to 10 % (measured 16.6 %)");
    checks.expect(std::abs(first_.train_gain - 0.059) < 0.0005 &&
                      std::abs(first_.infer_gain - 0.166) < 0.0005,
                  "Fig. 5 DL pipeline gains match EXPERIMENTS.md E3");

    // SPARTA's Sec. III claim: multithreaded lanes vs the serial HLS
    // accelerator, on this pass's SpMV.
    const auto& spmv = apps_.front().second;
    const auto fast = hls::simulate_sparta(spmv, hls::SpartaConfig{});
    const auto serial = hls::simulate_sparta(
        spmv, hls::serial_baseline_config(hls::SpartaConfig{}));
    const double speedup = static_cast<double>(serial.cycles) /
                           static_cast<double>(fast.cycles);
    pins.record(checks, "hls.sparta.spmv_speedup_vs_serial", exact(speedup),
                "E7: 9.5x on RMAT-14 (this graph is RMAT-" +
                    std::string(ctx_.options.smoke ? "8" : "16") + ")");
    checks.expect(speedup > 1.0, "SPARTA beats the serial baseline");
  }

  void report(Report& r, const std::vector<Tracer::Record>& records) override {
    const Tally& u = tally_[0];
    const Tally& t = tally_[1];
    r.set("dse_points_per_s", static_cast<double>(u.dse_points) / u.dse_s,
          "1/s");
    r.set("sparta_mcycles_per_s",
          static_cast<double>(u.sparta_cycles) * 1e-6 / u.sparta_s,
          "Mcycle/s");
    r.set("scf_study_s", u.scf_s / static_cast<double>(u.passes), "s");
    if (t.passes == 0) return;
    // Busy times and counts per traced pass.
    const auto per_pass = [&](auto v) {
      return static_cast<double>(v) / static_cast<double>(t.passes);
    };
    const auto busy = [&](const char* span) {
      return per_pass(busy_s(records, span));
    };
    r.set("hls.dse.busy_s", busy("e2e/hls.dse"), "s");
    r.set("hls.dse.points", per_pass(t.dse_points), "count");
    r.set("hls.dse.memo_hit_ratio",
          static_cast<double>(t.memo_hits) /
              static_cast<double>(t.memo_hits + t.memo_misses),
          "ratio");
    const auto self = self_times_s();
    const auto it = self.find("dse/evaluate");
    r.set("hls.dse.evaluate_self_s",
          per_pass(it == self.end() ? 0.0 : it->second), "s");
    r.set("hls.sparta.busy_s", busy("e2e/hls.sparta"), "s");
    r.set("hls.sparta.sim_cycles", per_pass(t.sparta_cycles), "cycles");
    r.set("hls.sparta.tasks", per_pass(t.sparta_tasks), "count");
    r.set("hls.sparta.cache_hit_rate",
          static_cast<double>(t.sparta_hits) /
              static_cast<double>(t.sparta_requests),
          "ratio");
    r.set("scf.forward.busy_s", busy("e2e/scf.forward"), "s");
    r.set("scf.forward.calls", per_pass(t.scf_forwards), "count");
    r.set("scf.run_trace.busy_s", busy("e2e/scf.run_trace"), "s");
    r.set("scf.kernel_calls", per_pass(t.scf_kernels), "count");
    r.set("scf.sim_cycles", per_pass(t.scf_cycles), "cycles");
  }

private:
  /// strong_scaling / weak_scaling (scf/fabric.cpp) as their stage calls:
  /// TransformerBlock::forward for the kernel trace, then
  /// ScalableComputeFabric::run_trace per CU count.
  std::vector<scf::ScalingPoint> replica(const Study& study, Tally& t) {
    Tracer& tracer = ctx_.tracer;
    const std::uint64_t op = tracer.new_op();
    std::vector<scf::ScalingPoint> points;
    std::vector<scf::KernelCall> trace;
    const auto forward = [&](const scf::TransformerConfig& model) {
      Span span(tracer, "e2e/scf.forward", op);
      trace.clear();
      const scf::TransformerBlock block(model);
      block.forward(scf::make_activations(model, 1), &trace);
      ++t.scf_forwards;
    };
    if (!study.weak) forward(study.model);
    double base = 0.0;
    for (int cus = 1; cus <= study.max_cus; cus *= 2) {
      scf::TransformerConfig model = study.model;
      if (study.weak) {
        model.seq_len = study.model.seq_len * static_cast<std::size_t>(cus);
        forward(model);
      }
      scf::FabricConfig config;
      config.num_cus = cus;
      scf::FabricRunStats stats;
      double tflops_per_watt = 0.0;
      {
        Span span(tracer, "e2e/scf.run_trace", op);
        const scf::ScalableComputeFabric fabric(config);
        stats = fabric.run_trace(trace);
        tflops_per_watt = fabric.tflops_per_watt(stats);
      }
      t.scf_kernels += trace.size();
      t.scf_cycles += stats.cycles;
      const double cycles = static_cast<double>(stats.cycles);
      const double rate = static_cast<double>(stats.flops) / cycles;
      if (cus == 1) base = study.weak ? rate : cycles;
      scf::ScalingPoint p;
      p.cus = cus;
      p.speedup = study.weak ? rate / base : base / cycles;
      p.efficiency = p.speedup / cus;
      p.gflops = stats.gflops(config.cu.fclk_mhz);
      p.tflops_per_watt = tflops_per_watt;
      points.push_back(p);
    }
    return points;
  }

  Context& ctx_;
  std::vector<hls::Kernel> kernels_;
  hls::DseConfig dse_;
  core::CsrGraph graph_;
  std::vector<std::pair<const char*, std::vector<hls::SpartaTask>>> apps_;
  std::vector<Study> studies_;
  Tally tally_[2];
  Outputs first_;
  std::uint64_t replica_cycles_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_models(Context& ctx) {
  return std::make_unique<PaperModels>(ctx);
}

}  // namespace e2e
