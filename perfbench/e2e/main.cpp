// icsc_e2e: end-to-end benchmark of the paper pipelines.
//
//   icsc_e2e --workload <paper_models|numeric_kernels|campaign_service>
//            --seed <n> --seconds <s> --trace <0|1> --scratch <dir> [--smoke]
//
// Sets the workload up a fixed number of times (setup_s is the median), then
// runs timed passes of it for --seconds, each followed by an untimed check.
// With --trace 1 the first half of the time runs with tracing off and the
// second half with the benchmark's layer spans and core/trace on, so the
// per-layer split and the tracing overhead come from one process. The last
// line of stdout is the JSON result.
#include <malloc.h>
#include <sched.h>
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"

namespace {

using namespace e2e;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, measured with tracing off, on every workload. A
// pass's CPU time is the gated cost. On a shared VM a pass's wall time
// swings with host CPU contention and fsync latency -- even the fastest
// pass of a run, on campaign_service, by a third from run to run -- so
// wall time is reported (per layer, and on every run's report lines) but
// not gated. CPU time does not see a loss of parallelism or time spent
// waiting; the gate cannot catch those.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics of the --trace 1 run. The pipeline throughputs come
// from its untraced half; busy times and counts from its traced half. A
// layer a workload does not run reads 0 there. With --trace 0 only the
// pipeline throughputs are reported beside the end-to-end metrics.
constexpr MetricDef kPerLayer[] = {
    {"wall_s", "s"},
    {"wall_min_s", "s"},
    {"error_rate", "ratio"},
    {"dse_points_per_s", "1/s"},
    {"sparta_mcycles_per_s", "Mcycle/s"},
    {"scf_study_s", "s"},
    {"sr_mpix_per_s", "MPix/s"},
    {"imc_mvm_per_s", "1/s"},
    {"dna_kb_per_s", "KiB/s"},
    {"xfmr_tokens_per_s", "tok/s"},
    {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"},
    {"job_p99_ms", "ms"},
    {"hls.dse.busy_s", "s"},
    {"hls.dse.points", "count"},
    {"hls.dse.memo_hit_ratio", "ratio"},
    {"hls.dse.evaluate_self_s", "s"},
    {"hls.dse.store_served", "count"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.appends", "count"},
    {"hls.sparta.busy_s", "s"},
    {"hls.sparta.sim_cycles", "cycles"},
    {"hls.sparta.tasks", "count"},
    {"hls.sparta.cache_hit_rate", "ratio"},
    {"scf.forward.busy_s", "s"},
    {"scf.forward.calls", "count"},
    {"scf.run_trace.busy_s", "s"},
    {"scf.kernel_calls", "count"},
    {"scf.sim_cycles", "cycles"},
    {"approx.upscale_exact.busy_s", "s"},
    {"approx.upscale_foveated.busy_s", "s"},
    {"approx.macs", "count"},
    {"imc.program.busy_s", "s"},
    {"imc.program.pulses", "count"},
    {"imc.mvm.busy_s", "s"},
    {"imc.mvm.count", "count"},
    {"imc.energy_pj", "pJ"},
    {"dna.encode.busy_s", "s"},
    {"dna.channel.busy_s", "s"},
    {"dna.cluster.busy_s", "s"},
    {"dna.consensus.busy_s", "s"},
    {"dna.decode.busy_s", "s"},
    {"dna.pair_comparisons", "count"},
    {"dna.screened_ratio", "ratio"},
    {"dna.dp_cells", "count"},
    {"dna.byte_error_rate", "ratio"},
    {"journal.appends", "count"},
    {"journal.bytes", "B"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.run_p50_ms.dse", "ms"},
    {"service.run_p50_ms.dna", "ms"},
    {"service.run_p50_ms.mvm", "ms"},
    {"service.job_cpu_s.dse", "s"},
    {"service.job_cpu_s.dna", "s"},
    {"service.job_cpu_s.mvm", "s"},
    {"service.coalesced_batches", "count"},
    {"service.mean_batch_size", "count"},
    {"service.rejected", "count"},
    {"service.shed", "count"},
    {"parallel.threads", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped", "count"},
    {"trace.unattributed_pct", "%"},
};

constexpr const char* kPassSpan = "e2e/pass";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "icsc_e2e: %s\nusage: icsc_e2e --workload <paper_models|"
               "numeric_kernels|campaign_service> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--smoke]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--scratch") {
      o.scratch = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.scratch.empty()) usage("--scratch is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::unique_ptr<Workload> make_workload(Context& ctx) {
  const auto& name = ctx.options.workload;
  if (name == "paper_models") return make_paper_models(ctx);
  if (name == "numeric_kernels") return make_numeric_kernels(ctx);
  if (name == "campaign_service") return make_campaign_service(ctx);
  usage(("unknown workload " + name).c_str());
}

bool on_tmpfs(const std::string& dir) {
  struct statfs fs {};
  return statfs(dir.c_str(), &fs) == 0 && fs.f_type == 0x01021994;
}

void print_fingerprint(const Options& o) {
  namespace simd = icsc::core::simd;
  const char* threads_env = std::getenv("ICSC_THREADS");
  const std::string build_type = ICSC_E2E_BUILD_TYPE;
  std::printf("host: nproc=%u pool_threads=%zu ICSC_THREADS=%s\n",
              std::thread::hardware_concurrency(),
              icsc::core::parallel_threads(),
              threads_env ? threads_env : "(unset)");
  std::printf("host: cpu_features=%s\n", simd::cpu_features().c_str());
  std::printf("host: simd_isa=%s (detected %s)\n",
              simd::isa_name(simd::active_isa()),
              simd::isa_name(simd::detected_isa()));
  std::printf("build: compiler=%s build_type=%s%s\n", ICSC_E2E_COMPILER,
              build_type.c_str(),
              build_type == "Release" ? "" : "  WARNING: not a Release build");
  std::printf("run: workload=%s seed=%llu%s seconds=%s trace=%d smoke=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seed == kDefaultSeed  ? " (default, pinned)"
              : o.seed == kHeldOutSeed ? " (held-out, pinned)"
                                       : "",
              exact(o.seconds).c_str(), o.trace ? 1 : 0, o.smoke ? 1 : 0);
  std::printf("run: scratch=%s tmpfs=%s\n", o.scratch.c_str(),
              on_tmpfs(o.scratch) ? "yes" : "no");
}

/// Runs passes until `seconds` have elapsed (at least two, so every output
/// is seen to repeat), each followed by its untimed check. Returns the CPU
/// seconds of each pass.
std::vector<double> timed_phase(Context& ctx, Workload& w, double seconds,
                                std::vector<double>& pass_s) {
  std::vector<double> cpu;
  const double stop = now_s() + seconds;
  for (std::uint64_t k = 0; k < 2 || now_s() < stop; ++k) {
    const double c0 = cpu_s();
    const double t0 = now_s();
    {
      Span span(ctx.tracer, kPassSpan, ctx.tracer.new_op());
      w.pass(k);
    }
    pass_s.push_back(now_s() - t0);
    cpu.push_back(cpu_s() - c0);
    // The checks' own calls stay out of the trace.
    const bool tracing = icsc::core::trace::enabled();
    icsc::core::trace::set_enabled(false);
    w.check_pass(k);
    icsc::core::trace::set_enabled(tracing);
  }
  return cpu;
}

int run(Context& ctx) {
  const Options& o = ctx.options;
  print_fingerprint(o);

  // Set up a fixed number of times; keep the last. The first pool and
  // SIMD dispatch are part of set-up. Set-up is mostly one thread, and on a
  // shared host one CPU can run half as fast as another for seconds at a
  // time, so after the first set-up (which starts the pool with the
  // process's own CPU mask) each is pinned to the next allowed CPU in turn:
  // every CPU weighs equally in the median.
  cpu_set_t allowed;
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  while (!w || static_cast<int>(setups.size()) < w->setup_repeats()) {
    if (!setups.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[setups.size() % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    w.reset();
    const double t0 = now_s();
    icsc::core::parallel_for(0, 64, 1, [](std::size_t, std::size_t) {});
    (void)icsc::core::simd::active_isa();
    w = make_workload(ctx);
    w->setup();
    setups.push_back(now_s() - t0);
  }
  sched_setaffinity(0, sizeof allowed, &allowed);

  const double untraced_seconds = o.trace ? o.seconds / 2.0 : o.seconds;
  const auto cpu = timed_phase(ctx, *w, untraced_seconds, w->untraced_pass_s);
  if (o.trace) {
    ctx.tracer.enable();
    timed_phase(ctx, *w, o.seconds / 2.0, w->traced_pass_s);
    icsc::core::trace::set_enabled(false);
  }
  w->verify();

  Report report;
  if (o.trace) {
    for (const auto& m : kPerLayer) report.set(m.name, 0.0, m.unit);
  }
  report.set("setup_s", median(setups), "s");
  report.set("wall_s", median(w->untraced_pass_s), "s");
  report.set("wall_min_s", percentile(w->untraced_pass_s, 0), "s");
  report.set("cpu_s", median(cpu), "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("setups: %zu, median %s s\n", setups.size(),
              exact(median(setups)).c_str());
  std::printf(
      "passes: untraced=%zu (min %s s, median %s s, max %s s) traced=%zu\n",
      w->untraced_pass_s.size(),
      exact(percentile(w->untraced_pass_s, 0)).c_str(),
      exact(median(w->untraced_pass_s)).c_str(),
      exact(percentile(w->untraced_pass_s, 100)).c_str(),
      w->traced_pass_s.size());

  const auto records = ctx.tracer.records();
  w->report(report, records);
  const std::uint64_t attempted = std::max<std::uint64_t>(w->attempted, 1);
  const std::uint64_t failed =
      std::min<std::uint64_t>(ctx.checks.failures(), attempted);
  report.set("error_rate",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio");
  report.set("parallel.threads",
             static_cast<double>(icsc::core::parallel_threads()), "count");
  if (o.trace) {
    report.set("trace.overhead_pct",
               100.0 * (median(w->traced_pass_s) /
                            median(w->untraced_pass_s) -
                        1.0),
               "%");
    report.set("trace.dropped",
               static_cast<double>(icsc::core::trace::dropped()), "count");
    report.set("trace.unattributed_pct", unattributed_pct(records, kPassSpan),
               "%");

    std::printf("\n=== self time per span (traced half) ===\n");
    for (const auto& [name, self] : self_times_s()) {
      std::printf("self %-40s %s s\n", name.c_str(), exact(self).c_str());
    }
    print_slowest_ops(records, kPassSpan, 3);
    const std::string trace_path =
        o.scratch + "/trace-" + o.workload + ".json";
    icsc::core::trace::write_chrome_json(trace_path);
    std::printf("trace: %s (%zu benchmark spans)\n", trace_path.c_str(),
                records.size());
  }
  report.print_lines(o.trace ? "metrics (trace on)" : "metrics (trace off)");

  ctx.checks.print_failures();
  const bool correct = ctx.checks.failures() == 0;
  std::vector<std::string> names;
  if (o.trace) {
    for (const auto& m : kPerLayer) names.push_back(m.name);
  } else {
    for (const auto& m : kEndToEnd) names.push_back(m.name);
  }
  report.print_result(correct, attempted, failed, names);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it each time a large
  // block is freed, after which large buffers stay in whichever thread's
  // arena freed them, and the peak resident memory of a run varies by a
  // tenth with thread scheduling. Fixed, a large buffer is returned when
  // freed and peak_rss_mb follows the live memory.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  const Options options = parse(argc, argv);
  std::filesystem::create_directories(options.scratch);
  Context ctx{options, {}, {},
              Pins(options.workload, options.seed, !options.smoke)};
  try {
    return run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icsc_e2e: %s\n", e.what());
    return 1;
  }
}
