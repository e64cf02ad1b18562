// Overload experiments for the multi-tenant campaign service (core/service
// + src/service adapters): the robustness counterpart of the throughput
// benches. The claims under test, from the service contract:
//
//   bounded     queue depth never exceeds its configured bound, even at 3x
//               sustained saturation (admission control, not buffering);
//   explicit    overload surfaces as counted rejections and sheds, never as
//               silent latency collapse -- p99 sojourn of *completed* jobs
//               stays inside the SLO implied by the queue bound;
//   fair        under contention no tenant completes less than half its
//               weighted fair share (deficit round-robin);
//   resumable   a watchdog-killed job leaves a journal record naming a
//               durable checkpoint, and resubmitting the same job resumes
//               from it instead of restarting;
//   responsive  interactive-class jobs keep a tight p99 sojourn while
//               background-class load saturates every worker, and the
//               background tenant still makes progress (strict priority +
//               aging, layered on DRR);
//   coalesced   same-shape small MVMs submitted with a coalesce key batch
//               into single device passes: >= 2x the throughput of the
//               unbatched service at equal workers, with results
//               bit-identical to solo execution.
//
// Modes:
//   bench_service            micro timings + full experiment suite
//   bench_service --quick    experiments only, CI-sized (seconds, not
//                            minutes); exit 0 iff every assertion held
//
// Each experiment prints one machine-readable "JSON {...}" line; CI greps
// and re-asserts the interesting fields (see the service-overload job).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/retry.hpp"
#include "core/service.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "hls/dse.hpp"
#include "hls/ir.hpp"
#include "service/jobs.hpp"

namespace {

using namespace icsc;

// ---------------------------------------------------------------------------
// Micro timings: submit/poll/drain overhead must stay negligible next to
// campaign bodies (milliseconds and up).

void BM_SubmitDrainEmptyJob(benchmark::State& state) {
  core::ServiceConfig config;
  config.workers = 2;
  config.max_queue_depth = 256;
  core::CampaignService service(config);
  for (auto _ : state) {
    core::JobRequest request;
    request.body = [](core::JobContext&) {};
    const auto outcome = service.submit(std::move(request));
    benchmark::DoNotOptimize(outcome.admitted);
    service.drain();
  }
}
BENCHMARK(BM_SubmitDrainEmptyJob)->Unit(benchmark::kMicrosecond);

void BM_PollTerminalJob(benchmark::State& state) {
  core::ServiceConfig config;
  core::CampaignService service(config);
  core::JobRequest request;
  request.body = [](core::JobContext&) {};
  const auto outcome = service.submit(std::move(request));
  service.drain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.poll(outcome.id).terminal);
  }
}
BENCHMARK(BM_PollTerminalJob);

void BM_RejectionPath(benchmark::State& state) {
  // Overloaded submit must be cheap: rejection is the backpressure signal,
  // so it fires exactly when the service can least afford extra work.
  core::ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;
  core::CampaignService service(config);
  std::atomic<bool> release{false};
  core::JobRequest blocker;
  blocker.body = [&release](core::JobContext& ctx) {
    while (!release.load() && !ctx.cancelled()) {
      ctx.heartbeat();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  (void)service.submit(std::move(blocker));
  core::JobRequest filler;
  filler.body = [](core::JobContext&) {};
  (void)service.submit(std::move(filler));  // fills the depth-1 queue
  for (auto _ : state) {
    core::JobRequest overflow;
    overflow.body = [](core::JobContext&) {};
    const auto outcome = service.submit(std::move(overflow));
    benchmark::DoNotOptimize(outcome.retry_after_seconds);
  }
  release.store(true);
  service.drain();
}
BENCHMARK(BM_RejectionPath);

// ---------------------------------------------------------------------------
// Experiment harness.

struct ExperimentScale {
  double job_cost_seconds = 0.002;  // per-job busy time
  std::size_t workers = 2;
  std::size_t max_queue_depth = 16;
  double open_loop_seconds = 1.0;   // bursty open-loop experiment length
  double closed_loop_jobs = 120;    // per closed-loop client
};

/// A job body that busies the worker for ~cost seconds, heartbeating and
/// honouring cancellation -- a stand-in for a short campaign batch with
/// deterministic cost (the load experiments need known capacity).
core::JobRequest timed_job(double cost_seconds, std::string tenant) {
  core::JobRequest request;
  request.tenant = std::move(tenant);
  request.cost_estimate_seconds = cost_seconds;
  request.body = [cost_seconds](core::JobContext& ctx) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(cost_seconds);
    while (std::chrono::steady_clock::now() < until) {
      if (ctx.cancelled()) return;
      ctx.heartbeat();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  return request;
}

bool check(bool ok, const char* what, bool& all_ok) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    all_ok = false;
  }
  return ok;
}

/// Closed-loop clients resubmitting rejections on decorrelated jitter:
/// every job eventually lands (bounded admission + backoff = no lost work,
/// just deferred work), and the p99 sojourn of completed jobs stays inside
/// the queue-bound SLO.
bool experiment_closed_loop(const ExperimentScale& scale) {
  core::ServiceConfig config;
  config.workers = scale.workers;
  config.max_queue_depth = scale.max_queue_depth;
  core::CampaignService service(config);

  constexpr int kClients = 4;
  std::atomic<std::uint64_t> gave_up{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int who = 0; who < kClients; ++who) {
    clients.emplace_back([&, who] {
      core::RetryPolicy policy;
      policy.max_retries = 64;
      policy.base_delay_seconds = scale.job_cost_seconds / 4.0;
      policy.max_delay_seconds = scale.job_cost_seconds * 8.0;
      policy.max_elapsed_seconds = 30.0;
      policy.decorrelated = true;
      policy.seed = 100 + static_cast<std::uint64_t>(who);
      for (int i = 0; i < static_cast<int>(scale.closed_loop_jobs); ++i) {
        const auto result = service::submit_with_backoff(
            service, timed_job(scale.job_cost_seconds, "default"), policy);
        if (!result.outcome.admitted) gave_up.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.drain();

  const core::ServiceStats stats = service.stats();
  const auto& sojourns = stats.tenants.at("default").sojourn_seconds;
  const double p50 = core::percentile(sojourns, 50.0);
  const double p99 = core::percentile(sojourns, 99.0);
  const double p999 = core::percentile(sojourns, 99.9);
  // Bounded queue => bounded sojourn: depth/workers service rounds plus the
  // job's own run, with generous slack for CI scheduling noise.
  const double slo =
      scale.job_cost_seconds *
      (static_cast<double>(scale.max_queue_depth) /
           static_cast<double>(scale.workers) +
       1.0) *
      8.0;

  bool ok = true;
  check(gave_up.load() == 0, "closed-loop: a client exhausted its backoff",
        ok);
  check(stats.completed ==
            static_cast<std::uint64_t>(kClients * scale.closed_loop_jobs),
        "closed-loop: resubmission lost jobs", ok);
  check(stats.peak_queue_depth <= scale.max_queue_depth,
        "closed-loop: queue bound violated", ok);
  check(p999 <= slo, "closed-loop: p99.9 sojourn above SLO", ok);
  std::printf(
      "JSON {\"bench\":\"service_closed_loop\",\"completed\":%llu,"
      "\"rejected\":%llu,\"peak_queue_depth\":%zu,\"gave_up\":%llu,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"p999_ms\":%.3f,\"slo_ms\":%.3f,"
      "\"ok\":%s}\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      stats.peak_queue_depth,
      static_cast<unsigned long long>(gave_up.load()), p50 * 1e3, p99 * 1e3,
      p999 * 1e3, slo * 1e3, ok ? "true" : "false");
  return ok;
}

/// Open-loop bursty offered load at 3x service capacity, no resubmission:
/// the service must shed the excess explicitly (rejections and/or expired
/// sheds), keep the queue inside its bound, and keep completed-job latency
/// inside the SLO. This is the experiment an unbounded work queue fails:
/// latency grows linearly with the backlog and nothing is ever refused.
bool experiment_open_loop_3x(const ExperimentScale& scale) {
  core::ServiceConfig config;
  config.workers = scale.workers;
  config.max_queue_depth = scale.max_queue_depth;
  core::CampaignService service(config);

  const double capacity_jobs_per_s =
      static_cast<double>(scale.workers) / scale.job_cost_seconds;
  const double offered_jobs_per_s = 3.0 * capacity_jobs_per_s;
  // Bursty arrivals: geometric bursts (mean 4) at exponential gaps keeping
  // the long-run offered rate at 3x capacity. Deterministic seed.
  std::mt19937_64 rng(20260809);
  std::exponential_distribution<double> gap(offered_jobs_per_s / 4.0);
  std::geometric_distribution<int> burst(0.25);

  std::uint64_t offered = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto stop =
      start + std::chrono::duration<double>(scale.open_loop_seconds);
  while (std::chrono::steady_clock::now() < stop) {
    const int this_burst = 1 + burst(rng);
    for (int i = 0; i < this_burst; ++i) {
      core::JobRequest request = timed_job(scale.job_cost_seconds, "default");
      // Every job carries an SLO deadline; the doomed-shed check can drop
      // queued work that can no longer make it.
      request.deadline = core::Deadline::after(scale.job_cost_seconds * 50.0);
      (void)service.submit(std::move(request));
      ++offered;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(gap(rng)));
  }
  service.drain();

  const core::ServiceStats stats = service.stats();
  const auto& sojourns = stats.tenants.at("default").sojourn_seconds;
  const double p50 = core::percentile(sojourns, 50.0);
  const double p99 = core::percentile(sojourns, 99.0);
  const double p999 = core::percentile(sojourns, 99.9);
  const double slo =
      scale.job_cost_seconds *
      (static_cast<double>(scale.max_queue_depth) /
           static_cast<double>(scale.workers) +
       1.0) *
      8.0;
  const std::uint64_t shed = stats.rejected + stats.shed_expired;

  bool ok = true;
  check(stats.submitted == offered, "open-loop: lost submissions", ok);
  check(stats.peak_queue_depth <= scale.max_queue_depth,
        "open-loop: queue bound violated", ok);
  check(shed > 0, "open-loop: 3x overload produced no explicit shedding",
        ok);
  check(stats.completed > 0, "open-loop: nothing completed", ok);
  // At 3x offered load roughly 2/3 must be refused; anything much lower
  // means the queue absorbed (i.e. hid) the overload.
  check(static_cast<double>(shed) >= 0.4 * static_cast<double>(offered),
        "open-loop: shed fraction implausibly low for 3x load", ok);
  check(p99 <= slo, "open-loop: p99 sojourn above SLO", ok);
  std::printf(
      "JSON {\"bench\":\"service_open_loop_3x\",\"offered\":%llu,"
      "\"completed\":%llu,\"rejected\":%llu,\"shed_expired\":%llu,"
      "\"peak_queue_depth\":%zu,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"p999_ms\":%.3f,\"slo_ms\":%.3f,\"ok\":%s}\n",
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed_expired),
      stats.peak_queue_depth, p50 * 1e3, p99 * 1e3, p999 * 1e3, slo * 1e3,
      ok ? "true" : "false");
  return ok;
}

/// Two tenants, weights 2:1, both saturating a shared service: deficit
/// round-robin must give each at least half its weighted fair share of
/// completions (the ISSUE's fairness floor).
bool experiment_fair_share(const ExperimentScale& scale) {
  core::ServiceConfig config;
  config.workers = scale.workers;
  config.max_queue_depth = scale.max_queue_depth;
  config.drr_quantum_seconds = scale.job_cost_seconds;
  std::map<std::string, core::TenantConfig> tenants;
  tenants["heavy"] = core::TenantConfig{2, scale.max_queue_depth / 2};
  tenants["light"] = core::TenantConfig{1, scale.max_queue_depth / 2};
  core::CampaignService service(config, tenants);

  std::atomic<bool> done{false};
  const auto feeder = [&](const std::string& tenant) {
    std::mt19937_64 rng(std::hash<std::string>{}(tenant));
    while (!done.load()) {
      (void)service.submit(timed_job(scale.job_cost_seconds, tenant));
      // Feed slightly above this tenant's full fair share so both queues
      // stay non-empty and the DRR weights are what decides throughput.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          scale.job_cost_seconds / (2.0 * scale.workers)));
    }
  };
  std::thread heavy_feeder(feeder, "heavy");
  std::thread light_feeder(feeder, "light");
  std::this_thread::sleep_for(
      std::chrono::duration<double>(scale.open_loop_seconds));
  done.store(true);
  heavy_feeder.join();
  light_feeder.join();
  service.drain();

  const core::ServiceStats stats = service.stats();
  const double heavy_done =
      static_cast<double>(stats.tenants.at("heavy").completed);
  const double light_done =
      static_cast<double>(stats.tenants.at("light").completed);
  const double total = heavy_done + light_done;
  // Weighted fair shares: heavy 2/3, light 1/3. The floor is half of each.
  const double heavy_share = heavy_done / total;
  const double light_share = light_done / total;

  bool ok = true;
  check(total > 0, "fair-share: nothing completed", ok);
  check(heavy_share >= 0.5 * (2.0 / 3.0),
        "fair-share: heavy tenant below half its fair share", ok);
  check(light_share >= 0.5 * (1.0 / 3.0),
        "fair-share: light tenant below half its fair share", ok);
  std::printf(
      "JSON {\"bench\":\"service_fair_share\",\"heavy_completed\":%.0f,"
      "\"light_completed\":%.0f,\"heavy_share\":%.3f,\"light_share\":%.3f,"
      "\"ok\":%s}\n",
      heavy_done, light_done, heavy_share, light_share,
      ok ? "true" : "false");
  return ok;
}

/// Watchdog kill + resume, end to end through the DSE adapter: a stuck job
/// is cancelled, the journal names its last durable checkpoint, and
/// resubmitting resumes from that snapshot (resumed_units > 0) and finishes
/// bit-identical to an uninterrupted exhaustive sweep.
bool experiment_watchdog_resume(const std::string& dir) {
  core::ServiceConfig config;
  config.workers = 1;
  config.watchdog_timeout_seconds = 0.08;
  config.journal_path = dir + "/service_events.journal";
  config.scratch_dir = dir;
  core::CampaignService service(config);

  const hls::Kernel kernel = hls::make_fir_kernel(8);
  const std::string snap = dir + "/bench_dse.snap";

  service::DseJobOptions stuck;
  stuck.kernel = kernel;
  stuck.config.checkpoint_path = snap;
  stuck.config.unit_budget = 0;
  stuck.batch_units = 16;
  stuck.stall_after_units = 48;  // checkpoint some batches, then hang
  auto partial = std::make_shared<hls::DseResult>();
  core::JobRequest victim;
  victim.allow_degrade = false;
  victim.body = service::make_dse_job(stuck, partial);
  bool ok = true;
  const auto first = service.submit(std::move(victim));
  check(first.admitted, "watchdog: victim not admitted", ok);

  core::JobStatus status;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = service.poll(first.id);
  } while (!status.terminal && std::chrono::steady_clock::now() < give_up);
  check(status.state == core::JobState::kWatchdogKilled,
        "watchdog: stuck job not killed", ok);
  check(!status.checkpoint_path.empty(),
        "watchdog: killed job has no checkpoint", ok);

  // The journal record for the kill names the resumable snapshot.
  bool journaled = false;
  for (const auto& event :
       core::CampaignService::replay_events(config.journal_path)) {
    journaled |= event.kind == core::ServiceEventKind::kWatchdogKill &&
                 event.checkpoint_path == snap;
  }
  check(journaled, "watchdog: kill not journaled with checkpoint path", ok);

  // Resubmit the same job without the stall hook: it must resume.
  service::DseJobOptions retry = stuck;
  retry.stall_after_units = 0;
  auto resumed = std::make_shared<hls::DseResult>();
  core::JobRequest again;
  again.allow_degrade = false;
  again.body = service::make_dse_job(retry, resumed);
  const auto second = service.submit(std::move(again));
  check(second.admitted, "watchdog: resubmit not admitted", ok);
  service.drain();
  check(service.poll(second.id).state == core::JobState::kDone,
        "watchdog: resumed job did not finish", ok);
  check(resumed->resumed_units > 0, "watchdog: resume restarted from zero",
        ok);

  // Bit-identity against an uninterrupted sweep.
  hls::DseConfig direct_config;
  const hls::DseResult direct = hls::dse_exhaustive(kernel, direct_config);
  bool identical = resumed->completed &&
                   resumed->evaluated.size() == direct.evaluated.size();
  for (std::size_t i = 0; identical && i < direct.evaluated.size(); ++i) {
    identical = resumed->evaluated[i].total_latency_us ==
                    direct.evaluated[i].total_latency_us &&
                resumed->evaluated[i].area_score ==
                    direct.evaluated[i].area_score;
  }
  check(identical, "watchdog: resumed result diverges from uninterrupted run",
        ok);

  std::printf(
      "JSON {\"bench\":\"service_watchdog_resume\",\"resumed_units\":%zu,"
      "\"evaluations\":%zu,\"journaled\":%s,\"ok\":%s}\n",
      resumed->resumed_units, resumed->evaluations,
      journaled ? "true" : "false", ok ? "true" : "false");
  return ok;
}

/// Strict priority under saturation: a background feeder keeps every
/// worker busy (open loop, above capacity) while a sparse interactive
/// client submits short jobs. Interactive p99 sojourn must stay inside a
/// residual-service SLO -- an interactive job waits at most for the
/// background jobs already *on* the workers, never for the background
/// queue -- and the background tenant must still complete the bulk of the
/// work (priority redirects capacity, it does not starve the floor).
bool experiment_priority(const ExperimentScale& scale) {
  const double fg_cost = scale.job_cost_seconds / 4.0;
  core::ServiceConfig config;
  config.workers = scale.workers;
  config.max_queue_depth = scale.max_queue_depth;
  config.priority_aging_seconds = 10.0 * scale.job_cost_seconds;
  std::map<std::string, core::TenantConfig> tenants;
  tenants["bg"] = core::TenantConfig{1, scale.max_queue_depth / 2};
  tenants["fg"] = core::TenantConfig{1, scale.max_queue_depth / 2};
  core::CampaignService service(config, tenants);

  std::atomic<bool> done{false};
  std::thread bg_feeder([&] {
    while (!done.load()) {
      core::JobRequest request = timed_job(scale.job_cost_seconds, "bg");
      request.priority = core::PriorityClass::kBackground;
      (void)service.submit(request);
      std::this_thread::sleep_for(std::chrono::duration<double>(
          scale.job_cost_seconds / (2.0 * static_cast<double>(scale.workers))));
    }
  });
  std::uint64_t fg_rejected = 0;
  std::thread fg_client([&] {
    while (!done.load()) {
      core::JobRequest request = timed_job(fg_cost, "fg");
      request.priority = core::PriorityClass::kInteractive;
      if (!service.submit(request).admitted) ++fg_rejected;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(5.0 * scale.job_cost_seconds));
    }
  });
  std::this_thread::sleep_for(
      std::chrono::duration<double>(scale.open_loop_seconds));
  done.store(true);
  bg_feeder.join();
  fg_client.join();
  service.drain();

  const core::ServiceStats stats = service.stats();
  const auto& fg = stats.tenants.at("fg");
  const auto& bg = stats.tenants.at("bg");
  const double fg_p50 = core::percentile(fg.sojourn_seconds, 50.0);
  const double fg_p99 = core::percentile(fg.sojourn_seconds, 99.0);
  // Worst case for an admitted interactive job: every worker just started
  // a background job (full residual) plus its own run, with generous CI
  // slack. Crucially independent of the *queued* background backlog.
  const double slo = (scale.job_cost_seconds + fg_cost) * 16.0;

  bool ok = true;
  check(fg.completed > 0, "priority: no interactive job completed", ok);
  check(fg_rejected == 0, "priority: interactive jobs rejected", ok);
  check(fg_p99 <= slo, "priority: interactive p99 above residual SLO", ok);
  check(bg.completed > fg.completed,
        "priority: background starved under sparse interactive load", ok);
  std::printf(
      "JSON {\"bench\":\"service_priority\",\"fg_completed\":%llu,"
      "\"fg_rejected\":%llu,"
      "\"bg_completed\":%llu,\"fg_p50_ms\":%.3f,\"fg_p99_ms\":%.3f,"
      "\"slo_ms\":%.3f,\"aged_promotions\":%llu,\"ok\":%s}\n",
      static_cast<unsigned long long>(fg.completed),
      static_cast<unsigned long long>(fg_rejected),
      static_cast<unsigned long long>(bg.completed), fg_p50 * 1e3,
      fg_p99 * 1e3, slo * 1e3,
      static_cast<unsigned long long>(stats.aged_promotions),
      ok ? "true" : "false");
  return ok;
}

/// Coalesced same-shape MVMs vs the unbatched service at equal workers:
/// identical pre-loaded queue of small MVM requests, drained once with
/// coalescing on and once off. Asserts the amortisation claim (>= kSpeedup
/// drain-time ratio), the device-pass accounting (jobs/batch passes vs one
/// pass per job), bit-identical outputs between the two runs, and that the
/// batching trace counters fire.
bool experiment_coalescing(bool quick) {
  const std::size_t kBatch = 64;
  // Short drains on purpose: the min-of-kRepeats wall needs windows the
  // OS scheduler leaves untouched, and those get exponentially rarer as
  // the wall grows. Full mode raises the bar, not the job count.
  const std::size_t kJobs = kBatch * 25;
  const int kRepeats = 9;  // wall time = best of 9 (least-noise estimate)
  const double kSpeedup = quick ? 1.5 : 2.0;  // CI boxes are noisy

  // Deterministic inputs, shared by both runs. A single-ended noiseless
  // dim-2 array puts the jobs firmly in the dispatch-bound regime where
  // coalescing pays: per-job service overhead dominates the analog pass.
  // (Turning read noise back on adds a Box-Muller draw per cell read to
  // *both* sides, and with a differential dim-8 array that per-job compute
  // dominates and the speedup decays towards 1x -- that shape boundary is
  // the experiment's point, see EXPERIMENTS.md.)
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(-1.0F, 1.0F);
  service::MvmBatchOptions options;
  options.dim = 2;
  options.seed = 33;
  options.config.differential = false;
  options.config.device.read_noise_rel = 0.0;
  std::vector<std::vector<float>> inputs(kJobs);
  for (auto& x : inputs) {
    x.resize(options.dim);
    for (auto& v : x) v = dist(rng);
  }

  struct RunResult {
    double wall_seconds = 0.0;
    std::uint64_t device_passes = 0;
    core::ServiceStats stats;
    std::vector<std::shared_ptr<std::vector<double>>> outs;
    bool drained = false;
  };
  const auto run = [&](std::size_t max_batch, std::size_t workers) {
    RunResult r;
    core::ServiceConfig config;
    config.workers = workers;
    config.max_queue_depth = kJobs + workers + 4;
    config.coalesce_max_batch = max_batch;
    config.coalesce_max_wait_seconds = 0.05;
    core::CampaignService service(config);
    service::MvmBatchClient client(options);

    // Park every worker on a gate job so the whole queue is loaded before
    // the clock starts: the measurement is drain throughput, not
    // submission interleaving.
    std::atomic<bool> release{false};
    std::vector<std::uint64_t> gate_ids;
    for (std::size_t w = 0; w < workers; ++w) {
      core::JobRequest gate;
      gate.body = [&release](core::JobContext& ctx) {
        // Tight poll: the gate's exit latency lands inside the timed
        // window, so a coarse sleep here would smear both walls.
        while (!release.load()) {
          if (ctx.cancelled()) return;
          ctx.heartbeat();
          std::this_thread::sleep_for(std::chrono::microseconds(2));
        }
      };
      gate_ids.push_back(service.submit(std::move(gate)).id);
    }
    for (const auto gate_id : gate_ids) {
      while (service.poll(gate_id).state != core::JobState::kRunning) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    r.outs.reserve(kJobs);
    for (const auto& x : inputs) {
      auto out = std::make_shared<std::vector<double>>();
      out->reserve(options.dim);  // keep the scatter allocation off the clock
      if (!service.submit(client.make_request(x, out)).admitted) return r;
      r.outs.push_back(std::move(out));
    }
    const auto t0 = std::chrono::steady_clock::now();
    release.store(true);
    service.drain();
    r.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    r.device_passes = client.device_passes();
    r.stats = service.stats();
    r.drained = true;
    return r;
  };

  core::trace::reset();
  core::trace::set_enabled(true);

  // Phase 1: single worker, FIFO both ways => deterministic execution
  // order, so outputs must be bit-identical and accounting exact. Tracing
  // is on for this phase only (the counter assertions below); the timed
  // phase runs untraced so span/gauge recording does not skew the walls.
  const RunResult solo = run(1, 1);
  const RunResult batched = run(kBatch, 1);
  core::trace::set_enabled(false);

  // Phase 2: drain throughput at equal worker counts. Unbatched jobs pay
  // the dispatch round trip (pick, claim, finalise, lock traffic) per
  // job; coalesced groups pay it per batch, so the ratio measures the
  // amortised per-job overhead directly.
  const std::size_t kWorkers = 1;
  double wall_solo = 0.0;
  double wall_batched = 0.0;
  bool timed = true;
  for (int r = 0; r < kRepeats && timed; ++r) {
    const RunResult s = run(1, kWorkers);
    const RunResult b = run(kBatch, kWorkers);
    timed = s.drained && b.drained;
    if (!timed) break;
    wall_solo = r == 0 ? s.wall_seconds : std::min(wall_solo, s.wall_seconds);
    wall_batched =
        r == 0 ? b.wall_seconds : std::min(wall_batched, b.wall_seconds);
  }
  const auto counters = core::trace::counters();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const std::uint64_t trace_batched = counter("service.batched");
  const std::uint64_t trace_batch_size = counter("service.batch_size");

  bool ok = true;
  check(solo.drained && batched.drained && timed,
        "coalescing: submission rejected", ok);
  if (!ok) return ok;
  check(solo.stats.completed == kJobs + 1 &&
            batched.stats.completed == kJobs + 1,
        "coalescing: not every job completed", ok);
  bool identical = true;
  for (std::size_t i = 0; i < kJobs; ++i) {
    identical = identical && *solo.outs[i] == *batched.outs[i];
  }
  check(identical, "coalescing: batched results differ from solo", ok);
  check(solo.device_passes == kJobs,
        "coalescing: solo run did not issue one pass per job", ok);
  check(batched.device_passes == kJobs / kBatch,
        "coalescing: batched run issued more passes than groups", ok);
  check(batched.stats.coalesced_jobs == kJobs &&
            batched.stats.max_batch_size == kBatch,
        "coalescing: batch accounting wrong", ok);
  // Counters accumulate across every batched run above; every phase-1
  // batched job must be counted at least once.
  check(trace_batched >= kJobs && trace_batch_size >= kJobs,
        "coalescing: service.batched/batch_size trace counters missing", ok);
  const double speedup = wall_solo / wall_batched;
  check(speedup >= kSpeedup, "coalescing: below required speedup", ok);
  std::printf(
      "JSON {\"bench\":\"service_coalescing\",\"jobs\":%zu,\"batch\":%zu,"
      "\"workers\":%zu,\"wall_solo_ms\":%.3f,\"wall_batched_ms\":%.3f,"
      "\"speedup\":%.2f,\"required_speedup\":%.2f,"
      "\"device_passes_solo\":%llu,\"device_passes_batched\":%llu,"
      "\"coalesced_batches\":%llu,\"service.batched\":%llu,"
      "\"service.batch_size\":%llu,\"bit_identical\":%s,\"ok\":%s}\n",
      kJobs, kBatch, kWorkers, wall_solo * 1e3, wall_batched * 1e3, speedup,
      kSpeedup, static_cast<unsigned long long>(solo.device_passes),
      static_cast<unsigned long long>(batched.device_passes),
      static_cast<unsigned long long>(batched.stats.coalesced_batches),
      static_cast<unsigned long long>(trace_batched),
      static_cast<unsigned long long>(trace_batch_size),
      identical ? "true" : "false", ok ? "true" : "false");
  return ok;
}

int run_experiments(bool quick) {
  ExperimentScale scale;
  if (quick) {
    scale.open_loop_seconds = 0.5;
    scale.closed_loop_jobs = 60;
  }
  char tmpl[] = "/tmp/icsc_bench_service_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir = tmpl;

  bool ok = true;
  ok = experiment_closed_loop(scale) && ok;
  ok = experiment_open_loop_3x(scale) && ok;
  ok = experiment_fair_share(scale) && ok;
  ok = experiment_priority(scale) && ok;
  ok = experiment_coalescing(quick) && ok;
  ok = experiment_watchdog_resume(dir) && ok;
  std::printf("JSON {\"bench\":\"service_summary\",\"all_ok\":%s}\n",
              ok ? "true" : "false");

  const std::string cleanup = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      return run_experiments(/*quick=*/true);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_experiments(/*quick=*/false);
}
