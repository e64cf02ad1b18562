// Tier-aware job adapters (src/service): degradation profiles, each
// subsystem adapter run end-to-end through a CampaignService, the
// watchdog-kill -> resubmit -> resume story for DSE campaigns, and
// submit_with_backoff's decorrelated-jitter retry loop.
#include "service/jobs.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/trace.hpp"
#include "service/degrade.hpp"

namespace icsc::service {
namespace {

using core::CampaignService;
using core::DegradeTier;
using core::JobState;
using core::ServiceConfig;

class ServiceJobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_service_jobs_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    if (!dir_.empty()) {
      const std::string cmd = "rm -rf '" + dir_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }

  std::string dir_;
};

core::JobStatus wait_terminal(CampaignService& service, core::JobId id,
                              double timeout_seconds = 60.0) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const core::JobStatus status = service.poll(id);
    if (status.terminal) return status;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() > timeout_seconds) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Degradation profiles

TEST(DegradeProfiles, FullTierIsTheIdentity) {
  const TierProfile full = tier_profile(DegradeTier::kFull);
  EXPECT_EQ(full.trial_scale, 1.0);
  EXPECT_EQ(full.dse_grid_stride, 1);
  // Early stopping disabled at kFull: campaigns stay bit-identical to the
  // pre-service code path.
  EXPECT_FALSE(full.campaign_early_stop.enabled);
  EXPECT_EQ(scaled_trials(32, DegradeTier::kFull), 32u);
  const hls::DseSpace space;
  const hls::DseSpace same = strided_space(space, 1);
  EXPECT_EQ(same.unroll_factors, space.unroll_factors);
  EXPECT_EQ(same.alu_counts, space.alu_counts);
}

TEST(DegradeProfiles, ReducedAndMinimalShrinkWork) {
  EXPECT_EQ(scaled_trials(32, DegradeTier::kReduced), 16u);
  EXPECT_EQ(scaled_trials(32, DegradeTier::kMinimal), 8u);
  // Never degraded to zero work.
  EXPECT_EQ(scaled_trials(1, DegradeTier::kMinimal), 1u);
  EXPECT_EQ(scaled_trials(2, DegradeTier::kMinimal), 1u);
  EXPECT_EQ(scaled_trials(0, DegradeTier::kMinimal), 0u);

  hls::DseSpace space;  // axes {1,2,4,8},{1,2,4,8},{1,2,4},{1,2,4}
  const hls::DseSpace reduced =
      strided_space(space, tier_profile(DegradeTier::kReduced).dse_grid_stride);
  EXPECT_EQ(reduced.unroll_factors, (std::vector<int>{1, 4}));
  EXPECT_EQ(reduced.mul_counts, (std::vector<int>{1, 4}));
  const hls::DseSpace minimal =
      strided_space(space, tier_profile(DegradeTier::kMinimal).dse_grid_stride);
  EXPECT_EQ(minimal.unroll_factors, (std::vector<int>{1}));
  // Tiers strictly cheapen the DNA re-read budget.
  EXPECT_GT(tier_profile(DegradeTier::kFull).dna_max_passes,
            tier_profile(DegradeTier::kReduced).dna_max_passes);
  EXPECT_GT(tier_profile(DegradeTier::kReduced).dna_max_passes,
            tier_profile(DegradeTier::kMinimal).dna_max_passes);
}

TEST(DegradeProfiles, DegradedTiersCarryLooseningStoppingRules) {
  const auto reduced = tier_profile(DegradeTier::kReduced).campaign_early_stop;
  const auto minimal = tier_profile(DegradeTier::kMinimal).campaign_early_stop;
  EXPECT_TRUE(reduced.enabled);
  EXPECT_TRUE(minimal.enabled);
  // Heavier degradation accepts wider intervals at lower confidence with a
  // smaller trial floor; both rules are valid configs.
  EXPECT_NO_THROW(reduced.validate());
  EXPECT_NO_THROW(minimal.validate());
  EXPECT_GT(minimal.relative_half_width, reduced.relative_half_width);
  EXPECT_LT(minimal.confidence, reduced.confidence);
  EXPECT_LT(minimal.min_trials, reduced.min_trials);
  // The rules are distinct: snapshots taken under one are pinned to it.
  EXPECT_NE(reduced.fingerprint(), minimal.fingerprint());
}

TEST(DegradeProfiles, ParseTierRoundTrips) {
  EXPECT_EQ(parse_tier("full"), DegradeTier::kFull);
  EXPECT_EQ(parse_tier("reduced"), DegradeTier::kReduced);
  EXPECT_EQ(parse_tier("minimal"), DegradeTier::kMinimal);
  EXPECT_FALSE(parse_tier("bogus").has_value());
  EXPECT_FALSE(parse_tier("").has_value());
}

TEST(DegradeProfiles, ParsePriorityRoundTrips) {
  EXPECT_EQ(parse_priority("interactive"), core::PriorityClass::kInteractive);
  EXPECT_EQ(parse_priority("batch"), core::PriorityClass::kBatch);
  EXPECT_EQ(parse_priority("background"), core::PriorityClass::kBackground);
  EXPECT_FALSE(parse_priority("bogus").has_value());
  EXPECT_FALSE(parse_priority("").has_value());
}

// ---------------------------------------------------------------------------
// Adapters end-to-end through a service

TEST_F(ServiceJobsTest, SmallJobsRunThroughTheService) {
  ServiceConfig config;
  config.workers = 2;
  config.scratch_dir = dir_;
  CampaignService service(config);

  auto rmse = std::make_shared<double>(-1.0);
  MvmJobOptions mvm;
  mvm.dim = 16;
  mvm.seed = 7;
  core::JobRequest mvm_request;
  mvm_request.body = make_mvm_job(mvm, rmse);
  const auto mvm_outcome = service.submit(std::move(mvm_request));
  ASSERT_TRUE(mvm_outcome.admitted);

  EXPECT_EQ(wait_terminal(service, mvm_outcome.id).state, JobState::kDone);
  EXPECT_GE(*rmse, 0.0);
  EXPECT_TRUE(std::isfinite(*rmse));
}

// ---------------------------------------------------------------------------
// Coalesced batching adapters

/// Cancellation-aware latch so the tests can pre-load the queue while the
/// single worker is parked, making group formation deterministic.
struct JobGate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }

  void wait_open(core::JobContext& ctx) {
    std::unique_lock<std::mutex> lock(m);
    while (!open && !ctx.cancelled()) {
      ctx.heartbeat();
      cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
};

TEST_F(ServiceJobsTest, MvmBatchClientCoalescesBitIdenticalToSolo) {
  const std::size_t kJobs = 8;
  MvmBatchOptions options;
  options.dim = 8;
  options.seed = 21;

  // Same inputs for both sides, fixed up front.
  core::Rng rng(5);
  std::vector<std::vector<float>> inputs(kJobs, std::vector<float>(options.dim));
  for (auto& x : inputs) {
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  const auto run = [&](std::size_t max_batch, std::uint64_t* passes,
                       std::vector<std::size_t>* batch_sizes) {
    ServiceConfig config;
    config.workers = 1;
    config.coalesce_max_batch = max_batch;
    CampaignService service(config);
    MvmBatchClient client(options);
    auto gate = std::make_shared<JobGate>();
    core::JobRequest blocker;
    blocker.body = [gate](core::JobContext& ctx) { gate->wait_open(ctx); };
    EXPECT_TRUE(service.submit(std::move(blocker)).admitted);
    const auto start = std::chrono::steady_clock::now();
    while (service.stats().running == 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<core::JobId> ids;
    std::vector<std::shared_ptr<std::vector<double>>> outs;
    for (const auto& x : inputs) {
      auto out = std::make_shared<std::vector<double>>();
      outs.push_back(out);
      ids.push_back(service.submit_or_throw(client.make_request(x, out)));
    }
    gate->release();
    service.drain();
    std::vector<std::vector<double>> results;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const core::JobStatus status = service.poll(ids[i]);
      EXPECT_EQ(status.state, JobState::kDone) << "job " << i;
      batch_sizes->push_back(status.batch_size);
      results.push_back(*outs[i]);
    }
    *passes = client.device_passes();
    return results;
  };

  std::uint64_t batched_passes = 0;
  std::uint64_t solo_passes = 0;
  std::vector<std::size_t> batched_sizes;
  std::vector<std::size_t> solo_sizes;
  const auto batched = run(kJobs, &batched_passes, &batched_sizes);
  const auto solo = run(1, &solo_passes, &solo_sizes);

  // The pre-loaded queue coalesces into one device pass; solo pays one per
  // job. Results are bit-identical (same stateful RNG stream in the same
  // vector order against identically-programmed arrays).
  EXPECT_EQ(batched_passes, 1u);
  EXPECT_EQ(solo_passes, kJobs);
  for (const std::size_t size : batched_sizes) EXPECT_EQ(size, kJobs);
  for (const std::size_t size : solo_sizes) EXPECT_EQ(size, 1u);
  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i].size(), solo[i].size()) << "job " << i;
    ASSERT_FALSE(batched[i].empty()) << "job " << i;
    for (std::size_t o = 0; o < batched[i].size(); ++o) {
      ASSERT_EQ(batched[i][o], solo[i][o]) << "job " << i << " col " << o;
    }
  }
}

TEST_F(ServiceJobsTest, MvmBatchClientRejectsMisshapenInput) {
  MvmBatchOptions options;
  options.dim = 8;
  MvmBatchClient client(options);
  EXPECT_THROW(client.make_request(std::vector<float>(7), nullptr),
               core::Error);
  // Distinct clients never share a key, even with identical options.
  MvmBatchClient other(options);
  EXPECT_NE(client.coalesce_key(), other.coalesce_key());
}

TEST_F(ServiceJobsTest, FaultCampaignJobCheckpointsAndCompletes) {
  ServiceConfig config;
  config.workers = 1;
  config.scratch_dir = dir_;
  CampaignService service(config);

  auto outcome_slot = std::make_shared<core::CampaignRunOutcome>();
  FaultCampaignJobOptions options;
  options.seed = 0xF00D;
  options.trials = 9;
  options.batch_trials = 4;
  options.trial = [](std::uint64_t seed, std::size_t) {
    core::TrialResult r;
    r.metric = static_cast<double>(seed % 97);
    return r;
  };
  core::JobRequest request;
  request.allow_degrade = false;
  request.body = make_fault_campaign_job(options, outcome_slot);
  const auto submit = service.submit(std::move(request));
  ASSERT_TRUE(submit.admitted);
  const auto status = wait_terminal(service, submit.id);
  EXPECT_EQ(status.state, JobState::kDone);
  // Batched execution left a resumable checkpoint trail.
  EXPECT_NE(status.checkpoint_path.find("campaign.snap"), std::string::npos);
  EXPECT_TRUE(outcome_slot->completed);
  EXPECT_EQ(outcome_slot->results.size(), 9u);
  // Batches resumed from the snapshot rather than re-running trials.
  EXPECT_GT(outcome_slot->resumed_trials, 0u);
}

TEST_F(ServiceJobsTest, DegradedCampaignStopsAtConvergence) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;  // every admit sees pressure 1.0 -> kMinimal
  config.scratch_dir = dir_;
  CampaignService service(config);

  auto outcome_slot = std::make_shared<core::CampaignRunOutcome>();
  FaultCampaignJobOptions options;
  options.trials = 64;
  options.trial = [](std::uint64_t, std::size_t) {
    return core::TrialResult{};  // zero-variance metric: converges instantly
  };
  core::JobRequest request;
  request.body = make_fault_campaign_job(options, outcome_slot);
  const auto submit = service.submit(std::move(request));
  ASSERT_TRUE(submit.admitted);
  EXPECT_EQ(submit.tier, DegradeTier::kMinimal);
  const auto status = wait_terminal(service, submit.id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.tier, DegradeTier::kMinimal);
  // The degraded tier keeps the full 64-trial budget but stops at the CI
  // convergence check: a zero-variance metric converges at the tier's
  // min_trials floor, far below both the budget and the old 0.25 scale.
  const auto stop = tier_profile(DegradeTier::kMinimal).campaign_early_stop;
  EXPECT_TRUE(outcome_slot->completed);
  EXPECT_TRUE(outcome_slot->stopped_early);
  EXPECT_EQ(outcome_slot->stop_reason, core::sampling::StopReason::kConverged);
  EXPECT_EQ(outcome_slot->trials_budgeted, 64u);
  EXPECT_EQ(outcome_slot->results.size(), stop.min_trials);
}

TEST_F(ServiceJobsTest, DnaJobJournalsAndCompletes) {
  ServiceConfig config;
  config.workers = 1;
  config.scratch_dir = dir_;
  CampaignService service(config);

  auto result = std::make_shared<hetero::dna::ArchivalSimResult>();
  DnaJobOptions options;
  options.params.payload_bytes = 512;
  options.journal_batch = 16;
  options.batch_budget = 2;
  core::JobRequest request;
  request.allow_degrade = false;
  request.body = make_dna_job(options, result);
  const auto submit = service.submit(std::move(request));
  ASSERT_TRUE(submit.admitted);
  const auto status = wait_terminal(service, submit.id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_TRUE(result->completed);
  EXPECT_GT(result->strands, 0u);
  EXPECT_NE(status.checkpoint_path.find("dna.journal"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Watchdog kill -> journaled checkpoint -> resumed, bit-identical result

TEST_F(ServiceJobsTest, WatchdogKilledDseJobResumesFromJournaledCheckpoint) {
  const std::string snap = dir_ + "/dse.snap";
  const std::string journal = dir_ + "/events.journal";

  DseJobOptions options;
  options.kernel = hls::make_fir_kernel(8);
  options.config.checkpoint_path = snap;  // shared across submissions
  options.batch_units = 16;

  // Phase 1: the job stalls (stops heartbeating) after ~3 batches; the
  // watchdog must kill it and journal the snapshot path.
  core::JobId killed_id = 0;
  {
    ServiceConfig config;
    config.workers = 1;
    config.watchdog_timeout_seconds = 0.05;
    config.watchdog_poll_seconds = 0.005;
    config.journal_path = journal;
    config.scratch_dir = dir_;
    CampaignService service(config);

    DseJobOptions stalled = options;
    stalled.stall_after_units = 40;
    auto partial = std::make_shared<hls::DseResult>();
    core::JobRequest request;
    request.allow_degrade = false;
    request.body = make_dse_job(stalled, partial);
    const auto submit = service.submit(std::move(request));
    ASSERT_TRUE(submit.admitted);
    killed_id = submit.id;
    const auto status = wait_terminal(service, submit.id);
    EXPECT_EQ(status.state, JobState::kWatchdogKilled);
    EXPECT_EQ(status.checkpoint_path, snap);
    EXPECT_FALSE(partial->completed);
    EXPECT_GE(partial->evaluations, 40u);
    service.shutdown();
  }

  // The journal -- replayable even if the service process had died --
  // names the snapshot the tenant should resume from.
  const auto events = CampaignService::replay_events(journal);
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].kind, core::ServiceEventKind::kWatchdogKill);
  EXPECT_EQ(events[0].id, killed_id);
  EXPECT_EQ(events[0].checkpoint_path, snap);

  // Phase 2: resubmit against the same snapshot; the run must resume (not
  // restart) and complete.
  auto resumed = std::make_shared<hls::DseResult>();
  {
    ServiceConfig config;
    config.workers = 1;
    config.scratch_dir = dir_;
    CampaignService service(config);
    core::JobRequest request;
    request.allow_degrade = false;
    request.body = make_dse_job(options, resumed);
    const auto submit = service.submit(std::move(request));
    ASSERT_TRUE(submit.admitted);
    const auto status = wait_terminal(service, submit.id);
    EXPECT_EQ(status.state, JobState::kDone);
  }
  EXPECT_TRUE(resumed->completed);
  EXPECT_GE(resumed->resumed_units, 40u);

  // Reference: the same sweep uninterrupted, no checkpoint. The resumed
  // campaign must be bit-identical to it.
  hls::DseConfig reference = options.config;
  reference.checkpoint_path.clear();
  const hls::DseResult direct = hls::dse_exhaustive(options.kernel, reference);
  ASSERT_EQ(resumed->evaluated.size(), direct.evaluated.size());
  EXPECT_EQ(resumed->evaluations, direct.evaluations);
  EXPECT_EQ(resumed->feasible, direct.feasible);
  ASSERT_EQ(resumed->front.size(), direct.front.size());
  for (std::size_t i = 0; i < direct.evaluated.size(); ++i) {
    EXPECT_EQ(resumed->evaluated[i].total_latency_us,
              direct.evaluated[i].total_latency_us)
        << "design point " << i;
    EXPECT_EQ(resumed->evaluated[i].area_score, direct.evaluated[i].area_score)
        << "design point " << i;
  }
}

// ---------------------------------------------------------------------------
// Watchdog kill -> service restart -> resubmission served from the durable
// per-tenant result store (no checkpoint file needed the third time).

TEST_F(ServiceJobsTest, KilledJobResubmittedAcrossRestartIsServedFromStore) {
  const std::string snap = dir_ + "/dse.snap";
  const std::string store_root = dir_ + "/stores";

  DseJobOptions options;
  options.kernel = hls::make_fir_kernel(8);
  options.config.checkpoint_path = snap;  // shared across submissions
  options.store_root = store_root;        // per-tenant durable tier
  options.batch_units = 16;

  // Phase 1: the job stalls mid-sweep and the watchdog kills it. The run
  // never completed, so the store must NOT have stored a partial.
  {
    ServiceConfig config;
    config.workers = 1;
    config.watchdog_timeout_seconds = 0.05;
    config.watchdog_poll_seconds = 0.005;
    config.scratch_dir = dir_;
    CampaignService service(config);
    DseJobOptions stalled = options;
    stalled.stall_after_units = 40;
    auto partial = std::make_shared<hls::DseResult>();
    core::JobRequest request;
    request.allow_degrade = false;
    request.body = make_dse_job(stalled, partial);
    const auto submit = service.submit(std::move(request));
    ASSERT_TRUE(submit.admitted);
    const auto status = wait_terminal(service, submit.id);
    EXPECT_EQ(status.state, JobState::kWatchdogKilled);
    EXPECT_FALSE(partial->completed);
    EXPECT_FALSE(partial->served_from_store);
    service.shutdown();
  }
  {
    auto store = open_shared_store(store_root + "/default");
    EXPECT_EQ(store->size(), 0u);  // truncated partials are never stored
  }

  // Phase 2: a fresh service instance (restart #1). The resubmitted job
  // resumes from the journaled checkpoint, completes, and its result goes
  // into the tenant's store.
  auto resumed = std::make_shared<hls::DseResult>();
  {
    ServiceConfig config;
    config.workers = 1;
    config.scratch_dir = dir_;
    CampaignService service(config);
    core::JobRequest request;
    request.allow_degrade = false;
    request.body = make_dse_job(options, resumed);
    const auto submit = service.submit(std::move(request));
    ASSERT_TRUE(submit.admitted);
    EXPECT_EQ(wait_terminal(service, submit.id).state, JobState::kDone);
  }
  EXPECT_TRUE(resumed->completed);
  EXPECT_GE(resumed->resumed_units, 40u);
  EXPECT_FALSE(resumed->served_from_store);

  // Phase 3: restart #2. Delete the checkpoint to prove the store -- not
  // the snapshot -- is what serves the repeat submission from disk.
  ASSERT_EQ(::unlink(snap.c_str()), 0);
  auto served = std::make_shared<hls::DseResult>();
  {
    ServiceConfig config;
    config.workers = 1;
    config.scratch_dir = dir_;
    CampaignService service(config);
    core::JobRequest request;
    request.allow_degrade = false;
    request.body = make_dse_job(options, served);
    const auto submit = service.submit(std::move(request));
    ASSERT_TRUE(submit.admitted);
    EXPECT_EQ(wait_terminal(service, submit.id).state, JobState::kDone);
  }
  EXPECT_TRUE(served->completed);
  EXPECT_TRUE(served->served_from_store);

  // Bit-identical to an uninterrupted, store-less reference sweep.
  hls::DseConfig reference = options.config;
  reference.checkpoint_path.clear();
  const hls::DseResult direct = hls::dse_exhaustive(options.kernel, reference);
  EXPECT_EQ(served->evaluations, direct.evaluations);
  EXPECT_EQ(served->feasible, direct.feasible);
  ASSERT_EQ(served->evaluated.size(), direct.evaluated.size());
  for (std::size_t i = 0; i < direct.evaluated.size(); ++i) {
    EXPECT_EQ(served->evaluated[i].total_latency_us,
              direct.evaluated[i].total_latency_us)
        << "design point " << i;
    EXPECT_EQ(served->evaluated[i].area_score, direct.evaluated[i].area_score)
        << "design point " << i;
  }
  ASSERT_EQ(served->front.size(), direct.front.size());
  for (std::size_t i = 0; i < direct.front.size(); ++i) {
    EXPECT_EQ(served->front[i].id, direct.front[i].id);
  }
}

// ---------------------------------------------------------------------------
// Metric naming: "/" names spans; counters and gauges use ".".

TEST_F(ServiceJobsTest, TracedDseCampaignCountersAndGaugesUseDottedNames) {
  DseJobOptions options;
  options.kernel = hls::make_dot_kernel(4);
  options.config.space.unroll_factors = {1, 2};
  options.config.space.alu_counts = {1, 2};
  options.config.space.mul_counts = {1};
  options.config.space.mem_port_counts = {1, 2};
  options.store_root = dir_ + "/stores";

  core::trace::set_enabled(true);
  core::trace::reset();
  {
    ServiceConfig config;
    config.workers = 1;
    config.scratch_dir = dir_;
    CampaignService service(config);
    // The first run computes and stores the campaign; the second is
    // served from the store.
    for (int run = 0; run < 2; ++run) {
      core::JobRequest request;
      request.allow_degrade = false;
      request.body = make_dse_job(options, nullptr);
      const auto submit = service.submit(std::move(request));
      ASSERT_TRUE(submit.admitted);
      EXPECT_EQ(wait_terminal(service, submit.id).state, JobState::kDone);
    }
  }
  const auto counters = core::trace::counters();
  const auto gauges = core::trace::gauges();
  core::trace::set_enabled(false);
  core::trace::reset();

  for (const auto& [name, value] : counters) {
    EXPECT_EQ(name.find('/'), std::string::npos) << "counter " << name;
  }
  for (const auto& [name, value] : gauges) {
    EXPECT_EQ(name.find('/'), std::string::npos) << "gauge " << name;
  }
  for (const char* name : {"dse.schedule_calls", "dse.cache_misses",
                           "dse.store_hits", "service.admitted"}) {
    EXPECT_TRUE(counters.contains(name)) << name;
  }
  EXPECT_TRUE(gauges.contains("service.queue_depth"));
}

// ---------------------------------------------------------------------------
// submit_with_backoff

TEST_F(ServiceJobsTest, SubmitWithBackoffRetriesUntilAdmitted) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;
  CampaignService service(config);

  // Occupy the worker and fill the queue so the first submits are rejected.
  auto gate_mutex = std::make_shared<std::mutex>();
  auto gate_cv = std::make_shared<std::condition_variable>();
  auto gate_open = std::make_shared<bool>(false);
  const auto blocked = [gate_mutex, gate_cv,
                        gate_open](core::JobContext& ctx) {
    std::unique_lock<std::mutex> lock(*gate_mutex);
    while (!*gate_open && !ctx.cancelled()) {
      gate_cv->wait_for(lock, std::chrono::milliseconds(1));
    }
  };
  core::JobRequest running;
  running.body = blocked;
  ASSERT_TRUE(service.submit(std::move(running)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  core::JobRequest queued;
  queued.body = [](core::JobContext&) {};
  ASSERT_TRUE(service.submit(std::move(queued)).admitted);

  core::RetryPolicy policy;
  policy.max_retries = 50;
  policy.base_delay_seconds = 0.01;
  policy.max_delay_seconds = 0.05;
  policy.decorrelated = true;
  policy.seed = 42;

  std::vector<double> scheduled;
  core::JobRequest contended;
  contended.body = [](core::JobContext&) {};
  const ResubmitResult result = submit_with_backoff(
      service, std::move(contended), policy, [&](double seconds) {
        scheduled.push_back(seconds);
        // Release the gate on the first backoff; the worker then drains
        // the queue and a later retry is admitted.
        {
          std::lock_guard<std::mutex> lock(*gate_mutex);
          *gate_open = true;
        }
        gate_cv->notify_all();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      });

  EXPECT_TRUE(result.outcome.admitted);
  EXPECT_GE(result.retry.attempts, 2);
  EXPECT_TRUE(result.retry.succeeded);
  ASSERT_FALSE(scheduled.empty());
  // Every scheduled sleep respects the decorrelated-jitter bounds.
  for (const double s : scheduled) {
    EXPECT_GE(s, policy.base_delay_seconds * 0.999);
    EXPECT_LE(s, policy.max_delay_seconds * 1.001);
  }
  service.drain();
}

TEST(SubmitWithBackoff, GivesUpAfterPolicyExhaustion) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;
  CampaignService service(config);
  // Park the worker and fill the queue; nothing ever drains.
  auto release = std::make_shared<std::atomic<bool>>(false);
  core::JobRequest running;
  running.body = [release](core::JobContext& ctx) {
    while (!release->load() && !ctx.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ASSERT_TRUE(service.submit(std::move(running)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  core::JobRequest queued;
  queued.body = [](core::JobContext&) {};
  ASSERT_TRUE(service.submit(std::move(queued)).admitted);

  core::RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_delay_seconds = 0.001;
  core::JobRequest contended;
  contended.body = [](core::JobContext&) {};
  int sleeps = 0;
  const ResubmitResult result =
      submit_with_backoff(service, std::move(contended), policy,
                          [&](double) { ++sleeps; });
  EXPECT_FALSE(result.outcome.admitted);
  EXPECT_EQ(result.outcome.reason, "queue_full");
  EXPECT_EQ(result.retry.attempts, 4);  // 1 try + 3 retries
  EXPECT_EQ(sleeps, 3);
  release->store(true);
}

}  // namespace
}  // namespace icsc::service
