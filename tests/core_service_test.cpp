// CampaignService contract tests: admission control, DRR fair share,
// deadline shedding, degradation tiers, cancellation semantics, watchdog
// kills, and the durable event journal (core/service.hpp).
#include "core/service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/stats.hpp"

namespace icsc::core {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_service_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    if (!dir_.empty()) {
      const std::string cmd = "rm -rf '" + dir_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

/// Cancellation-aware latch: bodies park here until the test releases them
/// (or the service cancels them), so tests control exactly what is running
/// vs queued.
struct Gate {
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

  /// True when released, false when the job was cancelled first.
  bool wait_open(JobContext& ctx) {
    std::unique_lock<std::mutex> lock(m);
    while (!open) {
      if (ctx.cancelled()) return false;
      ctx.heartbeat();
      cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    return true;
  }
};

JobStatus wait_terminal(CampaignService& service, JobId id,
                        double timeout_seconds = 20.0) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const JobStatus status = service.poll(id);
    if (status.terminal) return status;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() > timeout_seconds) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(ServiceTest, SubmitRunsBodyAndReportsDone) {
  ServiceConfig config;
  config.workers = 1;
  CampaignService service(config);
  auto ran = std::make_shared<std::atomic<bool>>(false);
  JobRequest request;
  request.body = [ran](JobContext& ctx) {
    ctx.heartbeat();
    ran->store(true);
  };
  const SubmitOutcome outcome = service.submit(std::move(request));
  ASSERT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.reason, "");
  const JobStatus status = wait_terminal(service, outcome.id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_TRUE(status.terminal);
  EXPECT_TRUE(ran->load());
  EXPECT_GE(status.run_seconds, 0.0);
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  ASSERT_EQ(stats.tenants.at("default").sojourn_seconds.size(), 1u);
  // Sojourn samples feed core::percentile directly.
  EXPECT_GE(percentile(stats.tenants.at("default").sojourn_seconds, 0.99),
            0.0);
}

TEST_F(ServiceTest, MalformedRequestsThrow) {
  CampaignService service(ServiceConfig{});
  JobRequest no_body;
  EXPECT_THROW(service.submit(std::move(no_body)), Error);
  JobRequest no_tenant;
  no_tenant.tenant = "";
  no_tenant.body = [](JobContext&) {};
  EXPECT_THROW(service.submit(std::move(no_tenant)), Error);
  EXPECT_THROW(service.poll(JobId{999}), Error);
}

TEST_F(ServiceTest, QueueFullRejectsWithRetryAfterHint) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 3;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  const auto blocked = [gate](JobContext& ctx) { gate->wait_open(ctx); };

  // One job occupies the worker...
  std::vector<JobId> admitted;
  {
    JobRequest request;
    request.cost_estimate_seconds = 0.01;
    request.body = blocked;
    const SubmitOutcome outcome = service.submit(std::move(request));
    ASSERT_TRUE(outcome.admitted);
    admitted.push_back(outcome.id);
  }
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().running, 1u);
  // ...then three more fill the queue to its bound.
  for (int i = 0; i < 3; ++i) {
    JobRequest request;
    request.cost_estimate_seconds = 0.01;
    request.body = blocked;
    const SubmitOutcome outcome = service.submit(std::move(request));
    ASSERT_TRUE(outcome.admitted) << "submit " << i;
    admitted.push_back(outcome.id);
  }
  ASSERT_EQ(service.stats().queued, 3u);

  JobRequest overflow;
  overflow.cost_estimate_seconds = 0.01;
  overflow.body = blocked;
  const SubmitOutcome rejected = service.submit(std::move(overflow));
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "queue_full");
  EXPECT_GT(rejected.retry_after_seconds, 0.0);

  JobRequest thrown;
  thrown.body = blocked;
  EXPECT_THROW(service.submit_or_throw(std::move(thrown)), Overloaded);
  try {
    JobRequest again;
    again.body = blocked;
    service.submit_or_throw(std::move(again));
    FAIL() << "expected Overloaded";
  } catch (const Overloaded& e) {
    EXPECT_GT(e.retry_after_seconds(), 0.0);
  }

  gate->release();
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.peak_queue_depth, 3u);
}

TEST_F(ServiceTest, TenantQuotaRejectsIndependentlyOfGlobalQueue) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 64;
  std::map<std::string, TenantConfig> tenants;
  tenants["quota"] = TenantConfig{1, 2};
  CampaignService service(config, tenants);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;  // other tenant: occupies the single worker
  blocker.tenant = "other";
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (int i = 0; i < 2; ++i) {
    JobRequest request;
    request.tenant = "quota";
    request.body = [](JobContext&) {};
    ASSERT_TRUE(service.submit(std::move(request)).admitted);
  }
  JobRequest third;
  third.tenant = "quota";
  third.body = [](JobContext&) {};
  const SubmitOutcome rejected = service.submit(std::move(third));
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "tenant_quota");
  // The global queue still has room for other tenants.
  JobRequest other;
  other.tenant = "other";
  other.body = [](JobContext&) {};
  EXPECT_TRUE(service.submit(std::move(other)).admitted);
  gate->release();
  service.drain();
  EXPECT_EQ(service.stats().tenants.at("quota").rejected, 1u);
}

TEST_F(ServiceTest, DeficitRoundRobinHonoursWeights) {
  ServiceConfig config;
  config.workers = 1;
  config.drr_quantum_seconds = 0.05;
  std::map<std::string, TenantConfig> tenants;
  tenants["heavy"] = TenantConfig{2, 0};
  tenants["light"] = TenantConfig{1, 0};
  CampaignService service(config, tenants);

  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.tenant = "gate";
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto order_mutex = std::make_shared<std::mutex>();
  auto order = std::make_shared<std::vector<std::string>>();
  const auto record = [order_mutex, order](const std::string& name) {
    return [order_mutex, order, name](JobContext&) {
      std::lock_guard<std::mutex> lock(*order_mutex);
      order->push_back(name);
    };
  };
  // Equal-cost jobs, cost == quantum, queued while the worker is gated: DRR
  // with weights 2:1 must serve heavy twice per light once.
  for (int i = 0; i < 12; ++i) {
    JobRequest heavy;
    heavy.tenant = "heavy";
    heavy.cost_estimate_seconds = 0.05;
    heavy.body = record("heavy");
    ASSERT_TRUE(service.submit(std::move(heavy)).admitted);
    JobRequest light;
    light.tenant = "light";
    light.cost_estimate_seconds = 0.05;
    light.body = record("light");
    ASSERT_TRUE(service.submit(std::move(light)).admitted);
  }
  gate->release();
  service.drain();

  ASSERT_EQ(order->size(), 24u);
  // While both tenants still have queued work (the first 18 completions:
  // 12 heavy + 6 light at ratio 2:1), light must get its weighted share --
  // at least 1/4 of every window -- and must never be starved.
  std::size_t light_in_first_9 = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    if ((*order)[i] == "light") ++light_in_first_9;
  }
  EXPECT_GE(light_in_first_9, 2u);
  EXPECT_LE(light_in_first_9, 4u);
  EXPECT_EQ(service.stats().tenants.at("light").completed, 12u);
  EXPECT_EQ(service.stats().tenants.at("heavy").completed, 12u);
}

TEST_F(ServiceTest, ExpiredQueuedJobsAreShedBeforeExecution) {
  ServiceConfig config;
  config.workers = 1;
  config.journal_path = path("events.journal");
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto executed = std::make_shared<std::atomic<bool>>(false);
  JobRequest doomed;
  doomed.deadline = Deadline::after(0.02);
  doomed.body = [executed](JobContext&) { executed->store(true); };
  const SubmitOutcome outcome = service.submit(std::move(doomed));
  ASSERT_TRUE(outcome.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();
  const JobStatus status = wait_terminal(service, outcome.id);
  EXPECT_EQ(status.state, JobState::kExpired);
  EXPECT_FALSE(executed->load());
  service.drain();
  service.shutdown();
  EXPECT_EQ(service.stats().shed_expired, 1u);

  const auto events = CampaignService::replay_events(path("events.journal"));
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].kind, ServiceEventKind::kShedExpired);
  EXPECT_EQ(events[0].id, outcome.id);
  EXPECT_EQ(events[0].tenant, "default");
}

TEST_F(ServiceTest, DoomedJobsAreShedWhenBudgetCannotFit) {
  ServiceConfig config;
  config.workers = 1;
  CampaignService service(config);
  auto executed = std::make_shared<std::atomic<bool>>(false);
  JobRequest doomed;
  doomed.deadline = Deadline::after(0.5);  // alive, but cost >> budget
  doomed.cost_estimate_seconds = 100.0;
  doomed.body = [executed](JobContext&) { executed->store(true); };
  const SubmitOutcome outcome = service.submit(std::move(doomed));
  ASSERT_TRUE(outcome.admitted);
  const JobStatus status = wait_terminal(service, outcome.id);
  EXPECT_EQ(status.state, JobState::kExpired);
  EXPECT_FALSE(executed->load());
}

TEST_F(ServiceTest, DegradeTiersTrackQueuePressure) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 10;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto tier_seen = std::make_shared<std::vector<DegradeTier>>();
  auto tier_mutex = std::make_shared<std::mutex>();
  std::vector<DegradeTier> assigned;
  for (int i = 0; i < 9; ++i) {
    JobRequest request;
    request.body = [tier_seen, tier_mutex](JobContext& ctx) {
      std::lock_guard<std::mutex> lock(*tier_mutex);
      tier_seen->push_back(ctx.tier());
    };
    const SubmitOutcome outcome = service.submit(std::move(request));
    ASSERT_TRUE(outcome.admitted);
    assigned.push_back(outcome.tier);
  }
  // Pressure at submit i (queue holds i jobs) is (i+1)/10.
  EXPECT_EQ(assigned[0], DegradeTier::kFull);      // 0.1
  EXPECT_EQ(assigned[3], DegradeTier::kFull);      // 0.4
  EXPECT_EQ(assigned[4], DegradeTier::kReduced);   // 0.5
  EXPECT_EQ(assigned[6], DegradeTier::kReduced);   // 0.7
  EXPECT_EQ(assigned[7], DegradeTier::kMinimal);   // 0.8
  EXPECT_EQ(assigned[8], DegradeTier::kMinimal);   // 0.9

  // Opting out pins the tier to kFull regardless of pressure.
  JobRequest pinned;
  pinned.allow_degrade = false;
  pinned.body = [](JobContext&) {};
  const SubmitOutcome full = service.submit(std::move(pinned));
  ASSERT_TRUE(full.admitted);
  EXPECT_EQ(full.tier, DegradeTier::kFull);

  gate->release();
  service.drain();
  EXPECT_EQ(service.stats().degraded, 5u);  // submits 4..8
  // Bodies observed the tier they were admitted at.
  std::lock_guard<std::mutex> lock(*tier_mutex);
  std::size_t degraded_seen = 0;
  for (const DegradeTier tier : *tier_seen) {
    if (tier != DegradeTier::kFull) ++degraded_seen;
  }
  EXPECT_EQ(degraded_seen, 5u);
}

TEST_F(ServiceTest, CancelQueuedAndRunningJobs) {
  ServiceConfig config;
  config.workers = 1;
  config.journal_path = path("events.journal");
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest running;
  running.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  const SubmitOutcome running_outcome = service.submit(std::move(running));
  ASSERT_TRUE(running_outcome.admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  JobRequest queued;
  queued.body = [](JobContext&) {};
  const SubmitOutcome queued_outcome = service.submit(std::move(queued));
  ASSERT_TRUE(queued_outcome.admitted);

  // Queued cancel finalises immediately.
  EXPECT_TRUE(service.cancel(queued_outcome.id));
  const JobStatus queued_status = service.poll(queued_outcome.id);
  EXPECT_EQ(queued_status.state, JobState::kCancelled);
  EXPECT_TRUE(queued_status.terminal);
  EXPECT_FALSE(service.cancel(queued_outcome.id));  // already terminal

  // Running cancel is cooperative: the body sees the stop request.
  EXPECT_TRUE(service.cancel(running_outcome.id));
  const JobStatus running_status = wait_terminal(service, running_outcome.id);
  EXPECT_EQ(running_status.state, JobState::kCancelled);
  service.drain();
  service.shutdown();
  EXPECT_EQ(service.stats().cancelled, 2u);

  const auto events = CampaignService::replay_events(path("events.journal"));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ServiceEventKind::kCancelled);
  EXPECT_EQ(events[1].kind, ServiceEventKind::kCancelled);
}

TEST_F(ServiceTest, WatchdogKillsStuckJobAndJournalsCheckpoint) {
  ServiceConfig config;
  config.workers = 1;
  config.watchdog_timeout_seconds = 0.05;
  config.journal_path = path("events.journal");
  config.scratch_dir = dir_;
  CampaignService service(config);

  JobRequest stuck;
  stuck.body = [](JobContext& ctx) {
    ctx.heartbeat();
    ctx.note_checkpoint(ctx.checkpoint_path("partial.snap"));
    // Never heartbeats again: spins until the watchdog cancels it.
    while (!ctx.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const SubmitOutcome outcome = service.submit(std::move(stuck));
  ASSERT_TRUE(outcome.admitted);
  const JobStatus status = wait_terminal(service, outcome.id);
  EXPECT_EQ(status.state, JobState::kWatchdogKilled);
  EXPECT_FALSE(status.checkpoint_path.empty());
  service.drain();
  service.shutdown();
  EXPECT_EQ(service.stats().watchdog_kills, 1u);

  // The kill is journaled with the job's last durable checkpoint, so a
  // dead service still tells the tenant where to resume from.
  const auto events = CampaignService::replay_events(path("events.journal"));
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].kind, ServiceEventKind::kWatchdogKill);
  EXPECT_EQ(events[0].id, outcome.id);
  EXPECT_EQ(events[0].checkpoint_path, status.checkpoint_path);
}

TEST_F(ServiceTest, TerminalJobsReleaseTheirBodies) {
  // jobs_ keeps every Job for the service lifetime, but a terminal job must
  // not keep its body's captures alive. One sentinel per terminal path.
  ServiceConfig config;
  config.workers = 1;
  config.watchdog_timeout_seconds = 0.05;
  CampaignService service(config);
  std::vector<std::weak_ptr<int>> sentinels;
  const auto submit = [&](std::function<void(JobContext&)> work,
                          double cost = 0.0,
                          Deadline deadline = Deadline::never()) {
    auto sentinel = std::make_shared<int>(0);
    sentinels.push_back(sentinel);
    JobRequest request;
    request.cost_estimate_seconds = cost;
    request.deadline = deadline;
    request.body = [sentinel = std::move(sentinel),
                    work = std::move(work)](JobContext& ctx) { work(ctx); };
    const SubmitOutcome outcome = service.submit(std::move(request));
    EXPECT_TRUE(outcome.admitted);
    return outcome.id;
  };

  const JobId done = submit([](JobContext&) {});
  const JobId failed =
      submit([](JobContext&) { throw std::runtime_error("boom"); });
  auto gate = std::make_shared<Gate>();
  const JobId running =
      submit([gate](JobContext& ctx) { gate->wait_open(ctx); });
  const auto start = std::chrono::steady_clock::now();
  while (service.poll(running).state != JobState::kRunning &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const JobId queued = submit([](JobContext&) {});
  const JobId shed = submit([](JobContext&) {}, 100.0, Deadline::after(0.5));
  EXPECT_TRUE(service.cancel(queued));
  EXPECT_TRUE(service.cancel(running));
  const JobId stuck = submit([](JobContext& ctx) {
    ctx.heartbeat();
    while (!ctx.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  service.drain();

  EXPECT_EQ(service.poll(done).state, JobState::kDone);
  EXPECT_EQ(service.poll(failed).state, JobState::kFailed);
  EXPECT_EQ(service.poll(running).state, JobState::kCancelled);
  EXPECT_EQ(service.poll(queued).state, JobState::kCancelled);
  EXPECT_EQ(service.poll(shed).state, JobState::kExpired);
  EXPECT_EQ(service.poll(stuck).state, JobState::kWatchdogKilled);
  ASSERT_EQ(sentinels.size(), 6u);
  for (std::size_t i = 0; i < sentinels.size(); ++i) {
    EXPECT_TRUE(sentinels[i].expired()) << "job " << i << " kept its body";
  }
}

TEST_F(ServiceTest, HealthyHeartbeatingJobSurvivesWatchdog) {
  ServiceConfig config;
  config.workers = 1;
  config.watchdog_timeout_seconds = 0.05;
  CampaignService service(config);
  JobRequest slow_but_alive;
  slow_but_alive.body = [](JobContext& ctx) {
    // Runs 4x the watchdog timeout, heartbeating well within it.
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      ctx.heartbeat();
    }
  };
  const SubmitOutcome outcome = service.submit(std::move(slow_but_alive));
  ASSERT_TRUE(outcome.admitted);
  const JobStatus status = wait_terminal(service, outcome.id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(service.stats().watchdog_kills, 0u);
}

TEST_F(ServiceTest, ShutdownCancelsQueuedWorkAndRefusesNewSubmits) {
  ServiceConfig config;
  config.workers = 1;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest running;
  running.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(running)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<JobId> queued;
  for (int i = 0; i < 3; ++i) {
    JobRequest request;
    request.body = [](JobContext&) {};
    const SubmitOutcome outcome = service.submit(std::move(request));
    ASSERT_TRUE(outcome.admitted);
    queued.push_back(outcome.id);
  }
  service.shutdown();  // never released the gate: shutdown must cancel it
  for (const JobId id : queued) {
    EXPECT_EQ(service.poll(id).state, JobState::kCancelled);
  }
  JobRequest late;
  late.body = [](JobContext&) {};
  const SubmitOutcome rejected = service.submit(std::move(late));
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "shutdown");
}

TEST_F(ServiceTest, CheckpointPathsAreNamespacedPerJob) {
  ServiceConfig with_scratch;
  with_scratch.workers = 1;
  with_scratch.scratch_dir = dir_;
  CampaignService service(with_scratch);
  auto seen = std::make_shared<std::string>();
  auto seen_mutex = std::make_shared<std::mutex>();
  JobRequest request;
  request.body = [seen, seen_mutex](JobContext& ctx) {
    std::lock_guard<std::mutex> lock(*seen_mutex);
    *seen = ctx.checkpoint_path("state.bin");
  };
  const SubmitOutcome outcome = service.submit(std::move(request));
  ASSERT_TRUE(outcome.admitted);
  wait_terminal(service, outcome.id);
  std::lock_guard<std::mutex> lock(*seen_mutex);
  EXPECT_NE(seen->find(dir_), std::string::npos);
  EXPECT_NE(seen->find("state.bin"), std::string::npos);
  EXPECT_NE(seen->find(std::to_string(outcome.id)), std::string::npos);
}

TEST_F(ServiceTest, ExpiredDeadlineRejectedAtSubmit) {
  CampaignService service(ServiceConfig{});
  JobRequest request;
  request.deadline = Deadline::after(-1.0);
  request.body = [](JobContext&) {};
  const SubmitOutcome outcome = service.submit(std::move(request));
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(outcome.reason, "expired");
}

TEST_F(ServiceTest, InvalidConfigsThrow) {
  ServiceConfig no_workers;
  no_workers.workers = 0;
  EXPECT_THROW(CampaignService{no_workers}, Error);
  ServiceConfig no_depth;
  no_depth.max_queue_depth = 0;
  EXPECT_THROW(CampaignService{no_depth}, Error);
  ServiceConfig no_batch;
  no_batch.coalesce_max_batch = 0;
  EXPECT_THROW(CampaignService{no_batch}, Error);
  ServiceConfig bad_wait;
  bad_wait.coalesce_max_wait_seconds = -1.0;
  EXPECT_THROW(CampaignService{bad_wait}, Error);
  ServiceConfig bad_aging;
  bad_aging.priority_aging_seconds = -1.0;
  EXPECT_THROW(CampaignService{bad_aging}, Error);
  ServiceConfig bad_watchdog;
  bad_watchdog.watchdog_timeout_seconds = -1.0;
  EXPECT_THROW(CampaignService{bad_watchdog}, Error);
  ServiceConfig ok;
  std::map<std::string, TenantConfig> tenants;
  tenants["bad"] = TenantConfig{0, 0};
  EXPECT_THROW((CampaignService(ok, tenants)), Error);
}

// ---------------------------------------------------------------------------
// Priority classes

TEST_F(ServiceTest, InteractivePreemptsQueuedBackgroundUnderOverload) {
  ServiceConfig config;
  config.workers = 1;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto order_mutex = std::make_shared<std::mutex>();
  auto order = std::make_shared<std::vector<std::string>>();
  const auto record = [order_mutex, order](const std::string& name) {
    return [order_mutex, order, name](JobContext&) {
      std::lock_guard<std::mutex> lock(*order_mutex);
      order->push_back(name);
    };
  };
  // Background saturates the queue first; interactive arrives last and
  // must still be served first once the worker frees up.
  for (int i = 0; i < 4; ++i) {
    JobRequest bg;
    bg.priority = PriorityClass::kBackground;
    bg.body = record("bg");
    ASSERT_TRUE(service.submit(std::move(bg)).admitted);
  }
  for (int i = 0; i < 3; ++i) {
    JobRequest fg;
    fg.priority = PriorityClass::kInteractive;
    fg.body = record("fg");
    ASSERT_TRUE(service.submit(std::move(fg)).admitted);
  }
  gate->release();
  service.drain();

  ASSERT_EQ(order->size(), 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*order)[i], "fg") << "position " << i;
  }
  JobRequest probe;
  probe.priority = PriorityClass::kInteractive;
  probe.body = [](JobContext&) {};
  const JobId id = service.submit_or_throw(std::move(probe));
  const JobStatus status = wait_terminal(service, id);
  EXPECT_EQ(status.priority, PriorityClass::kInteractive);
}

TEST_F(ServiceTest, AgingBoundPreventsBackgroundStarvation) {
  ServiceConfig config;
  config.workers = 1;
  config.priority_aging_seconds = 0.05;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto order_mutex = std::make_shared<std::mutex>();
  auto order = std::make_shared<std::vector<std::string>>();
  const auto record = [order_mutex, order](const std::string& name) {
    return [order_mutex, order, name](JobContext&) {
      std::lock_guard<std::mutex> lock(*order_mutex);
      order->push_back(name);
    };
  };
  JobRequest bg;
  bg.priority = PriorityClass::kBackground;
  bg.body = record("bg");
  ASSERT_TRUE(service.submit(std::move(bg)).admitted);
  // Let the background job age past the bound, then flood interactive
  // work. Without aging, strict priority would run every "fg" first; the
  // promoted job must come out ahead of them.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 4; ++i) {
    JobRequest fg;
    fg.priority = PriorityClass::kInteractive;
    fg.body = record("fg");
    ASSERT_TRUE(service.submit(std::move(fg)).admitted);
  }
  gate->release();
  service.drain();

  ASSERT_EQ(order->size(), 5u);
  EXPECT_EQ(order->front(), "bg");
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.aged_promotions, 1u);
  EXPECT_GE(stats.tenants.at("default").aged, 1u);
}

// ---------------------------------------------------------------------------
// Coalescing

TEST_F(ServiceTest, CoalescedGroupSharesStateAndScattersResults) {
  ServiceConfig config;
  config.workers = 1;
  config.coalesce_max_batch = 8;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The canonical gather/scatter shape: every member parks its result slot
  // in the shared state; the last member computes all results in one pass.
  struct GatherState {
    std::vector<std::shared_ptr<int>> slots;
  };
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<int>> results;
  for (int i = 0; i < 4; ++i) {
    auto slot = std::make_shared<int>(-1);
    results.push_back(slot);
    JobRequest request;
    request.coalesce_key = "shape:4x4";
    request.body = [slot](JobContext& ctx) {
      auto& state = ctx.batch_state();
      if (!state) state = std::make_shared<GatherState>();
      auto* gather = static_cast<GatherState*>(state.get());
      gather->slots.push_back(slot);
      if (ctx.batch_index() + 1 != ctx.batch_size()) return;
      for (std::size_t k = 0; k < gather->slots.size(); ++k) {
        *gather->slots[k] = static_cast<int>(k) * 10;
      }
    };
    ids.push_back(service.submit_or_throw(std::move(request)));
  }
  gate->release();
  service.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobStatus status = service.poll(ids[i]);
    EXPECT_EQ(status.state, JobState::kDone) << "job " << i;
    EXPECT_EQ(status.batch_size, 4u) << "job " << i;
    EXPECT_EQ(*results[i], static_cast<int>(i) * 10) << "job " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.coalesced_jobs, 4u);
  EXPECT_EQ(stats.max_batch_size, 4u);
  EXPECT_EQ(stats.tenants.at("default").batched, 4u);
}

TEST_F(ServiceTest, BatchWindowRespectsEarliestMemberDeadline) {
  ServiceConfig config;
  config.workers = 1;
  config.coalesce_max_batch = 8;
  config.coalesce_max_wait_seconds = 30.0;  // would dwarf the deadline
  CampaignService service(config);

  JobRequest request;
  request.coalesce_key = "lonely";
  request.deadline = Deadline::after(0.25);
  request.body = [](JobContext&) {};
  const auto submit_time = std::chrono::steady_clock::now();
  const JobId id = service.submit_or_throw(std::move(request));
  const JobStatus status = wait_terminal(service, id);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - submit_time;

  // The window must collapse to the member's deadline slack: the job runs
  // (alone) within its 250 ms budget instead of parking for 30 s.
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.batch_size, 1u);
  EXPECT_LT(elapsed.count(), 5.0);
}

TEST_F(ServiceTest, CancellingOneMemberDoesNotPoisonTheBatch) {
  ServiceConfig config;
  config.workers = 1;
  config.coalesce_max_batch = 8;
  config.coalesce_max_wait_seconds = 0.5;
  CampaignService service(config);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto ran = std::make_shared<std::atomic<int>>(0);
  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    JobRequest request;
    request.coalesce_key = "shape";
    request.body = [ran](JobContext&) {
      ran->fetch_add(1, std::memory_order_relaxed);
    };
    ids.push_back(service.submit_or_throw(std::move(request)));
  }
  gate->release();
  // The leader claims all three members (they turn kRunning) and parks in
  // its window; cancel the middle member while the window is open.
  const auto claim_start = std::chrono::steady_clock::now();
  while (service.poll(ids[1]).state != JobState::kRunning &&
         std::chrono::steady_clock::now() - claim_start <
             std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.poll(ids[1]).state, JobState::kRunning);
  EXPECT_TRUE(service.cancel(ids[1]));
  service.drain();

  EXPECT_EQ(service.poll(ids[0]).state, JobState::kDone);
  EXPECT_EQ(service.poll(ids[1]).state, JobState::kCancelled);
  EXPECT_EQ(service.poll(ids[2]).state, JobState::kDone);
  // The survivors ran as a (smaller) batch; the cancelled member never ran.
  EXPECT_EQ(ran->load(), 2);
  EXPECT_EQ(service.poll(ids[0]).batch_size, 2u);
  EXPECT_EQ(service.poll(ids[2]).batch_size, 2u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.coalesced_jobs, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Accounting bugfixes

TEST_F(ServiceTest, TenantQuotaRetryHintUsesFairShareRate) {
  ServiceConfig config;
  config.workers = 1;
  std::map<std::string, TenantConfig> tenants;
  tenants["quota"] = TenantConfig{1, 2};
  tenants["rival"] = TenantConfig{1, 0};
  CampaignService service(config, tenants);
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.tenant = "gate";
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  ASSERT_TRUE(service.submit(std::move(blocker)).admitted);
  const auto start = std::chrono::steady_clock::now();
  while (service.stats().running == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A rival with equal weight keeps 4 cost-seconds queued, and the quota
  // tenant itself queues 2: under DRR the quota tenant drains at half a
  // worker, so its 2 queued seconds take ~4 wall seconds -- the old
  // all-workers arithmetic promised 2.
  for (int i = 0; i < 4; ++i) {
    JobRequest rival;
    rival.tenant = "rival";
    rival.cost_estimate_seconds = 1.0;
    rival.body = [](JobContext&) {};
    ASSERT_TRUE(service.submit(std::move(rival)).admitted);
  }
  for (int i = 0; i < 2; ++i) {
    JobRequest request;
    request.tenant = "quota";
    request.cost_estimate_seconds = 1.0;
    request.body = [](JobContext&) {};
    ASSERT_TRUE(service.submit(std::move(request)).admitted);
  }
  JobRequest overflow;
  overflow.tenant = "quota";
  overflow.cost_estimate_seconds = 1.0;
  overflow.body = [](JobContext&) {};
  const SubmitOutcome rejected = service.submit(std::move(overflow));
  ASSERT_FALSE(rejected.admitted);
  ASSERT_EQ(rejected.reason, "tenant_quota");
  EXPECT_NEAR(rejected.retry_after_seconds, 4.0, 0.5);
  gate->release();
  service.drain();
}

TEST_F(ServiceTest, SojournsComeFromTheJobTableForDoneJobsOnly) {
  ServiceConfig config;
  config.workers = 1;
  CampaignService service(config);
  std::vector<JobId> done;
  const auto run = [&](std::function<void(JobContext&)> body) {
    JobRequest request;
    request.body = std::move(body);
    const JobId id = service.submit_or_throw(std::move(request));
    wait_terminal(service, id);
    return id;
  };
  for (int i = 0; i < 3; ++i) done.push_back(run([](JobContext&) {}));
  const JobId failed =
      run([](JobContext&) { throw std::runtime_error("boom"); });
  for (int i = 0; i < 2; ++i) done.push_back(run([](JobContext&) {}));
  // The sixth done job holds the only worker while the job queued behind
  // it is cancelled, so that one never runs.
  auto gate = std::make_shared<Gate>();
  JobRequest blocker;
  blocker.body = [gate](JobContext& ctx) { gate->wait_open(ctx); };
  done.push_back(service.submit_or_throw(std::move(blocker)));
  JobRequest victim;
  victim.body = [](JobContext&) {};
  const JobId cancelled = service.submit_or_throw(std::move(victim));
  ASSERT_TRUE(service.cancel(cancelled));
  gate->release();
  service.drain();
  EXPECT_EQ(service.poll(failed).state, JobState::kFailed);
  EXPECT_EQ(service.poll(cancelled).state, JobState::kCancelled);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 6u);
  const auto& sojourns = stats.tenants.at("default").sojourn_seconds;
  // One sample per kDone job, in job-id order, each equal to that job's
  // queue + run time as poll() reports it.
  ASSERT_EQ(sojourns.size(), done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    const JobStatus status = service.poll(done[i]);
    ASSERT_EQ(status.state, JobState::kDone);
    EXPECT_NEAR(sojourns[i], status.queue_seconds + status.run_seconds, 1e-9);
  }
}

}  // namespace
}  // namespace icsc::core
