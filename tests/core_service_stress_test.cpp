// Cancellation-race stress: jobs cancelled at random points of their
// lifecycle -- before admission (never-issued ids), while queued, mid-run,
// and during a checkpoint append -- from several client threads at once,
// with deadlines and the watchdog live. The invariant under all of it is
// exact accounting: every admitted job reaches exactly one terminal state,
// so admitted == done + failed + cancelled + shed + watchdog-killed, per
// tenant and in total, and drain()/shutdown() always complete (no leaked
// jobs, no deadlock). Runs under the TSan CI leg.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/service.hpp"

namespace icsc::core {
namespace {

std::uint64_t terminal_total(const TenantStats& t) {
  return t.completed + t.failed + t.cancelled + t.shed_expired +
         t.watchdog_kills;
}

TEST(ServiceStress, RandomCancellationPointsKeepExactAccounting) {
  char tmpl[] = "/tmp/icsc_service_stress_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ServiceConfig config;
  config.workers = 3;
  config.max_queue_depth = 32;
  config.watchdog_timeout_seconds = 0.25;  // generous: bodies beat every few ms
  config.journal_path = dir + "/events.journal";
  config.scratch_dir = dir;
  std::map<std::string, TenantConfig> tenants;
  tenants["a"] = TenantConfig{2, 0};
  tenants["b"] = TenantConfig{1, 8};
  CampaignService service(config, tenants);

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 60;
  std::atomic<std::uint64_t> bodies_entered{0};
  std::atomic<std::uint64_t> bodies_finished{0};
  std::atomic<std::uint64_t> clients_done{0};

  std::mutex ids_mutex;
  std::vector<JobId> ids;

  const auto client = [&](int who) {
    std::mt19937 rng(1234u + static_cast<unsigned>(who));
    std::uniform_int_distribution<int> coin(0, 99);
    for (int i = 0; i < kJobsPerClient; ++i) {
      JobRequest request;
      request.tenant = (who % 2 == 0) ? "a" : "b";
      const int style = coin(rng);
      if (style < 20) {
        // Tight deadline: some of these expire while queued and are shed.
        request.deadline = Deadline::after(0.001 * (1 + style % 5));
      }
      request.cost_estimate_seconds = 0.001;
      const int spins = 1 + coin(rng) % 8;
      request.body = [&, spins](JobContext& ctx) {
        bodies_entered.fetch_add(1);
        for (int s = 0; s < spins; ++s) {
          if (ctx.cancelled()) break;
          ctx.heartbeat();
          // "during checkpoint": half the bodies persist durable state
          // mid-run, the window the cancel threads aim for.
          if (s == spins / 2) {
            const std::string path = ctx.checkpoint_path("state.snap");
            if (!path.empty()) {
              SnapshotWriter writer;
              writer.put_u64(static_cast<std::uint64_t>(s));
              writer.save(path, 0x5354u, 1);
              ctx.note_checkpoint(path);
            }
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        bodies_finished.fetch_add(1);
      };
      const SubmitOutcome outcome = service.submit(std::move(request));
      if (outcome.admitted) {
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.push_back(outcome.id);
      } else {
        // Rejection is explicit, never silent.
        EXPECT_FALSE(outcome.reason.empty());
      }
      if (coin(rng) < 30) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    clients_done.fetch_add(1);
  };

  const auto canceller = [&](int who) {
    std::mt19937 rng(777u + static_cast<unsigned>(who));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (clients_done.load() < kClients &&
           std::chrono::steady_clock::now() < give_up) {
      JobId target = 0;
      {
        std::lock_guard<std::mutex> lock(ids_mutex);
        if (!ids.empty()) {
          std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);
          target = ids[pick(rng)];
        }
      }
      if (target != 0) {
        // Hits queued, running, checkpointing, and already-terminal jobs;
        // cancel() must never throw for a known id in any state.
        service.cancel(target);
      }
      // Pre-admission race: an id the service has never issued.
      EXPECT_FALSE(service.cancel(JobId{1} << 30));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kClients + 2);
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  threads.emplace_back(canceller, 0);
  threads.emplace_back(canceller, 1);
  for (auto& t : threads) t.join();
  service.drain();
  service.shutdown();

  const ServiceStats stats = service.stats();
  // Conservation: every submit was admitted or rejected, and every
  // admitted job reached exactly one terminal state.
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kClients * kJobsPerClient));
  std::uint64_t tenant_admitted = 0;
  std::uint64_t tenant_terminal = 0;
  for (const auto& [name, tenant] : stats.tenants) {
    EXPECT_EQ(tenant.admitted, terminal_total(tenant)) << name;
    tenant_admitted += tenant.admitted;
    tenant_terminal += terminal_total(tenant);
  }
  EXPECT_EQ(tenant_admitted, stats.admitted);
  EXPECT_EQ(tenant_terminal,
            stats.completed + stats.failed + stats.cancelled +
                stats.shed_expired + stats.watchdog_kills);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  // Every body that started also drained -- nothing leaked mid-body.
  EXPECT_EQ(bodies_entered.load(), bodies_finished.load());
  EXPECT_LE(stats.completed, bodies_entered.load());
  EXPECT_EQ(stats.failed, 0u);

  // The journal replays cleanly after all that concurrent appending.
  const auto events = CampaignService::replay_events(config.journal_path);
  std::uint64_t journaled_cancels = 0;
  for (const auto& event : events) {
    if (event.kind == ServiceEventKind::kCancelled) ++journaled_cancels;
  }
  EXPECT_GE(journaled_cancels, stats.cancelled);

  const std::string cleanup = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cleanup.c_str());
}

/// Repeated construct/submit/cancel/shutdown cycles must never deadlock or
/// leak (each iteration joins all service threads, some with work still in
/// flight).
TEST(ServiceStress, RepeatedLifecyclesShutDownCleanly) {
  for (int round = 0; round < 8; ++round) {
    ServiceConfig config;
    config.workers = 2;
    config.max_queue_depth = 8;
    CampaignService service(config);
    std::vector<JobId> ids;
    for (int i = 0; i < 8; ++i) {
      JobRequest request;
      request.body = [](JobContext& ctx) {
        ctx.heartbeat();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      };
      const SubmitOutcome outcome = service.submit(std::move(request));
      if (outcome.admitted) ids.push_back(outcome.id);
    }
    if (round % 2 == 0) {
      for (const JobId id : ids) service.cancel(id);
    }
    if (round % 3 == 0) service.drain();
    service.shutdown();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.running, 0u);
  }
}

}  // namespace
}  // namespace icsc::core
