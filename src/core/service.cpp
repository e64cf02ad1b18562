#include "core/service.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "core/trace.hpp"

namespace icsc::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Minimum DRR debit: a zero-cost job must still consume schedule share or
// a tenant flooding free jobs would monopolise the dispatchers.
constexpr double kMinDrrCost = 1e-3;

// Queue-fill fractions (of max_queue_depth) at which newly admitted jobs
// degrade to kReduced / kMinimal.
constexpr double kDegradeReducedAt = 0.5;
constexpr double kDegradeMinimalAt = 0.8;

// The watchdog scans every timeout / kWatchdogPollsPerTimeout, so a stuck
// body is killed within 1.1x the timeout after its last heartbeat.
constexpr double kWatchdogPollsPerTimeout = 10.0;

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
    case JobState::kWatchdogKilled: return "watchdog_killed";
  }
  return "?";
}

const char* degrade_tier_name(DegradeTier tier) {
  switch (tier) {
    case DegradeTier::kFull: return "full";
    case DegradeTier::kReduced: return "reduced";
    case DegradeTier::kMinimal: return "minimal";
  }
  return "?";
}

const char* priority_class_name(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kBatch: return "batch";
    case PriorityClass::kBackground: return "background";
  }
  return "?";
}

const char* service_event_kind_name(ServiceEventKind kind) {
  switch (kind) {
    case ServiceEventKind::kShedExpired: return "shed_expired";
    case ServiceEventKind::kWatchdogKill: return "watchdog_kill";
    case ServiceEventKind::kCancelled: return "cancelled";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Internal state

struct CampaignService::Job {
  JobId id = 0;
  std::string tenant;
  /// The owning Tenant record, resolved once at admission. Tenant objects
  /// are heap-allocated and never removed, so the pointer is stable; it
  /// keeps the per-job hot path (claim, finalise) off the string-keyed
  /// tenant map.
  Tenant* home = nullptr;
  /// This job's index in running_jobs_ while it is on the running list
  /// (guarded by the service mutex); lets finalise swap-pop in O(1).
  std::size_t running_slot = 0;
  JobState state = JobState::kQueued;
  DegradeTier tier = DegradeTier::kFull;
  PriorityClass priority = PriorityClass::kBatch;
  std::string coalesce_key;      // empty = never coalesced
  std::size_t batch_size = 0;    // live group size once running (1 = solo)
  bool aged = false;             // promoted to interactive by the aging bound
  double cost = 0.0;      // caller's estimate, seconds
  double drr_cost = kMinDrrCost;
  Deadline deadline;
  CancelToken token;
  std::function<void(JobContext&)> body;
  /// A queued job is finalised in the same step that sets this, so only a
  /// claimed or running job is ever seen carrying it.
  bool cancel_requested = false;
  bool watchdog_flagged = false;
  bool hit_deadline = false;
  std::string checkpoint_path;  // guarded by the service mutex
  std::string error;
  Clock::time_point submit_time{};
  Clock::time_point start_time{};
  Clock::time_point end_time{};
  bool started = false;
  std::atomic<std::uint64_t> heartbeats{0};
  // Watchdog bookkeeping (guarded by the service mutex).
  std::uint64_t watchdog_seen = 0;
  Clock::time_point watchdog_progress{};
};

struct CampaignService::Tenant {
  TenantConfig config;
  /// Per-priority-class FIFO queues (may hold finalised corpses). Strict
  /// priority scans kInteractive first; DRR fairness applies within a
  /// class.
  std::array<std::deque<std::shared_ptr<Job>>, kNumPriorityClasses> queues;
  std::size_t queued = 0;                  // jobs across `queues` still kQueued
  double queued_cost = 0.0;                // sum of their cost estimates
  double deficit = 0.0;                    // DRR credit, cost-seconds
  TenantStats stats;  // counters only; stats() fills sojourn_seconds

  /// The class-`cls` queue with finalised jobs popped off its front, so a
  /// non-empty result fronts a queued job.
  std::deque<std::shared_ptr<Job>>& live_queue(std::size_t cls) {
    auto& queue = queues[cls];
    while (!queue.empty() && queue.front()->state != JobState::kQueued) {
      queue.pop_front();
    }
    return queue;
  }
};

// ---------------------------------------------------------------------------
// JobContext

void JobContext::heartbeat() {
  ICSC_TRACE_COUNT("service.heartbeats", 1);
  if (heartbeats_ != nullptr) {
    heartbeats_->fetch_add(1, std::memory_order_relaxed);
  }
}

std::string JobContext::checkpoint_path(const std::string& leaf) const {
  if (service_ == nullptr || service_->config().scratch_dir.empty()) return "";
  return service_->config().scratch_dir + "/job_" + std::to_string(id_) + "_" +
         leaf;
}

void JobContext::note_checkpoint(const std::string& path) {
  if (service_ != nullptr) service_->note_checkpoint(id_, path);
}

// ---------------------------------------------------------------------------
// Construction / teardown

CampaignService::CampaignService(ServiceConfig config,
                                 std::map<std::string, TenantConfig> tenants)
    : config_(std::move(config)), epoch_(Clock::now()) {
  if (config_.workers == 0) {
    throw Error("core::service", "workers must be >= 1");
  }
  if (config_.max_queue_depth == 0) {
    throw Error("core::service", "max_queue_depth must be >= 1");
  }
  if (config_.watchdog_timeout_seconds < 0.0) {
    throw Error("core::service", "watchdog_timeout_seconds must be >= 0");
  }
  if (config_.drr_quantum_seconds <= 0.0) {
    throw Error("core::service", "drr_quantum_seconds must be > 0");
  }
  if (config_.coalesce_max_batch == 0) {
    throw Error("core::service", "coalesce_max_batch must be >= 1");
  }
  if (config_.coalesce_max_wait_seconds < 0.0) {
    throw Error("core::service", "coalesce_max_wait_seconds must be >= 0");
  }
  if (config_.priority_aging_seconds < 0.0) {
    throw Error("core::service", "priority_aging_seconds must be >= 0");
  }
  for (const auto& [name, tenant_config] : tenants) {
    if (name.empty()) {
      throw Error("core::service", "tenant name must be non-empty");
    }
    if (tenant_config.weight < 1) {
      throw Error("core::service", "tenant weight must be >= 1", name);
    }
    tenant_locked(name).config = tenant_config;  // no thread runs yet
  }
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<RunJournal>(config_.journal_path, kJournalKind);
  }
  dispatchers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_main(); });
  }
  if (config_.watchdog_timeout_seconds > 0.0) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

CampaignService::~CampaignService() { shutdown(); }

void CampaignService::shutdown() {
  std::vector<ServiceEvent> events;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!stopped_) {
      stopped_ = true;
      // Cancel everything still queued; running bodies get a cooperative
      // stop request and are joined below.
      for (auto& [name, tenant] : tenants_) {
        for (auto& queue : tenant->queues) {
          for (auto& job : queue) {
            if (job->state == JobState::kQueued) cancel_locked(job, &events);
          }
        }
      }
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) job->token.request_stop();
      }
    }
    work_cv_.notify_all();
    watchdog_cv_.notify_all();
    batch_cv_.notify_all();
  }
  append_events(events);
  // Join outside the lock; guard against double-join on repeated calls.
  for (auto& thread : dispatchers_) {
    if (thread.joinable()) thread.join();
  }
  dispatchers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
}

// ---------------------------------------------------------------------------
// Admission

CampaignService::Tenant& CampaignService::tenant_locked(
    const std::string& name) {
  auto [it, created] = tenants_.try_emplace(name);
  if (created) {
    it->second = std::make_unique<Tenant>();
    tenant_order_.push_back(name);
  }
  return *it->second;
}

double CampaignService::backlog_seconds_locked() const {
  double total = 0.0;
  for (const auto& [name, tenant] : tenants_) total += tenant->queued_cost;
  return total / static_cast<double>(config_.workers);
}

double CampaignService::tenant_drain_rate_locked(const Tenant& tenant) const {
  // Cost-seconds per second DRR grants this tenant: its weight share of
  // the workers, over the weights of every tenant currently contending
  // (queued work, this tenant included). Dividing queued cost by *all*
  // workers -- the old retry-after arithmetic -- pretended the tenant owned
  // the whole dispatcher pool and underestimated the wait whenever anyone
  // else was queued.
  int active_weight = 0;
  for (const auto& [name, other] : tenants_) {
    if (other->queued > 0 || other.get() == &tenant) {
      active_weight += other->config.weight;
    }
  }
  if (active_weight <= 0) active_weight = tenant.config.weight;
  const double share = static_cast<double>(tenant.config.weight) /
                       static_cast<double>(active_weight);
  return static_cast<double>(config_.workers) * share;
}

SubmitOutcome CampaignService::submit(JobRequest request) {
  if (!request.body) {
    throw Error("core::service", "job has no body", request.tenant);
  }
  if (request.tenant.empty()) {
    throw Error("core::service", "tenant name must be non-empty");
  }
  const double cost = std::max(0.0, request.cost_estimate_seconds);

  SubmitOutcome outcome;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    Tenant& tenant = tenant_locked(request.tenant);
    ++totals_.submitted;
    ++tenant.stats.submitted;

    const auto reject = [&](const char* reason, double retry_after) {
      ++totals_.rejected;
      ++tenant.stats.rejected;
      ICSC_TRACE_COUNT("service.rejected", 1);
      outcome.admitted = false;
      outcome.reason = reason;
      outcome.retry_after_seconds = retry_after;
    };

    if (stopped_) {
      reject("shutdown", 0.0);
    } else if (request.deadline.finite() && request.deadline.expired()) {
      reject("expired", 0.0);
    } else if (tenant.config.max_queued > 0 &&
               tenant.queued >= tenant.config.max_queued) {
      // Hint: time for this tenant's queue to drain at its DRR fair-share
      // rate, not at the full worker pool it does not own.
      reject("tenant_quota",
             std::max(kMinDrrCost,
                      tenant.queued_cost / tenant_drain_rate_locked(tenant)));
    } else if (queued_ >= config_.max_queue_depth) {
      // Hint: expected time for one queue slot to free up, i.e. the mean
      // queued cost spread over the workers.
      reject("queue_full",
             std::max(kMinDrrCost, backlog_seconds_locked() /
                                       static_cast<double>(queued_)));
    } else {
      // Admit; assign the degradation tier from queue pressure.
      DegradeTier tier = DegradeTier::kFull;
      if (request.allow_degrade) {
        const double fill =
            static_cast<double>(queued_ + 1) /
            static_cast<double>(config_.max_queue_depth);
        if (fill >= kDegradeMinimalAt) {
          tier = DegradeTier::kMinimal;
        } else if (fill >= kDegradeReducedAt) {
          tier = DegradeTier::kReduced;
        }
      }
      auto job = std::make_shared<Job>();
      job->id = next_id_++;
      job->tenant = request.tenant;
      job->home = &tenant;
      job->tier = tier;
      job->priority = request.priority;
      job->coalesce_key = std::move(request.coalesce_key);
      job->cost = cost;
      job->drr_cost = std::max(kMinDrrCost, cost);
      job->deadline = request.deadline;
      job->token = CancelToken(request.deadline);
      job->body = std::move(request.body);
      job->submit_time = Clock::now();
      jobs_.emplace(job->id, job);
      tenant.queues[static_cast<std::size_t>(job->priority)].push_back(job);
      ++tenant.queued;
      tenant.queued_cost += cost;
      ++queued_;
      totals_.peak_queue_depth = std::max(totals_.peak_queue_depth, queued_);
      ++totals_.admitted;
      ++tenant.stats.admitted;
      if (tier != DegradeTier::kFull) {
        ++totals_.degraded;
        ++tenant.stats.degraded;
        ICSC_TRACE_COUNT("service.degraded", 1);
      }
      ICSC_TRACE_COUNT("service.admitted", 1);
      ICSC_TRACE_GAUGE("service.queue_depth", static_cast<double>(queued_));
      outcome.admitted = true;
      outcome.id = job->id;
      outcome.tier = tier;
      work_cv_.notify_one();
      // A batching-window leader may be parked waiting for exactly this
      // arrival; it waits on its own cv so the notify_one() above still
      // reaches an idle dispatcher.
      if (!job->coalesce_key.empty() && batch_waiters_ > 0) {
        batch_cv_.notify_all();
      }
    }
  }
  return outcome;
}

JobId CampaignService::submit_or_throw(JobRequest request) {
  const SubmitOutcome outcome = submit(std::move(request));
  if (!outcome.admitted) {
    throw Overloaded(outcome.reason, outcome.retry_after_seconds);
  }
  return outcome.id;
}

// ---------------------------------------------------------------------------
// Scheduling (strict priority across classes, deficit round robin within)

void CampaignService::promote_aged_locked() {
  if (config_.priority_aging_seconds <= 0.0) return;
  const auto now = Clock::now();
  for (auto& [name, tenant] : tenants_) {
    auto& interactive =
        tenant->queues[static_cast<std::size_t>(PriorityClass::kInteractive)];
    for (std::size_t cls = 1; cls < kNumPriorityClasses; ++cls) {
      // FIFO order means waits are monotone front-to-back: once the head
      // is young enough, the rest is too. Promoted jobs go to the *front*
      // of the interactive band (preserving their relative order), which
      // gives the aging bound teeth: the next dequeue serves them.
      std::vector<std::shared_ptr<Job>> promoted;
      for (;;) {
        auto& queue = tenant->live_queue(cls);
        if (queue.empty() || seconds_between(queue.front()->submit_time, now) <
                                 config_.priority_aging_seconds) {
          break;
        }
        promoted.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      for (auto it = promoted.rbegin(); it != promoted.rend(); ++it) {
        (*it)->aged = true;
        ++totals_.aged_promotions;
        ++tenant->stats.aged;
        ICSC_TRACE_COUNT("service.aged", 1);
        interactive.push_front(*it);
      }
    }
  }
}

std::shared_ptr<CampaignService::Job> CampaignService::pick_job_locked() {
  if (queued_ == 0) return nullptr;
  promote_aged_locked();
  const std::size_t n = tenant_order_.size();
  // Idle tenants (nothing queued in any class) forfeit banked credit.
  for (auto& [name, tenant] : tenants_) {
    if (tenant->queued == 0) tenant->deficit = 0.0;
  }
  // Strict priority: drain every interactive job before looking at batch,
  // and batch before background. DRR tenant fairness applies within the
  // class being served; the credit loop only credits tenants with queued
  // work in that class, so a background-only tenant cannot bank unbounded
  // deficit while interactive traffic is being served.
  for (std::size_t cls = 0; cls < kNumPriorityClasses; ++cls) {
    for (;;) {
      bool any = false;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (drr_cursor_ + k) % n;
        Tenant& tenant = *tenants_.at(tenant_order_[idx]);
        auto& queue = tenant.live_queue(cls);
        if (queue.empty()) continue;
        any = true;
        std::shared_ptr<Job>& head = queue.front();
        if (tenant.deficit + 1e-12 >= head->drr_cost) {
          tenant.deficit = std::max(0.0, tenant.deficit - head->drr_cost);
          std::shared_ptr<Job> job = std::move(head);  // no refcount round trip
          queue.pop_front();
          drr_cursor_ = idx;  // keep serving this tenant while credit lasts
          return job;
        }
      }
      if (!any) break;  // class empty: fall through to the next one
      // No tenant with work in this class had enough credit for its
      // head-of-line job: credit one quantum per weight unit and retry.
      // Deficits grow without bound while the class is non-empty, so this
      // loop terminates.
      for (std::size_t k = 0; k < n; ++k) {
        Tenant& tenant = *tenants_.at(tenant_order_[k]);
        if (!tenant.live_queue(cls).empty()) {
          tenant.deficit +=
              config_.drr_quantum_seconds * tenant.config.weight;
        }
      }
    }
  }
  return nullptr;
}

void CampaignService::dispatcher_main() {
  for (;;) {
    std::vector<std::shared_ptr<Job>> group;
    std::vector<ServiceEvent> events;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopped_ || queued_ > 0; });
      if (stopped_) return;  // shutdown() has already cancelled the queue
      std::shared_ptr<Job> job = pick_job_locked();
      if (!job) continue;
      if (!shed_if_due_locked(job, &events)) {
        claim_locked(job);
        group.push_back(std::move(job));
        if (!group.front()->coalesce_key.empty() &&
            config_.coalesce_max_batch > 1) {
          collect_batch_locked(lock, &group);
        }
      }
    }
    append_events(events);
    if (!group.empty()) run_group(std::move(group));
  }
}

// Removes a kQueued job from the global and per-tenant queue accounting,
// whether it is claimed to run or finalised straight from the queue.
void CampaignService::leave_queue_locked(const Job& job) {
  Tenant& tenant = *job.home;
  if (tenant.queued > 0) --tenant.queued;
  tenant.queued_cost = std::max(0.0, tenant.queued_cost - job.cost);
  if (queued_ > 0) --queued_;
  ICSC_TRACE_GAUGE("service.queue_depth", static_cast<double>(queued_));
}

// Takes a picked job out of the queue accounting without starting it:
// claimed members of a forming batch are kRunning for drain()/shutdown
// purposes (++running_ balances the eventual finalise) but stay out of
// running_jobs_ so the watchdog does not time them while they wait for the
// group to fill.
void CampaignService::claim_locked(const std::shared_ptr<Job>& job) {
  leave_queue_locked(*job);
  ++running_;
  job->state = JobState::kRunning;
}

// Claims every queued job carrying `key` (scanning tenants in DRR order,
// classes in priority order, each deque FIFO) into `group`, up to
// coalesce_max_batch. Claimed members debit their tenant's deficit so
// riding a batch is not a DRR bypass, but no credit is required: the batch
// saves a device pass either way.
void CampaignService::claim_same_key_locked(
    const std::string& key, std::vector<std::shared_ptr<Job>>* group) {
  const std::size_t n = tenant_order_.size();
  for (std::size_t k = 0; k < n && group->size() < config_.coalesce_max_batch;
       ++k) {
    Tenant& tenant = *tenants_.at(tenant_order_[(drr_cursor_ + k) % n]);
    for (std::size_t cls = 0;
         cls < kNumPriorityClasses && group->size() < config_.coalesce_max_batch;
         ++cls) {
      auto& queue = tenant.queues[cls];
      for (auto it = queue.begin();
           it != queue.end() && group->size() < config_.coalesce_max_batch;) {
        const std::shared_ptr<Job>& job = *it;
        if (job->state != JobState::kQueued || job->coalesce_key != key) {
          ++it;
          continue;
        }
        std::shared_ptr<Job> claimed = std::move(*it);
        it = queue.erase(it);
        claim_locked(claimed);
        tenant.deficit = std::max(0.0, tenant.deficit - claimed->drr_cost);
        group->push_back(std::move(claimed));
      }
    }
  }
}

// Holds the batching window open: claim whatever same-key work is already
// queued, then (window > 0) park on batch_cv_ for more arrivals. The
// window end is clipped by every member's deadline slack (remaining budget
// minus cost estimate) so no member can expire inside it -- a member with
// no slack makes the window collapse and the group runs at once.
void CampaignService::collect_batch_locked(
    std::unique_lock<std::mutex>& lock,
    std::vector<std::shared_ptr<Job>>* group) {
  const std::string key = group->front()->coalesce_key;
  claim_same_key_locked(key, group);
  if (config_.coalesce_max_wait_seconds <= 0.0) return;

  const auto clip = [&](Clock::time_point end) {
    for (const auto& job : *group) {
      if (!job->deadline.finite()) continue;
      // Budget the wait at half the member's slack (remaining deadline
      // minus its cost estimate): waiting the *whole* slack would deliver
      // the member to its deadline with nothing left to run on, so the
      // other half stays reserved for execution and dispatch jitter. A
      // member with no slack collapses the window -- it runs at once.
      const double slack = job->deadline.remaining_seconds() - job->cost;
      const auto job_end =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(std::max(0.0, 0.5 * slack)));
      end = std::min(end, job_end);
    }
    return end;
  };

  auto window_end = clip(
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             config_.coalesce_max_wait_seconds)));
  while (!stopped_ && group->size() < config_.coalesce_max_batch &&
         Clock::now() < window_end) {
    ++batch_waiters_;
    batch_cv_.wait_until(lock, window_end);
    --batch_waiters_;
    if (stopped_) break;
    const std::size_t before = group->size();
    claim_same_key_locked(key, group);
    if (group->size() > before) {
      window_end = clip(window_end);  // new members may have less slack
    }
  }
}

void CampaignService::run_group(std::vector<std::shared_ptr<Job>> group) {
  // Late shed/cancel filter: a member cancelled (or expired) while the
  // window was open detaches here -- finalised, never executed -- and the
  // survivors proceed as a smaller group.
  std::vector<std::shared_ptr<Job>> live;
  live.reserve(group.size());
  std::vector<ServiceEvent> events;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto now = Clock::now();
    for (auto& job : group) {
      if (job->cancel_requested) {
        // cancel() already journaled the event (the member was kRunning
        // from the moment it was claimed); just finalise without running.
        finalize_locked(job, JobState::kCancelled);
        continue;
      }
      if (!shed_if_due_locked(job, &events)) live.push_back(std::move(job));
    }
    for (const auto& job : live) {
      job->started = true;
      job->start_time = now;
      job->batch_size = live.size();
      job->watchdog_seen = job->heartbeats.load(std::memory_order_relaxed);
      job->watchdog_progress = now;
      job->running_slot = running_jobs_.size();
      running_jobs_.push_back(job.get());
    }
    if (live.size() > 1) {
      ++totals_.coalesced_batches;
      totals_.coalesced_jobs += live.size();
      totals_.max_batch_size = std::max(totals_.max_batch_size, live.size());
      for (const auto& job : live) {
        ++job->home->stats.batched;
      }
      ICSC_TRACE_COUNT("service.batches", 1);
      ICSC_TRACE_COUNT("service.batched", live.size());
      ICSC_TRACE_COUNT("service.batch_size", live.size());
    }
  }
  append_events(events);
  if (live.empty()) return;

  // One shared state slot for the whole group (solo jobs included): every
  // member's JobContext::batch_state() aliases it, which is what lets the
  // last member run a single device pass over inputs the earlier members
  // gathered. Members run sequentially on this thread, so no lock.
  std::shared_ptr<void> batch_state;
  std::vector<char> failed(live.size(), 0);
  std::vector<std::string> errors(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ICSC_TRACE_SPAN("service/job");
    const std::shared_ptr<Job>& job = live[i];
    JobContext ctx;
    ctx.service_ = this;
    ctx.id_ = job->id;
    ctx.tier_ = job->tier;
    ctx.tenant_ = &job->tenant;
    ctx.cancel_ = &job->token;
    ctx.batch_index_ = i;
    ctx.batch_size_ = live.size();
    ctx.batch_state_ = &batch_state;
    ctx.heartbeats_ = &job->heartbeats;
    try {
      job->body(ctx);
    } catch (const std::exception& e) {
      failed[i] = 1;
      errors[i] = e.what();
    } catch (...) {
      failed[i] = 1;
      errors[i] = "unknown exception";
    }
  }
  // Finalise every member only after *all* bodies ran: the canonical
  // gather/scatter adapter writes member results during the last body, so
  // finalising earlier members as kDone before that pass would let a
  // poller read an unfilled result slot. The spent bodies (and whatever
  // they captured) are released first, outside the service mutex.
  for (const auto& job : live) job->body = nullptr;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // One timestamp for the group: every member's result lands with the
    // final (scatter) body, so they genuinely end together.
    const auto end = Clock::now();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::shared_ptr<Job>& job = live[i];
      job->hit_deadline = job->deadline.finite() && job->deadline.expired();
      job->error = std::move(errors[i]);
      JobState state = JobState::kDone;
      if (failed[i] != 0) {
        state = JobState::kFailed;
      } else if (job->watchdog_flagged) {
        state = JobState::kWatchdogKilled;
      } else if (job->cancel_requested) {
        state = JobState::kCancelled;
      }
      finalize_locked(job, state, end);
    }
  }
}

void CampaignService::finalize_locked(const std::shared_ptr<Job>& job,
                                      JobState state,
                                      Clock::time_point end_time) {
  Tenant& tenant = *job->home;
  if (job->state == JobState::kQueued) {
    leave_queue_locked(*job);
  } else if (job->state == JobState::kRunning) {
    if (running_ > 0) --running_;
    // O(1) swap-pop: the job records its slot while on the running list.
    // Claimed-but-unstarted batch members are never on the list, so their
    // slot is only trusted when the list entry really is this job.
    const std::size_t slot = job->running_slot;
    if (slot < running_jobs_.size() && running_jobs_[slot] == job.get()) {
      if (slot + 1 != running_jobs_.size()) {
        running_jobs_[slot] = std::move(running_jobs_.back());
        running_jobs_[slot]->running_slot = slot;
      }
      running_jobs_.pop_back();
    }
  }
  job->state = state;
  job->end_time = end_time;
  // No body runs once a job is here (run_group released its own already):
  // drop the closure so jobs_ retains only the status record.
  job->body = nullptr;
  switch (state) {
    case JobState::kDone:
      ++totals_.completed;
      ++tenant.stats.completed;
      ICSC_TRACE_COUNT("service.completed", 1);
      break;
    case JobState::kFailed:
      ++totals_.failed;
      ++tenant.stats.failed;
      ICSC_TRACE_COUNT("service.failed", 1);
      break;
    case JobState::kCancelled:
      ++totals_.cancelled;
      ++tenant.stats.cancelled;
      ICSC_TRACE_COUNT("service.cancelled", 1);
      break;
    case JobState::kExpired:
      ++totals_.shed_expired;
      ++tenant.stats.shed_expired;
      ICSC_TRACE_COUNT("service.shed", 1);
      break;
    case JobState::kWatchdogKilled:
      ++totals_.watchdog_kills;
      ++tenant.stats.watchdog_kills;
      ICSC_TRACE_COUNT("service.watchdog_kills", 1);
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // not terminal; never passed here
  }
  if (queued_ == 0 && running_ == 0) drain_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Watchdog

void CampaignService::watchdog_main() {
  const auto poll = std::chrono::duration<double>(
      config_.watchdog_timeout_seconds / kWatchdogPollsPerTimeout);
  for (;;) {
    std::vector<ServiceEvent> events;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      watchdog_cv_.wait_for(
          lock, std::chrono::duration_cast<Clock::duration>(poll),
          [this] { return stopped_; });
      if (stopped_) return;
      shed_expired_queued_locked(&events);
      const auto now = Clock::now();
      for (const auto& job : running_jobs_) {
        const std::uint64_t beats =
            job->heartbeats.load(std::memory_order_relaxed);
        if (beats != job->watchdog_seen) {
          job->watchdog_seen = beats;
          job->watchdog_progress = now;
          continue;
        }
        if (!job->watchdog_flagged &&
            seconds_between(job->watchdog_progress, now) >
                config_.watchdog_timeout_seconds) {
          // Stuck: no progress heartbeat within the timeout. Cancel the
          // body cooperatively and journal the kill *now* (with the last
          // reported checkpoint), so the tenant holds a resumable record
          // even if the body takes a while to drain -- or never does.
          job->watchdog_flagged = true;
          job->token.request_stop();
          events.push_back(make_event(ServiceEventKind::kWatchdogKill, *job));
        }
      }
    }
    append_events(events);
  }
}

// Shed-before-execution, the one test applied to a job before its body
// runs (at dequeue, again when its batch group starts, and on every
// watchdog scan of the queues): its deadline expired, or its remaining
// budget cannot cover its estimated cost (doomed to miss the SLO). A due
// job is journaled and finalised as kExpired.
bool CampaignService::shed_if_due_locked(const std::shared_ptr<Job>& job,
                                         std::vector<ServiceEvent>* events) {
  if (!job->deadline.expired() &&
      !(job->deadline.remaining_seconds() < job->cost)) {
    return false;
  }
  events->push_back(make_event(ServiceEventKind::kShedExpired, *job));
  finalize_locked(job, JobState::kExpired);
  return true;
}

void CampaignService::shed_expired_queued_locked(
    std::vector<ServiceEvent>* events) {
  for (auto& [name, tenant] : tenants_) {
    for (auto& queue : tenant->queues) {
      for (auto& job : queue) {
        if (job->state == JobState::kQueued) shed_if_due_locked(job, events);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Client-facing control

JobStatus CampaignService::poll(JobId id) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw Error("core::service", "unknown job id", std::to_string(id));
  }
  const Job& job = *it->second;
  JobStatus status;
  status.id = job.id;
  status.tenant = job.tenant;
  status.state = job.state;
  status.tier = job.tier;
  status.priority = job.priority;
  status.batch_size = job.batch_size;
  status.terminal = job.state != JobState::kQueued &&
                    job.state != JobState::kRunning;
  const auto end = status.terminal ? job.end_time : Clock::now();
  status.queue_seconds =
      seconds_between(job.submit_time, job.started ? job.start_time : end);
  if (job.started) status.run_seconds = seconds_between(job.start_time, end);
  status.hit_deadline = job.hit_deadline;
  status.checkpoint_path = job.checkpoint_path;
  status.error = job.error;
  return status;
}

bool CampaignService::cancel(JobId id) {
  std::vector<ServiceEvent> events;
  bool cancelled = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    cancelled = cancel_locked(it->second, &events);
  }
  append_events(events);
  return cancelled;
}

// Requests a cooperative stop of a queued or running job and journals the
// cancel. A queued job is finalised at once; a running body drains and
// run_group finalises it as kCancelled. Returns false for a terminal job.
bool CampaignService::cancel_locked(const std::shared_ptr<Job>& job,
                                    std::vector<ServiceEvent>* events) {
  const bool queued = job->state == JobState::kQueued;
  if (!queued && job->state != JobState::kRunning) return false;
  job->cancel_requested = true;
  job->token.request_stop();
  events->push_back(make_event(ServiceEventKind::kCancelled, *job));
  if (queued) finalize_locked(job, JobState::kCancelled);
  return true;
}

void CampaignService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

ServiceStats CampaignService::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  ServiceStats out = totals_;
  out.queued = queued_;
  out.running = running_;
  for (const auto& [name, tenant] : tenants_) {
    out.tenants.emplace(name, tenant->stats);
  }
  // Sojourns come from the job table, which keeps every job's timestamps.
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kDone) continue;
    out.tenants.at(job->tenant).sojourn_seconds.push_back(
        seconds_between(job->submit_time, job->end_time));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Journal

double CampaignService::uptime_seconds() const {
  return seconds_between(epoch_, Clock::now());
}

ServiceEvent CampaignService::make_event(ServiceEventKind kind,
                                         const Job& job) const {
  ServiceEvent event;
  event.kind = kind;
  event.id = job.id;
  event.tenant = job.tenant;
  event.checkpoint_path = job.checkpoint_path;
  event.uptime_seconds = uptime_seconds();
  return event;
}

void CampaignService::append_events(const std::vector<ServiceEvent>& events) {
  if (!journal_ || events.empty()) return;
  std::unique_lock<std::mutex> lock(journal_mutex_);
  for (const ServiceEvent& event : events) {
    SnapshotWriter writer;
    writer.put_u8(static_cast<std::uint8_t>(event.kind));
    writer.put_u64(event.id);
    writer.put_string(event.tenant);
    writer.put_string(event.checkpoint_path);
    writer.put_f64(event.uptime_seconds);
    journal_->append(writer);
  }
}

std::vector<ServiceEvent> CampaignService::replay_events(
    const std::string& path) {
  std::vector<ServiceEvent> events;
  for (const JournalRecord& record : RunJournal::replay(path, kJournalKind)) {
    SnapshotReader reader(record.payload);
    ServiceEvent event;
    event.kind = static_cast<ServiceEventKind>(reader.get_u8());
    event.id = reader.get_u64();
    event.tenant = reader.get_string();
    event.checkpoint_path = reader.get_string();
    event.uptime_seconds = reader.get_f64();
    events.push_back(std::move(event));
  }
  return events;
}

// ---------------------------------------------------------------------------
// JobContext plumbing that needs the Job definition

void CampaignService::note_checkpoint(JobId id, const std::string& path) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) it->second->checkpoint_path = path;
}

}  // namespace icsc::core
