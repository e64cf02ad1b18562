// Overload-robust multi-tenant campaign service.
//
// Composes the resilience substrate built up across the framework --
// cooperative cancellation/deadlines (core/cancel.hpp), crash-safe
// checkpoints and journals (core/checkpoint.hpp), bounded retry
// (core/retry.hpp), tracing (core/trace.hpp) -- into the long-running
// service layer the "heavy traffic" north star needs: a job scheduler in
// front of the shared thread pool (core/parallel.hpp) that accepts DSE
// campaigns, fault campaigns, and small MVM/conv jobs from multiple
// tenants and *survives sustained overload*. The design rule is that the
// service refuses, sheds, and degrades deliberately instead of queueing
// unboundedly or starving tenants:
//
//   Admission control -- a bounded queue depth (global and, optionally,
//     per tenant). Submitting past the bound is rejected explicitly with a
//     retry-after hint; nothing buffers without limit.
//   Fair share -- deficit-round-robin over per-tenant FIFO queues with
//     integer weights, so one tenant's burst cannot starve the others. A
//     tenant whose queue drains forfeits its banked deficit (standard DRR).
//   Priority classes -- every request carries a PriorityClass
//     (interactive / batch / background). Dequeue is strict-priority
//     across classes with DRR tenant fairness *within* each class, plus an
//     anti-starvation aging bound: a queued job whose wait exceeds
//     ServiceConfig::priority_aging_seconds is promoted to the interactive
//     band, so background work is delayed, never starved.
//   Coalescing -- jobs submitted with the same non-empty coalesce_key
//     (a shape/config fingerprint) are grouped into one batch: the
//     dispatcher that dequeues such a job claims up to coalesce_max_batch
//     same-key queued jobs (holding a bounded window open for
//     coalesce_max_wait_seconds for more arrivals) and runs the members
//     back-to-back on its own thread with shared per-group state, so an
//     adapter can gather inputs and issue a single device pass (e.g. one
//     Crossbar::matvec_raw_batch) instead of N. The window never outlives
//     any member's deadline budget, and a member cancelled before the
//     group runs detaches cleanly (it is finalised, not executed, and the
//     rest of the batch proceeds).
//   Deadline propagation -- a job's deadline flows into the CancelToken its
//     body polls, so work already doomed to miss its SLO is cancelled
//     early, and jobs whose deadline expired (or whose remaining budget is
//     smaller than their estimated cost) are shed from the queue before
//     execution ever starts.
//   Graceful degradation -- newly admitted jobs are tagged with a
//     DegradeTier from the queue fill (kReduced from half the depth,
//     kMinimal from 80 %); tier-aware bodies (src/service) switch to
//     cheaper modes (sampled campaigns, strided DSE, fewer re-read passes)
//     and the tier is recorded in the job status.
//   Watchdog -- running jobs report progress via JobContext::heartbeat();
//     a job with no heartbeat within the configured timeout is cancelled
//     and journaled (job id, tenant, last checkpoint path), so the tenant
//     gets a *resumable* partial instead of a hang.
//
// Threading model: the service owns a small set of dispatcher threads
// (ServiceConfig::workers). Each dequeues one job at a time via DRR and
// runs its body inline; bodies are free to fan out internally on the
// shared pool (concurrent loops from several dispatchers interleave safely
// on the pool's single task queue). All service state is guarded by one
// mutex; job bodies run without holding it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/error.hpp"

namespace icsc::core {

/// Lifecycle of one submitted job. Terminal states are kDone, kFailed,
/// kCancelled, kExpired, and kWatchdogKilled.
enum class JobState : std::uint8_t {
  kQueued = 0,       // admitted, waiting for a dispatcher
  kRunning,          // body executing
  kDone,             // body returned (result may still be a flagged partial)
  kFailed,           // body threw; JobStatus::error carries the message
  kCancelled,        // cancel() before or during execution
  kExpired,          // shed: deadline expired (or doomed) before execution
  kWatchdogKilled,   // watchdog cancelled a stuck body
};

const char* job_state_name(JobState state);

/// Degradation tier assigned at admission from queue pressure. Tier-aware
/// job bodies map tiers to cheaper execution modes; the service only
/// assigns and records them.
enum class DegradeTier : std::uint8_t {
  kFull = 0,     // no pressure: exhaustive mode
  kReduced = 1,  // moderate pressure: sampled / reduced trial counts
  kMinimal = 2,  // heavy pressure: cheapest acceptable answer
};

const char* degrade_tier_name(DegradeTier tier);

/// Scheduling class carried by every request. Dequeue is strict-priority
/// across classes (interactive first) with DRR tenant fairness within each
/// class; ServiceConfig::priority_aging_seconds bounds how long a lower
/// class can be bypassed before promotion.
enum class PriorityClass : std::uint8_t {
  kInteractive = 0,  // latency-sensitive: always served first
  kBatch = 1,        // the default: normal campaign work
  kBackground = 2,   // best-effort: runs when nothing else is queued
};

inline constexpr std::size_t kNumPriorityClasses = 3;

const char* priority_class_name(PriorityClass priority);

using JobId = std::uint64_t;

/// Thrown by submit_or_throw() when admission fails; carries the same
/// retry-after hint as the non-throwing SubmitOutcome.
class Overloaded : public Error {
 public:
  Overloaded(const std::string& reason, double retry_after_seconds)
      : Error("core::service", "overloaded: " + reason,
              "retry after " + std::to_string(retry_after_seconds) + " s"),
        retry_after_seconds_(retry_after_seconds) {}

  double retry_after_seconds() const { return retry_after_seconds_; }

 private:
  double retry_after_seconds_ = 0.0;
};

class CampaignService;

/// Handed to a running job body. The body must poll cancel() between units
/// of work (the deadline is folded in) and should heartbeat() at least once
/// per watchdog interval; bodies that persist progress report their latest
/// durable snapshot via note_checkpoint() so a watchdog kill leaves a
/// resumable journal entry.
class JobContext {
 public:
  JobId id() const { return id_; }
  DegradeTier tier() const { return tier_; }

  /// Tenant that submitted this job; bodies use it to namespace per-tenant
  /// durable state (e.g. the cross-run result store directory).
  const std::string& tenant() const { return *tenant_; }

  /// Deadline-bound stop handle: fires on explicit cancel(), service
  /// shutdown, watchdog kill, or SLO expiry.
  const CancelToken& cancel() const { return *cancel_; }
  bool cancelled() const { return cancel_->cancelled(); }

  /// Seconds until this job's deadline (+inf when none).
  double remaining_seconds() const {
    return cancel_->deadline().remaining_seconds();
  }

  /// Progress signal for the watchdog; cheap (one relaxed atomic add).
  void heartbeat();

  /// Coalesced-group introspection. Members of one batch group run
  /// back-to-back on a single dispatcher thread; batch_index() is this
  /// job's position in that order and batch_size() the number of live
  /// members (1 for a solo run). The canonical coalescing shape is:
  /// every member gathers its input into batch_state(), and the last
  /// member (batch_index()+1 == batch_size()) runs one device pass and
  /// scatters per-member results.
  std::size_t batch_index() const { return batch_index_; }
  std::size_t batch_size() const { return batch_size_; }

  /// Shared per-group state slot: every member of one coalesced group sees
  /// the same slot (a solo job gets a private one). The first member that
  /// needs it assigns it; group members run sequentially on one thread, so
  /// access needs no lock. The slot dies with the group.
  std::shared_ptr<void>& batch_state() { return *batch_state_; }

  /// Namespaced path for per-job durable state, derived from the service
  /// scratch directory ("" when the service has none configured).
  std::string checkpoint_path(const std::string& leaf) const;

  /// Records the job's latest durable snapshot/journal; surfaces in
  /// JobStatus::checkpoint_path and in the watchdog/shed journal record,
  /// marking the job resumable.
  void note_checkpoint(const std::string& path);

 private:
  friend class CampaignService;
  JobContext() = default;

  CampaignService* service_ = nullptr;
  JobId id_ = 0;
  DegradeTier tier_ = DegradeTier::kFull;
  /// Borrowed from the Job record, which outlives the body call: keeps
  /// per-member context setup on the dispatch hot path free of string and
  /// token-refcount copies.
  const std::string* tenant_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  std::size_t batch_index_ = 0;
  std::size_t batch_size_ = 1;
  std::shared_ptr<void>* batch_state_ = nullptr;
  /// The job's heartbeat counter, cached so heartbeat() is a single
  /// relaxed atomic add -- no service mutex, no job-table lookup. The Job
  /// outlives its body call, so the pointer is safe for the body's
  /// lifetime.
  std::atomic<std::uint64_t>* heartbeats_ = nullptr;
};

/// One unit of tenant work. The body is type-erased: producers capture
/// their own result slot (see src/service adapters) and read it back after
/// poll() reports kDone.
struct JobRequest {
  std::string tenant = "default";
  /// Strict-priority scheduling class (see PriorityClass). Within a class
  /// the DRR tenant weights decide; across classes interactive always
  /// dequeues first, subject to the aging bound.
  PriorityClass priority = PriorityClass::kBatch;
  /// Same-shape coalescing fingerprint. Jobs queued with the same
  /// non-empty key may be claimed into one batch group and run
  /// back-to-back with shared JobContext::batch_state(), letting the body
  /// fold the group into a single device pass. Empty = never coalesced.
  std::string coalesce_key;
  /// SLO for this job; propagated into the body's CancelToken. A job whose
  /// deadline expires while queued is shed before execution.
  Deadline deadline;
  /// Estimated execution cost in seconds. Drives the retry-after hints,
  /// the doomed-to-miss-SLO shed check, and the DRR debit (clamped to a
  /// small minimum so zero-cost jobs still consume schedule share).
  double cost_estimate_seconds = 0.0;
  /// Opt out of degradation: the job always runs at kFull tier.
  bool allow_degrade = true;
  /// Released (with its captures) as soon as the job is terminal, on every
  /// path: done, failed, cancelled, shed or watchdog-killed. Only the
  /// status record outlives it. A body that never ran is released under
  /// the service mutex, so its captures' destructors must not call back
  /// into the service.
  std::function<void(JobContext&)> body;
};

/// Result of submit(): either an admitted job id (+ assigned tier) or an
/// explicit rejection with a retry-after hint.
struct SubmitOutcome {
  bool admitted = false;
  JobId id = 0;
  DegradeTier tier = DegradeTier::kFull;
  double retry_after_seconds = 0.0;
  /// Rejection cause: "queue_full", "tenant_quota", "expired", or
  /// "shutdown". Empty when admitted.
  std::string reason;
};

/// Snapshot of one job's lifecycle, returned by poll().
struct JobStatus {
  JobId id = 0;
  std::string tenant;
  JobState state = JobState::kQueued;
  DegradeTier tier = DegradeTier::kFull;
  PriorityClass priority = PriorityClass::kBatch;
  /// Live members of the coalesced group this job ran in: 1 for a solo
  /// run, > 1 when it was batched, 0 while it has not started.
  std::size_t batch_size = 0;
  bool terminal = false;
  /// Seconds spent queued (and, once started, running). Monotonic clock.
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  /// True when the deadline fired while the body was running (the body
  /// still returns a flagged partial; the state stays kDone).
  bool hit_deadline = false;
  /// Latest durable state reported via JobContext::note_checkpoint();
  /// non-empty means the job is resumable from this path.
  std::string checkpoint_path;
  /// kFailed only: the body's exception message.
  std::string error;
};

/// Per-tenant fair-share configuration.
struct TenantConfig {
  /// DRR weight (>= 1): relative share of dispatcher time under
  /// contention.
  int weight = 1;
  /// Per-tenant bound on *queued* jobs (0 = no per-tenant bound beyond the
  /// global queue depth).
  std::size_t max_queued = 0;
};

struct ServiceConfig {
  /// Dispatcher threads (>= 1). Bodies may additionally fan out on the
  /// shared core/parallel pool.
  std::size_t workers = 2;
  /// Global bound on queued jobs; admission past it is rejected. Newly
  /// admitted jobs degrade to kReduced at half this depth and to kMinimal
  /// at 80 % of it.
  std::size_t max_queue_depth = 64;
  /// Watchdog: a running job with no heartbeat for this long is cancelled
  /// and journaled (0 disables the watchdog).
  double watchdog_timeout_seconds = 0.0;
  /// Watchdog scan interval.
  double watchdog_poll_seconds = 0.01;
  /// DRR quantum in cost-seconds credited per scheduling round per weight
  /// unit.
  double drr_quantum_seconds = 0.05;
  /// Coalescing bound: a dispatcher that dequeues a job with a non-empty
  /// coalesce_key claims up to this many same-key queued jobs (across all
  /// tenants and priority classes) into one batch group. 1 disables
  /// coalescing entirely.
  std::size_t coalesce_max_batch = 1;
  /// How long the group leader may hold the batching window open waiting
  /// for more same-key arrivals (0 = claim only what is already queued).
  /// The window is clipped so that no member's deadline budget (remaining
  /// minus its cost estimate) can expire inside it -- a job that would
  /// expire inside the window runs without waiting.
  double coalesce_max_wait_seconds = 0.0;
  /// Anti-starvation bound for priority classes: a queued batch/background
  /// job whose wait exceeds this is promoted (front-of-line) to the
  /// interactive band. 0 disables aging; strict priority can then starve
  /// lower classes under sustained interactive load.
  double priority_aging_seconds = 0.0;
  /// Capacity of the per-tenant sojourn-sample ring (>= 1): the most
  /// recent N completed-job sojourns are kept, oldest overwritten first.
  std::size_t sojourn_capacity = 1 << 16;
  /// Event journal (shed / watchdog / cancel records, core/checkpoint
  /// RunJournal); empty disables journaling.
  std::string journal_path;
  /// Directory for per-job durable state (JobContext::checkpoint_path);
  /// empty means jobs get no service-provided scratch paths.
  std::string scratch_dir;
};

/// Journal record kinds (ServiceEvent::kind).
enum class ServiceEventKind : std::uint8_t {
  kShedExpired = 0,   // dropped from the queue: deadline expired / doomed
  kWatchdogKill = 1,  // stuck body cancelled by the watchdog
  kCancelled = 2,     // explicit cancel() on a queued or running job
};

const char* service_event_kind_name(ServiceEventKind kind);

/// One replayed service-journal record.
struct ServiceEvent {
  ServiceEventKind kind = ServiceEventKind::kShedExpired;
  JobId id = 0;
  std::string tenant;
  /// Last checkpoint the job reported before the event; non-empty means
  /// the work is resumable from this path.
  std::string checkpoint_path;
  double uptime_seconds = 0.0;  // service uptime when the event fired
};

/// Per-tenant accounting. Counters are cumulative since construction.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;        // kDone
  std::uint64_t failed = 0;           // kFailed
  std::uint64_t cancelled = 0;        // kCancelled
  std::uint64_t shed_expired = 0;     // kExpired
  std::uint64_t watchdog_kills = 0;   // kWatchdogKilled
  std::uint64_t degraded = 0;         // admitted at a tier below kFull
  std::uint64_t batched = 0;          // ran inside a coalesced group (> 1)
  std::uint64_t aged = 0;             // promoted to interactive by aging
  /// Sojourn (submit -> done) seconds of completed jobs, oldest to newest.
  /// Feed core::percentile for p50/p99/p999. Bounded by
  /// ServiceConfig::sojourn_capacity: a fixed-capacity ring overwrites the
  /// oldest sample one at a time, so the window always holds the most
  /// recent completions (no wholesale history drops biasing the tail).
  std::vector<double> sojourn_seconds;
};

struct ServiceStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t peak_queue_depth = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t watchdog_kills = 0;
  std::uint64_t degraded = 0;
  /// Coalescing accounting: groups of >= 2 that ran one shared pass, the
  /// jobs they carried, and the largest group seen.
  std::uint64_t coalesced_batches = 0;
  std::uint64_t coalesced_jobs = 0;
  std::size_t max_batch_size = 0;
  /// Queued jobs promoted to the interactive band by the aging bound.
  std::uint64_t aged_promotions = 0;
  std::map<std::string, TenantStats> tenants;
};

/// The in-process campaign service. Construction spawns the dispatcher
/// (and, if configured, watchdog) threads; destruction shuts down
/// gracefully: queued jobs are cancelled, running bodies get a stop
/// request and are joined.
class CampaignService {
 public:
  /// Tenants absent from `tenants` are created on first submit with a
  /// default TenantConfig. Throws core::Error on invalid configuration.
  explicit CampaignService(ServiceConfig config,
                           std::map<std::string, TenantConfig> tenants = {});
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Admission-controlled submit; never throws on overload. Throws
  /// core::Error on malformed requests (no body, empty tenant name).
  SubmitOutcome submit(JobRequest request);

  /// submit() that converts rejection into an Overloaded exception.
  JobId submit_or_throw(JobRequest request);

  /// Status snapshot; throws core::Error for an unknown id.
  JobStatus poll(JobId id) const;

  /// Requests cooperative cancellation. A queued job is finalised
  /// immediately; a running one gets a stop request and finalises as
  /// kCancelled when its body drains. Returns false if the job was already
  /// terminal (or unknown).
  bool cancel(JobId id);

  /// Blocks until no job is queued or running.
  void drain();

  /// Stops admission, cancels queued jobs, stops running bodies
  /// cooperatively, joins all threads. Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;

  const ServiceConfig& config() const { return config_; }

  /// Replays the event journal written by a (possibly dead) service
  /// instance: the durable shed/watchdog/cancel record prefix.
  static std::vector<ServiceEvent> replay_events(const std::string& path);

  /// Journal stream tag ("SRVC").
  static constexpr std::uint32_t kJournalKind = 0x53525643;

 private:
  struct Job;
  struct Tenant;

  void dispatcher_main();
  void watchdog_main();
  std::shared_ptr<Job> pick_job_locked();
  void promote_aged_locked();
  void claim_locked(const std::shared_ptr<Job>& job);
  void claim_same_key_locked(const std::string& key,
                             std::vector<std::shared_ptr<Job>>* group);
  void collect_batch_locked(std::unique_lock<std::mutex>& lock,
                            std::vector<std::shared_ptr<Job>>* group);
  void finalize_locked(
      const std::shared_ptr<Job>& job, JobState state,
      std::chrono::steady_clock::time_point end_time =
          std::chrono::steady_clock::now());
  void run_group(std::vector<std::shared_ptr<Job>> group);
  void shed_expired_queued_locked(std::vector<ServiceEvent>* events);
  ServiceEvent make_event(ServiceEventKind kind, const Job& job) const;
  void append_events(const std::vector<ServiceEvent>& events);
  double backlog_seconds_locked() const;
  double tenant_drain_rate_locked(const Tenant& tenant) const;
  double uptime_seconds() const;
  Tenant& tenant_locked(const std::string& name);
  void note_checkpoint(JobId id, const std::string& path);

  friend class JobContext;

  ServiceConfig config_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  // The dispatchers get their own condition variable: submit() signals with
  // notify_one(), and if the watchdog shared the queue it could swallow
  // that single wakeup during its timed poll wait, leaving the job queued
  // with every dispatcher asleep.
  std::condition_variable work_cv_;      // dispatchers wait here
  std::condition_variable drain_cv_;     // drain()/shutdown() wait here
  std::condition_variable watchdog_cv_;  // watchdog's poll-interval wait
  // Batching-window waits get their own cv for the same reason as the
  // watchdog: a leader parked inside its window must not swallow the
  // notify_one() submit() aims at an idle dispatcher.
  std::condition_variable batch_cv_;
  std::size_t batch_waiters_ = 0;
  bool stopped_ = false;

  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::vector<std::string> tenant_order_;  // DRR round-robin order
  std::size_t drr_cursor_ = 0;

  std::map<JobId, std::shared_ptr<Job>> jobs_;
  /// Raw pointers: jobs_ keeps every Job alive for the service lifetime,
  /// and the list is only touched under the service mutex, so the running
  /// list does not need to pay refcount traffic per dispatch.
  std::vector<Job*> running_jobs_;  // size <= workers
  JobId next_id_ = 1;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  std::size_t peak_queue_depth_ = 0;
  ServiceStats totals_;  // scalar counters only; queues/tenants live above

  std::mutex journal_mutex_;
  std::unique_ptr<RunJournal> journal_;

  std::vector<std::thread> dispatchers_;
  std::thread watchdog_;
};

}  // namespace icsc::core
