// Deterministic fault-injection framework.
//
// The paper's thrusts are dominated by non-ideal hardware behaviour:
// RRAM/PCM cells stick, drift, and mis-program (Sec. IV), DNA strands drop
// out and pick up error bursts (Sec. VI), and the compute fabric's scaling
// claims silently assume every CU is healthy (Sec. VII). This module is the
// one shared substrate those subsystems inject faults through, built around
// two determinism rules that make campaigns reproducible under the shared
// thread pool (core/parallel.hpp):
//
//   1. Fault-site decisions are *stateless*: whether site `s` is faulty is
//      a pure hash of (seed, site), never a draw from a sequential RNG, so
//      the answer is independent of query order and thread interleaving.
//      Rates are threshold tests on one uniform per site, so the faulty
//      set at rate r1 is a subset of the faulty set at rate r2 >= r1 for
//      the same seed -- degradation sweeps are monotone by construction.
//   2. Monte-Carlo campaigns (FaultCampaign) derive every trial's seed
//      from the campaign seed up front and combine results in trial order
//      via parallel_map, so serial and multi-threaded runs are
//      bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/sampling.hpp"

namespace icsc::core {

/// The fault taxonomy shared by every subsystem. What each kind means is
/// subsystem-specific (a stuck IMC cell pins its conductance; a dropped-out
/// CU disappears from the fabric; a delayed strand read costs an extra
/// sequencing pass), but rates and reporting use one vocabulary.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kStuckAtLow,    // permanently pinned at the low extreme (e.g. Gmin)
  kStuckAtHigh,   // permanently pinned at the high extreme (e.g. Gmax)
  kTransientFlip, // per-operation value corruption (SEU-style)
  kDrift,         // accelerated parametric degradation over time
  kDropout,       // unit lost entirely (dead CU, unsynthesised strand)
  kDelay,         // unit alive but late (retry pass, slow column)
};

const char* fault_kind_name(FaultKind kind);

/// Stateless splitmix64-style mix of (seed, site): the primitive every
/// fault decision reduces to. Identical on all platforms.
std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t site);

/// Uniform double in [0, 1) derived from fault_hash.
double fault_uniform(std::uint64_t seed, std::uint64_t site);

/// True iff `site` is faulty at probability `rate` under `seed`. Threshold
/// test on fault_uniform, so the true set is nested across rates.
bool fault_fires(std::uint64_t seed, std::uint64_t site, double rate);

/// Per-subsystem fault rates. All zero (the default) disables injection
/// entirely; `seed` decorrelates fault maps between experiments.
struct FaultConfig {
  std::uint64_t seed = 0x1C5C'F2'FA'17ULL;
  double stuck_at_rate = 0.0;   // split 50/50 low/high by an independent bit
  double transient_rate = 0.0;  // per-operation, queried via transient()
  double drift_rate = 0.0;
  double dropout_rate = 0.0;
  double delay_rate = 0.0;

  bool any() const {
    return stuck_at_rate > 0.0 || transient_rate > 0.0 || drift_rate > 0.0 ||
           dropout_rate > 0.0 || delay_rate > 0.0;
  }
};

/// Order-independent fault oracle for one array/fabric/channel instance.
/// `stream` decorrelates instances sharing one FaultConfig (e.g. the tiles
/// of a TiledMatvec).
class FaultInjector {
public:
  /// Disabled injector: at() always returns kNone.
  FaultInjector() = default;

  FaultInjector(const FaultConfig& config, std::uint64_t stream = 0);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return config_; }

  /// Permanent fault classification of `site`. Pure function of
  /// (config.seed, stream, site); the kStuckAt*/kDrift/kDropout/kDelay sets
  /// are nested as their respective rates grow.
  FaultKind at(std::uint64_t site) const;

  /// Transient (per-operation) corruption of `site` during operation `op`.
  bool transient(std::uint64_t site, std::uint64_t op) const;

  /// Stable per-site severity in [0, 1): how hard a faulty site fails
  /// (drawn independently of the fault decision itself).
  double severity(std::uint64_t site) const;

private:
  FaultConfig config_;
  std::uint64_t key_ = 0;
  bool enabled_ = false;
};

/// Outcome of one Monte-Carlo trial. `metric` is the campaign's fidelity
/// figure (accuracy, RMSE, byte-error-rate -- caller-defined), `latency`
/// its cost figure (us, cycles, passes).
struct TrialResult {
  double metric = 0.0;
  double latency = 0.0;
  bool completed = true;
  std::uint64_t faults_injected = 0;
  std::uint64_t repairs = 0;
};

/// Aggregate over a campaign's trials.
struct CampaignSummary {
  std::size_t trials = 0;
  double mean_metric = 0.0;
  double min_metric = 0.0;
  double max_metric = 0.0;
  double mean_latency = 0.0;
  double completion_rate = 1.0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_repairs = 0;
};

/// Resilience controls for FaultCampaign::run. Default-constructed options
/// reproduce the plain open-loop run: no deadline, no cancellation, no
/// checkpointing.
struct CampaignRunOptions {
  /// Wall-clock budget; combined with `cancel` (whichever fires first).
  Deadline deadline;
  /// External cooperative stop handle.
  CancelToken cancel;
  /// Snapshot file for checkpoint/resume (core/checkpoint.hpp). Empty
  /// disables persistence. An existing snapshot for the same (seed,
  /// trials) campaign is resumed; a snapshot from a different campaign
  /// throws core::Error.
  std::string checkpoint_path;
  /// Trials folded between snapshot saves; 1 (the default) persists after
  /// every completed trial, so a killed process replays at most one trial.
  std::size_t checkpoint_every = 1;
  /// Max trials to execute in *this* invocation (0 = no limit) -- lets the
  /// kill/resume benches truncate a run at a deterministic point.
  std::size_t trial_budget = 0;
  /// Sequential CI-driven early stopping (core/sampling.hpp). Disabled by
  /// default, which keeps the run bit-identical to the fixed-budget path.
  /// When enabled, the campaign's `trials` count becomes a *budget*: the
  /// run stops at the first checked trial prefix whose tracked KPI
  /// confidence intervals are all inside the target, and the stop decision
  /// is a pure function of that prefix -- a killed and resumed campaign
  /// replays its checkpointed prefix and stops at the identical trial with
  /// bit-identical estimates. The early-stop parameters are folded into
  /// the checkpoint fingerprint, so snapshots never mix stopping rules.
  sampling::EarlyStopConfig early_stop;
  /// Track TrialResult::latency as a second stopped-on KPI (metric is
  /// always tracked). Off by default: many campaigns' latency converges
  /// slower than the fidelity metric and would dominate the stop time.
  bool early_stop_track_latency = false;
};

/// Outcome of a resilient campaign run: the trial-order prefix completed so
/// far (all trials when `completed`; a converged early-stopped prefix also
/// counts as completed -- the campaign met its statistical goal).
struct CampaignRunOutcome {
  std::vector<TrialResult> results;
  bool completed = true;        // false when truncated by deadline/cancel/budget
  std::size_t resumed_trials = 0;  // restored from the checkpoint, not re-run
  /// Early-stop accounting, filled when options.early_stop.enabled:
  std::size_t trials_budgeted = 0;    // the campaign's full trial budget
  bool stopped_early = false;         // converged before the budget ran out
  sampling::StopReason stop_reason = sampling::StopReason::kNone;
  sampling::Estimate metric_estimate;   // mean +- CI over results
  sampling::Estimate latency_estimate;

  std::size_t trials_run() const { return results.size(); }
};

/// Seeded Monte-Carlo fault-campaign driver. Trials fan out over the
/// shared pool; per-trial seeds are pre-derived from the campaign seed, so
/// results are bit-identical between ICSC_THREADS=1 and any thread count.
/// The options overload adds deadlines, cooperative cancellation, and
/// per-trial checkpointing: a killed or cancelled campaign resumed from its
/// snapshot finishes with results bit-identical to an uninterrupted run.
class FaultCampaign {
public:
  FaultCampaign(std::uint64_t seed, std::size_t trials)
      : seed_(seed), trials_(trials) {}

  std::size_t trials() const { return trials_; }

  /// The deterministic seed of trial `t` (what run() hands the trial fn).
  std::uint64_t trial_seed(std::size_t t) const;

  /// Runs fn(trial_seed, trial_index) for every trial on the shared pool
  /// and returns the outcomes in trial order.
  std::vector<TrialResult> run(
      const std::function<TrialResult(std::uint64_t, std::size_t)>& fn) const;

  /// Resilient run: honours options.deadline / options.cancel by draining
  /// in-flight trials and returning the completed prefix, and persists
  /// progress to options.checkpoint_path so a later call resumes after the
  /// last durable trial instead of restarting.
  CampaignRunOutcome run(
      const std::function<TrialResult(std::uint64_t, std::size_t)>& fn,
      const CampaignRunOptions& options) const;

  static CampaignSummary summarize(const std::vector<TrialResult>& results);

private:
  std::uint64_t seed_ = 0;
  std::size_t trials_ = 0;
};

/// Exact (bitwise on every field) equality of two campaign outcome lists;
/// the serial-vs-parallel determinism checks in tests and the campaign
/// bench both use this.
bool campaign_results_identical(const std::vector<TrialResult>& a,
                                const std::vector<TrialResult>& b);

/// Student-t interval on the mean metric of a trial list: what the
/// early-stop validation modes compare the exhaustive oracle against.
sampling::Estimate campaign_metric_estimate(
    const std::vector<TrialResult>& results, double confidence);

}  // namespace icsc::core
