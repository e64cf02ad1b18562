// campaign_service: the only workload that runs core/service, result-store
// reads and writes and journal writes. Job bodies are short so dispatch,
// admission and coalescing overhead show.
//
// One pass: a closed loop -- one generator thread keeping 4 jobs in flight
// -- pushes a fixed, seeded mix of jobs through a fresh CampaignService
// (2 workers, coalescing on, 4 admitted at most at once):
//   DSE jobs  small sweeps drawn from a fixed pool of 16 campaigns against a
//             per-tenant result store that starts empty in a fresh
//             directory each pass, so a campaign's first submission in the
//             pass writes and its 15 repeats read;
//   DNA jobs  small archival runs that journal every strand batch;
//   MVM jobs  single inputs through one MvmBatchClient, so queued inputs
//             coalesce into batched device passes.
// The mix is synthetic; nothing in the repository prescribes one. Its
// shares are chosen so that each job kind and the service itself take a
// visible part of a pass's CPU time; every run prints the measured shares.
// After each pass, untimed, every job result is compared with the same call
// made directly, and the pass's records are dropped.
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>

#include "common.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/service.hpp"
#include "service/jobs.hpp"

namespace e2e {
namespace {

using namespace icsc;
namespace dna = icsc::hetero::dna;

enum class Kind { kDse = 0, kDna = 1, kMvm = 2 };
constexpr const char* kKindName[] = {"dse", "dna", "mvm"};
constexpr std::size_t kInFlight = 4;
constexpr const char* kTenant = "bench";

/// One submitted job: its plan entry and what came back.
struct JobRecord {
  Kind kind = Kind::kDse;
  std::size_t variant = 0;  // campaign / archival variant / MVM input
  bool admitted = false;
  core::JobId id = 0;
  double submitted = 0.0;
  double done = 0.0;
  core::JobState state = core::JobState::kQueued;
  double queue_s = 0.0;
  double run_s = 0.0;
  std::uint64_t result = 0;  // digest of the job's output
};

/// The output slots of one pass's jobs, read once the pass has drained.
struct Outputs {
  std::shared_ptr<hls::DseResult> dse;
  std::shared_ptr<dna::ArchivalSimResult> dna;
  std::shared_ptr<std::vector<double>> mvm;
};

/// A fixed-size uniform sample of a run's latencies (reservoir sampling,
/// seeded), so the benchmark's own memory does not grow with its passes.
/// Exact while fewer than kCapacity values have been added.
class Reservoir {
public:
  static constexpr std::size_t kCapacity = 8192;

  explicit Reservoir(std::uint64_t seed) : rng_(seed), samples_(kCapacity) {}

  void add(double value) {
    if (count_ < kCapacity) {
      samples_[count_] = value;
    } else if (const auto i = rng_.below(count_ + 1); i < kCapacity) {
      samples_[i] = value;
    }
    ++count_;
  }
  double percentile(double p) const {
    const auto end = samples_.begin() +
                     static_cast<std::ptrdiff_t>(std::min(count_, kCapacity));
    return e2e::percentile({samples_.begin(), end}, p);
  }
  std::uint64_t count() const { return count_; }

private:
  core::Rng rng_;
  std::vector<double> samples_;
  std::uint64_t count_ = 0;
};

struct Tally {
  explicit Tally(std::uint64_t seed)
      : sojourn_ms(seed), queue_ms(seed + 1),
        run_ms{Reservoir(seed + 2), Reservoir(seed + 3), Reservoir(seed + 4)} {}

  double pass_s = 0.0;
  double pass_cpu_s = 0.0;
  double job_cpu_s[3] = {0.0, 0.0, 0.0};
  std::uint64_t jobs_done = 0;
  Reservoir sojourn_ms;
  Reservoir queue_ms;
  Reservoir run_ms[3];
  std::uint64_t dse_points = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t store_served = 0;
  std::uint64_t dse_jobs = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_appends = 0;
  std::uint64_t coalesced_batches = 0;
  std::uint64_t coalesced_jobs = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t mvm_jobs = 0;
  std::uint64_t passes = 0;
};

class CampaignServiceWorkload final : public Workload {
public:
  explicit CampaignServiceWorkload(Context& ctx)
      : ctx_(ctx), tally_{Tally(ctx.options.seed), Tally(ctx.options.seed)} {}

  ~CampaignServiceWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void setup() override {
    const bool smoke = ctx_.options.smoke;
    const std::uint64_t seed = ctx_.options.seed;
    static int instance = 0;
    // Created by the first pass; each pass gets a fresh store and journal
    // in dir_/pass, which check_pass() deletes.
    dir_ = ctx_.options.scratch + "/campaign-" + std::to_string(getpid()) +
           "-" + std::to_string(instance++);

    // DSE campaigns: 4 kernels x 2 trip counts x sequential/pipelined over
    // a 36-point space.
    const hls::Kernel kernels[] = {
        hls::make_fir_kernel(8), hls::make_dot_kernel(8),
        hls::make_spmv_row_kernel(4), hls::make_bfs_expand_kernel(4)};
    for (const auto& kernel : kernels) {
      for (const int iterations : {256, 4096}) {
        for (const bool pipelined : {false, true}) {
          hls::DseConfig config;
          config.iterations = iterations;
          config.pipelined = pipelined;
          config.space.unroll_factors = {1, 2, 4};
          config.space.alu_counts = {1, 2, 4};
          config.space.mul_counts = {1, 2};
          config.space.mem_port_counts = {1, 2};
          campaigns_.push_back({kernel, config});
        }
      }
    }
    // DNA archival variants: small journaled payloads. A pass runs each
    // once, so its DNA work is a sum over many channel draws and barely
    // moves with the seed.
    for (std::uint64_t v = 0; v < (smoke ? 6 : 96); ++v) {
      dna::ArchivalSimParams p;
      p.payload_bytes = smoke ? 64 : 256;
      p.channel.seed = seed * 1000 + v;
      archivals_.push_back(p);
    }
    // MVM: one client, one programmed 64x64 array, seeded inputs.
    mvm_options_.dim = smoke ? 8 : 64;
    mvm_options_.seed = seed;
    mvm_options_.tenant = kTenant;
    mvm_ = std::make_unique<service::MvmBatchClient>(mvm_options_);
    core::Rng rng(seed ^ 0x5E41CEULL);
    mvm_inputs_.assign(64, std::vector<float>(mvm_options_.dim));
    for (auto& x : mvm_inputs_) {
      for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }

    // The per-pass job mix: exactly 40 % DSE, 15 % DNA and 45 % MVM jobs,
    // variants taken in turn, in a seeded order. Fixed counts keep the
    // pass's work the same for every seed.
    const std::size_t jobs = smoke ? 40 : 640;
    const std::pair<Kind, std::size_t> mix[] = {
        {Kind::kDse, jobs * 40 / 100},
        {Kind::kDna, jobs * 15 / 100},
        {Kind::kMvm, jobs * 45 / 100}};
    std::vector<std::pair<Kind, std::size_t>> ordered;
    for (const auto& [kind, count] : mix) {
      const std::size_t n = kind == Kind::kDse   ? campaigns_.size()
                            : kind == Kind::kDna ? archivals_.size()
                                                 : mvm_inputs_.size();
      for (std::size_t i = 0; i < count; ++i) ordered.push_back({kind, i % n});
    }
    for (const std::size_t i : rng.permutation(ordered.size())) {
      plan_.push_back(ordered[i]);
    }
    jobs_.reserve(plan_.size());
    outputs_.reserve(plan_.size());
  }

  // One set-up takes about 2 ms, so a median of seven would follow the
  // noise of a few scheduler ticks.
  int setup_repeats() const override { return 401; }

  void pass(std::uint64_t /*k*/) override {
    const bool traced = ctx_.tracer.on();
    Tally& t = tally_[traced ? 1 : 0];
    const double cpu0 = cpu_s();
    const std::string pass_dir = dir_ + "/pass";
    std::filesystem::create_directories(pass_dir + "/store");
    // The handle jobs share (open_shared_store keeps one per directory
    // while it is open), so its stats count every job's lookups and puts.
    auto store = service::open_shared_store(pass_dir + "/store/" + kTenant);

    core::ServiceConfig config;
    config.workers = 2;
    config.max_queue_depth = 64;
    config.coalesce_max_batch = kInFlight;
    config.scratch_dir = pass_dir;
    config.journal_path = pass_dir + "/service.journal";
    const double t0 = now_s();
    core::ServiceStats stats;
    {
      core::CampaignService service(config);
      for (const auto& [kind, variant] : plan_) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock, [&] { return in_flight_ < kInFlight; });
          ++in_flight_;
        }
        submit(service, kind, variant, traced);
      }
      {
        // A job the service never runs would hold its slot forever.
        std::unique_lock<std::mutex> lock(mutex_);
        if (!cv_.wait_for(lock, std::chrono::seconds(60),
                          [&] { return in_flight_ == 0; })) {
          throw core::Error("campaign_service", "jobs did not finish");
        }
      }
      service.drain();
      for (JobRecord& job : jobs_) {
        if (!job.admitted) continue;
        const core::JobStatus status = service.poll(job.id);
        job.state = status.state;
        job.queue_s = status.queue_seconds;
        job.run_s = status.run_seconds;
      }
      stats = service.stats();
    }
    t.pass_s += now_s() - t0;
    ++t.passes;
    t.coalesced_batches += stats.coalesced_batches;
    t.coalesced_jobs += stats.coalesced_jobs;
    t.rejected += stats.rejected;
    t.shed += stats.shed_expired;
    const auto store_stats = store->stats();
    store.reset();
    t.store_hits += store_stats.hits;
    t.store_misses += store_stats.misses;
    t.store_appends += store_stats.appends;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobRecord& job = jobs_[j];
      ++attempted;
      if (!job.admitted || job.state != core::JobState::kDone) {
        ctx_.checks.expect(false, std::string(kKindName[int(job.kind)]) +
                                      " job " + std::to_string(j) +
                                      " ended " +
                                      (job.admitted
                                           ? core::job_state_name(job.state)
                                           : "rejected"));
        continue;
      }
      ++t.jobs_done;
      t.sojourn_ms.add(1e3 * (job.done - job.submitted));
      t.queue_ms.add(1e3 * job.queue_s);
      t.run_ms[int(job.kind)].add(1e3 * job.run_s);
      const Outputs& out = outputs_[j];
      switch (job.kind) {
        case Kind::kDse:
          job.result = digest(*out.dse);
          ++t.dse_jobs;
          t.store_served += out.dse->served_from_store ? 1 : 0;
          t.dse_points += out.dse->served_from_store ? 0 : out.dse->evaluations;
          t.memo_hits += out.dse->cache_hits;
          t.memo_misses += out.dse->cache_misses;
          break;
        case Kind::kDna:
          job.result = digest(*out.dna);
          break;
        case Kind::kMvm:
          job.result = fnv_vec(*out.mvm);
          ++t.mvm_jobs;
          break;
      }
    }
    for (int kind = 0; kind < 3; ++kind) t.job_cpu_s[kind] += job_cpu_s_[kind];
    t.pass_cpu_s += cpu_s() - cpu0;
  }

  void check_pass(std::uint64_t /*k*/) override {
    // Each job's result must be bit-identical to the same call made
    // directly: DSE without store or checkpoints, DNA without a journal,
    // MVM by replaying the service's device passes, in order, on an
    // identically programmed twin array.
    if (!twin_) {
      for (const auto& [kernel, config] : campaigns_) {
        dse_want_.push_back(digest(hls::dse_exhaustive(kernel, config)));
      }
      for (const auto& p : archivals_) {
        dna_want_.push_back(digest(dna::run_archival_sim(p)));
      }
      twin_ = std::make_unique<service::MvmBatchClient>(mvm_options_);
    }
    std::vector<std::uint64_t> mvm_want(jobs_.size(), 0);
    for (const auto& group : device_passes_) {
      std::vector<float> xs;
      for (const std::size_t j : group) {
        const auto& x = mvm_inputs_[jobs_[j].variant];
        xs.insert(xs.end(), x.begin(), x.end());
      }
      const auto ys = twin_->crossbar().matvec_raw_batch(xs, group.size());
      const std::size_t out_dim = ys.size() / group.size();
      for (std::size_t i = 0; i < group.size(); ++i) {
        const std::vector<double> y(ys.begin() + i * out_dim,
                                    ys.begin() + (i + 1) * out_dim);
        mvm_want[group[i]] = fnv_vec(y);
      }
    }
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobRecord& job = jobs_[j];
      if (!job.admitted || job.state != core::JobState::kDone) continue;
      const std::uint64_t want = job.kind == Kind::kDse ? dse_want_[job.variant]
                                 : job.kind == Kind::kDna
                                     ? dna_want_[job.variant]
                                     : mvm_want[j];
      ctx_.checks.expect(job.result == want,
                         std::string(kKindName[int(job.kind)]) + " job " +
                             std::to_string(j) +
                             " differs from the direct call");
    }

    jobs_.clear();
    outputs_.clear();
    device_passes_.clear();
    for (double& c : job_cpu_s_) c = 0.0;
    std::error_code ec;
    std::filesystem::remove_all(dir_ + "/pass", ec);
  }

  void verify() override {
    std::uint64_t h = 0;
    for (const auto d : dse_want_) h = fnv(&d, sizeof d, h);
    for (const auto d : dna_want_) h = fnv(&d, sizeof d, h);
    ctx_.pins.record(ctx_.checks, "service.direct_results_digest", exact(h));
    const Tally& u = tally_[0];
    std::printf("dse jobs served from the store: %llu of %llu (%s)\n",
                static_cast<unsigned long long>(u.store_served),
                static_cast<unsigned long long>(u.dse_jobs),
                exact(static_cast<double>(u.store_served) /
                      static_cast<double>(u.dse_jobs))
                    .c_str());
    // Where a pass's CPU time goes: each job kind's bodies (on the
    // dispatcher threads), and the rest -- service dispatch, admission,
    // coalescing, journaling and the generator.
    double jobs = 0.0;
    std::printf("cpu share of a pass (tracing off):");
    for (int kind = 0; kind < 3; ++kind) {
      jobs += u.job_cpu_s[kind];
      std::printf(" %s %.3f", kKindName[kind], u.job_cpu_s[kind] / u.pass_cpu_s);
    }
    std::printf(" service+generator %.3f\n", 1.0 - jobs / u.pass_cpu_s);
  }

  void report(Report& r, const std::vector<Tracer::Record>& records) override {
    const Tally& u = tally_[0];
    const Tally& t = tally_[1];
    r.set("jobs_per_s", static_cast<double>(u.jobs_done) / u.pass_s, "1/s");
    r.set("job_p50_ms", u.sojourn_ms.percentile(50), "ms");
    r.set("job_p99_ms", u.sojourn_ms.percentile(99), "ms");
    for (int kind = 0; kind < 3; ++kind) {
      r.set(std::string("service.job_cpu_s.") + kKindName[kind],
            u.job_cpu_s[kind] / static_cast<double>(u.passes), "s");
    }
    std::printf(
        "jobs completed with tracing off: %llu (p99 from %llu samples)\n",
        static_cast<unsigned long long>(u.jobs_done),
        static_cast<unsigned long long>(
            std::min<std::uint64_t>(u.sojourn_ms.count(), Reservoir::kCapacity)));
    if (t.passes == 0) return;
    // Busy times and counts per traced pass.
    const auto per_pass = [&](auto v) {
      return static_cast<double>(v) / static_cast<double>(t.passes);
    };
    const auto busy = [&](const char* span) {
      return per_pass(busy_s(records, span));
    };
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    r.set("hls.dse.busy_s", busy("e2e/hls.dse"), "s");
    r.set("hls.dse.points", per_pass(t.dse_points), "count");
    r.set("hls.dse.memo_hit_ratio", ratio(t.memo_hits,
                                          t.memo_hits + t.memo_misses),
          "ratio");
    const auto self = self_times_s();
    const auto it = self.find("dse/evaluate");
    r.set("hls.dse.evaluate_self_s",
          per_pass(it == self.end() ? 0.0 : it->second), "s");
    r.set("hls.dse.store_served", per_pass(t.store_served), "count");
    r.set("store.hits", per_pass(t.store_hits), "count");
    r.set("store.misses", per_pass(t.store_misses), "count");
    r.set("store.hit_ratio",
          ratio(t.store_hits, t.store_hits + t.store_misses), "ratio");
    r.set("store.appends", per_pass(t.store_appends), "count");
    r.set("imc.mvm.busy_s", busy("e2e/imc.mvm"), "s");
    r.set("imc.mvm.count", per_pass(t.mvm_jobs), "count");
    r.set("journal.appends", per_pass(counter_only("journal.appends")),
          "count");
    r.set("journal.bytes", per_pass(counter_only("journal.bytes")), "B");
    r.set("service.queue_wait_p50_ms", t.queue_ms.percentile(50), "ms");
    r.set("service.queue_wait_p99_ms", t.queue_ms.percentile(99), "ms");
    for (int kind = 0; kind < 3; ++kind) {
      r.set(std::string("service.run_p50_ms.") + kKindName[kind],
            t.run_ms[kind].percentile(50), "ms");
    }
    r.set("service.coalesced_batches", per_pass(t.coalesced_batches),
          "count");
    r.set("service.mean_batch_size",
          ratio(t.coalesced_jobs, t.coalesced_batches), "count");
    r.set("service.rejected", per_pass(t.rejected), "count");
    r.set("service.shed", per_pass(t.shed), "count");
  }

private:
  /// Submits one job wrapped so its completion releases an in-flight slot
  /// and its body is a layer span. Returns its index in jobs_.
  void submit(core::CampaignService& service, Kind kind, std::size_t variant,
              bool traced) {
    core::JobRequest request;
    Outputs out;
    switch (kind) {
      case Kind::kDse: {
        out.dse = std::make_shared<hls::DseResult>();
        service::DseJobOptions options;
        options.kernel = campaigns_[variant].first;
        options.config = campaigns_[variant].second;
        options.store_root = dir_ + "/pass/store";
        request.body = service::make_dse_job(options, out.dse);
        break;
      }
      case Kind::kDna: {
        out.dna = std::make_shared<dna::ArchivalSimResult>();
        service::DnaJobOptions options;
        options.params = archivals_[variant];
        request.body = service::make_dna_job(options, out.dna);
        break;
      }
      case Kind::kMvm: {
        out.mvm = std::make_shared<std::vector<double>>();
        request = mvm_->make_request(mvm_inputs_[variant], out.mvm);
        break;
      }
    }
    request.tenant = kTenant;
    // Degrade tiers change what a job computes; these jobs must match the
    // direct call, and the loop never fills the queue past the bound.
    request.allow_degrade = false;
    std::size_t j = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      j = jobs_.size();
      JobRecord job;
      job.kind = kind;
      job.variant = variant;
      job.submitted = now_s();
      jobs_.push_back(job);
      outputs_.push_back(std::move(out));
    }
    request.body = wrap(std::move(request.body), kind, j, traced);
    const core::SubmitOutcome outcome = service.submit(std::move(request));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_[j].admitted = outcome.admitted;
      jobs_[j].id = outcome.id;
    }
    if (!outcome.admitted) release({j}, Kind::kDse, 0.0);
  }

  std::function<void(core::JobContext&)> wrap(
      std::function<void(core::JobContext&)> body, Kind kind, std::size_t j,
      bool traced) {
    static constexpr const char* kSpan[] = {"e2e/hls.dse", "e2e/dna.archival",
                                            "e2e/imc.mvm"};
    const std::uint64_t op = traced ? ctx_.tracer.new_op() : 0;
    return [this, body = std::move(body), kind, j, op](core::JobContext& jc) {
      std::vector<std::size_t> done{j};
      const double cpu0 = thread_cpu_s();
      {
        Span span(ctx_.tracer, kSpan[int(kind)], op);
        if (kind != Kind::kMvm) {
          try {
            body(jc);
          } catch (...) {
            release(done, kind, thread_cpu_s() - cpu0);
            throw;
          }
        } else {
          // A coalesced group runs its members in order on one dispatcher
          // thread and the last member makes the device pass that fills
          // every member's output; log the group so check_pass() can
          // replay the passes in the order they happened, and release its
          // members then.
          thread_local std::vector<std::size_t> group;
          if (jc.batch_index() == 0) group.clear();
          group.push_back(j);
          if (jc.batch_index() + 1 != jc.batch_size()) {
            body(jc);
            done.clear();
          } else {
            const std::lock_guard<std::mutex> lock(device_log_mutex_);
            body(jc);
            device_passes_.push_back(group);
            done = group;
          }
        }
      }
      release(done, kind, thread_cpu_s() - cpu0);
    };
  }

  /// Stamps the jobs in `done` finished and frees their in-flight slots;
  /// `cpu` is the CPU time a job body of `kind` just took.
  void release(const std::vector<std::size_t>& done, Kind kind, double cpu) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const double now = now_s();
    for (const std::size_t j : done) jobs_[j].done = now;
    job_cpu_s_[int(kind)] += cpu;
    in_flight_ -= done.size();
    if (!done.empty()) cv_.notify_all();
  }

  Context& ctx_;
  std::string dir_;
  std::vector<std::pair<hls::Kernel, hls::DseConfig>> campaigns_;
  std::vector<dna::ArchivalSimParams> archivals_;
  service::MvmBatchOptions mvm_options_;
  std::unique_ptr<service::MvmBatchClient> mvm_;
  std::vector<std::vector<float>> mvm_inputs_;
  std::vector<std::pair<Kind, std::size_t>> plan_;

  // The current pass's records. jobs_ and outputs_ grow on the generator
  // thread and job bodies stamp their record from dispatcher threads: both
  // under mutex_. check_pass() clears them.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  std::vector<JobRecord> jobs_;
  std::vector<Outputs> outputs_;
  double job_cpu_s_[3] = {0.0, 0.0, 0.0};
  std::mutex device_log_mutex_;
  std::vector<std::vector<std::size_t>> device_passes_;

  // The direct calls each job is compared with, made by the first
  // check_pass(), and the twin array the MVM passes are replayed on.
  std::vector<std::uint64_t> dse_want_;
  std::vector<std::uint64_t> dna_want_;
  std::unique_ptr<service::MvmBatchClient> twin_;
  Tally tally_[2];
};

}  // namespace

std::unique_ptr<Workload> make_campaign_service(Context& ctx) {
  return std::make_unique<CampaignServiceWorkload>(ctx);
}

}  // namespace e2e
