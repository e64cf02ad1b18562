// Shared plumbing of the end-to-end benchmark: options, host clocks,
// output checks with exact-value pins, the benchmark's own layer spans, and
// the metric report.
//
// Every timing here is host time. Simulated statistics (cycles, energy,
// error rates) are exact counts: they are pinned and checked, never timed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "hls/dse.hpp"

namespace e2e {

/// The seed the exact-value pins were recorded for, and the held-out seed
/// whose own pins re-check a claim on inputs not used while writing it.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 2718;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny input sizes for the self-test: every metric is still produced,
  /// pins are not compared.
  bool smoke = false;
  /// Directory for the run's store, journals and trace file.
  std::string scratch;
};

double now_s();           // steady clock, seconds
double cpu_s();           // process user + system CPU seconds
double thread_cpu_s();    // calling thread's user + system CPU seconds
double peak_rss_mb();     // peak resident set size, MiB
double median(std::vector<double> values);
/// p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// FNV-1a over raw bytes, chained through `h`: exact digests of outputs.
std::uint64_t fnv(const void* data, std::size_t bytes,
                  std::uint64_t h = 1469598103934665603ULL);
template <typename T>
std::uint64_t fnv_vec(const std::vector<T>& v,
                      std::uint64_t h = 1469598103934665603ULL) {
  return fnv(v.data(), v.size() * sizeof(T), h);
}

/// Digest of a DSE result's front ids, every evaluated point's objectives
/// and its counts, chained through `h`.
std::uint64_t digest(const icsc::hls::DseResult& r,
                     std::uint64_t h = 1469598103934665603ULL);

/// Digest of every field of an archival result except `resumed_batches`,
/// which says how a run got there, not what it computed.
std::uint64_t digest(const icsc::hetero::dna::ArchivalSimResult& r);

/// Exact text of a value, shortest round-trip form for doubles.
std::string exact(double value);
std::string exact(std::uint64_t value);

/// Output checks. Each failed check is one failed op: an op that threw,
/// produced a wrong output, or (a job) ended other than done. Thread-safe.
class Checks {
public:
  /// Records a failure when !ok.
  void expect(bool ok, const std::string& what);
  std::size_t failures() const;
  void print_failures() const;

private:
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

/// Exact simulated values printed by name. Each is compared with the value
/// pinned for (workload, seed) when one is pinned, and with the paper value
/// from EXPERIMENTS.md it reproduces when one is given.
class Pins {
public:
  Pins(std::string workload, std::uint64_t seed, bool active)
      : workload_(std::move(workload)), seed_(seed), active_(active) {}
  void record(Checks& checks, const std::string& name,
              const std::string& value, const std::string& paper = "");

private:
  std::string workload_;
  std::uint64_t seed_;
  bool active_;
};

/// The benchmark's own spans around calls into each layer. Off by default;
/// when on, every span is kept in memory with the op it belongs to, and is
/// also recorded through core/trace so the Chrome export nests it with the
/// program's spans. Thread-safe.
class Tracer {
public:
  struct Record {
    const char* name;
    std::uint64_t op;
    double start;
    double end;
  };

  bool on() const { return on_; }
  /// Turns on both the benchmark's spans and core/trace.
  void enable();
  /// A fresh op id; the spans of one op share it.
  std::uint64_t new_op() { return next_op_.fetch_add(1); }
  void add(const char* name, std::uint64_t op, double start, double end);
  std::vector<Record> records() const;

private:
  bool on_ = false;
  std::atomic<std::uint64_t> next_op_{0};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// RAII span: `name` must be a string literal.
class Span {
public:
  Span(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), name_(name), op_(op), inner_(name),
        start_(tracer.on() ? now_s() : 0.0) {}
  ~Span() {
    if (tracer_.on()) tracer_.add(name_, op_, start_, now_s());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t op_;
  icsc::core::trace::Span inner_;
  double start_;
};

/// Sum of the durations of the benchmark's spans named `name`, seconds.
double busy_s(const std::vector<Tracer::Record>& records, const char* name);

/// Self time per span name over every span core/trace recorded (the
/// benchmark's and the program's): duration minus the part of it that
/// spans nested inside it on the same thread cover. Seconds.
std::map<std::string, double> self_times_s();

/// Prints the `count` ops with the most layer-span time, each with the
/// layers its spans belong to.
void print_slowest_ops(const std::vector<Tracer::Record>& records,
                       const char* pass_name, std::size_t count);

/// Share (%) of the pass spans' time that no layer span covers.
double unattributed_pct(const std::vector<Tracer::Record>& records,
                        const char* pass_name);

/// Metrics by name with their units, printed as report lines and as the
/// final JSON object.
class Report {
public:
  void set(const std::string& name, double value, const std::string& unit);
  void print_lines(const char* heading) const;
  /// The result line: only the metrics listed in `names`.
  void print_result(bool correct, std::uint64_t attempted,
                    std::uint64_t failed,
                    const std::vector<std::string>& names) const;

private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Maps the counts that exist only as core/trace counters to metric names.
/// Every other count is read from a public result or stats struct.
std::uint64_t counter_only(const std::string& metric);

/// One workload: set up once, then run timed passes, then verify.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds inputs and constructs models/service/store.
  virtual void setup() = 0;
  /// How many times a run sets up; setup_s is the median. Fixed per
  /// workload, so the heap's history, and with it peak_rss_mb, repeats.
  virtual int setup_repeats() const { return 7; }
  /// One timed pass; counts its ops in `attempted`.
  virtual void pass(std::uint64_t pass_index) = 0;
  /// Untimed, after each pass: checks that pass's outputs and frees what
  /// it kept of them, so the run's memory does not grow with its passes.
  virtual void check_pass(std::uint64_t /*pass_index*/) {}
  /// Post-timing checks: pins, replicas, direct-call identity.
  virtual void verify() = 0;
  /// Workload-specific metrics (end-to-end throughputs and layer metrics).
  virtual void report(Report& report, const std::vector<Tracer::Record>&
                      records) = 0;

  std::uint64_t attempted = 0;
  /// Host seconds spent in passes run with tracing off / on.
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
};

struct Context {
  Options options;
  Tracer tracer;
  Checks checks;
  Pins pins;
};

std::unique_ptr<Workload> make_paper_models(Context& ctx);
std::unique_ptr<Workload> make_numeric_kernels(Context& ctx);
std::unique_ptr<Workload> make_campaign_service(Context& ctx);

}  // namespace e2e
