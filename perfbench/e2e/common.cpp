#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/table.hpp"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double rusage_cpu_s(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

double cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }

double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that was
  // larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (!status) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t fnv(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest(const icsc::hls::DseResult& r, std::uint64_t h) {
  for (const auto& p : r.front) h = fnv(&p.id, sizeof p.id, h);
  for (const auto& p : r.evaluated) {
    h = fnv(&p.total_latency_us, sizeof(double), h);
    h = fnv(&p.area_score, sizeof(double), h);
  }
  const std::uint64_t counts[] = {r.evaluations, r.feasible};
  return fnv(counts, sizeof counts, h);
}

std::uint64_t digest(const icsc::hetero::dna::ArchivalSimResult& r) {
  const std::uint64_t counts[] = {
      r.strands,         r.reads,
      r.clusters,        r.missing_before_repair,
      r.repaired_chunks, r.missing_after_repair,
      static_cast<std::uint64_t>(r.passes_used),
      r.rescued_strands, r.unrecovered_strands,
      r.completed ? 1u : 0u};
  return fnv(&r.byte_error_rate, sizeof(double),
             fnv(counts, sizeof counts));
}

std::string exact(double value) { return icsc::core::json_num(value); }
std::string exact(std::uint64_t value) { return icsc::core::json_num(value); }

// ---------------------------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  failures_.push_back(what);
}

std::size_t Checks::failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failures_.size();
}

void Checks::print_failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t shown = std::min<std::size_t>(failures_.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("CHECK FAILED: %s\n", failures_[i].c_str());
  }
  if (failures_.size() > shown) {
    std::printf("CHECK FAILED: ... and %zu more\n", failures_.size() - shown);
  }
}

// ---------------------------------------------------------------------------
// Exact values pinned at the default seed and at the held-out seed (full
// input sizes). Seed 0 pins a value that does not depend on the seed. A
// change that moves any of these changed what the pipelines compute; a
// simulator speed-up must leave them all unchanged.

namespace {

struct Pin {
  const char* workload;
  std::uint64_t seed;
  const char* name;
  const char* value;
};

constexpr Pin kPins[] = {
#include "pins.inc"
};

}  // namespace

void Pins::record(Checks& checks, const std::string& name,
                  const std::string& value, const std::string& paper) {
  const char* verdict = "unpinned";
  if (active_) {
    for (const auto& pin : kPins) {
      if (workload_ != pin.workload || name != pin.name) continue;
      if (pin.seed != 0 && pin.seed != seed_) continue;
      const bool same = value == pin.value;
      verdict = same ? "pinned ok" : "PIN MISMATCH";
      checks.expect(same, "pin " + name + " = " + value + ", pinned " +
                              pin.value);
      break;
    }
  }
  std::printf("pin %s %s = %s  [%s]%s%s\n", workload_.c_str(), name.c_str(),
              value.c_str(), verdict, paper.empty() ? "" : "  paper: ",
              paper.c_str());
}

// ---------------------------------------------------------------------------

void Tracer::enable() {
  icsc::core::trace::reset();
  icsc::core::trace::set_enabled(true);
  on_ = true;
}

void Tracer::add(const char* name, std::uint64_t op, double start,
                 double end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(Record{name, op, start, end});
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

double busy_s(const std::vector<Tracer::Record>& records, const char* name) {
  double total = 0.0;
  for (const auto& r : records) {
    if (std::strcmp(r.name, name) == 0) total += r.end - r.start;
  }
  return total;
}

std::map<std::string, double> self_times_s() {
  // collect() orders events by (tid, start); on one thread a span nested in
  // another starts inside it, so a stack of open spans finds each event's
  // parent, and the parent's self time loses the child's duration.
  const auto events = icsc::core::trace::collect();
  std::map<std::string, double> self;
  struct Open {
    std::uint64_t end;
    const char* name;
  };
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  for (const auto& e : events) {
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty() && stack.back().end <= e.start_ns) stack.pop_back();
    const double dur = static_cast<double>(e.dur_ns) * 1e-9;
    self[e.name] += dur;
    if (!stack.empty() && e.start_ns + e.dur_ns <= stack.back().end) {
      self[stack.back().name] -= dur;
    }
    stack.push_back(Open{e.start_ns + e.dur_ns, e.name});
  }
  return self;
}

void print_slowest_ops(const std::vector<Tracer::Record>& records,
                       const char* pass_name, std::size_t count) {
  std::map<std::uint64_t, std::pair<double, std::map<std::string, double>>>
      ops;
  for (const auto& r : records) {
    if (std::strcmp(r.name, pass_name) == 0) continue;
    auto& [total, layers] = ops[r.op];
    total += r.end - r.start;
    layers[r.name] += r.end - r.start;
  }
  std::vector<std::pair<double, std::uint64_t>> order;
  for (const auto& [op, entry] : ops) order.emplace_back(entry.first, op);
  std::sort(order.rbegin(), order.rend());
  std::printf("ops traced: %zu\n", ops.size());
  for (std::size_t i = 0; i < std::min(count, order.size()); ++i) {
    const auto& [total, op] = order[i];
    std::printf("op %llu: %s s =", static_cast<unsigned long long>(op),
                exact(total).c_str());
    for (const auto& [name, s] : ops[op].second) {
      std::printf(" %s %s s", name.c_str(), exact(s).c_str());
    }
    std::printf("\n");
  }
}

double unattributed_pct(const std::vector<Tracer::Record>& records,
                        const char* pass_name) {
  // Union of the layer spans (any thread), clipped to each pass.
  std::vector<std::pair<double, double>> layers;
  std::vector<std::pair<double, double>> passes;
  for (const auto& r : records) {
    (std::strcmp(r.name, pass_name) == 0 ? passes : layers)
        .emplace_back(r.start, r.end);
  }
  std::sort(layers.begin(), layers.end());
  double pass_total = 0.0;
  double covered = 0.0;
  for (const auto& [p0, p1] : passes) {
    pass_total += p1 - p0;
    double cursor = p0;
    for (const auto& [l0, l1] : layers) {
      if (l1 <= cursor || l0 >= p1) continue;
      const double from = std::max(cursor, l0);
      const double to = std::min(p1, l1);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, to);
    }
  }
  return pass_total > 0.0 ? 100.0 * (pass_total - covered) / pass_total
                          : 0.0;
}

// ---------------------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

void Report::print_lines(const char* heading) const {
  std::printf("\n=== %s ===\n", heading);
  for (const auto& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("metric %-34s %s %s\n", name.c_str(), exact(value).c_str(),
                unit.c_str());
  }
}

void Report::print_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<std::string>& names) const {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + exact(attempted) +
                     ", \"failed\": " + exact(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    const auto& [value, unit] = values_.at(name);
    json += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
            exact(value) + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::uint64_t counter_only(const std::string& metric) {
  static const std::map<std::string, const char*> kCounterNames = {
      {"imc.program.pulses", "imc.program_pulses"},
      {"journal.appends", "journal.appends"},
      {"journal.bytes", "journal.bytes"},
  };
  const auto counters = icsc::core::trace::counters();
  const auto it = counters.find(kCounterNames.at(metric));
  return it == counters.end() ? 0 : it->second;
}

}  // namespace e2e
