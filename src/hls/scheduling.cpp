#include "hls/scheduling.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace icsc::hls {

int ResourceBudget::of(FuClass cls) const {
  switch (cls) {
    case FuClass::kAlu: return alus;
    case FuClass::kMul: return muls;
    case FuClass::kDiv: return divs;
    case FuClass::kMemPort: return mem_ports;
    case FuClass::kNone: return std::numeric_limits<int>::max();
  }
  return 0;
}

Schedule schedule_asap(const Kernel& kernel) {
  Schedule s;
  s.start_cycle.resize(kernel.size(), 0);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    int start = 0;
    for (const std::size_t operand : kernel.ops()[i].operands) {
      start = std::max(start, s.start_cycle[operand] +
                                  op_latency(kernel.ops()[operand].kind));
    }
    s.start_cycle[i] = start;
    s.makespan = std::max(s.makespan, start + op_latency(kernel.ops()[i].kind));
  }
  return s;
}

Schedule schedule_alap(const Kernel& kernel, int deadline) {
  if (deadline < kernel.critical_path()) {
    throw core::Error("hls::schedule_alap", "deadline below the critical path",
                      "deadline " + std::to_string(deadline) +
                          ", critical path " +
                          std::to_string(kernel.critical_path()));
  }
  Schedule s;
  const std::size_t n = kernel.size();
  // finish-by constraint propagated backwards.
  std::vector<int> latest_start(n, std::numeric_limits<int>::max());
  for (std::size_t i = n; i-- > 0;) {
    const int lat = op_latency(kernel.ops()[i].kind);
    if (latest_start[i] == std::numeric_limits<int>::max()) {
      latest_start[i] = deadline - lat;  // no consumers
    }
    for (const std::size_t operand : kernel.ops()[i].operands) {
      const int op_lat = op_latency(kernel.ops()[operand].kind);
      latest_start[operand] =
          std::min(latest_start[operand], latest_start[i] - op_lat);
    }
  }
  s.start_cycle = std::move(latest_start);
  for (std::size_t i = 0; i < n; ++i) {
    s.makespan = std::max(s.makespan,
                          s.start_cycle[i] + op_latency(kernel.ops()[i].kind));
  }
  return s;
}

std::vector<int> mobility(const Kernel& kernel) {
  const auto asap = schedule_asap(kernel);
  const auto alap = schedule_alap(kernel, kernel.critical_path());
  std::vector<int> out(kernel.size());
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    out[i] = alap.start_cycle[i] - asap.start_cycle[i];
  }
  return out;
}

namespace {

/// Occupancy interval of an op on its FU: the divider blocks for its full
/// latency (not pipelined); everything else issues for one cycle.
int occupancy_cycles(OpKind kind) {
  return kind == OpKind::kDiv ? op_latency(OpKind::kDiv) : 1;
}

}  // namespace

Schedule schedule_list(const Kernel& kernel, const ResourceBudget& budget) {
  const std::size_t n = kernel.size();
  const auto mob = mobility(kernel);
  Schedule s;
  s.start_cycle.assign(n, -1);

  std::vector<int> remaining_deps(n, 0);
  std::vector<std::vector<std::size_t>> consumers(n);
  for (std::size_t i = 0; i < n; ++i) {
    remaining_deps[i] = static_cast<int>(kernel.ops()[i].operands.size());
    for (const std::size_t operand : kernel.ops()[i].operands) {
      consumers[operand].push_back(i);
    }
  }

  // busy_until[class][unit] = first free cycle of each FU instance.
  std::map<FuClass, std::vector<int>> busy;
  for (const FuClass cls :
       {FuClass::kAlu, FuClass::kMul, FuClass::kDiv, FuClass::kMemPort}) {
    const int count = budget.of(cls);
    busy[cls].assign(
        std::max(1, count == std::numeric_limits<int>::max() ? 1 : count), 0);
  }

  std::vector<int> earliest(n, 0);  // dependence-ready cycle
  // Ready ops keyed (mobility, id): least mobility first, then lowest id.
  // The key is a strict total order, so the pick is deterministic.
  using ReadyOp = std::pair<int, std::size_t>;
  std::priority_queue<ReadyOp, std::vector<ReadyOp>, std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (remaining_deps[i] == 0) ready.emplace(mob[i], i);
  }

  std::size_t scheduled = 0;
  while (scheduled < n) {
    assert(!ready.empty() && "kernel must be a DAG");
    const std::size_t op_id = ready.top().second;
    ready.pop();

    const FuClass cls = op_fu_class(kernel.ops()[op_id].kind);
    int start = earliest[op_id];
    if (cls != FuClass::kNone) {
      // Earliest FU instance that is free at or before `start`.
      auto& units = busy[cls];
      auto best = std::min_element(units.begin(), units.end());
      start = std::max(start, *best);
      *best = start + occupancy_cycles(kernel.ops()[op_id].kind);
    }
    s.start_cycle[op_id] = start;
    const int finish = start + op_latency(kernel.ops()[op_id].kind);
    s.makespan = std::max(s.makespan, finish);
    ++scheduled;
    for (const std::size_t consumer : consumers[op_id]) {
      earliest[consumer] = std::max(earliest[consumer], finish);
      if (--remaining_deps[consumer] == 0) {
        ready.emplace(mob[consumer], consumer);
      }
    }
  }
  return s;
}

bool schedule_is_valid(const Kernel& kernel, const Schedule& schedule,
                       const ResourceBudget& budget) {
  const std::size_t n = kernel.size();
  if (schedule.start_cycle.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t operand : kernel.ops()[i].operands) {
      const int finish = schedule.start_cycle[operand] +
                         op_latency(kernel.ops()[operand].kind);
      if (schedule.start_cycle[i] < finish) return false;
    }
  }
  // Resource usage per cycle.
  std::map<FuClass, std::map<int, int>> usage;
  for (std::size_t i = 0; i < n; ++i) {
    const FuClass cls = op_fu_class(kernel.ops()[i].kind);
    if (cls == FuClass::kNone) continue;
    const int occupancy = occupancy_cycles(kernel.ops()[i].kind);
    for (int c = 0; c < occupancy; ++c) {
      if (++usage[cls][schedule.start_cycle[i] + c] > budget.of(cls)) {
        return false;
      }
    }
  }
  return true;
}

int min_initiation_interval(const Kernel& kernel, const ResourceBudget& budget) {
  int ii = 1;
  for (const FuClass cls :
       {FuClass::kAlu, FuClass::kMul, FuClass::kDiv, FuClass::kMemPort}) {
    std::size_t uses = 0;
    for (const auto& op : kernel.ops()) {
      if (op_fu_class(op.kind) == cls) {
        uses += static_cast<std::size_t>(occupancy_cycles(op.kind));
      }
    }
    if (uses == 0) continue;
    const int units = budget.of(cls);
    ii = std::max(
        ii, static_cast<int>((uses + units - 1) / static_cast<std::size_t>(units)));
  }
  return ii;
}

}  // namespace icsc::hls
