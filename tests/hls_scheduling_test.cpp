#include "hls/scheduling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "hls/binding.hpp"

namespace icsc::hls {
namespace {

ResourceBudget unconstrained() {
  ResourceBudget b;
  b.alus = 1000;
  b.muls = 1000;
  b.divs = 1000;
  b.mem_ports = 1000;
  return b;
}

TEST(Asap, MakespanEqualsCriticalPath) {
  for (const auto& kernel : {make_fir_kernel(8), make_dot_kernel(16),
                             make_spmv_row_kernel(4)}) {
    const auto s = schedule_asap(kernel);
    EXPECT_EQ(s.makespan, kernel.critical_path()) << kernel.name();
  }
}

TEST(Asap, RespectsDependences) {
  const auto kernel = make_dot_kernel(8);
  const auto s = schedule_asap(kernel);
  EXPECT_TRUE(schedule_is_valid(kernel, s, unconstrained()));
}

TEST(Alap, RespectsDeadlineAndDependences) {
  const auto kernel = make_dot_kernel(8);
  const int deadline = kernel.critical_path() + 5;
  const auto s = schedule_alap(kernel, deadline);
  EXPECT_LE(s.makespan, deadline);
  EXPECT_TRUE(schedule_is_valid(kernel, s, unconstrained()));
}

TEST(Alap, SinksScheduleLate) {
  const auto kernel = make_fir_kernel(4);
  const auto asap = schedule_asap(kernel);
  const auto alap = schedule_alap(kernel, kernel.critical_path() + 10);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    EXPECT_GE(alap.start_cycle[i], asap.start_cycle[i]);
  }
}

TEST(Mobility, ZeroOnCriticalPath) {
  const auto kernel = make_fir_kernel(6);
  const auto mob = mobility(kernel);
  // The accumulation chain is the critical path: at least one op per
  // level must have zero mobility.
  int zero_count = 0;
  for (const int m : mob) {
    EXPECT_GE(m, 0);
    if (m == 0) ++zero_count;
  }
  EXPECT_GE(zero_count, 6);
}

TEST(ListScheduling, ValidUnderTightBudget) {
  const auto kernel = make_dot_kernel(16);
  ResourceBudget tight;
  tight.alus = 1;
  tight.muls = 1;
  tight.mem_ports = 1;
  const auto s = schedule_list(kernel, tight);
  EXPECT_TRUE(schedule_is_valid(kernel, s, tight));
  EXPECT_GE(s.makespan, kernel.critical_path());
}

TEST(ListScheduling, UnconstrainedMatchesAsap) {
  const auto kernel = make_dot_kernel(8);
  const auto s = schedule_list(kernel, unconstrained());
  EXPECT_EQ(s.makespan, kernel.critical_path());
}

TEST(ListScheduling, MoreResourcesNeverSlower) {
  const auto kernel = make_dot_kernel(32);
  int prev_makespan = 1 << 30;
  for (const int units : {1, 2, 4, 8, 16}) {
    ResourceBudget budget;
    budget.alus = units;
    budget.muls = units;
    budget.mem_ports = units;
    const auto s = schedule_list(kernel, budget);
    EXPECT_TRUE(schedule_is_valid(kernel, s, budget));
    EXPECT_LE(s.makespan, prev_makespan);
    prev_makespan = s.makespan;
  }
}

TEST(ListScheduling, SerializesMemoryPort) {
  const auto kernel = make_spmv_row_kernel(8);  // 24 memory ops
  ResourceBudget budget;
  budget.mem_ports = 1;
  budget.alus = 8;
  budget.muls = 8;
  const auto s = schedule_list(kernel, budget);
  EXPECT_TRUE(schedule_is_valid(kernel, s, budget));
  // 24 issues on one port: makespan at least 24.
  EXPECT_GE(s.makespan, 24);
}

TEST(ListScheduling, DividerBlocksFullLatency) {
  Kernel k("divs");
  const auto a = k.input();
  const auto b = k.input();
  const auto d1 = k.div(a, b);
  const auto d2 = k.div(b, a);
  k.output(k.add(d1, d2));
  ResourceBudget one_div;
  one_div.divs = 1;
  const auto s = schedule_list(k, one_div);
  EXPECT_TRUE(schedule_is_valid(k, s, one_div));
  // Two divisions on one non-pipelined divider: >= 2*12 + add.
  EXPECT_GE(s.makespan, 2 * op_latency(OpKind::kDiv) + 1);
}

/// Reference list scheduler: re-sorts every ready op by (mobility, id) on
/// each step and takes the front. schedule_list's heap must pick the same
/// op at every step, so both give the same schedule.
Schedule sorted_ready_list_schedule(const Kernel& kernel,
                                    const ResourceBudget& budget) {
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
  std::map<FuClass, std::vector<int>> busy;
  for (const FuClass cls :
       {FuClass::kAlu, FuClass::kMul, FuClass::kDiv, FuClass::kMemPort}) {
    const int count = budget.of(cls);
    busy[cls].assign(
        std::max(1, count == std::numeric_limits<int>::max() ? 1 : count), 0);
  }
  std::vector<int> earliest(n, 0);
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (remaining_deps[i] == 0) ready.push_back(i);
  }
  for (std::size_t scheduled = 0; scheduled < n; ++scheduled) {
    std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
      if (mob[a] != mob[b]) return mob[a] < mob[b];
      return a < b;
    });
    const std::size_t op_id = ready.front();
    ready.erase(ready.begin());
    const OpKind kind = kernel.ops()[op_id].kind;
    const FuClass cls = op_fu_class(kind);
    int start = earliest[op_id];
    if (cls != FuClass::kNone) {
      auto& units = busy[cls];
      auto best = std::min_element(units.begin(), units.end());
      start = std::max(start, *best);
      *best = start + (kind == OpKind::kDiv ? op_latency(OpKind::kDiv) : 1);
    }
    s.start_cycle[op_id] = start;
    const int finish = start + op_latency(kind);
    s.makespan = std::max(s.makespan, finish);
    for (const std::size_t consumer : consumers[op_id]) {
      earliest[consumer] = std::max(earliest[consumer], finish);
      if (--remaining_deps[consumer] == 0) ready.push_back(consumer);
    }
  }
  return s;
}

/// Four independent divisions feeding an add tree: the divider budget
/// decides how they serialise.
Kernel make_div_kernel() {
  Kernel k("div4");
  std::vector<std::size_t> quotients;
  for (int i = 0; i < 4; ++i) {
    quotients.push_back(k.div(k.input(), k.input()));
  }
  k.output(k.add(k.add(quotients[0], quotients[1]),
                 k.add(quotients[2], quotients[3])));
  return k;
}

TEST(ListScheduling, HeapMatchesTheSortedReadyList) {
  int compared = 0;
  for (const auto& body :
       {make_fir_kernel(16), make_dot_kernel(16), make_spmv_row_kernel(8),
        make_bfs_expand_kernel(8), make_div_kernel()}) {
    for (const int unroll : {1, 2, 3, 4, 6, 8}) {
      const Kernel kernel = unroll > 1 ? unroll_kernel(body, unroll) : body;
      for (const int alus : {1, 2, 5}) {
        for (const int muls : {1, 3}) {
          for (const int divs : {1, 2}) {
            for (const int ports : {1, 2, 4}) {
              ResourceBudget budget;
              budget.alus = alus;
              budget.muls = muls;
              budget.divs = divs;
              budget.mem_ports = ports;
              const auto heap = schedule_list(kernel, budget);
              const auto sorted = sorted_ready_list_schedule(kernel, budget);
              const std::string where =
                  kernel.name() + " x" + std::to_string(unroll) + " alus=" +
                  std::to_string(alus) + " muls=" + std::to_string(muls) +
                  " divs=" + std::to_string(divs) +
                  " ports=" + std::to_string(ports);
              ASSERT_EQ(heap.start_cycle, sorted.start_cycle) << where;
              ASSERT_EQ(heap.makespan, sorted.makespan) << where;
              ASSERT_TRUE(schedule_is_valid(kernel, heap, budget)) << where;
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 5 * 6 * 3 * 2 * 2 * 3);
}

TEST(MinII, ReflectsBottleneckResource) {
  const auto kernel = make_dot_kernel(8);  // 8 muls, 7 adds
  ResourceBudget budget;
  budget.muls = 2;
  budget.alus = 8;
  budget.mem_ports = 1;
  EXPECT_EQ(min_initiation_interval(kernel, budget), 4);  // ceil(8/2)
  budget.muls = 8;
  EXPECT_EQ(min_initiation_interval(kernel, budget), 1);
}

TEST(Binding, ValidAndMinimal) {
  const auto kernel = make_dot_kernel(16);
  ResourceBudget budget;
  budget.alus = 4;
  budget.muls = 4;
  const auto s = schedule_list(kernel, budget);
  const auto b = bind_kernel(kernel, s);
  EXPECT_TRUE(binding_is_valid(kernel, s, b));
  // Left-edge never uses more instances than the budget allows.
  EXPECT_LE(b.instances.at(FuClass::kMul), 4);
  EXPECT_LE(b.instances.at(FuClass::kAlu), 4);
  EXPECT_GT(b.max_live_values, 0);
}

TEST(Binding, SerialScheduleSharesOneUnit) {
  const auto kernel = make_fir_kernel(8);
  ResourceBudget serial;
  serial.alus = 1;
  serial.muls = 1;
  const auto s = schedule_list(kernel, serial);
  const auto b = bind_kernel(kernel, s);
  EXPECT_TRUE(binding_is_valid(kernel, s, b));
  EXPECT_EQ(b.instances.at(FuClass::kMul), 1);
  EXPECT_EQ(b.instances.at(FuClass::kAlu), 1);
}

TEST(Binding, SerializedMultipliersHoldInputsLiveLonger) {
  // With few multipliers the kernel's input operands wait many cycles for
  // their turn, so the peak number of simultaneously live values rises as
  // the multiplier budget shrinks.
  const auto kernel = make_dot_kernel(32);
  int prev_live = 0;
  for (const int muls : {16, 4, 1}) {
    ResourceBudget budget;
    budget.muls = muls;
    budget.alus = 4;
    const auto s = schedule_list(kernel, budget);
    const auto b = bind_kernel(kernel, s);
    EXPECT_GE(b.max_live_values, prev_live) << "muls=" << muls;
    prev_live = b.max_live_values;
  }
  EXPECT_GT(prev_live, 32);  // 1-mul case exceeds the 16-mul case (32)
}

}  // namespace
}  // namespace icsc::hls
