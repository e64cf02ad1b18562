#include "hetero/dna/cluster.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "hetero/dna/prefilter.hpp"

namespace icsc::hetero::dna {

namespace {

constexpr std::size_t kNoMatch = std::numeric_limits<std::size_t>::max();

/// q-gram order of the screen: 4^4 = 256 histogram buckets per strand.
constexpr int kScreenQ = 4;
constexpr std::size_t kHistSize = std::size_t{1} << (2 * kScreenQ);

/// Candidates screened per banded-Myers batch.
constexpr std::size_t kScreenBlock = 32;

/// Minimum pair evaluations per pool task. Below this a task is shorter
/// than one worker wake-up, so batches over few clusters run inline.
constexpr std::size_t kPairsPerTask = 512;

/// Work booked up to and including each read's first match, exactly as the
/// serial early-exit scan books it.
struct ScanTally {
  std::uint64_t candidates = 0;  // pairs considered
  std::uint64_t rejected = 0;    // of which resolved by a lower bound
  std::uint64_t dp_cells = 0;    // exact-kernel DP cells
};

/// Per-read scratch, one per batch slot, reused across batches.
struct Slot {
  std::vector<std::uint16_t> hist;  // the read's q-gram histogram
  MyersPattern pattern{Strand{}};
  std::size_t match = kNoMatch;
  ScanTally tally;
};

/// The clusters founded so far plus what one read's scan needs of them.
struct ScanState {
  int threshold = 0;
  int band = 0;
  std::vector<Cluster> clusters;
  std::vector<std::uint16_t> rep_hists;  // kHistSize buckets per cluster

  /// True when a lower bound proves d(bases, rep of c) > threshold.
  bool rejects(const Strand& bases, const Slot& slot, std::size_t c) const {
    return length_lower_bound(bases, clusters[c].representative) > threshold ||
           detail::qgram_bound(slot.hist.data(), &rep_hists[c * kHistSize],
                               kHistSize, kScreenQ) > threshold;
  }

  /// Scans clusters [lo, hi) in order and returns the first match (or
  /// kNoMatch), booking pairs into slot.tally up to and including it. Each
  /// block of candidates is screened first, then the survivors run one
  /// SIMD banded-Myers batch.
  std::size_t scan(const Strand& bases, Slot& slot, std::size_t lo,
                   std::size_t hi) const {
    std::array<std::uint8_t, kScreenBlock> rejected;
    std::array<const Strand*, kScreenBlock> survivors;
    std::array<int, kScreenBlock> survivor_dist;
    for (std::size_t base = lo; base < hi; base += kScreenBlock) {
      const std::size_t count = std::min(kScreenBlock, hi - base);
      std::size_t live = 0;
      for (std::size_t i = 0; i < count; ++i) {
        rejected[i] = rejects(bases, slot, base + i);
        if (!rejected[i]) {
          survivors[live++] = &clusters[base + i].representative;
        }
      }
      levenshtein_myers_banded_batch(slot.pattern, survivors.data(), live,
                                     band, survivor_dist.data());
      // Screens past the first match are discarded unbooked.
      std::size_t next_survivor = 0;
      for (std::size_t i = 0; i < count; ++i) {
        ++slot.tally.candidates;
        if (rejected[i]) {
          ++slot.tally.rejected;
          continue;
        }
        slot.tally.dp_cells +=
            myers_cells(bases, clusters[base + i].representative);
        if (survivor_dist[next_survivor++] <= threshold) return base + i;
      }
    }
    return kNoMatch;
  }

  void prepare(const Strand& bases, Slot& slot) const {
    detail::fill_qgram_histogram(bases, kScreenQ, slot.hist);
    slot.pattern.assign(bases);
    slot.match = kNoMatch;
    slot.tally = {};
  }
};

}  // namespace

ClusterResult cluster_reads(const std::vector<Read>& reads,
                            const ClusterParams& params) {
  ICSC_TRACE_SPAN("dna/cluster_reads");
  ScanState state;
  state.threshold = params.distance_threshold;
  state.band = std::max(params.distance_threshold, 0);
  auto& clusters = state.clusters;
  ScanTally tally;
  // Reads go in batches. Each read of a batch scans, concurrently with the
  // others, the clusters founded before the batch; the batch then folds
  // serially in read order, and a read without a match there goes on to
  // the clusters founded within the batch. Every read thus meets the
  // clusters in founding order and stops at its first match, as the serial
  // scan does, so clusters and tally do not depend on the batch width or
  // the thread count.
  std::vector<Slot> slots(8 * core::parallel_threads());
  for (std::size_t first = 0; first < reads.size(); first += slots.size()) {
    const std::size_t count = std::min(slots.size(), reads.size() - first);
    const std::size_t known = clusters.size();
    const std::size_t grain = std::max<std::size_t>(
        1, kPairsPerTask / std::max<std::size_t>(known, 1));
    core::parallel_for(0, count, grain, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const Strand& bases = reads[first + i].bases;
        state.prepare(bases, slots[i]);
        slots[i].match = state.scan(bases, slots[i], 0, known);
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = slots[i];
      const std::size_t r = first + i;
      if (slot.match == kNoMatch) {
        slot.match = state.scan(reads[r].bases, slot, known, clusters.size());
      }
      tally.candidates += slot.tally.candidates;
      tally.rejected += slot.tally.rejected;
      tally.dp_cells += slot.tally.dp_cells;
      if (slot.match != kNoMatch) {
        clusters[slot.match].read_indices.push_back(r);
        continue;
      }
      Cluster fresh;
      fresh.read_indices.push_back(r);
      fresh.representative = reads[r].bases;
      clusters.push_back(std::move(fresh));
      state.rep_hists.insert(state.rep_hists.end(), slot.hist.begin(),
                             slot.hist.end());
    }
  }
  ClusterResult result;
  result.clusters = std::move(clusters);
  result.pair_comparisons = tally.candidates;
  result.dp_cells_updated = tally.dp_cells;
  result.screened_out = tally.rejected;
  ICSC_TRACE_COUNT("dna.pair_comparisons", result.pair_comparisons);
  ICSC_TRACE_COUNT("dna.dp_cells", result.dp_cells_updated);
  ICSC_TRACE_COUNT("dna.screened_out", result.screened_out);
  return result;
}

ClusterResult cluster_reads_reference(const std::vector<Read>& reads,
                                      int distance_threshold) {
  ClusterResult result;
  auto& clusters = result.clusters;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const Strand& bases = reads[r].bases;
    bool joined = false;
    for (auto& cluster : clusters) {
      ++result.pair_comparisons;
      result.dp_cells_updated += dp_cells(bases, cluster.representative);
      if (levenshtein_full(bases, cluster.representative) <=
          distance_threshold) {
        cluster.read_indices.push_back(r);
        joined = true;
        break;
      }
    }
    if (!joined) clusters.push_back({{r}, bases});
  }
  return result;
}

ClusterQuality evaluate_clusters(const ClusterResult& result,
                                 const std::vector<Read>& reads,
                                 std::size_t source_strands) {
  ClusterQuality quality;
  if (result.clusters.empty() || source_strands == 0) return quality;
  std::vector<bool> covered(source_strands, false);
  std::size_t pure = 0;
  for (const auto& cluster : result.clusters) {
    const std::size_t origin = reads[cluster.read_indices.front()].origin;
    bool is_pure = true;
    for (const std::size_t idx : cluster.read_indices) {
      if (reads[idx].origin != origin) {
        is_pure = false;
        break;
      }
    }
    if (is_pure) {
      ++pure;
      covered[origin] = true;
    }
  }
  quality.purity =
      static_cast<double>(pure) / static_cast<double>(result.clusters.size());
  std::size_t covered_count = 0;
  for (const bool c : covered) covered_count += c ? 1 : 0;
  quality.origin_coverage =
      static_cast<double>(covered_count) / static_cast<double>(source_strands);
  return quality;
}

namespace {

/// Votes collected against the medoid coordinate system.
struct Votes {
  // For each medoid position: counts of A/C/G/T seen aligned there, plus
  // deletions (read skips the position).
  std::vector<std::array<int, 4>> base_votes;
  std::vector<int> deletion_votes;
  // For each gap (before position i, i in [0, n]): votes for an inserted
  // base and which base.
  std::vector<std::array<int, 4>> insertion_votes;

  explicit Votes(std::size_t n)
      : base_votes(n, {0, 0, 0, 0}),
        deletion_votes(n, 0),
        insertion_votes(n + 1, {0, 0, 0, 0}) {}
};

/// Aligns `read` to `medoid` by full DP and adds its votes. `dp` is
/// row-major scratch reused across members.
void vote_alignment(const Strand& medoid, const Strand& read, Votes& votes,
                    std::vector<int>& dp) {
  const std::size_t n = medoid.size();
  const std::size_t m = read.size();
  const std::size_t w = m + 1;
  // at(i, j): distance between medoid[0,i) and read[0,j).
  dp.resize((n + 1) * w);
  const auto at = [&](std::size_t i, std::size_t j) -> int& {
    return dp[i * w + j];
  };
  for (std::size_t i = 0; i <= n; ++i) at(i, 0) = static_cast<int>(i);
  for (std::size_t j = 0; j <= m; ++j) at(0, j) = static_cast<int>(j);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const int sub = at(i - 1, j - 1) + (medoid[i - 1] == read[j - 1] ? 0 : 1);
      at(i, j) = std::min({sub, at(i - 1, j) + 1, at(i, j - 1) + 1});
    }
  }
  // Backtrace, preferring diagonal moves (keeps votes aligned on matches).
  std::size_t i = n, j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        at(i, j) == at(i - 1, j - 1) + (medoid[i - 1] == read[j - 1] ? 0 : 1)) {
      votes.base_votes[i - 1][static_cast<std::uint8_t>(read[j - 1])] += 1;
      --i;
      --j;
    } else if (j > 0 && at(i, j) == at(i, j - 1) + 1) {
      // Read has an extra base: insertion in the gap before medoid position i.
      votes.insertion_votes[i][static_cast<std::uint8_t>(read[j - 1])] += 1;
      --j;
    } else {
      votes.deletion_votes[i - 1] += 1;
      --i;
    }
  }
}

}  // namespace

Strand call_consensus(const std::vector<Read>& reads, const Cluster& cluster) {
  const auto& members = cluster.read_indices;
  if (members.empty()) return {};
  if (members.size() == 1) return reads[members.front()].bases;

  // Medoid: member with the minimum total distance to the others (the
  // earliest on ties). Serial: call_all_consensus already fans out over
  // clusters.
  std::size_t medoid_index = members.front();
  long best_total = std::numeric_limits<long>::max();
  for (const std::size_t candidate : members) {
    long total = 0;
    for (const std::size_t other : members) {
      if (other == candidate) continue;
      total += levenshtein_myers(reads[candidate].bases, reads[other].bases);
    }
    if (total < best_total) {
      best_total = total;
      medoid_index = candidate;
    }
  }
  const Strand& medoid = reads[medoid_index].bases;

  Votes votes(medoid.size());
  std::vector<int> dp;
  for (const std::size_t idx : members) {
    vote_alignment(medoid, reads[idx].bases, votes, dp);
  }

  Strand consensus;
  consensus.reserve(medoid.size());
  const int majority = static_cast<int>(members.size()) / 2 + 1;
  auto emit_insertions = [&](std::size_t gap) {
    const auto& iv = votes.insertion_votes[gap];
    const int total = iv[0] + iv[1] + iv[2] + iv[3];
    if (total >= majority) {
      const auto best =
          std::max_element(iv.begin(), iv.end()) - iv.begin();
      consensus.push_back(static_cast<Base>(best));
    }
  };
  for (std::size_t pos = 0; pos < medoid.size(); ++pos) {
    emit_insertions(pos);
    if (votes.deletion_votes[pos] >= majority) continue;  // majority deletes
    const auto& bv = votes.base_votes[pos];
    const auto best = std::max_element(bv.begin(), bv.end()) - bv.begin();
    if (bv[best] > 0) {
      consensus.push_back(static_cast<Base>(best));
    }
  }
  emit_insertions(medoid.size());
  return consensus;
}

std::vector<Strand> call_all_consensus(const std::vector<Read>& reads,
                                       const std::vector<Cluster>& clusters) {
  // Consensus calls are independent per cluster; parallel_map keeps the
  // output in cluster order.
  ICSC_TRACE_SPAN("dna/consensus");
  ICSC_TRACE_COUNT("dna.consensus_calls", clusters.size());
  return core::parallel_map(clusters.size(), 1, [&](std::size_t c) {
    return call_consensus(reads, clusters[c]);
  });
}

}  // namespace icsc::hetero::dna
