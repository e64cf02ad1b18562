// The one greedy star-clustering scan behind cluster_reads and
// cluster_reads_filtered (internal to hetero/dna; not a public API).
//
// Each entry point supplies its own reject rule (lower bounds against the
// band, or against the threshold) and maps the shared tally onto its own
// result counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hetero/dna/cluster.hpp"

namespace icsc::hetero::dna::detail {

/// Lower-bound screen run on each candidate pair before the exact kernel.
/// A rejected pair skips the exact kernel and takes `rejected_distance`.
struct RejectRule {
  bool use_length = false;  // reject when | |a| - |b| | > bound
  int q = 0;                // q-gram order of the histogram bound; 0 = off
  int bound = 0;
  int rejected_distance = 0;
};

/// Work booked up to and including each read's first match, exactly as the
/// serial early-exit scan books it.
struct ScanTally {
  std::uint64_t candidates = 0;  // pairs considered
  std::uint64_t rejected = 0;    // of which resolved by the reject rule
  std::uint64_t dp_cells = 0;    // exact-kernel DP cells
};

/// Greedy star clustering: each read, in order, joins the first cluster
/// (in founding order) whose representative is within
/// params.distance_threshold, else founds a new cluster. The exact kernel
/// is banded Myers when params.band > 0 and params.kernel is
/// kScreenedMyers, banded DP when params.band > 0, full DP otherwise.
/// Output and tally do not depend on the thread count.
std::vector<Cluster> greedy_scan(const std::vector<Read>& reads,
                                 const ClusterParams& params,
                                 const RejectRule& rule, ScanTally& tally);

/// qgram_histogram into caller-owned storage (resized to 4^q buckets).
/// q in [1, 8]; unchecked.
void fill_qgram_histogram(const Strand& s, int q,
                          std::vector<std::uint16_t>& hist);

/// qgram_histogram_lower_bound on two n-bucket histograms; unchecked.
int qgram_bound(const std::uint16_t* a, const std::uint16_t* b, std::size_t n,
                int q);

}  // namespace icsc::hetero::dna::detail
