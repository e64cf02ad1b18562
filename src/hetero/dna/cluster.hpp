// Read clustering and consensus calling (Sec. VI, Fig. 6b "reads clustering"
// and "consensus & decoding").
//
// Decoding DNA storage requires grouping the sequencer's reads by source
// strand ("Clustering Billions of Reads for DNA Data Storage" [32]) and
// calling a consensus strand per cluster. We implement greedy star
// clustering with an edit-distance threshold -- the kernel the FPGA
// accelerator of [35] speeds up -- and an alignment-based consensus voter.
#pragma once

#include <cstdint>
#include <vector>

#include "hetero/dna/channel.hpp"
#include "hetero/dna/edit_distance.hpp"

namespace icsc::hetero::dna {

struct ClusterParams {
  int distance_threshold = 10;  // join a cluster if d(read, rep) <= this
};

struct Cluster {
  std::vector<std::size_t> read_indices;  // into the ReadSet
  Strand representative;                  // first read assigned
};

struct ClusterResult {
  std::vector<Cluster> clusters;
  std::uint64_t pair_comparisons = 0;  // (read, representative) pairs met
  std::uint64_t dp_cells_updated = 0;  // exact-kernel DP work (CUPS numerator)
  /// Pairs a lower bound alone rejected (counted in pair_comparisons, but
  /// no exact-kernel cells were updated for them).
  std::uint64_t screened_out = 0;
};

/// Greedy star clustering: each read, in order, joins the first cluster (in
/// founding order) whose representative is within the threshold, else
/// founds a new cluster. Each pair first meets the length and q-gram lower
/// bounds of prefilter.hpp (the pre-alignment filters of [33], [34]); a
/// pair whose bound exceeds the threshold never joins and skips the exact
/// kernel. Survivors run banded Myers with band = max(threshold, 0): the
/// banded contract is exact whenever the distance is <= band, so every
/// "within threshold" decision matches full DP. Clusters and counters do
/// not depend on the thread count or the SIMD ISA.
ClusterResult cluster_reads(const std::vector<Read>& reads,
                            const ClusterParams& params);

/// The plain serial greedy loop, one full-DP distance per pair and no
/// screen, retained as the equivalence oracle for tests and the old-path
/// baseline for the benches. Same clusters and pair_comparisons as
/// cluster_reads; dp_cells_updated counts full-matrix cells; screened_out
/// stays 0.
ClusterResult cluster_reads_reference(const std::vector<Read>& reads,
                                      int distance_threshold);

/// Fraction of clusters whose member reads all share one origin strand
/// (purity) and fraction of origins recovered by at least one pure cluster.
struct ClusterQuality {
  double purity = 0.0;
  double origin_coverage = 0.0;
};

ClusterQuality evaluate_clusters(const ClusterResult& result,
                                 const std::vector<Read>& reads,
                                 std::size_t source_strands);

/// Alignment-based consensus: every member read is aligned to the medoid
/// candidate and votes per medoid position (substitution votes, deletion
/// votes, insertion votes after a position); the majority outcome at each
/// position yields the consensus strand. Exact recovery is expected at low
/// error rates with >= 3 member reads.
Strand call_consensus(const std::vector<Read>& reads, const Cluster& cluster);

/// Convenience: consensus for every cluster.
std::vector<Strand> call_all_consensus(const std::vector<Read>& reads,
                                       const std::vector<Cluster>& clusters);

}  // namespace icsc::hetero::dna
