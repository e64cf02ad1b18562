#include "hetero/dna/prefilter.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {
namespace {

Strand random_strand(std::size_t n, icsc::core::Rng& rng) {
  Strand out(n);
  for (auto& b : out) b = static_cast<Base>(rng.below(4));
  return out;
}

TEST(LengthBound, NeverExceedsTrueDistance) {
  icsc::core::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = random_strand(20 + rng.below(80), rng);
    const auto b = random_strand(20 + rng.below(80), rng);
    EXPECT_LE(length_lower_bound(a, b), levenshtein_full(a, b));
  }
}

TEST(QgramBound, NeverExceedsTrueDistance) {
  icsc::core::Rng rng(5);
  ChannelParams noise;
  noise.substitution_rate = 0.05;
  noise.insertion_rate = 0.02;
  noise.deletion_rate = 0.02;
  for (const int q : {2, 3, 4, 6}) {
    for (int trial = 0; trial < 60; ++trial) {
      const auto a = random_strand(50 + rng.below(100), rng);
      const auto b = corrupt_strand(a, noise, rng);
      EXPECT_LE(qgram_lower_bound(a, b, q), levenshtein_full(a, b))
          << "q=" << q;
    }
    // Also for unrelated strings (large distances).
    for (int trial = 0; trial < 20; ++trial) {
      const auto a = random_strand(80, rng);
      const auto b = random_strand(80, rng);
      EXPECT_LE(qgram_lower_bound(a, b, q), levenshtein_full(a, b));
    }
  }
}

TEST(QgramBound, DetectsDissimilarStrings) {
  icsc::core::Rng rng(7);
  int positive = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_strand(100, rng);
    const auto b = random_strand(100, rng);
    if (qgram_lower_bound(a, b, 4) > 10) ++positive;
  }
  // Random 100-nt strands are far apart; the filter must usually see it.
  EXPECT_GT(positive, 35);
}

TEST(QgramBound, ZeroForIdenticalStrings) {
  icsc::core::Rng rng(9);
  const auto a = random_strand(120, rng);
  EXPECT_EQ(qgram_lower_bound(a, a, 4), 0);
}

ReadSet make_reads(std::uint64_t seed) {
  icsc::core::Rng rng(seed);
  std::vector<std::uint8_t> payload(768);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  const auto set = encode_payload(payload, 16);
  ChannelParams channel;
  channel.substitution_rate = 0.01;
  channel.insertion_rate = 0.005;
  channel.deletion_rate = 0.005;
  channel.mean_coverage = 8.0;
  channel.seed = seed + 1;
  return simulate_channel(set.strands, channel);
}

void expect_same_clusters(const std::vector<Cluster>& want,
                          const std::vector<Cluster>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(got[c].read_indices, want[c].read_indices) << "cluster " << c;
    EXPECT_EQ(got[c].representative, want[c].representative)
        << "cluster " << c;
  }
}

TEST(FilteredClustering, SameClustersAsUnfiltered) {
  // Completeness: the filters never reject a true match and the band never
  // cuts a distance within the threshold, so the greedy assignment
  // sequence -- and hence the clusters -- equal the unscreened full-DP
  // loop's, on strands longer than one 64-bit Myers word.
  const auto reads = make_reads(11);
  const ClusterParams params;
  const auto screened = cluster_reads(reads.reads, params);
  const auto plain =
      cluster_reads_reference(reads.reads, params.distance_threshold);
  expect_same_clusters(plain.clusters, screened.clusters);
  EXPECT_EQ(screened.pair_comparisons, plain.pair_comparisons);
  EXPECT_EQ(plain.screened_out, 0u);
}

TEST(FilteredClustering, FiltersMostCandidatePairs) {
  const auto reads = make_reads(13);
  const ClusterParams params;
  const auto screened = cluster_reads(reads.reads, params);
  EXPECT_GT(screened.pair_comparisons, 0u);
  const double filter_rate = static_cast<double>(screened.screened_out) /
                             static_cast<double>(screened.pair_comparisons);
  // Most cross-cluster candidates are dissimilar -> rejected cheaply.
  EXPECT_GT(filter_rate, 0.7);
  // And the exact kernel runs far fewer times than the unscreened path.
  const auto plain =
      cluster_reads_reference(reads.reads, params.distance_threshold);
  EXPECT_LT(screened.pair_comparisons - screened.screened_out,
            plain.pair_comparisons / 2);
  EXPECT_LT(screened.dp_cells_updated, plain.dp_cells_updated);
}

TEST(FilteredClustering, ParallelScanBitIdenticalToSerial) {
  // The read-batched parallel scan must reproduce the serial greedy
  // clustering exactly -- assignments AND work counters.
  core::set_parallel_threads(4);  // real pool even on 1-core hosts
  const auto reads = make_reads(19);
  const ClusterParams params;
  ClusterResult serial;
  {
    core::ScopedSerial guard;
    serial = cluster_reads(reads.reads, params);
  }
  const auto parallel = cluster_reads(reads.reads, params);
  core::set_parallel_threads(0);

  EXPECT_EQ(parallel.pair_comparisons, serial.pair_comparisons);
  EXPECT_EQ(parallel.screened_out, serial.screened_out);
  EXPECT_EQ(parallel.dp_cells_updated, serial.dp_cells_updated);
  expect_same_clusters(serial.clusters, parallel.clusters);
}

TEST(QgramBound, RejectsInvalidInputsInEveryBuild) {
  // Thrown errors, not asserts: these hold in Release builds too.
  icsc::core::Rng rng(21);
  const auto a = random_strand(40, rng);
  for (const int q : {-1, 0, 9, 16, 32}) {
    EXPECT_THROW(qgram_lower_bound(a, a, q), core::Error) << "q=" << q;
  }
}

// ~1k reads from 200 random 24-nt origins: the cluster count K reaches the
// hundreds, so the read-batched scan's batches fan out over the pool, while
// the quadratic full-DP reference stays cheap enough for sanitizer builds. In
// channel order (grouped by origin) most reads join a cluster founded
// within their own batch; shuffled, most match one founded before it.
std::vector<Read> fanout_reads(bool shuffled) {
  icsc::core::Rng rng(29);
  std::vector<Strand> origins(200);
  for (auto& s : origins) s = random_strand(24, rng);
  ChannelParams channel;
  channel.substitution_rate = 0.01;
  channel.insertion_rate = 0.003;
  channel.deletion_rate = 0.003;
  channel.mean_coverage = 5.0;
  channel.seed = 31;
  auto reads = simulate_channel(origins, channel).reads;
  if (shuffled) {
    for (std::size_t i = reads.size(); i > 1; --i) {
      std::swap(reads[i - 1], reads[rng.below(i)]);
    }
  }
  return reads;
}

/// The work counters of one clustering run.
std::vector<std::uint64_t> counters(const ClusterResult& r) {
  return {r.pair_comparisons, r.dp_cells_updated, r.screened_out};
}

TEST(ReadBatchedScan, MatchesReferenceAcrossThresholdsAndThreadCounts) {
  // Under ScopedSerial and on 1..4 threads, in channel and in shuffled
  // order: clusters and representatives equal the unscreened full-DP
  // greedy loop, and the work counters do not move with the thread count.
  // The 24-nt origins stay far apart at threshold 4; -1 merges nothing and
  // 30 lets most pairs through the screens.
  for (const bool shuffled : {false, true}) {
    SCOPED_TRACE(shuffled ? "shuffled" : "channel order");
    const auto reads = fanout_reads(shuffled);
    ASSERT_GE(reads.size(), 900u);
    for (const int threshold : {-1, 0, 4, 10, 30}) {
      SCOPED_TRACE(threshold);
      const ClusterParams params{threshold};
      const auto want = cluster_reads_reference(reads, threshold);
      ClusterResult serial;
      {
        core::ScopedSerial guard;
        serial = cluster_reads(reads, params);
      }
      if (threshold == 4) {
        ASSERT_GE(serial.clusters.size(), 150u);  // batches fan out
      }
      expect_same_clusters(want.clusters, serial.clusters);
      EXPECT_EQ(serial.pair_comparisons, want.pair_comparisons);
      for (const std::size_t threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(threads);
        core::set_parallel_threads(threads);
        const auto got = cluster_reads(reads, params);
        expect_same_clusters(serial.clusters, got.clusters);
        EXPECT_EQ(counters(got), counters(serial));
      }
      core::set_parallel_threads(0);
    }
  }
}

}  // namespace
}  // namespace icsc::hetero::dna
