#include "hetero/dna/prefilter.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "hetero/dna/channel.hpp"
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

TEST(FilteredClustering, SameClustersAsUnfiltered) {
  const auto reads = make_reads(11);
  ClusterParams params;
  const auto plain = cluster_reads(reads.reads, params);
  const auto filtered =
      cluster_reads_filtered(reads.reads, params, FilterParams{});
  // Completeness: the filters never reject a true match, so the greedy
  // assignment sequence -- and hence the clusters -- are identical.
  ASSERT_EQ(filtered.clusters.clusters.size(), plain.clusters.size());
  for (std::size_t c = 0; c < plain.clusters.size(); ++c) {
    EXPECT_EQ(filtered.clusters.clusters[c].read_indices,
              plain.clusters[c].read_indices);
  }
}

TEST(FilteredClustering, FiltersMostCandidatePairs) {
  const auto reads = make_reads(13);
  ClusterParams params;
  const auto filtered =
      cluster_reads_filtered(reads.reads, params, FilterParams{});
  EXPECT_GT(filtered.candidates, 0u);
  EXPECT_EQ(filtered.candidates,
            filtered.filtered_out + filtered.exact_evaluations);
  const double filter_rate =
      static_cast<double>(filtered.filtered_out) /
      static_cast<double>(filtered.candidates);
  // Most cross-cluster candidates are dissimilar -> rejected cheaply.
  EXPECT_GT(filter_rate, 0.7);
  // And the exact kernel runs far fewer times than the unfiltered path.
  const auto plain = cluster_reads(reads.reads, params);
  EXPECT_LT(filtered.exact_evaluations, plain.pair_comparisons / 2);
}

TEST(FilteredClustering, ParallelScanBitIdenticalToSerial) {
  // The speculative parallel candidate scan must reproduce the serial
  // greedy clustering exactly -- assignments AND work counters.
  core::set_parallel_threads(4);  // real pool even on 1-core hosts
  const auto reads = make_reads(19);
  ClusterParams params;
  ClusterResult serial_plain;
  FilteredClusterResult serial_filtered;
  {
    core::ScopedSerial guard;
    serial_plain = cluster_reads(reads.reads, params);
    serial_filtered =
        cluster_reads_filtered(reads.reads, params, FilterParams{});
  }
  const auto parallel_plain = cluster_reads(reads.reads, params);
  const auto parallel_filtered =
      cluster_reads_filtered(reads.reads, params, FilterParams{});
  core::set_parallel_threads(0);

  EXPECT_EQ(parallel_plain.pair_comparisons, serial_plain.pair_comparisons);
  EXPECT_EQ(parallel_plain.dp_cells_updated, serial_plain.dp_cells_updated);
  ASSERT_EQ(parallel_plain.clusters.size(), serial_plain.clusters.size());
  for (std::size_t c = 0; c < serial_plain.clusters.size(); ++c) {
    EXPECT_EQ(parallel_plain.clusters[c].read_indices,
              serial_plain.clusters[c].read_indices);
    EXPECT_EQ(parallel_plain.clusters[c].representative,
              serial_plain.clusters[c].representative);
  }
  EXPECT_EQ(parallel_filtered.candidates, serial_filtered.candidates);
  EXPECT_EQ(parallel_filtered.filtered_out, serial_filtered.filtered_out);
  EXPECT_EQ(parallel_filtered.exact_evaluations,
            serial_filtered.exact_evaluations);
  ASSERT_EQ(parallel_filtered.clusters.clusters.size(),
            serial_filtered.clusters.clusters.size());
  for (std::size_t c = 0; c < serial_filtered.clusters.clusters.size(); ++c) {
    EXPECT_EQ(parallel_filtered.clusters.clusters[c].read_indices,
              serial_filtered.clusters.clusters[c].read_indices);
  }
}

TEST(FilteredClustering, LengthOnlyFilterStillComplete) {
  const auto reads = make_reads(17);
  ClusterParams params;
  FilterParams length_only;
  length_only.use_qgram = false;
  const auto plain = cluster_reads(reads.reads, params);
  const auto filtered =
      cluster_reads_filtered(reads.reads, params, length_only);
  EXPECT_EQ(filtered.clusters.clusters.size(), plain.clusters.size());
}

TEST(QgramBound, RejectsInvalidInputsInEveryBuild) {
  // Thrown errors, not asserts: these hold in Release builds too.
  icsc::core::Rng rng(21);
  const auto a = random_strand(40, rng);
  for (const int q : {-1, 0, 9, 16, 32}) {
    EXPECT_THROW(qgram_histogram(a, q), core::Error) << "q=" << q;
    EXPECT_THROW(qgram_lower_bound(a, a, q), core::Error) << "q=" << q;
  }
  const auto h3 = qgram_histogram(a, 3);
  const auto h4 = qgram_histogram(a, 4);
  EXPECT_THROW(qgram_histogram_lower_bound(h3, h4, 4), core::Error);
  EXPECT_THROW(qgram_histogram_lower_bound(h4, h4, 0), core::Error);
  EXPECT_EQ(qgram_histogram_lower_bound(h4, h4, 4), 0);
}

TEST(FilteredClustering, ValidatesQgramOrderOnEntry) {
  const auto reads = make_reads(23);
  const ClusterParams params;
  FilterParams bad;
  bad.q = 16;
  EXPECT_THROW(cluster_reads_filtered(reads.reads, params, bad), core::Error);
  // q is unused without the q-gram filter.
  bad.use_qgram = false;
  EXPECT_NO_THROW(cluster_reads_filtered(reads.reads, params, bad));
  // ClusterParams::screen_q > 8 disables the q-gram screen, as 0 does.
  ClusterParams large_q;
  large_q.screen_q = 16;
  ClusterParams no_qgram;
  no_qgram.screen_q = 0;
  const auto got = cluster_reads(reads.reads, large_q);
  const auto want = cluster_reads(reads.reads, no_qgram);
  EXPECT_EQ(got.clusters.size(), want.clusters.size());
  EXPECT_EQ(got.pair_comparisons, want.pair_comparisons);
  EXPECT_EQ(got.screened_out, want.screened_out);
  EXPECT_EQ(got.dp_cells_updated, want.dp_cells_updated);
}

// ~2k reads from 200 random 24-nt origins: the cluster count K reaches the
// hundreds, so the read-batched scan's batches fan out over the pool. In
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
  channel.mean_coverage = 11.0;
  channel.seed = 31;
  auto reads = simulate_channel(origins, channel).reads;
  if (shuffled) {
    for (std::size_t i = reads.size(); i > 1; --i) {
      std::swap(reads[i - 1], reads[rng.below(i)]);
    }
  }
  return reads;
}

/// A threshold the 24-nt origins stay far apart under, and a band and
/// q-gram order at which the lower bounds reject most cross-origin pairs.
ClusterParams fanout_params(DistanceKernel kernel, int band) {
  ClusterParams params;
  params.distance_threshold = 4;
  params.band = band;
  params.kernel = kernel;
  params.screen_q = 3;
  return params;
}

/// The plain serial greedy star clustering, one banded DP per pair.
std::vector<Cluster> serial_greedy(const std::vector<Read>& reads,
                                   int threshold, int band) {
  std::vector<Cluster> clusters;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    bool joined = false;
    for (auto& cluster : clusters) {
      if (levenshtein_banded(reads[r].bases, cluster.representative, band) <=
          threshold) {
        cluster.read_indices.push_back(r);
        joined = true;
        break;
      }
    }
    if (!joined) clusters.push_back({{r}, reads[r].bases});
  }
  return clusters;
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

/// Clusters plus every work counter of one clustering run.
using Outcome = std::pair<std::vector<Cluster>, std::vector<std::uint64_t>>;

/// Runs `run` under ScopedSerial and on 1..4 threads, in channel and in
/// shuffled order: clusters and counters must not move, and the clusters
/// must equal the plain serial greedy loop.
void expect_fanout_identical(
    const ClusterParams& params,
    const std::function<Outcome(const std::vector<Read>&)>& run) {
  for (const bool shuffled : {false, true}) {
    SCOPED_TRACE(shuffled ? "shuffled" : "channel order");
    const auto reads = fanout_reads(shuffled);
    ASSERT_GE(reads.size(), 2000u);
    Outcome serial;
    {
      core::ScopedSerial guard;
      serial = run(reads);
    }
    ASSERT_GE(serial.first.size(), 150u);
    // Band = threshold decides "within threshold" exactly.
    expect_same_clusters(serial_greedy(reads, params.distance_threshold,
                                       params.distance_threshold),
                         serial.first);
    for (const std::size_t threads : {1, 2, 3, 4}) {
      SCOPED_TRACE(threads);
      core::set_parallel_threads(threads);
      const Outcome got = run(reads);
      expect_same_clusters(serial.first, got.first);
      EXPECT_EQ(got.second, serial.second);
    }
    core::set_parallel_threads(0);
  }
}

void expect_plain_fanout_identical(const ClusterParams& params) {
  expect_fanout_identical(params, [&](const std::vector<Read>& reads) {
    auto r = cluster_reads(reads, params);
    return Outcome{std::move(r.clusters),
                   {r.pair_comparisons, r.dp_cells_updated, r.screened_out}};
  });
}

TEST(ReadBatchedScan, ScreenedMyersIdenticalAcrossThreadCounts) {
  expect_plain_fanout_identical(
      fanout_params(DistanceKernel::kScreenedMyers, 4));
}

TEST(ReadBatchedScan, BandedDpIdenticalAcrossThreadCounts) {
  expect_plain_fanout_identical(fanout_params(DistanceKernel::kBandedDp, 4));
}

TEST(ReadBatchedScan, FullDpIdenticalAcrossThreadCounts) {
  expect_plain_fanout_identical(fanout_params(DistanceKernel::kBandedDp, 0));
}

TEST(ReadBatchedScan, FilteredIdenticalAcrossThreadCounts) {
  for (const auto kernel :
       {DistanceKernel::kScreenedMyers, DistanceKernel::kBandedDp}) {
    const ClusterParams params = fanout_params(kernel, 4);
    FilterParams filter;
    filter.q = 3;
    expect_fanout_identical(params, [&](const std::vector<Read>& reads) {
      auto r = cluster_reads_filtered(reads, params, filter);
      return Outcome{std::move(r.clusters.clusters),
                     {r.candidates, r.filtered_out, r.exact_evaluations,
                      r.clusters.pair_comparisons,
                      r.clusters.dp_cells_updated}};
    });
  }
}

}  // namespace
}  // namespace icsc::hetero::dna
