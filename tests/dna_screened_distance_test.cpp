// Equivalence tests for the two-stage DNA distance path: the banded
// Myers/Hyyro bit-parallel kernel must honour the levenshtein_banded
// contract on randomized strands (exact distance when <= band, band + 1
// otherwise), the q-gram screen must stay a lower bound, and the screened
// clustering must not depend on the SIMD ISA. cluster_reads against the
// full-DP reference lives in dna_prefilter_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/simd.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/edit_distance.hpp"
#include "hetero/dna/encoding.hpp"
#include "hetero/dna/prefilter.hpp"

namespace dna = icsc::hetero::dna;
namespace core = icsc::core;

namespace {

dna::Strand random_strand(std::mt19937& rng, std::size_t length) {
  std::uniform_int_distribution<int> base(0, 3);
  dna::Strand s(length);
  for (auto& b : s) b = static_cast<dna::Base>(base(rng));
  return s;
}

/// Random strands plus mutated copies: a mix of near pairs (within band)
/// and far pairs (unrelated strands, band exceeded).
std::vector<dna::Strand> strand_pool(std::mt19937& rng) {
  std::vector<dna::Strand> pool;
  std::uniform_int_distribution<int> length(0, 96);
  for (int i = 0; i < 24; ++i) pool.push_back(random_strand(rng, length(rng)));
  dna::ChannelParams noisy;
  noisy.substitution_rate = 0.05;
  noisy.insertion_rate = 0.02;
  noisy.deletion_rate = 0.02;
  core::Rng channel_rng(99);
  for (int i = 0; i < 8; ++i) {
    pool.push_back(dna::corrupt_strand(pool[i], noisy, channel_rng));
  }
  return pool;
}

void expect_identical(const dna::ClusterResult& a, const dna::ClusterResult& b) {
  EXPECT_EQ(a.pair_comparisons, b.pair_comparisons);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].read_indices, b.clusters[c].read_indices)
        << "cluster " << c;
    EXPECT_EQ(a.clusters[c].representative, b.clusters[c].representative)
        << "cluster " << c;
  }
}

dna::ReadSet workload(std::uint64_t seed) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::vector<dna::Strand> strands;
  for (int i = 0; i < 24; ++i) strands.push_back(random_strand(rng, 80));
  dna::ChannelParams params;
  params.mean_coverage = 5.0;
  params.seed = seed;
  return dna::simulate_channel(strands, params);
}

}  // namespace

TEST(ScreenedDistance, MyersBandedMatchesBandedContractOnRandomPairs) {
  std::mt19937 rng(2026);
  const auto pool = strand_pool(rng);
  for (const int band : {1, 4, 12, 40}) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i; j < pool.size(); ++j) {
        const int full = dna::levenshtein_full(pool[i], pool[j]);
        const int expected = full <= band ? full : band + 1;
        ASSERT_EQ(dna::levenshtein_myers_banded(pool[i], pool[j], band),
                  expected)
            << "pair (" << i << ", " << j << ") band " << band << " |a|="
            << pool[i].size() << " |b|=" << pool[j].size();
        ASSERT_EQ(dna::levenshtein_banded(pool[i], pool[j], band), expected)
            << "banded DP diverged from full DP at pair (" << i << ", " << j
            << ") band " << band;
      }
    }
  }
}

TEST(ScreenedDistance, MyersBandedHandlesEmptyAndDegenerate) {
  const dna::Strand empty;
  const dna::Strand acgt = dna::strand_from_string("ACGT");
  EXPECT_EQ(dna::levenshtein_myers_banded(empty, empty, 3), 0);
  EXPECT_EQ(dna::levenshtein_myers_banded(empty, acgt, 4), 4);
  EXPECT_EQ(dna::levenshtein_myers_banded(acgt, empty, 4), 4);
  // Length difference alone exceeds the band.
  EXPECT_EQ(dna::levenshtein_myers_banded(empty, acgt, 3), 4);
  EXPECT_EQ(dna::levenshtein_myers_banded(acgt, empty, 3), 4);
  EXPECT_EQ(dna::levenshtein_myers_banded(acgt, acgt, 1), 0);
  // Identical long strands cross a 64-bit word boundary.
  const dna::Strand longer = dna::strand_from_string(
      std::string(70, 'A') + std::string(70, 'C'));
  EXPECT_EQ(dna::levenshtein_myers_banded(longer, longer, 2), 0);
}

TEST(ScreenedDistance, QgramHistogramBoundNeverExceedsTrueDistance) {
  std::mt19937 rng(7);
  const auto pool = strand_pool(rng);
  for (const int q : {2, 4}) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      std::vector<std::uint16_t> hi;
      dna::detail::fill_qgram_histogram(pool[i], q, hi);
      for (std::size_t j = i; j < pool.size(); ++j) {
        std::vector<std::uint16_t> hj;
        dna::detail::fill_qgram_histogram(pool[j], q, hj);
        const int bound =
            dna::detail::qgram_bound(hi.data(), hj.data(), hi.size(), q);
        const int exact = dna::levenshtein_full(pool[i], pool[j]);
        ASSERT_LE(bound, exact)
            << "q-gram bound overestimated pair (" << i << ", " << j
            << ") at q=" << q;
      }
    }
  }
}

TEST(ScreenedDistance, IsaSweepClusteringBitIdentical) {
  // The lane-batched Myers kernel and the SIMD q-gram screen must yield the
  // same clusters and the same screening counters on every supported ISA as
  // a forced-scalar run.
  namespace simd = core::simd;
  const auto reads = workload(23);
  const dna::ClusterParams screened;
  simd::set_active_isa(simd::Isa::kScalar);
  const auto oracle = dna::cluster_reads(reads.reads, screened);
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse4,
                              simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    ASSERT_EQ(simd::set_active_isa(isa), isa);
    const auto got = dna::cluster_reads(reads.reads, screened);
    expect_identical(oracle, got);
    EXPECT_EQ(oracle.screened_out, got.screened_out)
        << simd::isa_name(isa);
    EXPECT_EQ(oracle.dp_cells_updated, got.dp_cells_updated)
        << simd::isa_name(isa);
  }
  simd::set_active_isa(simd::detected_isa());
}
