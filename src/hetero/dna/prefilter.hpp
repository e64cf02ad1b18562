// Pre-alignment filters for edit-distance clustering (Sec. VI).
//
// "Alternative solutions are based on approximated distance techniques
// between strings [33], [34]" -- Shouji and SneakySnake are pre-alignment
// filters that cheaply reject pairs whose edit distance must exceed a
// threshold, so the expensive DP/bit-parallel kernel only runs on
// candidates. We implement the two standard CPU-friendly filters:
//   - length filter: | |a| - |b| | > threshold rejects immediately,
//   - q-gram filter: two strings within edit distance t share at least
//     max(|a|,|b|) - q + 1 - q*t q-grams (the q-gram lemma); counting
//     4^q-bucket histograms gives a lower bound on the distance.
// Both are *complete* (never reject a true match), which the tests verify.
// cluster_reads (cluster.hpp) screens every candidate pair with both, at
// q = 4, against its distance threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {

/// Lower bound on edit distance from the length difference.
int length_lower_bound(const Strand& a, const Strand& b);

/// q-gram-lemma lower bound on the edit distance: each edit destroys at
/// most q q-grams, so d >= (shared-deficit) / q. Throws core::Error unless
/// q is in [1, 8].
int qgram_lower_bound(const Strand& a, const Strand& b, int q);

namespace detail {

/// 4^q-bucket q-gram histogram of a strand into caller-owned storage, for
/// scans that keep one buffer per read and one per cluster representative
/// so each bound costs one L1 pass instead of a rebuild. q in [1, 8] keeps
/// the table <= 64Ki buckets; unchecked.
void fill_qgram_histogram(const Strand& s, int q,
                          std::vector<std::uint16_t>& hist);

/// The q-gram lower bound on two n-bucket histograms built with the same q:
/// L1(a, b) / (2q); unchecked.
int qgram_bound(const std::uint16_t* a, const std::uint16_t* b, std::size_t n,
                int q);

}  // namespace detail

}  // namespace icsc::hetero::dna
