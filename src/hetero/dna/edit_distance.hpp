// Levenshtein (edit) distance kernels (Sec. VI, Fig. 6).
//
// "The similarity index is determined using the edit distance, also known
// as the Levenshtein distance [27]" and "the computations are in the
// context of bitwise operations", which motivates the FPGA accelerator of
// [35]. Three CPU kernels are provided, in increasing sophistication:
//   - full dynamic programming (the reference, O(nm) cells),
//   - banded DP (exact when the distance fits the band, O(n*band)),
//   - Myers/Hyyro bit-parallel (64 cells per machine word, the algorithm
//     the GPU work [29] and FPGA designs [28], [31] parallelise).
// All three are cross-validated against each other in the test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {

/// Exact edit distance by full DP (two-row).
int levenshtein_full(const Strand& a, const Strand& b);

/// Banded DP: exact if the true distance is <= band; otherwise returns
/// band + 1 (a lower bound stating "greater than band"). band >= 0.
int levenshtein_banded(const Strand& a, const Strand& b, int band);

/// Myers bit-parallel edit distance (blocked for patterns longer than 64).
int levenshtein_myers(const Strand& a, const Strand& b);

/// Banded Myers/Hyyro: the exact contract of levenshtein_banded (exact
/// result when the true distance is <= band, band + 1 otherwise; band >= 0)
/// computed bit-parallel. Columns early-abandon as soon as the running
/// score can no longer come back under the band -- each remaining text
/// character changes the score by at most one, so
/// `score - remaining > band` proves the final distance exceeds it.
int levenshtein_myers_banded(const Strand& a, const Strand& b, int band);

/// Prebuilt Myers match-mask table (peq) for one pattern strand, reusable
/// across many banded comparisons against different texts. Building it is
/// the only per-pattern work of the bit-parallel kernel, so clustering
/// passes construct one per read and amortise it over every candidate.
class MyersPattern {
public:
  explicit MyersPattern(const Strand& pattern) { assign(pattern); }

  /// Rebuilds the table for `pattern`, reusing the storage.
  void assign(const Strand& pattern);

  std::size_t length() const { return length_; }
  std::size_t blocks() const { return peq_.size() / 4; }
  const std::uint64_t* peq() const { return peq_.data(); }

private:
  std::size_t length_ = 0;
  std::vector<std::uint64_t> peq_;  // [block * 4 + base], 64 rows per block
};

/// Batched levenshtein_myers_banded: out[i] is exactly what
/// levenshtein_myers_banded(pattern, *texts[i], band) returns, for every i
/// in [0, count). The texts ride the SIMD lanes of core/simd.hpp (with a
/// scalar fallback), so screen survivors are evaluated N at a time while
/// every lane still follows the scalar column recurrence bit-for-bit.
void levenshtein_myers_banded_batch(const MyersPattern& pattern,
                                    const Strand* const* texts,
                                    std::size_t count, int band, int* out);

/// DP cells a Myers bit-parallel computation touches per text column:
/// every 64-cell word of the pattern is updated whole. The CUPS numerator
/// the screened clustering path books per exact evaluation.
inline std::uint64_t myers_cells(const Strand& pattern, const Strand& text) {
  const std::uint64_t blocks = (pattern.size() + 63) / 64;
  return 64 * blocks * static_cast<std::uint64_t>(text.size());
}

/// Number of DP cell updates a full-matrix computation performs; the unit
/// behind the paper's TCUPS (tera cell updates per second) figure of merit.
inline std::uint64_t dp_cells(const Strand& a, const Strand& b) {
  return static_cast<std::uint64_t>(a.size()) * b.size();
}

}  // namespace icsc::hetero::dna
