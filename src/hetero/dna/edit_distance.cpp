#include "hetero/dna/edit_distance.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "core/simd.hpp"

namespace icsc::hetero::dna {

void MyersPattern::assign(const Strand& pattern) {
  length_ = pattern.size();
  peq_.assign(4 * ((pattern.size() + 63) / 64), 0);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    peq_[(i / 64) * 4 + static_cast<std::uint8_t>(pattern[i])] |=
        std::uint64_t{1} << (i % 64);
  }
}

void levenshtein_myers_banded_batch(const MyersPattern& pattern,
                                    const Strand* const* texts,
                                    std::size_t count, int band, int* out) {
  // Base is a uint8_t enum and a Strand is contiguous, so each text is
  // already the symbol-code array the core kernel consumes. Lanes are
  // independent, so texts go in stack-sized chunks without heap scratch.
  constexpr std::size_t kChunk = 64;
  std::array<const std::uint8_t*, kChunk> ptrs;
  std::array<std::size_t, kChunk> lens;
  for (std::size_t first = 0; first < count; first += kChunk) {
    const std::size_t n = std::min(kChunk, count - first);
    for (std::size_t i = 0; i < n; ++i) {
      ptrs[i] = reinterpret_cast<const std::uint8_t*>(texts[first + i]->data());
      lens[i] = texts[first + i]->size();
    }
    core::simd::myers_banded_batch(pattern.peq(), pattern.blocks(),
                                   pattern.length(), ptrs.data(), lens.data(),
                                   n, band, out + first);
  }
}

int levenshtein_full(const Strand& a, const Strand& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<int> prev(m + 1), curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<int>(i);
    for (std::size_t j = 1; j <= m; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, sub});
    }
    prev.swap(curr);
  }
  return prev[m];
}

int levenshtein_banded(const Strand& a, const Strand& b, int band) {
  const auto n = static_cast<int>(a.size());
  const auto m = static_cast<int>(b.size());
  if (std::abs(n - m) > band) return band + 1;
  const int inf = std::numeric_limits<int>::max() / 2;
  // Row-wise DP restricted to |i - j| <= band.
  std::vector<int> prev(m + 1, inf), curr(m + 1, inf);
  for (int j = 0; j <= std::min(m, band); ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    const int lo = std::max(1, i - band);
    const int hi = std::min(m, i + band);
    std::fill(curr.begin(), curr.end(), inf);
    if (i - band <= 0) curr[0] = i;
    for (int j = lo; j <= hi; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      const int del = prev[j] + 1;   // valid only if |i-1-j| <= band
      const int ins = curr[j - 1] + 1;
      curr[j] = std::min({sub, del, ins});
    }
    prev.swap(curr);
  }
  return std::min(prev[m], band + 1);
}

int levenshtein_myers(const Strand& a, const Strand& b) {
  // Hyyro's block-based formulation of Myers' bit-parallel algorithm.
  // Pattern = a (vertical), text = b (horizontal); 64 pattern rows per block.
  const std::size_t m = a.size();
  if (m == 0) return static_cast<int>(b.size());
  if (b.empty()) return static_cast<int>(m);

  constexpr int kWord = 64;
  const std::size_t blocks = (m + kWord - 1) / kWord;

  // Per-block match masks for each of the four bases.
  std::vector<std::array<std::uint64_t, 4>> peq(blocks, {0, 0, 0, 0});
  for (std::size_t i = 0; i < m; ++i) {
    peq[i / kWord][static_cast<std::uint8_t>(a[i])] |=
        std::uint64_t{1} << (i % kWord);
  }

  std::vector<std::uint64_t> pv(blocks, ~std::uint64_t{0});
  std::vector<std::uint64_t> mv(blocks, 0);
  const std::size_t last = blocks - 1;
  const std::uint64_t score_bit = std::uint64_t{1} << ((m - 1) % kWord);
  int score = static_cast<int>(m);

  for (const Base tc : b) {
    int hin = 1;  // row 0 of the DP matrix increases left to right
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      std::uint64_t eq = peq[blk][static_cast<std::uint8_t>(tc)];
      const std::uint64_t pv_b = pv[blk];
      const std::uint64_t mv_b = mv[blk];
      const std::uint64_t xv = eq | mv_b;
      if (hin < 0) eq |= 1;
      const std::uint64_t xh = (((eq & pv_b) + pv_b) ^ pv_b) | eq;
      std::uint64_t ph = mv_b | ~(xh | pv_b);
      std::uint64_t mh = pv_b & xh;

      int hout = 0;
      if (blk == last) {
        if (ph & score_bit) hout = 1;
        if (mh & score_bit) hout = -1;
      } else {
        if (ph & (std::uint64_t{1} << (kWord - 1))) hout = 1;
        if (mh & (std::uint64_t{1} << (kWord - 1))) hout = -1;
      }

      ph <<= 1;
      mh <<= 1;
      if (hin < 0) {
        mh |= 1;
      } else if (hin > 0) {
        ph |= 1;
      }
      pv[blk] = mh | ~(xv | ph);
      mv[blk] = ph & xv;
      hin = hout;
    }
    score += hin;  // hout of the last block
  }
  return score;
}

int levenshtein_myers_banded(const Strand& a, const Strand& b, int band) {
  const auto n = static_cast<int>(a.size());
  const auto m = static_cast<int>(b.size());
  // Length screen first: cheaper than touching the bit vectors, and the
  // same bound levenshtein_banded applies.
  if (std::abs(n - m) > band) return band + 1;
  if (n == 0 || m == 0) {
    const int d = std::max(n, m);  // |n - m| <= band, so d <= band here
    return d;
  }

  // Hyyro's blocked Myers, as levenshtein_myers, plus per-column early
  // abandon once the band is provably exceeded.
  constexpr int kWord = 64;
  const std::size_t pm = a.size();
  const std::size_t blocks = (pm + kWord - 1) / kWord;
  std::vector<std::array<std::uint64_t, 4>> peq(blocks, {0, 0, 0, 0});
  for (std::size_t i = 0; i < pm; ++i) {
    peq[i / kWord][static_cast<std::uint8_t>(a[i])] |=
        std::uint64_t{1} << (i % kWord);
  }

  std::vector<std::uint64_t> pv(blocks, ~std::uint64_t{0});
  std::vector<std::uint64_t> mv(blocks, 0);
  const std::size_t last = blocks - 1;
  const std::uint64_t score_bit = std::uint64_t{1} << ((pm - 1) % kWord);
  int score = n;

  for (int j = 0; j < m; ++j) {
    const Base tc = b[static_cast<std::size_t>(j)];
    int hin = 1;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      std::uint64_t eq = peq[blk][static_cast<std::uint8_t>(tc)];
      const std::uint64_t pv_b = pv[blk];
      const std::uint64_t mv_b = mv[blk];
      const std::uint64_t xv = eq | mv_b;
      if (hin < 0) eq |= 1;
      const std::uint64_t xh = (((eq & pv_b) + pv_b) ^ pv_b) | eq;
      std::uint64_t ph = mv_b | ~(xh | pv_b);
      std::uint64_t mh = pv_b & xh;

      int hout = 0;
      if (blk == last) {
        if (ph & score_bit) hout = 1;
        if (mh & score_bit) hout = -1;
      } else {
        if (ph & (std::uint64_t{1} << (kWord - 1))) hout = 1;
        if (mh & (std::uint64_t{1} << (kWord - 1))) hout = -1;
      }

      ph <<= 1;
      mh <<= 1;
      if (hin < 0) {
        mh |= 1;
      } else if (hin > 0) {
        ph |= 1;
      }
      pv[blk] = mh | ~(xv | ph);
      mv[blk] = ph & xv;
      hin = hout;
    }
    score += hin;
    // score = d(a, b[0..j+1)); each remaining text character can lower the
    // final distance by at most 1, so once score - remaining > band no
    // completion can land back inside the band.
    const int remaining = m - 1 - j;
    if (score - remaining > band) return band + 1;
  }
  return score <= band ? score : band + 1;
}

}  // namespace icsc::hetero::dna
