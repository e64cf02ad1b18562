#include "hetero/dna/prefilter.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/simd.hpp"

namespace icsc::hetero::dna {

namespace detail {

void fill_qgram_histogram(const Strand& s, int q,
                          std::vector<std::uint16_t>& hist) {
  hist.assign(std::size_t{1} << (2 * q), 0);
  if (s.size() < static_cast<std::size_t>(q)) return;
  const std::uint32_t mask = (1u << (2 * q)) - 1;
  std::uint32_t code = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    code = ((code << 2) | static_cast<std::uint8_t>(s[i])) & mask;
    if (i + 1 >= static_cast<std::size_t>(q)) ++hist[code];
  }
}

int qgram_bound(const std::uint16_t* a, const std::uint16_t* b, std::size_t n,
                int q) {
  // L1 distance between histograms; each edit changes at most q q-grams in
  // each string, so |hist_a - hist_b|_1 <= 2 q d  =>  d >= L1 / (2q). The
  // clustering screens spend most of their time in this pass, so it runs
  // on the SIMD lanes (u16 absolute differences, identical mod-2^32 sum).
  const std::uint32_t l1 = core::simd::l1_distance_u16(a, b, n);
  return static_cast<int>(l1) / (2 * q);
}

}  // namespace detail

int length_lower_bound(const Strand& a, const Strand& b) {
  return static_cast<int>(
      std::llabs(static_cast<long long>(a.size()) -
                 static_cast<long long>(b.size())));
}

int qgram_lower_bound(const Strand& a, const Strand& b, int q) {
  if (q < 1 || q > 8) {
    throw core::Error("qgram_lower_bound", "q-gram order must be in [1, 8]",
                      "q=" + std::to_string(q));
  }
  std::vector<std::uint16_t> ha;
  std::vector<std::uint16_t> hb;
  detail::fill_qgram_histogram(a, q, ha);
  detail::fill_qgram_histogram(b, q, hb);
  return detail::qgram_bound(ha.data(), hb.data(), ha.size(), q);
}

}  // namespace icsc::hetero::dna
