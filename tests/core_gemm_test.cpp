// Packed-panel fp32 GEMM (core::simd::gemm_f32) against the retained
// scalar dot-product loop (gemm_reference), bit for bit: every supported
// ISA x {ScopedSerial, 1, 2, 3, 4 threads}, on ragged shapes (m % 4 != 0,
// n % 16 != 0, k = 1, k = 0), strided A and C views, both B layouts the
// transformer packs, and the bf16 store on and off.
#include "core/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"

namespace icsc::core::simd {
namespace {

std::vector<Isa> supported_isas() {
  std::vector<Isa> isas{Isa::kScalar};
  for (const Isa isa : {Isa::kSse4, Isa::kAvx2, Isa::kNeon}) {
    if (isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Restores the auto-detected ISA and the default pool size when a sweep
/// finishes (tests in one binary share both).
struct SweepGuard {
  ~SweepGuard() {
    set_active_isa(detected_isa());
    set_parallel_threads(0);
  }
};

/// 0 = ScopedSerial, otherwise the total pool concurrency.
const std::size_t kThreadSettings[] = {0, 1, 2, 3, 4};

std::string thread_label(std::size_t threads) {
  return threads == 0 ? "serial" : std::to_string(threads) + " threads";
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

struct Shape {
  std::size_t m, k, n;
};

/// One GEMM problem: A with row stride lda >= k, B unpacked in either
/// layout, C with row stride ldc >= n. Padding holds a sentinel NaN, so a
/// stray read poisons an output and a stray write shows in C's padding.
struct Problem {
  Shape shape;
  bool b_transposed = false;  // B stored as a [n, k] weight (C = A W^T)
  bool bf16 = false;
  std::size_t lda = 0, ldc = 0;
  std::vector<float> a, b;
  std::size_t b_row_stride = 0, b_col_stride = 0;
  std::vector<float> packed;
  std::vector<float> expected;  // gemm_reference output, ldc-strided

  Problem(Shape s, std::size_t a_pad, std::size_t c_pad, bool transposed,
          bool bf16_store, std::uint64_t seed)
      : shape(s), b_transposed(transposed), bf16(bf16_store),
        lda(s.k + a_pad), ldc(s.n + c_pad) {
    const float sentinel = std::numeric_limits<float>::quiet_NaN();
    a.assign(s.m * lda, sentinel);
    const auto values = random_floats(s.m * s.k + s.k * s.n, seed);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t p = 0; p < s.k; ++p) {
        a[i * lda + p] = values[i * s.k + p];
      }
    }
    b.assign(values.begin() + static_cast<std::ptrdiff_t>(s.m * s.k),
             values.end());
    b_row_stride = transposed ? 1 : s.n;
    b_col_stride = transposed ? s.k : 1;
    packed.assign(gemm_packed_size(s.k, s.n), sentinel);
    gemm_pack_b(b.data(), b_row_stride, b_col_stride, s.k, s.n,
                packed.data());
    expected.assign(s.m * ldc, sentinel);
    gemm_reference(a.data(), lda, b.data(), b_row_stride, b_col_stride, s.m,
                   s.k, s.n, expected.data(), ldc, bf16);
  }

  std::string label() const {
    return std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
           std::to_string(shape.n) + " lda=" + std::to_string(lda) +
           " ldc=" + std::to_string(ldc) +
           (b_transposed ? " W^T" : " [k,n]") + (bf16 ? " bf16" : " fp32");
  }

  /// Runs gemm_f32 into a fresh sentinel-filled C and counts the elements
  /// (outputs and padding) whose bits differ from the reference.
  std::size_t mismatches() const {
    std::vector<float> c(shape.m * ldc,
                         std::numeric_limits<float>::quiet_NaN());
    gemm_f32(a.data(), lda, packed.data(), shape.m, shape.k, shape.n,
             c.data(), ldc, bf16);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!same_bits(c[i], expected[i])) ++bad;
    }
    return bad;
  }
};

// Ragged rows (m % 4), ragged and partial panels (n % 16, n < 8), k = 1,
// an empty reduction (k = 0), and one shape big enough that gemm_f32
// splits it over the pool (64 x 256 x 1037: 65 panels, 3 chunks).
const Shape kShapes[] = {{1, 1, 1},   {3, 1, 17},  {5, 7, 16},
                         {7, 33, 31}, {4, 64, 48}, {13, 5, 40},
                         {2, 0, 9},   {9, 19, 5},  {64, 256, 1037}};

TEST(Gemm, PackedLayoutIsPanelMajorAndZeroPadded) {
  const std::size_t k = 3, n = 20;  // two panels, the second 4 wide
  ASSERT_EQ(gemm_packed_size(k, n), 2 * k * kGemmPanel);
  EXPECT_EQ(gemm_packed_size(k, 0), 0u);
  std::vector<float> b(k * n);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i + 1);
  std::vector<float> packed(gemm_packed_size(k, n), -1.0F);
  gemm_pack_b(b.data(), n, 1, k, n, packed.data());
  for (std::size_t panel = 0; panel < 2; ++panel) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t q = 0; q < kGemmPanel; ++q) {
        const std::size_t j = panel * kGemmPanel + q;
        const float want = j < n ? b[p * n + j] : 0.0F;
        EXPECT_EQ(packed[(panel * k + p) * kGemmPanel + q], want)
            << "panel " << panel << " row " << p << " col " << q;
      }
    }
  }
}

TEST(Gemm, MatchesReferenceAcrossIsasAndThreadCounts) {
  std::vector<std::unique_ptr<Problem>> problems;
  std::uint64_t seed = 1;
  for (const Shape& s : kShapes) {
    for (const bool bf16 : {false, true}) {
      // Dense operands in the weight layout, then strided A and C views
      // over the [k, n] layout (the per-head attention operands).
      problems.push_back(
          std::make_unique<Problem>(s, 0, 0, true, bf16, seed++));
      problems.push_back(
          std::make_unique<Problem>(s, 3, 5, false, bf16, seed++));
    }
  }
  SweepGuard guard;
  for (const Isa isa : supported_isas()) {
    ASSERT_EQ(set_active_isa(isa), isa);
    for (const std::size_t threads : kThreadSettings) {
      std::unique_ptr<ScopedSerial> serial;
      if (threads == 0) {
        serial = std::make_unique<ScopedSerial>();
      } else {
        set_parallel_threads(threads);
      }
      for (const auto& problem : problems) {
        EXPECT_EQ(problem->mismatches(), 0u)
            << problem->label() << " isa=" << isa_name(isa) << " "
            << thread_label(threads);
      }
    }
  }
}

TEST(Gemm, NonFiniteInputsKeepReferenceBitsAndBf16Quieting) {
  // One NaN and one infinity in A poison whole C rows; the vector bf16
  // store must quiet and round them exactly as core::bf16_round does. The
  // NaN's low payload bits are all set, so rounding it as a number would
  // carry into the kept half and give other bits than quieting it.
  const float nan_payload = std::bit_cast<float>(std::uint32_t{0x7FC0FFFFu});
  for (const bool bf16 : {false, true}) {
    Problem problem({6, 9, 21}, 2, 1, true, bf16, 99);
    problem.a[1 * problem.lda + 4] = nan_payload;
    problem.a[4 * problem.lda + 0] = std::numeric_limits<float>::infinity();
    const Shape& s = problem.shape;
    gemm_reference(problem.a.data(), problem.lda, problem.b.data(),
                   problem.b_row_stride, problem.b_col_stride, s.m, s.k, s.n,
                   problem.expected.data(), problem.ldc, bf16);
    SweepGuard guard;
    for (const Isa isa : supported_isas()) {
      set_active_isa(isa);
      EXPECT_EQ(problem.mismatches(), 0u)
          << problem.label() << " isa=" << isa_name(isa);
    }
  }
}

}  // namespace
}  // namespace icsc::core::simd
