// Runtime-dispatched SIMD primitives for the hot kernels.
//
// Design rules (ROADMAP item 2):
//   - One binary runs everywhere: the ISA is picked at runtime from CPUID
//     (x86) or the architecture (aarch64), never at configure time. Each
//     ISA variant lives in its own translation unit compiled with the
//     matching -m flags, so the portable TUs never emit illegal opcodes.
//   - The scalar fallback is always compiled and is the equivalence
//     oracle: every vector path must produce bit-identical results.
//     Floating-point primitives therefore perform exactly the scalar
//     operation sequence per output element (separate IEEE multiply and
//     add, no FMA contraction, no cross-element reassociation) — lanes
//     only ever span *independent* accumulators. Integer primitives are
//     exact mod 2^64 by construction.
//   - `ICSC_SIMD=scalar|sse4|avx2|neon` overrides the choice, mirroring
//     ICSC_THREADS. Unsupported or unknown requests fall back to the best
//     ISA the CPU supports (never a crash, never an illegal instruction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace icsc::core::simd {

/// Instruction sets the dispatcher knows about, weakest first.
enum class Isa : int {
  kScalar = 0,
  kSse4 = 1,  // x86 SSE4.2 (2 x 64-bit lanes)
  kAvx2 = 2,  // x86 AVX2   (4 x 64-bit lanes)
  kNeon = 3,  // aarch64 Advanced SIMD (2 x 64-bit lanes)
};

/// Short lowercase name ("scalar", "sse4", "avx2", "neon") — the same
/// tokens ICSC_SIMD accepts.
const char* isa_name(Isa isa);

/// True when this CPU (and this build) can execute `isa`.
bool isa_supported(Isa isa);

/// Best ISA this CPU supports, ignoring any override.
Isa detected_isa();

/// ISA the primitives currently dispatch to. First use resolves the
/// ICSC_SIMD override (falling back to detected_isa() on unknown or
/// unsupported values); thereafter it only changes via set_active_isa.
Isa active_isa();

/// Requests `isa`; unsupported requests clamp to detected_isa(). Returns
/// the ISA actually now active. Used by the equivalence tests to sweep
/// every supported path.
Isa set_active_isa(Isa isa);

/// Pure resolution helper: the ISA that a given ICSC_SIMD value selects
/// ("auto"/unknown/unsupported -> detected_isa()). Exposed so the env
/// override is unit-testable without spawning processes.
Isa resolve_isa(const char* env_value);

/// Space-separated feature string of this CPU ("sse4.2 avx2 ..."), for
/// bench headers.
std::string cpu_features();

// ---------------------------------------------------------------------------
// Floating-point panel primitives (conv / htconv / crossbar MVM).
// ---------------------------------------------------------------------------

/// acc[i] += w * double(x[i]) for i in [0, n). One widening convert, one
/// multiply, one add per element — the exact scalar sequence of the conv
/// row-panel accumulation, applied to n independent accumulators.
void axpy_f32_f64(double w, const float* x, double* acc, std::size_t n);

/// acc[i] += (a * x[i]) * b for i in [0, n). Matches the crossbar bitline
/// accumulation `acc += dac * g * attenuation` (left-associative).
void scaled_axpy_f64(double a, double b, const double* x, double* acc,
                     std::size_t n);

/// Whole-panel accumulation: acc[c] += sum over taps t (ascending) of
/// weights[t] * double(rows[t][c]), one IEEE multiply + add per tap per
/// column -- the same per-column sequence as `taps` successive
/// axpy_f32_f64 calls, but with the accumulator tiled into registers
/// across the tap loop so it is loaded/stored once per column tile
/// instead of once per tap.
void tap_panel_axpy_f32_f64(const float* const* rows, const double* weights,
                            std::size_t taps, double* acc, std::size_t n);

/// In-place fixed-point quantisation of a float buffer: each element is
/// scaled by 2^frac_bits, rounded half away from zero, clamped to the
/// signed (int_bits + frac_bits)-bit raw range, and rescaled — the exact
/// operation sequence of QuantConfig's per-element quantiser (double
/// arithmetic, one narrowing conversion at the end), applied lane-wise.
/// Every output-activation quantisation pass funnels through this.
void quantize_fixed_f32(float* data, std::size_t n, int int_bits,
                        int frac_bits);

// ---------------------------------------------------------------------------
// Quantised conv tap primitives (approximate-arithmetic datapath).
// ---------------------------------------------------------------------------

/// acc[i] = add(acc[i], int64(x[i]) * w): exact multiply, with the LOA
/// approximate adder when loa_bits > 0 (low `loa_bits` OR'd, high bits
/// added carry-free) and the exact adder otherwise. Wrap-around follows
/// two's-complement mod 2^64, matching approx::loa_add exactly.
void qtap_exact(const std::int32_t* x, std::int32_t w, int loa_bits,
                std::int64_t* acc, std::size_t n);

/// acc[i] = add(acc[i], truncated_mul(x[i], w, trunc_bits)): the truncated
/// array multiplier (partial products below bit `trunc_bits` dropped,
/// sign-magnitude), combined with the exact or LOA adder as above.
/// Bit-identical to approx::truncated_mul + approx::loa_add for every
/// input, including INT32_MIN and wrap-around.
void qtap_truncated(const std::int32_t* x, std::int32_t w, int trunc_bits,
                    int loa_bits, std::int64_t* acc, std::size_t n);

// ---------------------------------------------------------------------------
// Histogram / bit-parallel genomics primitives.
// ---------------------------------------------------------------------------

/// Sum over i of |a[i] - b[i]| for uint16 histograms, mod 2^32 (identical
/// wrap-around to the scalar uint32 accumulation). The q-gram screen of
/// the DNA clustering pass spends most of its time here.
std::uint32_t l1_distance_u16(const std::uint16_t* a, const std::uint16_t* b,
                              std::size_t n);

/// Banded Myers/Hyyro bit-parallel edit distance of one pattern against
/// `count` texts, lanes batched across texts. `peq` is the pattern's
/// match-mask table, laid out [block][symbol] with 4 symbols per block
/// (64 pattern positions per block); `pattern_len` is the pattern length.
/// Texts are symbol codes in [0, 4). out[i] is exactly what the scalar
/// banded kernel returns: the edit distance when <= band, else band + 1.
void myers_banded_batch(const std::uint64_t* peq, std::size_t blocks,
                        std::size_t pattern_len,
                        const std::uint8_t* const* texts,
                        const std::size_t* text_lens, std::size_t count,
                        int band, int* out);

}  // namespace icsc::core::simd
