#include "fec/gf256_simd.hpp"

#include "fec/gf256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SHARQ_FEC_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define SHARQ_FEC_NEON 1
#endif

namespace sharq::fec::simd {

namespace {

// --- split-nibble tables --------------------------------------------------------
//
// Built with carry-less peasant multiplication so this translation unit has
// no static-initialization-order dependency on GF256's log/exp tables.

std::uint8_t gf_mul_slow(std::uint8_t a, std::uint8_t b) {
  unsigned r = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) r ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= GF256::kPolynomial;
  }
  return static_cast<std::uint8_t>(r);
}

struct NibbleTables {
  // Row c is the 16-entry shuffle table for multiplier c; rows are 16-byte
  // aligned so the vector loads below can be aligned loads.
  alignas(64) std::uint8_t lo[256][16];
  alignas(64) std::uint8_t hi[256][16];

  NibbleTables() {
    for (int c = 0; c < 256; ++c) {
      for (int x = 0; x < 16; ++x) {
        lo[c][x] = gf_mul_slow(static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(x));
        hi[c][x] = gf_mul_slow(static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(x << 4));
      }
    }
  }
};

const NibbleTables& nib() {
  static const NibbleTables t;
  return t;
}

// --- scalar ----------------------------------------------------------------------

// dst[i..n) ^= sum over r of coeffs[r] * srcs[r][i..n), by the scalar table
// loop: the whole scalar kernel (i = 0) and every vector kernel's tail of
// fewer than 16 bytes.
void mul_add_rows_scalar_from(std::size_t i, std::uint8_t* dst,
                              const std::uint8_t* const* srcs,
                              const std::uint8_t* coeffs, int rows,
                              std::size_t n) {
  if (i == n) return;
  for (int r = 0; r < rows; ++r) {
    GF256::mul_add_scalar(dst + i, srcs[r] + i, coeffs[r], n - i);
  }
}

void mul_add_rows_scalar(std::uint8_t* dst, const std::uint8_t* const* srcs,
                         const std::uint8_t* coeffs, int rows, std::size_t n) {
  mul_add_rows_scalar_from(0, dst, srcs, coeffs, rows, n);
}

// --- x86: SSSE3 (PSHUFB, 16 bytes/op) and AVX2 (VPSHUFB, 32 bytes/op) ------------

#ifdef SHARQ_FEC_X86

__attribute__((target("ssse3"))) inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("ssse3"))) inline void store16(std::uint8_t* p,
                                                     __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// c * s bytewise, from c's nibble tables lo and hi.
__attribute__((target("ssse3"))) inline __m128i gf_mul16(__m128i lo,
                                                         __m128i hi,
                                                         __m128i s) {
  const __m128i mask = _mm_set1_epi8(0x0f);
  return _mm_xor_si128(
      _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)));
}

// One 16-byte block at byte i with every row applied. Both x86 kernels end
// with it, so any remainder of 16 bytes or more (the k = 16 and 2k = 32
// rows of a Gauss-Jordan step included) stays vectorised.
__attribute__((target("ssse3"))) inline void block16(
    std::size_t i, std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, int rows) {
  const NibbleTables& t = nib();
  __m128i acc = load16(dst + i);
  for (int r = 0; r < rows; ++r) {
    const std::uint8_t c = coeffs[r];
    if (c == 0) continue;
    acc = _mm_xor_si128(acc, gf_mul16(load16(t.lo[c]), load16(t.hi[c]),
                                      load16(srcs[r] + i)));
  }
  store16(dst + i, acc);
}

__attribute__((target("ssse3"))) void mul_add_rows_ssse3(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, int rows, std::size_t n) {
  const NibbleTables& t = nib();
  std::size_t i = 0;
  // 32-byte blocks: the two accumulators stay in registers while every
  // source row streams through, so dst traffic is once per block, not once
  // per row.
  for (; i + 32 <= n; i += 32) {
    __m128i acc0 = load16(dst + i);
    __m128i acc1 = load16(dst + i + 16);
    for (int r = 0; r < rows; ++r) {
      const std::uint8_t c = coeffs[r];
      if (c == 0) continue;
      const __m128i lo = load16(t.lo[c]);
      const __m128i hi = load16(t.hi[c]);
      acc0 = _mm_xor_si128(acc0, gf_mul16(lo, hi, load16(srcs[r] + i)));
      acc1 = _mm_xor_si128(acc1, gf_mul16(lo, hi, load16(srcs[r] + i + 16)));
    }
    store16(dst + i, acc0);
    store16(dst + i + 16, acc1);
  }
  if (i + 16 <= n) {
    block16(i, dst, srcs, coeffs, rows);
    i += 16;
  }
  mul_add_rows_scalar_from(i, dst, srcs, coeffs, rows, n);
}

__attribute__((target("avx2"))) inline __m256i load32(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store32(std::uint8_t* p,
                                                    __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) inline __m256i gf_mul32(__m256i lo,
                                                        __m256i hi,
                                                        __m256i s) {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
      _mm256_shuffle_epi8(hi,
                          _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
}

// c's 16-byte nibble table in both 128-bit lanes (VPSHUFB shuffles per lane).
__attribute__((target("avx2"))) inline __m256i table32(
    const std::uint8_t* row) {
  return _mm256_broadcastsi128_si256(load16(row));
}

__attribute__((target("avx2"))) void mul_add_rows_avx2(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, int rows, std::size_t n) {
  const NibbleTables& t = nib();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i acc0 = load32(dst + i);
    __m256i acc1 = load32(dst + i + 32);
    for (int r = 0; r < rows; ++r) {
      const std::uint8_t c = coeffs[r];
      if (c == 0) continue;
      const __m256i lo = table32(t.lo[c]);
      const __m256i hi = table32(t.hi[c]);
      acc0 = _mm256_xor_si256(acc0, gf_mul32(lo, hi, load32(srcs[r] + i)));
      acc1 =
          _mm256_xor_si256(acc1, gf_mul32(lo, hi, load32(srcs[r] + i + 32)));
    }
    store32(dst + i, acc0);
    store32(dst + i + 32, acc1);
  }
  if (i + 32 <= n) {
    __m256i acc = load32(dst + i);
    for (int r = 0; r < rows; ++r) {
      const std::uint8_t c = coeffs[r];
      if (c == 0) continue;
      acc = _mm256_xor_si256(acc, gf_mul32(table32(t.lo[c]), table32(t.hi[c]),
                                           load32(srcs[r] + i)));
    }
    store32(dst + i, acc);
    i += 32;
  }
  if (i + 16 <= n) {
    block16(i, dst, srcs, coeffs, rows);
    i += 16;
  }
  mul_add_rows_scalar_from(i, dst, srcs, coeffs, rows, n);
}

#endif  // SHARQ_FEC_X86

// --- AArch64: NEON (TBL, 16 bytes/op) -------------------------------------------

#ifdef SHARQ_FEC_NEON

// c * s bytewise, from c's nibble tables lo and hi.
inline uint8x16_t gf_mul16(uint8x16_t lo, uint8x16_t hi, uint8x16_t s) {
  return veorq_u8(vqtbl1q_u8(lo, vandq_u8(s, vdupq_n_u8(0x0f))),
                  vqtbl1q_u8(hi, vshrq_n_u8(s, 4)));
}

void mul_add_rows_neon(std::uint8_t* dst, const std::uint8_t* const* srcs,
                       const std::uint8_t* coeffs, int rows, std::size_t n) {
  const NibbleTables& t = nib();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint8x16_t acc0 = vld1q_u8(dst + i);
    uint8x16_t acc1 = vld1q_u8(dst + i + 16);
    for (int r = 0; r < rows; ++r) {
      const std::uint8_t c = coeffs[r];
      if (c == 0) continue;
      const uint8x16_t lo = vld1q_u8(t.lo[c]);
      const uint8x16_t hi = vld1q_u8(t.hi[c]);
      acc0 = veorq_u8(acc0, gf_mul16(lo, hi, vld1q_u8(srcs[r] + i)));
      acc1 = veorq_u8(acc1, gf_mul16(lo, hi, vld1q_u8(srcs[r] + i + 16)));
    }
    vst1q_u8(dst + i, acc0);
    vst1q_u8(dst + i + 16, acc1);
  }
  if (i + 16 <= n) {
    uint8x16_t acc = vld1q_u8(dst + i);
    for (int r = 0; r < rows; ++r) {
      const std::uint8_t c = coeffs[r];
      if (c == 0) continue;
      acc = veorq_u8(acc, gf_mul16(vld1q_u8(t.lo[c]), vld1q_u8(t.hi[c]),
                                   vld1q_u8(srcs[r] + i)));
    }
    vst1q_u8(dst + i, acc);
    i += 16;
  }
  mul_add_rows_scalar_from(i, dst, srcs, coeffs, rows, n);
}

#endif  // SHARQ_FEC_NEON

// --- dispatch -------------------------------------------------------------------

using MulAddRowsFn = void (*)(std::uint8_t*, const std::uint8_t* const*,
                              const std::uint8_t*, int, std::size_t);

MulAddRowsFn mul_add_rows_fn(Kernel k) {
  switch (k) {
#ifdef SHARQ_FEC_X86
    case Kernel::kSsse3: return mul_add_rows_ssse3;
    case Kernel::kAvx2: return mul_add_rows_avx2;
#endif
#ifdef SHARQ_FEC_NEON
    case Kernel::kNeon: return mul_add_rows_neon;
#endif
    default: return mul_add_rows_scalar;
  }
}

}  // namespace

void mul_add_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                  const std::uint8_t* coeffs, int rows, std::size_t n) {
  if (rows <= 0 || n == 0) return;
  static const MulAddRowsFn active = mul_add_rows_fn(cpu::active_kernel());
  active(dst, srcs, coeffs, rows, n);
}

void mul_add_rows(Kernel k, std::uint8_t* dst, const std::uint8_t* const* srcs,
                  const std::uint8_t* coeffs, int rows, std::size_t n) {
  if (rows <= 0 || n == 0) return;
  mul_add_rows_fn(k)(dst, srcs, coeffs, rows, n);
}

}  // namespace sharq::fec::simd
