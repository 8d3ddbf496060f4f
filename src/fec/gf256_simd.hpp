#pragma once

#include <cstddef>
#include <cstdint>

#include "fec/cpu_features.hpp"

namespace sharq::fec::simd {

using cpu::Kernel;

/// Vectorized GF(2^8) buffer kernel (the erasure-coding hot path).
///
/// Technique: split-nibble shuffle multiplication (Rizzo-era table codecs
/// brought to SIMD by Intel ISA-L and klauspost/reedsolomon). For a fixed
/// multiplier c, precompute two 16-entry tables
///
///   lo[x] = c * x          for x in [0, 16)
///   hi[x] = c * (x << 4)   for x in [0, 16)
///
/// Then c * b == lo[b & 0xf] ^ hi[b >> 4] for any byte b, and a 16-byte
/// (PSHUFB / TBL) or 32-byte (VPSHUFB) shuffle computes 16/32 products per
/// instruction. Each instruction set has one kernel, which accepts
/// unaligned buffers and any length: it steps down through its vector
/// widths to 16 bytes, so only a tail shorter than 16 bytes runs the scalar
/// table loop.
///
/// The overload without a Kernel argument dispatches once (first call) to
/// cpu::active_kernel(); the explicit-kernel overload exists for the
/// cross-check tests and the micro benchmark and must only be passed a
/// kernel from cpu::supported_kernels().

/// Apply a whole generator-matrix row in one pass:
///
///   dst[i] ^= coeffs[0]*srcs[0][i] ^ ... ^ coeffs[rows-1]*srcs[rows-1][i]
///
/// Walks dst once per cache block instead of once per row, keeping the
/// accumulators in registers: this is what ReedSolomon::encode_parity /
/// decode use per output shard, and with rows == 1 it is GF256::mul_add.
void mul_add_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                  const std::uint8_t* coeffs, int rows, std::size_t n);
void mul_add_rows(Kernel k, std::uint8_t* dst, const std::uint8_t* const* srcs,
                  const std::uint8_t* coeffs, int rows, std::size_t n);

}  // namespace sharq::fec::simd
