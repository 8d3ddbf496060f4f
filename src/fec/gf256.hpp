#pragma once

#include <array>
#include <cstdint>

namespace sharq::fec {

/// Arithmetic over GF(2^8) with the AES/Rizzo polynomial x^8+x^4+x^3+x^2+1
/// (0x11d), the field used by software FEC codecs for packet erasure
/// correction (Rizzo, CCR '97).
///
/// All operations are table-driven; tables are built once at static
/// initialization. Addition and subtraction are XOR.
class GF256 {
 public:
  using Elem = std::uint8_t;

  /// Field size and the generator polynomial (for documentation/tests).
  static constexpr int kFieldSize = 256;
  static constexpr int kPolynomial = 0x11d;

  /// a + b (== a - b) in GF(2^8).
  static Elem add(Elem a, Elem b) { return a ^ b; }

  /// a * b in GF(2^8).
  static Elem mul(Elem a, Elem b) {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  /// a / b in GF(2^8). Precondition: b != 0.
  static Elem div(Elem a, Elem b);

  /// Multiplicative inverse. Precondition: a != 0.
  static Elem inverse(Elem a);

  /// a raised to integer power n (n >= 0).
  static Elem pow(Elem a, unsigned n);

  /// The primitive element alpha = 2 raised to power n, n in [0, 254].
  static Elem alpha_pow(unsigned n) { return exp_[n % 255]; }

  /// Multiply-accumulate over a buffer: dst[i] ^= c * src[i].
  /// One row of simd::mul_add_rows, so it runs the best SIMD kernel the
  /// host supports (see fec/gf256_simd.hpp). Set
  /// SHARQFEC_FORCE_KERNEL=scalar to pin the scalar path.
  static void mul_add(Elem* dst, const Elem* src, Elem c, std::size_t n);

  /// Scale a buffer in place: dst[i] = c * dst[i], by the table loop. Its
  /// only callers scale one pivot row of a Gauss-Jordan step.
  static void scale(Elem* dst, Elem c, std::size_t n);

  /// Portable table-driven multiply-accumulate: the reference every SIMD
  /// kernel is cross-checked against, and the fallback for hosts (or
  /// vector tails) without shuffle units.
  static void mul_add_scalar(Elem* dst, const Elem* src, Elem c,
                             std::size_t n);

 private:
  struct Tables {
    Tables();
    std::array<Elem, 510> exp{};  // doubled to skip the mod-255 in mul
    std::array<int, 256> log{};
    // mul_row[c][x] = c*x, one 256-byte row per multiplier, for fast MAC.
    std::array<std::array<Elem, 256>, 256> mul_row{};
  };
  static const Tables tables_;
  static const std::array<Elem, 510>& exp_;
  static const std::array<int, 256>& log_;
};

}  // namespace sharq::fec
