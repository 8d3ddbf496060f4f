#include "fec/gf256.hpp"

#include <cassert>

#include "fec/gf256_simd.hpp"

namespace sharq::fec {

GF256::Tables::Tables() {
  // Generate the field from the primitive element alpha = 2.
  int x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[i] = static_cast<Elem>(x);
    log[x] = i;
    x <<= 1;
    if (x & 0x100) x ^= kPolynomial;
  }
  for (int i = 255; i < 510; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never consulted for 0 operands

  for (int c = 0; c < 256; ++c) {
    for (int v = 0; v < 256; ++v) {
      if (c == 0 || v == 0) {
        mul_row[c][v] = 0;
      } else {
        mul_row[c][v] = exp[log[c] + log[v]];
      }
    }
  }
}

const GF256::Tables GF256::tables_;
const std::array<GF256::Elem, 510>& GF256::exp_ = GF256::tables_.exp;
const std::array<int, 256>& GF256::log_ = GF256::tables_.log;

GF256::Elem GF256::div(Elem a, Elem b) {
  assert(b != 0 && "division by zero in GF(256)");
  if (a == 0) return 0;
  return exp_[log_[a] + 255 - log_[b]];
}

GF256::Elem GF256::inverse(Elem a) {
  assert(a != 0 && "inverse of zero in GF(256)");
  return exp_[255 - log_[a]];
}

GF256::Elem GF256::pow(Elem a, unsigned n) {
  if (n == 0) return 1;
  if (a == 0) return 0;
  const unsigned e = (static_cast<unsigned>(log_[a]) * n) % 255;
  return exp_[e];
}

void GF256::mul_add_scalar(Elem* dst, const Elem* src, Elem c, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& row = tables_.mul_row[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void GF256::scale(Elem* dst, Elem c, std::size_t n) {
  if (c == 1) return;
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const auto& row = tables_.mul_row[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[dst[i]];
}

void GF256::mul_add(Elem* dst, const Elem* src, Elem c, std::size_t n) {
  simd::mul_add_rows(dst, &src, &c, 1, n);
}

}  // namespace sharq::fec
