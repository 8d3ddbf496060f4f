#include "fec/reed_solomon.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fec/gf256_simd.hpp"

namespace sharq::fec {

ReedSolomon::ReedSolomon(int k, int max_parity)
    : k_(k), max_parity_(max_parity) {
  if (k < 1 || max_parity < 0 || k + max_parity > 255) {
    throw std::invalid_argument("ReedSolomon: need 1 <= k, k+parity <= 255");
  }
  // Start from an (n x k) Vandermonde matrix; any k rows are independent.
  // Row-reduce on the first k rows' columns so data shards are systematic.
  const int n = k + max_parity;
  Matrix v = Matrix::vandermonde(n, k);
  // Gauss-Jordan using the top k rows as pivots, applied to all n rows:
  // equivalent to multiplying on the right by inverse(top-k block).
  Matrix top(k, k);
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) top.at(r, c) = v.at(r, c);
  }
  const bool ok = top.invert();
  assert(ok && "top Vandermonde block must be invertible");
  (void)ok;
  gen_ = v.multiply(top);
}

std::vector<std::uint8_t> ReedSolomon::encode_parity(
    int index, const std::vector<std::vector<std::uint8_t>>& data) const {
  if (index < k_ || index >= max_shards()) {
    throw std::out_of_range("encode_parity: index must be a parity index");
  }
  if (static_cast<int>(data.size()) != k_) {
    throw std::invalid_argument("encode_parity: need exactly k data shards");
  }
  const std::size_t size = data.front().size();
  std::vector<const std::uint8_t*> ptrs(k_);
  for (int c = 0; c < k_; ++c) {
    if (data[c].size() != size) {
      throw std::invalid_argument("encode_parity: shard sizes differ");
    }
    ptrs[c] = data[c].data();
  }
  std::vector<std::uint8_t> out(size, 0);
  encode_parity_into(index, ptrs.data(), size, out.data());
  return out;
}

void ReedSolomon::encode_parity_into(int index, const std::uint8_t* const* data,
                                     std::size_t size,
                                     std::uint8_t* out) const {
  if (index < k_ || index >= max_shards()) {
    throw std::out_of_range("encode_parity_into: index must be a parity index");
  }
  std::fill(out, out + size, 0);
  simd::mul_add_rows(out, data, gen_.row(index), k_, size);
}

bool ReedSolomon::decode(const std::vector<ShardView>& shards,
                         std::size_t size, std::uint8_t* const* out) const {
  // Pick the first k distinct, in-range shards (prefer data shards: they
  // come for free in a systematic code).
  std::vector<bool> seen(static_cast<std::size_t>(max_shards()), false);
  std::vector<const ShardView*> picked;
  picked.reserve(k_);
  auto consider = [&](const ShardView& s, bool data_only) {
    if (static_cast<int>(picked.size()) >= k_) return;
    if (s.index < 0 || s.index >= max_shards()) return;
    if (data_only != (s.index < k_)) return;
    if (seen[s.index]) return;
    seen[s.index] = true;
    picked.push_back(&s);
  };
  for (const ShardView& s : shards) consider(s, /*data_only=*/true);
  for (const ShardView& s : shards) consider(s, /*data_only=*/false);
  if (static_cast<int>(picked.size()) < k_) return false;

  // Received originals are copied through; only the rest need the inverse.
  bool all_data = true;
  for (const ShardView* s : picked) {
    if (s->index >= k_) {
      all_data = false;
    } else if (out[s->index] != nullptr) {
      std::copy_n(s->bytes, size, out[s->index]);
    }
  }
  if (all_data) return true;

  // General path: invert the k x k sub-generator of the picked rows.
  std::vector<int> rows;
  rows.reserve(k_);
  for (const ShardView* s : picked) rows.push_back(s->index);
  Matrix sub = gen_.select_rows(rows);
  if (!sub.invert()) return false;  // cannot happen for Vandermonde

  std::vector<const std::uint8_t*> srcs(k_);
  for (int j = 0; j < k_; ++j) srcs[j] = picked[j]->bytes;
  for (int d = 0; d < k_; ++d) {
    if (out[d] == nullptr || seen[d]) continue;
    std::fill(out[d], out[d] + size, 0);
    simd::mul_add_rows(out[d], srcs.data(), sub.row(d), k_, size);
  }
  return true;
}

std::optional<std::vector<std::vector<std::uint8_t>>> ReedSolomon::decode(
    const std::vector<Shard>& shards) const {
  std::vector<ShardView> views;
  views.reserve(shards.size());
  std::size_t size = 0;
  for (const Shard& s : shards) {
    if (s.index < 0 || s.index >= max_shards()) continue;
    if (views.empty()) {
      size = s.bytes.size();
    } else if (s.bytes.size() != size) {
      throw std::invalid_argument("decode: shard sizes differ");
    }
    views.push_back(ShardView{s.index, s.bytes.data()});
  }
  std::vector<std::vector<std::uint8_t>> out(
      k_, std::vector<std::uint8_t>(size));
  std::vector<std::uint8_t*> dst(k_);
  for (int d = 0; d < k_; ++d) dst[d] = out[d].data();
  if (!decode(views, size, dst.data())) return std::nullopt;
  return out;
}

}  // namespace sharq::fec
