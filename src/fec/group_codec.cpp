#include "fec/group_codec.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "fec/gf256_simd.hpp"

namespace sharq::fec {
namespace {

std::vector<IndexedShard> as_originals(std::vector<ShardBuffer> data) {
  std::vector<IndexedShard> out;
  out.reserve(data.size());
  for (std::size_t d = 0; d < data.size(); ++d) {
    out.push_back(IndexedShard{static_cast<int>(d), std::move(data[d])});
  }
  return out;
}

}  // namespace

GroupEncoder::GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
                           std::vector<ShardBuffer> data)
    : GroupEncoder(std::move(codec), as_originals(std::move(data))) {}

GroupEncoder::GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
                           std::vector<IndexedShard> basis)
    : codec_(std::move(codec)), basis_(std::move(basis)) {
  if (static_cast<int>(basis_.size()) != codec_->k()) {
    throw std::invalid_argument("GroupEncoder: need exactly k shards");
  }
  std::sort(basis_.begin(), basis_.end(),
            [](const IndexedShard& a, const IndexedShard& b) {
              return a.index < b.index;
            });
  basis_ptrs_.reserve(basis_.size());
  for (std::size_t i = 0; i < basis_.size(); ++i) {
    const IndexedShard& s = basis_[i];
    if (s.index < 0 || s.index >= codec_->max_shards() ||
        (i > 0 && s.index == basis_[i - 1].index)) {
      throw std::invalid_argument("GroupEncoder: need k distinct shards");
    }
    if (!s.bytes || s.bytes->size() != basis_.front().bytes->size()) {
      throw std::invalid_argument("GroupEncoder: need equal-sized buffers");
    }
    basis_ptrs_.push_back(s.bytes->data());
  }
  // Sorted and distinct, so the basis is the k originals iff its last
  // index is k-1; then S = I and the generator rows apply directly.
  if (basis_.back().index < k()) return;
  std::vector<int> rows;
  rows.reserve(basis_.size());
  for (const IndexedShard& s : basis_) rows.push_back(s.index);
  from_basis_ = codec_->generator().select_rows(rows);
  if (!from_basis_.invert()) {
    throw std::invalid_argument("GroupEncoder: basis is not invertible");
  }
}

ShardBuffer GroupEncoder::shard_shared(int index) {
  if (index < 0 || index >= max_shards()) {
    throw std::out_of_range("GroupEncoder::shard index");
  }
  for (const auto* list : {&basis_, &encoded_}) {
    for (const IndexedShard& s : *list) {
      if (s.index == index) return s.bytes;
    }
  }
  // Shard `index` is G_index * data = (G_index * S^-1) * basis.
  const std::uint8_t* coeffs = codec_->generator().row(index);
  Matrix mixed;
  if (from_basis_.rows() > 0) {
    mixed = codec_->generator().select_rows({index}).multiply(from_basis_);
    coeffs = mixed.row(0);
  }
  auto out = std::make_shared<std::vector<std::uint8_t>>(
      basis_.front().bytes->size(), 0);
  simd::mul_add_rows(out->data(), basis_ptrs_.data(), coeffs, k(),
                     out->size());
  encoded_.push_back(IndexedShard{index, out});
  return out;
}

ShardStore::Entry* ShardStore::entry(std::uint32_t group, int index) {
  if (group >= groups_.size()) return nullptr;
  for (Entry& e : groups_[group]) {
    if (e.index == index) return &e;
  }
  return nullptr;
}

const ShardBuffer* ShardStore::find(std::uint32_t group, int index) const {
  const Entry* e = const_cast<ShardStore*>(this)->entry(group, index);
  return e ? &e->bytes : nullptr;
}

const ShardBuffer& ShardStore::hold(std::uint32_t group, int index,
                                    const ShardBuffer& bytes) {
  if (Entry* e = entry(group, index)) {
    ++e->holders;
    return e->bytes;
  }
  if (group >= groups_.size()) groups_.resize(std::size_t{group} + 1);
  ++size_;
  return groups_[group]
      .emplace_back(Entry{bytes, 1, static_cast<std::uint8_t>(index)})
      .bytes;
}

void ShardStore::release(std::uint32_t group, int index) {
  Entry* e = entry(group, index);
  if (e == nullptr || --e->holders > 0) return;
  std::vector<Entry>& entries = groups_[group];
  if (e != &entries.back()) *e = std::move(entries.back());
  entries.pop_back();
  --size_;
}

bool GroupDecoder::add(int index, const ShardBuffer& bytes) {
  if (index < 0 || index >= codec_->max_shards() || has(index)) return false;
  DecoderState& st = *state_;
  // A displaced index is released unconditionally, so a decoder that held
  // some shards' bytes and not others' would drop another holder's key.
  assert(st.held == 0 || (bytes != nullptr) == (bytes_of(0) != nullptr));
  seen()[index >> 3] |= static_cast<std::uint8_t>(1u << (index & 7));  // sharq-lint: unchecked-shift-ok (index & 7 < 8)
  ++st.distinct;
  const bool original = index < k();
  if (original) ++st.distinct_data;
  int slot = st.held;
  if (st.held < k()) {
    ++st.held;
  } else {
    // Full. A parity shard arriving now is later than every parity held, so
    // a decode would never pick it; an original displaces the latest parity
    // (parity entries are only ever appended, so the last one is the
    // latest). A full decoder holding no parity already has all k originals.
    if (!original) return true;
    do {
      --slot;
    } while (slot >= 0 && index_[slot] < k());
    if (slot < 0) return true;
    store_->release(group_, index_[slot]);
  }
  index_[slot] = static_cast<std::uint8_t>(index);
  if (bytes) store_->hold(group_, index, bytes);
  return true;
}

ShardBuffer GroupDecoder::held(int index) const {
  for (int i = 0; i < state_->held; ++i) {
    if (index_[i] != index) continue;
    const ShardBuffer* b = bytes_of(i);
    return b ? *b : nullptr;
  }
  return nullptr;
}

bool GroupDecoder::holds_parity() const {
  for (int i = 0; i < state_->held; ++i) {
    if (index_[i] >= k()) return true;
  }
  return false;
}

void GroupDecoder::hold_originals() {
  if (!complete() || !holds_parity()) return;
  const int n = k();
  std::vector<bool> have(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    if (index_[i] < n) have[index_[i]] = true;
  }
  // With real bytes, the missing originals the lane does not hold yet are
  // decoded from the held shards, before any parity hold is released.
  const bool real = bytes_of(0) != nullptr;
  std::vector<ShardBuffer> decoded(static_cast<std::size_t>(n));
  if (real) {
    const std::size_t size = (*bytes_of(0))->size();
    std::vector<std::uint8_t*> dst(static_cast<std::size_t>(n), nullptr);
    bool lacking = false;
    for (int d = 0; d < n; ++d) {
      if (have[d] || store_->find(group_, d) != nullptr) continue;
      auto out = std::make_shared<std::vector<std::uint8_t>>(size);
      dst[d] = out->data();
      decoded[d] = std::move(out);
      lacking = true;
    }
    if (lacking) {
      std::vector<ReedSolomon::ShardView> views;
      views.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        views.push_back({index_[i], (*bytes_of(i))->data()});
      }
      if (!codec_->decode(views, size, dst.data())) return;
    }
  }
  int next = 0;  // lowest original not held
  for (int i = 0; i < n; ++i) {
    const int parity = index_[i];
    if (parity < n) continue;
    while (have[next]) ++next;
    have[next] = true;
    index_[i] = static_cast<std::uint8_t>(next);
    if (!real) continue;
    store_->hold(group_, next, decoded[next]);  // the lane's, if it has one
    store_->release(group_, parity);
  }
}

std::vector<IndexedShard> GroupDecoder::held_shards() const {
  std::vector<IndexedShard> out;
  out.reserve(state_->held);
  for (int i = 0; i < state_->held; ++i) {
    const ShardBuffer* b = bytes_of(i);
    out.push_back(IndexedShard{index_[i], b ? *b : nullptr});
  }
  return out;
}

std::vector<std::uint8_t> GroupDecoder::reconstruct() const {
  if (!complete()) return {};
  const int held = state_->held;
  const ShardBuffer* first = bytes_of(0);
  const std::size_t size = first ? (*first)->size() : 0;
  std::vector<ReedSolomon::ShardView> views;
  views.reserve(static_cast<std::size_t>(held));
  for (int i = 0; i < held; ++i) {
    const ShardBuffer* b = bytes_of(i);
    if ((b ? (*b)->size() : 0) != size) {
      throw std::invalid_argument("GroupDecoder: shard sizes differ");
    }
    views.push_back({index_[i], b ? (*b)->data() : nullptr});
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k()) * size);
  std::vector<std::uint8_t*> dst(k());
  for (int d = 0; d < k(); ++d) dst[d] = out.data() + d * size;
  if (!codec_->decode(views, size, dst.data())) return {};
  return out;
}

}  // namespace sharq::fec
