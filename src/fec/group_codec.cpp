#include "fec/group_codec.hpp"

#include <stdexcept>
#include <utility>

namespace sharq::fec {

GroupEncoder::GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
                           std::vector<ShardBuffer> data)
    : codec_(std::move(codec)), data_(std::move(data)) {
  if (static_cast<int>(data_.size()) != codec_->k()) {
    throw std::invalid_argument("GroupEncoder: need exactly k data packets");
  }
  data_ptrs_.reserve(data_.size());
  for (const auto& d : data_) {
    if (!d || d->size() != data_.front()->size()) {
      throw std::invalid_argument("GroupEncoder: need equal-sized buffers");
    }
    data_ptrs_.push_back(d->data());
  }
}

ShardBuffer GroupEncoder::shard_shared(int index) {
  if (index < 0 || index >= max_shards()) {
    throw std::out_of_range("GroupEncoder::shard index");
  }
  if (index < k()) return data_[index];
  for (const auto& [i, buf] : parity_) {
    if (i == index) return buf;
  }
  auto out = std::make_shared<std::vector<std::uint8_t>>(data_.front()->size());
  codec_->encode_parity_into(index, data_ptrs_.data(), out->size(),
                             out->data());
  parity_.emplace_back(index, out);
  return out;
}

GroupDecoder::GroupDecoder(std::shared_ptr<const ReedSolomon> codec)
    : codec_(std::move(codec)), have_(codec_->max_shards(), false) {}

bool GroupDecoder::add(int index, ShardBuffer bytes) {
  if (index < 0 || index >= codec_->max_shards()) return false;
  if (have_[index]) return false;
  have_[index] = true;
  ++distinct_;
  if (index < codec_->k()) ++distinct_data_;
  shards_.push_back(Entry{index, std::move(bytes)});
  return true;
}

bool GroupDecoder::has(int index) const {
  if (index < 0 || index >= static_cast<int>(have_.size())) return false;
  return have_[index];
}

ShardBuffer GroupDecoder::held(int index) const {
  if (!has(index)) return nullptr;
  for (const Entry& e : shards_) {
    if (e.index == index) return e.bytes;
  }
  return nullptr;
}

std::size_t GroupDecoder::shard_size() const {
  const ShardBuffer& first = shards_.front().bytes;
  return first ? first->size() : 0;
}

bool GroupDecoder::decode_into(std::size_t size,
                               std::uint8_t* const* out) const {
  std::vector<ReedSolomon::ShardView> views;
  views.reserve(shards_.size());
  for (const Entry& e : shards_) {
    if ((e.bytes ? e.bytes->size() : 0) != size) {
      throw std::invalid_argument("GroupDecoder: shard sizes differ");
    }
    views.push_back({e.index, e.bytes ? e.bytes->data() : nullptr});
  }
  return codec_->decode(views, size, out);
}

std::vector<std::uint8_t> GroupDecoder::reconstruct() const {
  if (!complete()) return {};
  const std::size_t size = shard_size();
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k()) * size);
  std::vector<std::uint8_t*> dst(k());
  for (int d = 0; d < k(); ++d) dst[d] = out.data() + d * size;
  if (!decode_into(size, dst.data())) return {};
  return out;
}

std::vector<ShardBuffer> GroupDecoder::originals() const {
  if (!complete()) return {};
  const std::size_t size = shard_size();
  std::vector<ShardBuffer> out(k());
  std::vector<std::uint8_t*> dst(k(), nullptr);
  for (int d = 0; d < k(); ++d) {
    out[d] = held(d);
    if (out[d]) continue;
    auto buf = std::make_shared<std::vector<std::uint8_t>>(size);
    dst[d] = buf->data();
    out[d] = std::move(buf);
  }
  if (!decode_into(size, dst.data())) return {};
  return out;
}

}  // namespace sharq::fec
