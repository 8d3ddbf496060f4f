#include "fec/group_codec.hpp"

#include <stdexcept>
#include <utility>

namespace sharq::fec {

GroupEncoder::GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
                           std::vector<std::vector<std::uint8_t>> data)
    : codec_(std::move(codec)), data_(std::move(data)) {
  if (static_cast<int>(data_.size()) != codec_->k()) {
    throw std::invalid_argument("GroupEncoder: need exactly k data packets");
  }
  data_ptrs_.reserve(data_.size());
  for (const auto& d : data_) data_ptrs_.push_back(d.data());
}

std::shared_ptr<const std::vector<std::uint8_t>> GroupEncoder::shard_shared(
    int index) const {
  if (index < 0 || index >= max_shards()) {
    throw std::out_of_range("GroupEncoder::shard index");
  }
  if (index < k()) {
    return std::make_shared<const std::vector<std::uint8_t>>(data_[index]);
  }
  auto out =
      std::make_shared<std::vector<std::uint8_t>>(data_.front().size());
  codec_->encode_parity_into(index, data_ptrs_.data(), out->size(),
                             out->data());
  return out;
}

GroupDecoder::GroupDecoder(std::shared_ptr<const ReedSolomon> codec)
    : codec_(std::move(codec)), have_(codec_->max_shards(), false) {}

bool GroupDecoder::add(int index, std::vector<std::uint8_t> bytes) {
  if (index < 0 || index >= codec_->max_shards()) return false;
  if (have_[index]) return false;
  have_[index] = true;
  ++distinct_;
  if (index < codec_->k()) ++distinct_data_;
  shards_.push_back(ReedSolomon::Shard{index, std::move(bytes)});
  return true;
}

bool GroupDecoder::has(int index) const {
  if (index < 0 || index >= static_cast<int>(have_.size())) return false;
  return have_[index];
}

std::optional<std::vector<std::vector<std::uint8_t>>> GroupDecoder::reconstruct()
    const {
  if (!complete()) return std::nullopt;
  return codec_->decode(shards_);
}

}  // namespace sharq::fec
