#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fec/reed_solomon.hpp"

namespace sharq::fec {

/// Sender-side view of one FEC packet group.
///
/// Wraps a ReedSolomon codec around the k application packets of a group
/// and hands out parity shards on demand. SHARQFEC repairers generate
/// parity lazily ("repair id" = shard index), so this object caches the
/// codec and data and produces shard `index` in O(k * size).
class GroupEncoder {
 public:
  /// `data` must contain exactly codec->k() equal-sized packets.
  GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
               std::vector<std::vector<std::uint8_t>> data);

  int k() const { return codec_->k(); }
  int max_shards() const { return codec_->max_shards(); }

  /// Shard `index` (data packet for index < k, parity otherwise) as a
  /// ref-counted buffer ready to attach to a message. Parity is generated
  /// directly into that allocation (no intermediate copy on the repair
  /// path).
  std::shared_ptr<const std::vector<std::uint8_t>> shard_shared(
      int index) const;

  /// Heap bytes retained by the cached data view (memory-census probe;
  /// std-only so fec stays free of stats dependencies).
  std::size_t memory_bytes() const {
    std::size_t total = data_.capacity() * sizeof(data_[0]) +
                        data_ptrs_.capacity() * sizeof(data_ptrs_[0]);
    for (const auto& d : data_) total += d.capacity();
    return total;
  }

 private:
  std::shared_ptr<const ReedSolomon> codec_;
  std::vector<std::vector<std::uint8_t>> data_;
  std::vector<const std::uint8_t*> data_ptrs_;  // codec-ready view of data_
};

/// Receiver-side view of one FEC packet group.
///
/// Accumulates shards (data or parity, in any order, duplicates ignored)
/// and reports completion once any k distinct shards have arrived. Decoding
/// is deferred until requested.
class GroupDecoder {
 public:
  explicit GroupDecoder(std::shared_ptr<const ReedSolomon> codec);

  int k() const { return codec_->k(); }

  /// Add one received shard. Returns true if it was new (not a duplicate).
  bool add(int index, std::vector<std::uint8_t> bytes);

  /// True once any k distinct shards are held.
  bool complete() const { return distinct_ >= codec_->k(); }

  /// Number of distinct shards held.
  int distinct() const { return distinct_; }

  /// Number of distinct *data* shards held.
  int distinct_data() const { return distinct_data_; }

  /// Shards still required to complete the group (>= 0).
  int deficit() const { return std::max(0, codec_->k() - distinct_); }

  /// True if shard `index` has been received.
  bool has(int index) const;

  /// Recover the k original packets; nullopt unless complete().
  std::optional<std::vector<std::vector<std::uint8_t>>> reconstruct() const;

  /// Heap bytes retained by the accumulated shards (memory-census probe).
  std::size_t memory_bytes() const {
    std::size_t total = shards_.capacity() * sizeof(shards_[0]) +
                        have_.capacity() / 8;
    for (const auto& s : shards_) total += s.bytes.capacity();
    return total;
  }

 private:
  std::shared_ptr<const ReedSolomon> codec_;
  std::vector<ReedSolomon::Shard> shards_;
  std::vector<bool> have_;
  int distinct_ = 0;
  int distinct_data_ = 0;
};

}  // namespace sharq::fec
