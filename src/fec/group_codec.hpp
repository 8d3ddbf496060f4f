#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fec/reed_solomon.hpp"

namespace sharq::fec {

/// One shard's bytes, immutable once built and shared by every holder:
/// the encoder that produced it, the message that carries it and every
/// decoder that received it. A shard's bytes exist once per process.
using ShardBuffer = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Heap bytes of one shard buffer (memory-census probe): the byte storage
/// plus the make_shared block holding the vector header and its
/// reference counts.
inline std::size_t buffer_bytes(const ShardBuffer& b) {
  constexpr std::size_t kControlBlock = 16;
  return b ? b->capacity() + sizeof(*b) + kControlBlock : 0;
}

/// Sender-side view of one FEC packet group.
///
/// Wraps a ReedSolomon codec around the k application packets of a group
/// and hands out shards on demand. SHARQFEC repairers generate parity
/// lazily ("repair id" = shard index), so this object holds the k data
/// buffers and produces parity shard `index` in O(k * size), once: the
/// buffer is kept, so a repeated index is handed out again, not re-encoded.
class GroupEncoder {
 public:
  /// `data` must hold exactly codec->k() equal-sized, non-null buffers.
  /// The encoder shares them; it never copies the bytes.
  GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
               std::vector<ShardBuffer> data);

  int k() const { return codec_->k(); }
  int max_shards() const { return codec_->max_shards(); }

  /// Shard `index` ready to attach to a message: for index < k the data
  /// buffer itself; otherwise the parity buffer, encoded on first request
  /// directly into the allocation every later holder shares.
  ShardBuffer shard_shared(int index);

  /// Heap bytes of the encoder's handle arrays and of the parity buffers
  /// it produced (memory-census probe; std-only so fec stays free of stats
  /// dependencies). The data buffers are counted by whoever allocated
  /// them: see data().
  std::size_t memory_bytes() const {
    std::size_t total = data_.capacity() * sizeof(data_[0]) +
                        data_ptrs_.capacity() * sizeof(data_ptrs_[0]) +
                        parity_.capacity() * sizeof(parity_[0]);
    for (const auto& p : parity_) total += buffer_bytes(p.second);
    return total;
  }
  /// The k data buffers the encoder was built from.
  const std::vector<ShardBuffer>& data() const { return data_; }

 private:
  std::shared_ptr<const ReedSolomon> codec_;
  std::vector<ShardBuffer> data_;
  std::vector<const std::uint8_t*> data_ptrs_;  // codec-ready view of data_
  std::vector<std::pair<int, ShardBuffer>> parity_;  // issued, by index
};

/// Receiver-side view of one FEC packet group.
///
/// Accumulates shards (data or parity, in any order, duplicates ignored)
/// and reports completion once any k distinct shards have arrived. It
/// holds the received buffers themselves, never copies. Decoding is
/// deferred until requested.
class GroupDecoder {
 public:
  explicit GroupDecoder(std::shared_ptr<const ReedSolomon> codec);

  int k() const { return codec_->k(); }

  /// Add one received shard; the decoder shares `bytes` (null in a
  /// size-only simulation). Returns true if it was new (not a duplicate).
  bool add(int index, ShardBuffer bytes);

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

  /// The buffer held for shard `index`; null when it is not held.
  ShardBuffer held(int index) const;

  /// The k original packets, concatenated into one k x size allocation;
  /// empty unless complete().
  std::vector<std::uint8_t> reconstruct() const;

  /// The k original packets as shareable buffers: held originals are
  /// returned as they are, and only the missing ones are decoded, each
  /// into a new buffer. Empty unless complete().
  std::vector<ShardBuffer> originals() const;

  /// Heap bytes of the shard entries (memory-census probe). Handles only:
  /// a buffer is counted by the engine that allocated it.
  std::size_t memory_bytes() const {
    return shards_.capacity() * sizeof(shards_[0]) + have_.capacity() / 8;
  }

 private:
  struct Entry {
    int index = 0;
    ShardBuffer bytes;
  };
  /// Shared by reconstruct() and originals(): decode the held shards into
  /// out[d] (k pointers, null = skip); false when they cannot decode.
  bool decode_into(std::size_t size, std::uint8_t* const* out) const;
  std::size_t shard_size() const;

  std::shared_ptr<const ReedSolomon> codec_;
  std::vector<Entry> shards_;
  std::vector<bool> have_;
  int distinct_ = 0;
  int distinct_data_ = 0;
};

}  // namespace sharq::fec
