#pragma once

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <memory>
#include <unordered_set>
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

/// Shard buffers a memory census has already counted, by address, so a
/// buffer shared by many holders is counted once (membership only; never
/// iterated, so its order cannot leak).
// sharq-lint: pointer-key-ok (membership only, order never observed)
using BufferSet = std::unordered_set<const void*>;

/// One shard of a group: its global index (0..k-1 originals, k.. parity)
/// and its bytes.
struct IndexedShard {
  int index = 0;
  ShardBuffer bytes;
};

/// Sender-side view of one FEC packet group.
///
/// Built from any k distinct shards of a group (its *basis*) and hands out
/// shards on demand. The code is MDS, so those k shards determine every
/// other: with S the basis rows of the generator, shard p is
/// (G_p * S^-1) * basis. The source's basis is its k originals (S = I, the
/// systematic case); a repairer's is whatever k shards its decoder holds,
/// so it never rebuilds a missing original to make parity. SHARQFEC
/// repairers generate parity lazily ("repair id" = shard index): shard
/// `index` costs O(k * size), once, because the buffer is kept and a
/// repeated index is handed out again, not re-encoded.
class GroupEncoder {
 public:
  /// The systematic case: `data` holds exactly codec->k() equal-sized,
  /// non-null buffers, original d at position d.
  GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
               std::vector<ShardBuffer> data);

  /// The general case: `basis` holds exactly codec->k() distinct, in-range
  /// shards with equal-sized, non-null buffers. S is inverted here, once.
  /// The encoder shares the buffers; it never copies the bytes.
  GroupEncoder(std::shared_ptr<const ReedSolomon> codec,
               std::vector<IndexedShard> basis);

  int k() const { return codec_->k(); }
  int max_shards() const { return codec_->max_shards(); }

  /// Shard `index` ready to attach to a message: a basis shard's buffer
  /// itself; any other shard is encoded on first request directly into the
  /// allocation every later holder shares.
  ShardBuffer shard_shared(int index);

  /// Heap bytes of the encoder's basis arrays, of S^-1 and of the buffers
  /// it encoded (memory-census probe; std-only so fec stays free of stats
  /// dependencies). The basis buffers are counted by whoever allocated
  /// them.
  std::size_t memory_bytes() const {
    std::size_t total = basis_.capacity() * sizeof(basis_[0]) +
                        basis_ptrs_.capacity() * sizeof(basis_ptrs_[0]) +
                        static_cast<std::size_t>(from_basis_.rows()) *
                            static_cast<std::size_t>(from_basis_.cols()) +
                        encoded_.capacity() * sizeof(encoded_[0]);
    for (const auto& e : encoded_) total += buffer_bytes(e.bytes);
    return total;
  }
  /// The k shards the encoder was built from, by index.
  const std::vector<IndexedShard>& basis() const { return basis_; }
  /// The shards this encoder encoded (and so allocated), in request order.
  const std::vector<IndexedShard>& encoded() const { return encoded_; }

 private:
  std::shared_ptr<const ReedSolomon> codec_;
  std::vector<IndexedShard> basis_;                // sorted by index
  std::vector<const std::uint8_t*> basis_ptrs_;    // codec-ready view
  Matrix from_basis_;  // S^-1; empty when the basis is the k originals
  std::vector<IndexedShard> encoded_;              // in request order
};

/// The fixed-size half of one group's decoder: which indices arrived and
/// how many shard handles are held. The handles themselves sit in two
/// caller-owned arrays of k entries each (see GroupDecoder), so an owner
/// keeping many groups can pack them at stride k with no per-group heap
/// allocation.
struct DecoderState {
  std::bitset<256> seen;           ///< every index received (max_shards <= 255)
  std::uint8_t distinct = 0;       ///< distinct indices received
  std::uint8_t distinct_data = 0;  ///< of those, originals
  std::uint8_t held = 0;           ///< handle slots in use, <= k
};

/// Receiver-side view of one FEC packet group, over storage its owner keeps:
/// a DecoderState and k handle and k index slots.
///
/// Accumulates shards (data or parity, in any order, duplicates ignored)
/// and reports completion once any k distinct shards have arrived. It
/// records every index it has seen but holds at most k buffers (shared,
/// never copied): every original, then the earliest-arriving parity. That
/// is exactly the set ReedSolomon::decode would pick from everything
/// received, so a later parity shard adds nothing a decode would use, and
/// once k are held an arriving original displaces the latest-arriving
/// parity. Decoding is deferred until requested. A view is four pointers;
/// build one where it is used.
class GroupDecoder {
 public:
  /// `bytes` and `index` point at codec.k() slots each; the view never
  /// reads or writes past them. The codec and the storage must outlive it.
  GroupDecoder(const ReedSolomon& codec, DecoderState& state,
               ShardBuffer* bytes, std::uint8_t* index)
      : codec_(&codec), state_(&state), bytes_(bytes), index_(index) {}

  int k() const { return codec_->k(); }

  /// Add one received shard; the decoder may share `bytes` (null in a
  /// size-only simulation). Returns true if it was new (not a duplicate).
  bool add(int index, ShardBuffer bytes);

  /// True once any k distinct shards have arrived.
  bool complete() const { return state_->distinct >= codec_->k(); }

  /// Number of distinct shards received.
  int distinct() const { return state_->distinct; }

  /// Number of distinct *data* shards received.
  int distinct_data() const { return state_->distinct_data; }

  /// Shards still required to complete the group (>= 0).
  int deficit() const { return std::max(0, codec_->k() - distinct()); }

  /// True if shard `index` has been received (held or not).
  bool has(int index) const {
    return index >= 0 && index < codec_->max_shards() &&
           state_->seen.test(static_cast<std::size_t>(index));
  }

  /// The buffer held for shard `index`; null when it is not held.
  ShardBuffer held(int index) const;

  /// Number of shards held, at most k.
  int held_count() const { return state_->held; }

  /// The shards held, in no particular order: once complete(), exactly k,
  /// a basis for a GroupEncoder.
  std::vector<IndexedShard> held_shards() const;

  /// The k original packets, concatenated into one k x size allocation;
  /// empty unless complete().
  std::vector<std::uint8_t> reconstruct() const;

 private:
  const ReedSolomon* codec_;
  DecoderState* state_;
  ShardBuffer* bytes_;    // k slots, [0, held) in use
  std::uint8_t* index_;   // the shard index of each used slot
};

}  // namespace sharq::fec
