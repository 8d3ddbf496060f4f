#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fec/reed_solomon.hpp"

namespace sharq::fec {

/// One shard's bytes, immutable once built and shared by every holder:
/// the encoder that produced it, the messages that carry it and the lane
/// store (ShardStore) that every decoder resolves it through. Within one
/// execution lane a shard's bytes exist once.
using ShardBuffer = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Heap bytes of one shard buffer (memory-census probe): the byte storage
/// plus the make_shared block holding the vector header and its
/// reference counts.
inline std::size_t buffer_bytes(const ShardBuffer& b) {
  constexpr std::size_t kControlBlock = 16;
  return b ? b->capacity() + sizeof(*b) + kControlBlock : 0;
}

/// One execution lane's shard buffers, content-addressed by (group,
/// index): at most one buffer per key, with a count of the holders that
/// refer to it (decoders, encoders, the source's payload). The code is MDS,
/// so every holder of a key needs the same bytes: a shard received,
/// encoded or sent anywhere in the lane is kept once, and a buffer leaves
/// the store with its last holder (messages in flight keep their own
/// handle). A store is touched only by the lane that owns it; a buffer
/// crossing lanes travels in its message and the receiving lane's store
/// adopts it, so no lane shares mutable state with another.
class ShardStore {
 public:
  /// The lane's buffer for shard `index` of `group`, or null when it holds
  /// none.
  const ShardBuffer* find(std::uint32_t group, int index) const;

  /// Add one holder of (group, index) and return the lane's buffer for it:
  /// the one already held, else `bytes` (non-null), adopted.
  const ShardBuffer& hold(std::uint32_t group, int index,
                          const ShardBuffer& bytes);

  /// Drop one holder of (group, index); the last one takes the buffer out
  /// of the store. No-op for a key the store does not hold.
  void release(std::uint32_t group, int index);

  /// Number of (group, index) buffers held.
  std::size_t size() const { return size_; }

  /// Calls `fn(const std::vector<T>&)` for each of the store's own arrays,
  /// so the census can size them (buffers excluded).
  template <class Fn>
  void for_each_array(Fn&& fn) const {
    fn(groups_);
    for (const auto& entries : groups_) fn(entries);
  }

  /// Calls `fn(const ShardBuffer&)` for every buffer held (census only:
  /// the order is the store's layout, never observed).
  template <class Fn>
  void for_each_buffer(Fn&& fn) const {
    for (const auto& entries : groups_) {
      for (const Entry& e : entries) fn(e.bytes);
    }
  }

 private:
  struct Entry {
    ShardBuffer bytes;
    std::uint32_t holders = 0;
    std::uint8_t index = 0;
  };
  Entry* entry(std::uint32_t group, int index);

  std::vector<std::vector<Entry>> groups_;  // by group id, entries unordered
  std::size_t size_ = 0;
};

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

/// The fixed-size half of one group's decoder: how many indices arrived
/// and how many shards are held. Which indices arrived and which are held
/// sit in a caller-owned block (see GroupDecoder::block_bytes), so an owner
/// keeping many groups can pack them at one stride with no per-group heap
/// allocation.
struct DecoderState {
  std::uint8_t distinct = 0;       ///< distinct indices received
  std::uint8_t distinct_data = 0;  ///< of those, originals
  std::uint8_t held = 0;           ///< index slots in use, <= k
};

/// Receiver-side view of one FEC packet group, over storage its owner keeps:
/// a DecoderState, a block of k index slots and one bit per shard index,
/// and the lane's ShardStore.
///
/// Accumulates shards (data or parity, in any order, duplicates ignored)
/// and reports completion once any k distinct shards have arrived. It
/// records every index it has seen but holds at most k shards: every
/// original, then the earliest-arriving parity, exactly what decode would
/// pick (ReedSolomon::decode over everything received), until the group
/// settles (hold_originals). So a later parity shard adds nothing a decode
/// would use, and once k are held an arriving original displaces the
/// latest-arriving parity. The decoder keeps only the held indices; their
/// bytes are holds in the lane store, under (group, index). Decoding is
/// deferred until requested. A view is five words; build one where it is
/// used.
class GroupDecoder {
 public:
  /// Bytes of one decoder's block: k held-index slots, then one bit per
  /// shard index (max_shards <= 255), all zero in a fresh decoder.
  static std::size_t block_bytes(const ReedSolomon& codec) {
    return static_cast<std::size_t>(codec.k()) +
           (static_cast<std::size_t>(codec.max_shards()) + 7) / 8;
  }

  /// `block` points at block_bytes(codec) bytes; the view never reads or
  /// writes past them. The codec, the storage and the store must outlive
  /// it.
  GroupDecoder(const ReedSolomon& codec, DecoderState& state,
               std::uint8_t* block, ShardStore& store, std::uint32_t group)
      : codec_(&codec),
        state_(&state),
        index_(block),
        store_(&store),
        group_(group) {}

  int k() const { return codec_->k(); }

  /// Add one received shard; a held shard's `bytes` are held in the store
  /// (null in a size-only simulation: nothing is stored). All adds to one
  /// decoder carry bytes or none do (asserted; TransferEngine::handle
  /// rejects messages that would break it). Returns true if it was new (not
  /// a duplicate).
  bool add(int index, const ShardBuffer& bytes);

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
           (seen()[index >> 3] >> (index & 7) & 1) != 0;
  }

  /// The buffer held for shard `index`, resolved through the store; null
  /// when it is not held.
  ShardBuffer held(int index) const;

  /// Number of shards held, at most k.
  int held_count() const { return state_->held; }

  /// True if a parity shard is among those held.
  bool holds_parity() const;

  /// Settle a complete group onto its k originals: each held parity index
  /// is replaced by the lowest original not yet held, and its store hold by
  /// one on that original, the lane's buffer when the store has one, else
  /// bytes decoded here (one decode for all the originals the lane lacks).
  /// What was received (has, distinct, distinct_data) is unchanged, and a
  /// later original finds no parity to displace, which leaves the state as
  /// displacing one would. No-op unless complete; a size-only decoder only
  /// renumbers its slots.
  void hold_originals();

  /// The shards held, in no particular order, with their buffers from the
  /// store: once complete(), exactly k, a basis for a GroupEncoder.
  std::vector<IndexedShard> held_shards() const;

  /// The k original packets, concatenated into one k x size allocation;
  /// empty unless complete().
  std::vector<std::uint8_t> reconstruct() const;

 private:
  const ShardBuffer* bytes_of(int slot) const {
    return store_->find(group_, index_[slot]);
  }
  std::uint8_t* seen() const { return index_ + codec_->k(); }

  const ReedSolomon* codec_;
  DecoderState* state_;
  std::uint8_t* index_;   // k slots ([0, held) in use), then the seen bits
  ShardStore* store_;
  std::uint32_t group_;
};

}  // namespace sharq::fec
