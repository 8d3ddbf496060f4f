#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace sharq::stats {
class Metrics;
class Counter;
class Gauge;
}  // namespace sharq::stats

namespace sharq::sim {

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// Encodes (generation, slot) into the event slab; a stale handle —
/// the event already fired or was cancelled — is harmless: cancelling it
/// is a no-op, because the slot's generation has moved on.
struct EventId {
  std::uint64_t value = 0;

  bool valid() const { return value != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Time-ordered queue of callbacks with O(1) (lazy) cancellation: a binary
/// min-heap of `(time, seq)` keys over a slab of callback slots.
///
/// Ordering is strictly `(time, seq)`: ties in time fire in scheduling
/// order, which is what keeps same-seed runs byte-identical
/// (docs/ARCHITECTURE.md, "Event core").
///
/// Storage is a slab: callbacks live in recycled 80-byte slots, the heap
/// holds 24-byte keys, and the callback type itself (sim::Callback)
/// stores captures inline — so scheduling an event performs no heap
/// allocation in steady state. Slots come in fixed chunks of kChunkSlots,
/// allocated when the free list runs dry and kept until the queue is
/// destroyed: growing the slab never moves a pending callback, and never
/// holds two copies of the slots. Free slots form an intrusive LIFO list.
/// A cancelled event's key stays in the heap until it surfaces or a
/// compaction purges it; compaction runs once stale keys outnumber live
/// events, so a Timer re-armed forever keeps the heap within twice its
/// live size.
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Slots per slab chunk: 80 KiB a chunk.
  static constexpr std::uint32_t kChunkSlots = 1024;

  /// Schedule `fn` to run at absolute time `at`. Returns a handle that can
  /// be passed to cancel(). `tag` names the event's purpose for the
  /// metrics registry ("transfer.request", "net.propagate", ...); it must
  /// point at a string literal (stored, never copied).
  EventId schedule(Time at, Callback fn, const char* tag = nullptr);

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending (and is now guaranteed not to run).
  bool cancel(EventId id);

  /// True while `id` names a scheduled event that has neither fired nor
  /// been cancelled: a generation check on its slot, so stale and invalid
  /// handles read false.
  bool pending(EventId id) const;

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events still pending.
  std::size_t size() const { return live_; }

  /// Keys held by the heap, live and stale (cancelled but not yet purged).
  std::size_t stored_keys() const { return heap_.size(); }

  /// Time of the earliest live event; kTimeInfinity when empty.
  Time next_time();

  /// Pop and return the earliest live event. On an empty queue returns an
  /// inert Fired{kTimeInfinity, nullptr} in every build type — callers
  /// must check `fn` (the old assert compiled out of Release and left a
  /// dangling top() dereference).
  struct Fired {
    Time at = 0.0;
    Callback fn;
  };
  Fired pop();

  /// Drop every pending event.
  void clear();

  /// Test-only: overwrite a *free* slot's generation counter so the
  /// generation-wrap retirement path can be exercised without 2^32 mint
  /// cycles (tests/test_event_queue.cpp). Aborts if the slot is live or
  /// lies beyond the chunks allocated so far.
  void test_set_slot_generation(std::uint32_t slot, std::uint32_t gen);

  /// Attach a metrics registry: per-tag scheduled/fired/cancelled counters
  /// and the queue high-water mark. Pass nullptr to detach. Events
  /// scheduled before the call are still counted at fire/cancel time.
  /// `shard >= 0` adds a {"shard", N} label to every family this queue
  /// registers, so sharded runs can tell the per-shard queues apart
  /// (ShardRuntime::set_metrics passes each shard's index, including
  /// shard 0 — overriding the unlabeled registration from setup).
  void set_metrics(stats::Metrics* metrics, int shard = -1);

  /// Bytes retained by the queue's own containers (slot chunks and their
  /// pointer table, heap keys) — capacity, since neither shrinks. Feeds
  /// the "event_queue" category of the profiler's memory census.
  std::size_t memory_bytes() const;

 private:
  /// Ordering key held by the heap; the callback stays in its slot.
  /// A key is stale once its slot's generation has moved on (the event
  /// fired or was cancelled); stale keys are skipped on pop.
  struct Key {
    Time at = 0.0;
    std::uint64_t seq = 0;   // global tie-break
    std::uint32_t slot = 0;  // slab index: chunk * kChunkSlots + offset
    std::uint32_t gen = 0;   // generation the key was minted under
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    union {
      const char* tag = nullptr;  // while live
      std::uint32_t next_free;    // while on the free list (kNoSlot: last)
    };
    // Starts at 1 so EventId.value is never 0. When the counter wraps
    // back to 0 after 2^32-1 mints the slot is *retired* (never recycled):
    // reusing it would alias a fresh event with the oldest stale EventId
    // still in flight, and cancel() would kill the wrong event. gen == 0
    // marks a retired slot.
    std::uint32_t gen = 1;
    bool live = false;
  };
  // Every pending event pins one slot (63k at once on d3_f8_8k), so a new
  // field here grows memory at every scale.
  static_assert(sizeof(Slot) <= 80, "EventQueue::Slot grew past 80 bytes");
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct TagCounters {
    stats::Counter* scheduled = nullptr;
    stats::Counter* fired = nullptr;
    stats::Counter* cancelled = nullptr;
  };

  Slot& slot_at(std::uint32_t slot) const {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }
  std::size_t slot_count() const { return chunks_.size() * kChunkSlots; }
  bool stale(const Key& k) const {
    const Slot& s = slot_at(k.slot);
    return !s.live || s.gen != k.gen;
  }
  /// Push a free, unretired slot onto the free list.
  void push_free(std::uint32_t slot);
  void free_slot(std::uint32_t slot);
  /// Allocate one chunk and thread its slots onto the free list so they
  /// are handed out in index order.
  void add_chunk();

  /// Pop stale keys off the heap top; afterwards the top (if any) is the
  /// earliest live event.
  void drop_stale_top();

  /// Purge every stale key and re-heapify.
  void compact();

  TagCounters& counters_for(const char* tag);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  /// Min-heap on (at, seq) via std::push_heap/pop_heap with Later.
  std::vector<Key> heap_;

  stats::Metrics* metrics_ = nullptr;
  stats::Gauge* high_water_ = nullptr;
  int shard_ = -1;  ///< label for this queue's metric families (-1 = none)
  // Keyed by tag *contents*, ordered: two distinct literals spelling the
  // same tag share one counter family, and iteration order (if anyone
  // ever walks this) cannot follow literal addresses. The string_view
  // keys borrow the caller's string literals, same lifetime contract as
  // the old pointer keys.
  std::map<std::string_view, TagCounters> tag_counters_;
};

}  // namespace sharq::sim
