#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "stats/metrics.hpp"

namespace sharq::sim {

namespace {
constexpr const char* kUntagged = "untagged";
// Stale keys tolerated beyond the live count before schedule() compacts.
// Keeps small queues from compacting on every re-arm; the heap stays
// within 2 x live + kCompactSlack keys.
constexpr std::size_t kCompactSlack = 64;
}  // namespace

void EventQueue::set_metrics(stats::Metrics* metrics, int shard) {
  metrics_ = metrics;
  shard_ = shard;
  tag_counters_.clear();
  if (!metrics_) {
    high_water_ = nullptr;
    return;
  }
  stats::Labels labels;
  if (shard_ >= 0) labels.emplace("shard", std::to_string(shard_));
  high_water_ = &metrics_->gauge("sim.queue_high_water", labels);
}

EventQueue::TagCounters& EventQueue::counters_for(const char* tag) {
  if (!tag) tag = kUntagged;
  auto [it, inserted] = tag_counters_.try_emplace(tag);
  if (inserted) {
    stats::Labels labels{{"tag", tag}};
    if (shard_ >= 0) labels.emplace("shard", std::to_string(shard_));
    it->second.scheduled = &metrics_->counter("sim.events_scheduled", labels);
    it->second.fired = &metrics_->counter("sim.events_fired", labels);
    it->second.cancelled = &metrics_->counter("sim.events_cancelled", labels);
  }
  return it->second;
}

std::size_t EventQueue::memory_bytes() const {
  return slot_count() * sizeof(Slot) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         heap_.capacity() * sizeof(Key);
}

void EventQueue::add_chunk() {
  const auto base = static_cast<std::uint32_t>(slot_count());
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  for (std::uint32_t i = kChunkSlots; i-- > 0;) push_free(base + i);
}

EventId EventQueue::schedule(Time at, Callback fn, const char* tag) {
  if (free_head_ == kNoSlot) add_chunk();
  const std::uint32_t slot = free_head_;
  Slot& s = slot_at(slot);
  free_head_ = s.next_free;
  s.fn = std::move(fn);
  s.tag = tag;
  s.live = true;
  heap_.push_back(Key{at, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (metrics_) {
    counters_for(tag).scheduled->inc();
    high_water_->set_max(static_cast<double>(live_));
  }
  if (heap_.size() - live_ > live_ + kCompactSlack) compact();
  return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | slot};
}

bool EventQueue::pending(EventId id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slot_count()) return false;
  const Slot& s = slot_at(slot);
  return s.live && s.gen == gen;
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
  if (metrics_) counters_for(slot_at(slot).tag).cancelled->inc();
  // The key stays in the heap and is skipped as stale when it surfaces
  // (or purged by the next compaction) — the generation has moved on.
  free_slot(slot);
  --live_;
  return true;
}

void EventQueue::push_free(std::uint32_t slot) {
  slot_at(slot).next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.fn = nullptr;  // release captured state promptly
  s.live = false;
  ++s.gen;
  // Generation wrapped: retire the slot instead of recycling it. A fresh
  // mint would reissue generation numbers still held by stale EventIds
  // (and gen 0 would make EventId.value == slot, colliding with the null
  // id for slot 0). Retired slots simply never re-enter the free list.
  if (s.gen == 0) return;
  push_free(slot);
}

void EventQueue::drop_stale_top() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void EventQueue::compact() {
  // Which keys survive depends only on cancellations, and pop order only
  // on the (at, seq) total order, so compacting never changes history.
  std::erase_if(heap_, [this](const Key& k) { return stale(k); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

Time EventQueue::next_time() {
  drop_stale_top();
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  drop_stale_top();
  if (heap_.empty()) return Fired{kTimeInfinity, nullptr};
  const Key k = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Slot& s = slot_at(k.slot);
  Fired fired{k.at, std::move(s.fn)};
  if (metrics_) counters_for(s.tag).fired->inc();
  free_slot(k.slot);
  --live_;
  return fired;
}

void EventQueue::clear() {
  // Rebuild the free list from scratch, lowest index on top, so a
  // cleared queue hands out slots in the same order as a fresh one.
  free_head_ = kNoSlot;
  for (std::size_t i = slot_count(); i-- > 0;) {
    Slot& s = slot_at(static_cast<std::uint32_t>(i));
    if (s.live) {
      s.fn = nullptr;
      s.live = false;
      ++s.gen;
    }
    if (s.gen == 0) continue;  // retired (generation wrapped)
    push_free(static_cast<std::uint32_t>(i));
  }
  live_ = 0;
  heap_.clear();
}

void EventQueue::test_set_slot_generation(std::uint32_t slot,
                                          std::uint32_t gen) {
  if (slot >= slot_count() || slot_at(slot).live) {
    std::abort();  // the hook only touches allocated, free slots
  }
  slot_at(slot).gen = gen;
}

}  // namespace sharq::sim
