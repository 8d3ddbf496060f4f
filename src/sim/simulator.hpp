#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace sharq::sim {

/// Discrete-event simulation engine.
///
/// Owns the virtual clock, the event queue, and the root random stream.
/// Every other component (links, agents, protocols) schedules work through
/// this object; nothing in the library reads wall-clock time.
///
/// Typical use:
/// ```
/// Simulator simu(/*seed=*/42);
/// simu.after(1.0, [&]{ ... });
/// simu.run_until(20.0);
/// ```
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (clamped to now()). `tag` must be
  /// a string literal naming the event for metrics (may be nullptr).
  EventId at(Time when, EventQueue::Callback fn, const char* tag = nullptr);

  /// Schedule `fn` after a relative delay (clamped to >= 0).
  EventId after(Time delay, EventQueue::Callback fn, const char* tag = nullptr);

  /// Cancel a pending event; harmless on stale/invalid handles.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// True while the event `id` names is scheduled and has neither fired
  /// nor been cancelled (nor discarded by stop()).
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Run until the queue drains or virtual time would pass `until`.
  /// Events scheduled exactly at `until` are executed.
  void run_until(Time until);

  /// Run every event strictly before `t`, then advance the clock to `t`.
  /// The shard runtime's window primitive: windows are half-open [h, h+L)
  /// so an event exactly at a window boundary belongs to the next window.
  void run_before(Time t);

  /// Time of the earliest pending event (kTimeInfinity when idle). The
  /// shard runtime derives each window's horizon from the minimum across
  /// shards.
  Time next_event_time() { return queue_.next_time(); }

  /// Run until the queue drains completely.
  void run();

  /// Execute at most one event; returns false if the queue was empty.
  bool step();

  /// Abort the run: discards every pending event.
  void stop() { queue_.clear(); }

  /// Number of events executed so far (for tests and micro-benchmarks).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  std::size_t events_pending() const { return queue_.size(); }

  /// Root random stream for this run.
  Rng& rng() { return rng_; }

  /// Attach a metrics registry to the event queue (per-tag event counters
  /// and the queue high-water mark). Pass nullptr to detach.
  void set_metrics(stats::Metrics* metrics, int shard = -1) {
    queue_.set_metrics(metrics, shard);
  }

  /// Bytes retained by the event queue (slots, heap keys) —
  /// the profiler census's "event_queue" category.
  std::size_t queue_memory_bytes() const { return queue_.memory_bytes(); }

 private:
  EventQueue queue_;
  Rng rng_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
};

/// A restartable one-shot timer bound to a Simulator.
///
/// Protocols use many of these (request timers, reply timers, session
/// timers). The class guarantees that after cancel()/restart the old
/// callback can no longer fire, which removes a whole class of
/// use-after-reschedule bugs.
///
/// The timer owns no callable: arm() schedules the caller's callback
/// straight into the event queue's slab slot, and the timer keeps only the
/// event's handle. pending() is a generation check on that handle, so a
/// fired, cancelled or stop()-discarded event reads idle without the queue
/// ever calling back into the timer. Because no event refers to the Timer
/// object, a Timer can be moved while armed; the moved-from object is left
/// idle and its destructor cancels nothing. A Timer that was ever armed
/// reads its Simulator on destruction, so it must not outlive it.
class Timer {
 public:
  explicit Timer(Simulator& simu) : simu_(&simu) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  Timer(Timer&& other) noexcept
      : simu_(other.simu_),
        id_(std::exchange(other.id_, EventId{})),
        tag_(other.tag_) {}

  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      cancel();
      simu_ = other.simu_;
      id_ = std::exchange(other.id_, EventId{});
      tag_ = other.tag_;
    }
    return *this;
  }

  /// (Re)arm the timer to fire `delay` seconds from now. Any previously
  /// armed firing is cancelled first.
  void arm(Time delay, Callback fn);

  /// Arm only if not already pending.
  void arm_if_idle(Time delay, Callback fn);

  /// Cancel a pending firing, if any, releasing its captured state.
  void cancel();

  /// True if a firing is scheduled and has not yet run. False inside the
  /// timer's own callback: the event has left the queue by then.
  bool pending() const { return simu_->pending(id_); }

  /// Name this timer's firings for event metrics. Must be a string
  /// literal; applies to subsequent arm() calls.
  void set_tag(const char* tag) { tag_ = tag; }

 private:
  Simulator* simu_;
  EventId id_{};
  const char* tag_ = nullptr;
};
// Protocol agents hold ~28 timers per receiver on d3_f8_8k; the armed
// callable lives in the event queue's slot, so a timer is only its handle
// and tag.
static_assert(sizeof(Timer) == 24, "sim::Timer must stay closure-free");

}  // namespace sharq::sim
