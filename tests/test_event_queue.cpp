#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace sharq::sim {
namespace {

class EventQueueTest : public testing::Test {
 protected:
  EventQueue q;
};

TEST_F(EventQueueTest, OrdersByTime) {
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, TiesBreakByInsertionOrder) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(EventQueueTest, CancelPreventsExecution) {
  bool ran = false;
  EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(ran);
}

TEST_F(EventQueueTest, CancelMiddleOfHeap) {
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST_F(EventQueueTest, NextTimeSkipsCancelled) {
  EventId id = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST_F(EventQueueTest, NextTimeInfinityWhenEmpty) {
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST_F(EventQueueTest, PopOnEmptyReturnsInertFired) {
  // Regression: pop() on an empty queue used to be guarded by an assert
  // only, so a Release build would pop from an empty heap (UB). It must
  // return an inert entry in every build type.
  const EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.at, kTimeInfinity);
  EXPECT_FALSE(f.fn);
}

TEST_F(EventQueueTest, PopAfterCancellingEverythingIsInert) {
  // The heap still physically holds the cancelled entry; pop() must drain
  // it and then report empty rather than returning a dead callback.
  EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  const EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.at, kTimeInfinity);
  EXPECT_FALSE(f.fn);
}

TEST_F(EventQueueTest, GenerationWrapRetiresSlotInsteadOfAliasing) {
  // Regression (slot-generation ABA wrap): SlotMeta::gen is a uint32
  // starting at 1 "so EventId.value is never 0". After 2^32 mint cycles
  // on one slot the generation wraps back through 0, so (a) the next
  // EventId minted on slot 0 had value 0 — indistinguishable from the
  // null handle — and (b) a stale EventId from 2^32 cycles ago aliased
  // the fresh event, letting cancel() kill the wrong one. The fix
  // retires a slot whose generation wraps; this forces the wrap via the
  // test hook instead of 2^32 real cycles.
  EventId first = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(first));  // slot 0 now free, gen 2
  q.test_set_slot_generation(0, 0xFFFFFFFFu);

  EventId last_gen = q.schedule(1.0, [] {});  // minted at gen 2^32-1
  EXPECT_TRUE(last_gen.valid());
  EXPECT_EQ(last_gen.value >> 32, 0xFFFFFFFFu);
  EXPECT_TRUE(q.cancel(last_gen));  // gen wraps to 0 -> slot retired

  // Pre-fix: the next schedule recycled slot 0 at gen 0 and returned
  // EventId{0} — an invalid handle for a live event. Post-fix the slot
  // is retired and a fresh slot is allocated.
  bool ran = false;
  EventId fresh = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(fresh.valid());
  EXPECT_NE(fresh.value & 0xFFFFFFFFu, 0u);  // not slot 0
  EXPECT_NE(fresh, first);
  EXPECT_NE(fresh, last_gen);

  // The stale wrapped-era handles must not touch the live event.
  EXPECT_FALSE(q.cancel(first));
  EXPECT_FALSE(q.cancel(last_gen));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(ran);

  // clear() must also keep retired slots out of the rebuilt free list.
  q.clear();
  EventId after_clear = q.schedule(1.0, [] {});
  EXPECT_TRUE(after_clear.valid());
  EXPECT_NE(after_clear.value & 0xFFFFFFFFu, 0u);
}

// Timer::arm is cancel-then-schedule, so a timer re-armed before it
// fires leaves one stale key behind per re-arm. Without compaction those
// keys pile up until they surface: here, a million of them.
TEST_F(EventQueueTest, RearmedTimersKeepStoredKeysBounded) {
  constexpr int kTimers = 100;
  constexpr std::size_t kSlack = 128;
  std::vector<EventId> ids(kTimers);
  std::size_t worst = 0;
  for (int k = 0; k < 1'000'000; ++k) {
    EventId& id = ids[static_cast<std::size_t>(k % kTimers)];
    q.cancel(id);
    id = q.schedule(1.0 + k * 1e-3, [] {});
    ASSERT_EQ(q.size(), static_cast<std::size_t>(std::min(k + 1, kTimers)));
    worst = std::max(worst, q.stored_keys());
    ASSERT_LE(q.stored_keys(), 2 * q.size() + kSlack) << "after re-arm " << k;
  }
  EXPECT_GT(worst, q.size());  // stale keys did accumulate between compactions
  int fired = 0;
  while (!q.empty()) {
    q.pop().fn();
    ++fired;
  }
  EXPECT_EQ(fired, kTimers);
}

// Randomized property test against a naive reference: every pending event
// in a flat list, the minimum found by a linear scan on (time, seq). The
// queue must agree on schedule, cancel (live and stale handles),
// next_time and pop. Times come from a small grid so ties are common and
// the seq tie-break is exercised; alternating build and churn phases
// (churn cancels more than it schedules) drive the queue through
// compaction. `prefill` events are scheduled before the random ops, so a
// large prefill keeps that many slots live across several slab chunks.
void run_against_reference(std::uint64_t seed, int prefill, int steps,
                           int& compactions) {
  struct Ref {
    Time at;
    std::uint64_t seq;
    int payload;
  };
  Rng rng(seed);
  EventQueue q;
  std::vector<Ref> pending;             // the reference
  std::vector<std::pair<EventId, std::uint64_t>> handles;  // id, seq
  std::vector<EventId> dead;            // fired or cancelled handles
  std::vector<int> fired;
  std::uint64_t seq = 0;
  Time now = 0.0;
  auto ref_min = [&pending] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      const Ref& a = pending[i];
      const Ref& b = pending[best];
      if (a.at < b.at || (a.at == b.at && a.seq < b.seq)) best = i;
    }
    return best;
  };
  auto forget = [&](std::uint64_t s) {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (handles[i].second == s) {
        dead.push_back(handles[i].first);
        handles.erase(handles.begin() + static_cast<long>(i));
        return;
      }
    }
  };
  auto schedule = [&] {
    const Time at = now + static_cast<Time>(rng.uniform_int(0, 20)) * 0.25;
    const int payload = static_cast<int>(rng.uniform_int(0, 1 << 30));
    const std::size_t stored = q.stored_keys();
    const EventId id =
        q.schedule(at, [payload, &fired] { fired.push_back(payload); });
    if (q.stored_keys() <= stored) ++compactions;
    pending.push_back({at, seq, payload});
    handles.emplace_back(id, seq);
    ++seq;
  };
  for (int i = 0; i < prefill; ++i) schedule();
  for (int step = 0; step < steps; ++step) {
    // Cumulative thresholds: schedule, cancel, stale cancel, next_time;
    // the rest pops.
    const bool churn = (step / 500) % 2 == 1;
    const std::int64_t cut[4] = {churn ? 30 : 50, churn ? 75 : 60,
                                 churn ? 85 : 70, churn ? 90 : 80};
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < cut[0]) {
      schedule();
    } else if (op < cut[1] && !handles.empty()) {  // cancel a live event
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const auto [id, s] = handles[pick];
      ASSERT_TRUE(q.cancel(id));
      std::erase_if(pending, [s](const Ref& r) { return r.seq == s; });
      forget(s);
    } else if (op < cut[2] && !dead.empty()) {  // cancel a stale handle
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dead.size()) - 1));
      ASSERT_FALSE(q.cancel(dead[pick]));
    } else if (op < cut[3]) {  // next_time
      const Time expect =
          pending.empty() ? kTimeInfinity : pending[ref_min()].at;
      ASSERT_EQ(q.next_time(), expect);
    } else {  // pop
      EventQueue::Fired f = q.pop();
      if (pending.empty()) {
        ASSERT_EQ(f.at, kTimeInfinity);
        ASSERT_FALSE(f.fn);
        continue;
      }
      const std::size_t m = ref_min();
      const Ref expect = pending[m];
      pending.erase(pending.begin() + static_cast<long>(m));
      forget(expect.seq);
      ASSERT_EQ(f.at, expect.at);
      f.fn();
      ASSERT_EQ(fired.back(), expect.payload);
      now = f.at;
    }
    ASSERT_EQ(q.size(), pending.size());
  }
  while (!pending.empty()) {
    const std::size_t m = ref_min();
    const Ref expect = pending[m];
    pending.erase(pending.begin() + static_cast<long>(m));
    EventQueue::Fired f = q.pop();
    ASSERT_EQ(f.at, expect.at);
    f.fn();
    ASSERT_EQ(fired.back(), expect.payload);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueReference, MatchesNaiveOrderUnderRandomOps) {
  int compactions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_against_reference(seed, /*prefill=*/0, /*steps=*/4000, compactions);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  EXPECT_GT(compactions, 0);
}

// The same reference check with more than three chunks of slots live at
// once, so handles, stale keys and recycled slots span chunk boundaries.
TEST(EventQueueReference, MatchesNaiveOrderAcrossSlabChunks) {
  int compactions = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    run_against_reference(seed, /*prefill=*/3 * EventQueue::kChunkSlots + 500,
                          /*steps=*/6000, compactions);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

// A callable that counts every move made of it into a shared tally.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves(m) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves) { ++*moves; }
  MoveCounter& operator=(MoveCounter&&) = delete;
  void operator()() const {}
};

// Growing the slab allocates a new chunk and leaves every pending
// callback where schedule() put it: no event is moved between its
// schedule() and its pop(), across chunk boundaries too.
TEST_F(EventQueueTest, SlabGrowthNeverMovesPendingCallbacks) {
  constexpr int kEvents = 3 * static_cast<int>(EventQueue::kChunkSlots) + 7;
  std::vector<int> moves(kEvents, 0);
  std::vector<int> after_schedule(kEvents, 0);
  for (int i = 0; i < kEvents; ++i) {
    q.schedule(1.0 + i, MoveCounter(&moves[static_cast<std::size_t>(i)]));
    after_schedule[static_cast<std::size_t>(i)] =
        moves[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(moves, after_schedule);
  while (!q.empty()) q.pop().fn();
}

// Generation-wrap retirement on a slot past the first chunk: the wrapped
// slot is skipped, and neighbouring slots in its chunk stay in use.
TEST_F(EventQueueTest, GenerationWrapRetiresSlotInLaterChunk) {
  constexpr std::uint32_t kSlot = EventQueue::kChunkSlots + 5;
  std::vector<EventId> ids;
  for (std::uint32_t i = 0; i <= kSlot; ++i) {
    ids.push_back(q.schedule(1.0, [] {}));
  }
  ASSERT_EQ(ids.back().value & 0xFFFFFFFFu, kSlot);
  EXPECT_TRUE(q.cancel(ids.back()));  // kSlot is free and on top of the list
  q.test_set_slot_generation(kSlot, 0xFFFFFFFFu);
  const EventId last_gen = q.schedule(1.0, [] {});
  ASSERT_EQ(last_gen.value & 0xFFFFFFFFu, kSlot);
  EXPECT_EQ(last_gen.value >> 32, 0xFFFFFFFFu);
  EXPECT_TRUE(q.cancel(last_gen));  // gen wraps to 0: slot retired

  const EventId fresh = q.schedule(1.0, [] {});
  EXPECT_EQ(fresh.value & 0xFFFFFFFFu, kSlot + 1);  // next never-used slot
  EXPECT_FALSE(q.cancel(last_gen));
  EXPECT_FALSE(q.cancel(ids.back()));
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kSlot) + 1);

  // clear() keeps the retired slot out of the rebuilt free list.
  q.clear();
  for (std::uint32_t i = 0; i <= kSlot + 1; ++i) {
    const EventId id = q.schedule(1.0, [] {});
    EXPECT_NE(id.value & 0xFFFFFFFFu, kSlot);
  }
}

TEST(Simulator, StepOnEmptyQueueReturnsFalse) {
  Simulator simu;
  EXPECT_FALSE(simu.step());
  EXPECT_DOUBLE_EQ(simu.now(), 0.0);
  EXPECT_EQ(simu.events_executed(), 0u);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator simu;
  double seen = -1.0;
  simu.after(2.5, [&] { seen = simu.now(); });
  simu.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(simu.now(), 2.5);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator simu;
  int count = 0;
  simu.after(1.0, [&] { ++count; });
  simu.after(2.0, [&] { ++count; });
  simu.after(3.0, [&] { ++count; });
  simu.run_until(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(simu.now(), 2.0);
  simu.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator simu;
  std::vector<double> times;
  simu.after(1.0, [&] {
    times.push_back(simu.now());
    simu.after(1.0, [&] { times.push_back(simu.now()); });
  });
  simu.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator simu;
  simu.after(5.0, [&] {
    simu.after(-3.0, [&] { EXPECT_DOUBLE_EQ(simu.now(), 5.0); });
  });
  simu.run();
}

TEST(Simulator, StopDiscardsPending) {
  Simulator simu;
  int count = 0;
  simu.after(1.0, [&] {
    ++count;
    simu.stop();
  });
  simu.after(2.0, [&] { ++count; });
  simu.run();
  EXPECT_EQ(count, 1);
}

TEST(Timer, ArmFiresOnce) {
  Simulator simu;
  Timer t(simu);
  int fired = 0;
  t.arm(1.0, [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  simu.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator simu;
  Timer t(simu);
  int which = 0;
  t.arm(1.0, [&] { which = 1; });
  t.arm(2.0, [&] { which = 2; });
  simu.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(simu.events_executed(), 1u);
}

TEST(Timer, CancelStopsFiring) {
  Simulator simu;
  Timer t(simu);
  bool fired = false;
  t.arm(1.0, [&] { fired = true; });
  t.cancel();
  simu.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, ArmIfIdleDoesNotOverride) {
  Simulator simu;
  Timer t(simu);
  int which = 0;
  t.arm(1.0, [&] { which = 1; });
  t.arm_if_idle(0.5, [&] { which = 2; });
  simu.run();
  EXPECT_EQ(which, 1);
}

TEST(Timer, DestructorCancels) {
  Simulator simu;
  bool fired = false;
  {
    Timer t(simu);
    t.arm(1.0, [&] { fired = true; });
  }
  simu.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, MovedArmedTimerFiresOnceAndSourceDoesNotCancel) {
  Simulator simu;
  int fired = 0;
  Time fired_at = kTimeNever;
  std::vector<Timer> timers;
  {
    Timer t(simu);
    t.arm(1.0, [&] {
      ++fired;
      fired_at = simu.now();
    });
    timers.push_back(std::move(t));
    EXPECT_FALSE(t.pending());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(timers.back().pending());
  }  // the moved-from timer's destructor runs here
  // Regrowing the vector moves the armed timer again.
  for (int i = 0; i < 8; ++i) timers.emplace_back(simu);
  EXPECT_TRUE(timers.front().pending());
  simu.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(fired_at, 1.0);  // the moves kept the armed firing time
  EXPECT_FALSE(timers.front().pending());
}

TEST(Timer, MoveAssignCancelsTheTargetsOwnFiring) {
  Simulator simu;
  int which = 0;
  Timer a(simu);
  Timer b(simu);
  a.arm(1.0, [&] { which += 1; });
  b.arm(2.0, [&] { which += 10; });
  b = std::move(a);
  simu.run();
  EXPECT_EQ(which, 1);
  EXPECT_EQ(simu.events_executed(), 1u);
}

TEST(Timer, NotPendingInsideOwnCallbackAndRearmWorks) {
  Simulator simu;
  Timer t(simu);
  std::vector<bool> pending_inside;
  std::vector<Time> fired_at;
  std::function<void()> body = [&] {
    pending_inside.push_back(t.pending());
    fired_at.push_back(simu.now());
    if (fired_at.size() < 3) t.arm(1.0, [&] { body(); });
    EXPECT_EQ(t.pending(), fired_at.size() < 3);
  };
  t.arm(1.0, [&] { body(); });
  simu.run();
  EXPECT_EQ(pending_inside, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(fired_at, (std::vector<Time>{1.0, 2.0, 3.0}));
  EXPECT_FALSE(t.pending());
}

TEST(Timer, DestroyedArmedTimerNeverFires) {
  Simulator simu;
  bool fired = false;
  auto t = std::make_unique<Timer>(simu);
  t->arm(2.0, [&] { fired = true; });
  simu.after(1.0, [&] { t.reset(); });
  simu.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simu.events_executed(), 1u);
}

TEST(Timer, CancelReleasesCapturedState) {
  Simulator simu;
  Timer t(simu);
  auto state = std::make_shared<int>(7);
  t.arm(1.0, [state] { (void)state; });
  EXPECT_EQ(state.use_count(), 2);
  t.cancel();
  EXPECT_EQ(state.use_count(), 1);
  // Re-arming drops the previous firing's captures too.
  t.arm(1.0, [state] { (void)state; });
  t.arm(1.0, [] {});
  EXPECT_EQ(state.use_count(), 1);
}

TEST(Timer, StopLeavesEveryTimerIdle) {
  Simulator simu;
  Timer a(simu);
  Timer b(simu);
  a.arm(1.0, [] {});
  b.arm(5.0, [] {});
  simu.after(0.5, [&] { simu.stop(); });
  simu.run();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  EXPECT_EQ(simu.events_pending(), 0u);
  // An idle timer accepts arm_if_idle again.
  bool fired = false;
  b.arm_if_idle(1.0, [&] { fired = true; });
  EXPECT_TRUE(b.pending());
  simu.run();
  EXPECT_TRUE(fired);
}

TEST_F(EventQueueTest, TagCountersKeyByContentsNotAddress) {
  stats::Metrics m;
  q.set_metrics(&m);
  // Two distinct arrays spelling the same tag: equal contents, different
  // addresses. A pointer-keyed map would mint two counter families and
  // split the tallies; keying by contents must merge them.
  char tag_a[] = "queue.same_tag";
  char tag_b[] = "queue.same_tag";
  ASSERT_NE(static_cast<const void*>(tag_a), static_cast<const void*>(tag_b));
  q.schedule(1.0, [] {}, tag_a);
  q.schedule(2.0, [] {}, tag_b);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(m.counter("sim.events_scheduled", {{"tag", "queue.same_tag"}}).value(),
            2u);
  EXPECT_EQ(m.counter("sim.events_fired", {{"tag", "queue.same_tag"}}).value(),
            2u);
}

}  // namespace
}  // namespace sharq::sim
