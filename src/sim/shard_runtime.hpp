#pragma once

// Deterministic zone-sharded parallel runtime (docs/ARCHITECTURE.md,
// "Zone-sharded parallel simulation"; docs/PERFORMANCE.md, "Parallel
// runs").
//
// The simulation is partitioned into K *shards* (by zone subtree — see
// topo::make_zone_shard_map), each owning its own Simulator: event queue,
// clock, and RNG stream. Execution proceeds in conservative-lookahead
// windows [h, h+L): h is the earliest pending event across shards, L the
// minimum latency of any cross-shard link. Within a window every shard
// runs independently — by construction no cross-shard message generated
// inside the window can arrive before its end — and windows are separated
// by single-threaded barriers where cross-shard messages are merged in
// strict (arrival time, source shard, per-source sequence) order, the
// journal's lane buffers are flushed, and global operations (fault
// injection) run.
//
// Determinism contract: the shard count K is fixed by the topology, never
// by the worker count N. N only sizes the thread pool that executes the
// K shards inside a window; every ordering decision (merge ranks, journal
// flush order, barrier op order) depends solely on simulated history, so
// an N-thread run is byte-identical to the 1-thread run.
//
// The pool is persistent: N-1 workers start with the runtime, block
// between phases and join when it is destroyed; the calling thread is the
// N-th. A phase (for_each_shard) runs one function once per shard, the
// workers claiming shards largest first. Windows are phases, and so is a
// session's set-up (net::Network::for_each_shard builds and arms each
// shard's agents on the shard's worker).
//
// This file and its .cpp are the blessed home of raw threading primitives
// in src/ — everything else is protocol code and must stay
// synchronization-free (tools/sharq_lint, rule `thread-unsafe`).
// sharq-lint: thread-unsafe-ok file (the shard runtime IS the
// deterministic synchronization layer; docs/ARCHITECTURE.md)

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sharq::stats {
class Counter;
class Journal;
class Metrics;
}  // namespace sharq::stats

namespace sharq::sim {

class ShardRuntime {
 public:
  using Callback = EventQueue::Callback;

  /// `shard0` is the driver's existing Simulator (it owns shard 0 — the
  /// root zone / source side); shards 1..nshards-1 get fresh Simulators
  /// seeded deterministically from `seed`.
  /// `lookahead` is the minimum cross-shard link latency (> 0 unless
  /// nshards == 1, which has no cross-shard link and ignores it);
  /// `nthreads` >= 1 sizes the worker pool (clamped to nshards): its
  /// nthreads-1 workers start here and are joined by the destructor.
  ShardRuntime(Simulator& shard0, int nshards, Time lookahead,
               std::uint64_t seed, int nthreads);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  int nshards() const { return static_cast<int>(sims_.size()); }

  Simulator& sim(int shard) { return *sims_[static_cast<std::size_t>(shard)]; }

  /// True while a phase is executing (a window, or a for_each_shard set-up
  /// phase). Decides whether a cross-shard hand-off must go through post()
  /// (mid-window) or may schedule into the destination queue directly
  /// (barrier / serial setup).
  bool in_window() const { return in_window_; }

  /// Run `fn(s)` exactly once for every shard s, each under
  /// stats::ScopedLane(s) with in_window() true, spread over the pool;
  /// return when all have finished. Shards are claimed largest first (see
  /// set_shard_loads), so which thread runs a shard varies, but `fn` may
  /// touch only shard s's state and every result is the same. Call from
  /// the thread that owns the runtime, outside a phase. If shards throw,
  /// the other shards still run, and the lowest-numbered throwing shard's
  /// exception is rethrown here. Journal emits stay in their lane buffers until the
  /// next barrier or flush_journal().
  void for_each_shard(const std::function<void(int)>& fn);

  /// Relative work of each shard (net::Network::enable_sharding passes
  /// the node counts): for_each_shard hands the largest out first, so the
  /// biggest shard never starts last. Equal loads keep shard order.
  void set_shard_loads(const std::vector<std::size_t>& loads);

  /// Hand a callback across shards mid-window: it is queued in the
  /// *calling* shard's private mailbox and merged into `dst`'s event
  /// queue at the next barrier, ranked by (at, source shard, sequence).
  /// Must only be called from inside a window, from the lane that owns
  /// the sending shard; `at` must be >= the current window's end.
  void post(int dst, Time at, Callback fn, const char* tag);

  /// Schedule `fn` to run single-threaded at the barrier when every shard
  /// has reached time `t` (before any shard executes events at `t`).
  /// Same-time ops run in registration order. net::Network::at_global's
  /// sharded half (the fault injector schedules through it).
  void at_global(Time t, std::function<void()> fn);

  /// Register `sim.shard.*` counters and attach per-shard event-queue
  /// metrics for shards 1..K-1 (the driver already attached shard 0's).
  void set_metrics(stats::Metrics* metrics);

  /// Switch `journal` into lane-buffered mode and flush it at every
  /// barrier. Call before any event emits (net::Network::set_journal and
  /// enable_sharding call it).
  void set_journal(stats::Journal* journal);

  /// Merge the journal's lane buffers in lane order, as a barrier does: a
  /// set-up phase run outside run_until calls it after for_each_shard.
  void flush_journal();

  /// Run every shard to `horizon` (inclusive, like Simulator::run_until)
  /// in lookahead windows. Re-entrant across calls: chaos drains by
  /// calling it again with a later horizon.
  void run_until(Time horizon);

  /// Sum of events executed across shards.
  std::uint64_t events_executed() const;

 private:
  struct Xmsg {
    Time at = 0.0;
    int src = 0;
    std::uint64_t seq = 0;
    int dst = 0;
    Callback fn;
    const char* tag = nullptr;
  };
  struct GlobalOp {
    Time t = 0.0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };

  /// The persistent workers and their hand-off state (shard_runtime.cpp).
  struct Pool;

  void run_window(Time end, bool inclusive);
  void barrier();  // drain mailboxes + flush journal lanes
  bool next_op(std::size_t* index) const;
  /// Run `fn(shard)` on the shard's lane, keeping what it throws.
  void run_shard(const std::function<void(int)>& fn, int shard);
  /// Claim and run shards of the current phase until none is left.
  void claim_shards(Pool& pool, const std::function<void(int)>& fn);
  void worker_loop(Pool& pool);

  // sharq-lint: shard-owned begin (lane/barrier state: mutate only under the runtime's window discipline)
  std::vector<Simulator*> sims_;                  // [0] = external shard 0
  std::vector<std::unique_ptr<Simulator>> owned_;  // shards 1..K-1
  Time lookahead_;
  int nthreads_;
  bool in_window_ = false;
  std::vector<int> claim_order_;     // shards, largest load first
  std::vector<std::exception_ptr> shard_errors_;  // by shard, one phase

  std::vector<std::vector<Xmsg>> mail_;     // by source shard
  std::vector<std::uint64_t> mail_seq_;     // by source shard
  std::vector<std::uint64_t> window_executed_;  // scratch, by shard

  std::vector<GlobalOp> ops_;
  std::uint64_t op_seq_ = 0;

  stats::Journal* journal_ = nullptr;
  stats::Counter* lookahead_stalls_ = nullptr;
  stats::Counter* xshard_msgs_ = nullptr;
  // sharq-lint: shard-owned end

  // Last: destroyed first, so the workers are joined while everything
  // they read still exists.
  std::unique_ptr<Pool> pool_;
};

}  // namespace sharq::sim
