#include "sim/shard_runtime.hpp"

#include <algorithm>
#include <cassert>
// sharq-lint: thread-unsafe-ok file (the shard runtime IS the
// deterministic synchronization layer; docs/ARCHITECTURE.md)
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "sim/random.hpp"
#include "stats/journal.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"

namespace sharq::sim {

namespace {

// Per-shard seed derivation (one splitmix64 step from seed + gamma*shard):
// shards get decorrelated root streams from one run seed, independent of
// thread count.
std::uint64_t shard_seed(std::uint64_t seed, int shard) {
  std::uint64_t x = seed + kSplitmixGamma * static_cast<std::uint64_t>(shard);
  return splitmix64(x);
}

}  // namespace

// One phase at a time: for_each_shard publishes `job` under `mu` and bumps
// `phase`; every worker wakes, claims shards through `next` until none is
// left, and checks out through `busy`. The caller claims too, then sleeps
// on `idle` until the last worker has checked out, so a phase's shard
// state is visible to the caller (and to the next phase's workers)
// through `mu`. Between phases the workers sleep on `wake`: they never
// spin.
struct ShardRuntime::Pool {
  std::mutex mu;
  std::condition_variable wake;  // a phase was posted, or stop
  std::condition_variable idle;  // the last worker checked out
  const std::function<void(int)>* job = nullptr;
  std::uint64_t phase = 0;
  int busy = 0;  // workers not yet checked out of the current phase
  bool stop = false;
  std::atomic<int> next{0};  // next index into claim_order_
  std::vector<std::thread> threads;

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    wake.notify_all();
    for (std::thread& t : threads) t.join();
  }
};

ShardRuntime::ShardRuntime(Simulator& shard0, int nshards, Time lookahead,
                           std::uint64_t seed, int nthreads)
    : lookahead_(lookahead),
      nthreads_(std::clamp(nthreads, 1, std::max(nshards, 1))) {
  assert(nshards >= 1 && nshards <= stats::kMaxLanes);
  assert(nshards == 1 || lookahead > 0.0);
  sims_.push_back(&shard0);
  for (int s = 1; s < nshards; ++s) {
    owned_.push_back(std::make_unique<Simulator>(shard_seed(seed, s)));
    sims_.push_back(owned_.back().get());
  }
  mail_.resize(static_cast<std::size_t>(nshards));
  mail_seq_.assign(static_cast<std::size_t>(nshards), 0);
  window_executed_.assign(static_cast<std::size_t>(nshards), 0);
  shard_errors_.resize(static_cast<std::size_t>(nshards));
  claim_order_.resize(static_cast<std::size_t>(nshards));
  std::iota(claim_order_.begin(), claim_order_.end(), 0);
  pool_ = std::make_unique<Pool>();
  Pool& pool = *pool_;
  pool.threads.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int w = 1; w < nthreads_; ++w) {
    pool.threads.emplace_back([this, &pool] { worker_loop(pool); });
  }
}

// pool_ is the last member, so its destructor joins the workers before
// anything they read is destroyed.
ShardRuntime::~ShardRuntime() = default;

void ShardRuntime::set_shard_loads(const std::vector<std::size_t>& loads) {
  assert(static_cast<int>(loads.size()) == nshards());
  std::iota(claim_order_.begin(), claim_order_.end(), 0);
  std::stable_sort(claim_order_.begin(), claim_order_.end(),
                   [&loads](int a, int b) {
                     return loads[static_cast<std::size_t>(a)] >
                            loads[static_cast<std::size_t>(b)];
                   });
}

void ShardRuntime::run_shard(const std::function<void(int)>& fn, int shard) {
  stats::ScopedLane scoped(shard);
  try {
    fn(shard);
  } catch (...) {
    shard_errors_[static_cast<std::size_t>(shard)] = std::current_exception();
  }
}

void ShardRuntime::claim_shards(Pool& pool,
                                const std::function<void(int)>& fn) {
  for (;;) {
    const int i = pool.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= nshards()) return;
    run_shard(fn, claim_order_[static_cast<std::size_t>(i)]);
  }
}

void ShardRuntime::worker_loop(Pool& pool) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool.mu);
      pool.wake.wait(lock, [&] { return pool.stop || pool.phase != seen; });
      if (pool.stop) return;
      seen = pool.phase;
      job = pool.job;
    }
    claim_shards(pool, *job);
    std::lock_guard<std::mutex> lock(pool.mu);
    if (--pool.busy == 0) pool.idle.notify_one();
  }
}

void ShardRuntime::for_each_shard(const std::function<void(int)>& fn) {
  assert(!in_window_ && "phases do not nest");
  in_window_ = true;
  Pool& pool = *pool_;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.job = &fn;
    pool.next.store(0, std::memory_order_relaxed);
    pool.busy = static_cast<int>(pool.threads.size());
    ++pool.phase;
  }
  pool.wake.notify_all();
  claim_shards(pool, fn);
  {
    std::unique_lock<std::mutex> lock(pool.mu);
    pool.idle.wait(lock, [&] { return pool.busy == 0; });
    pool.job = nullptr;
  }
  in_window_ = false;
  std::exception_ptr error;
  for (std::exception_ptr& e : shard_errors_) {
    if (e && !error) error = e;
    e = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ShardRuntime::set_metrics(stats::Metrics* metrics) {
  // Every shard's queue — including shard 0, whose unlabeled registration
  // from setup this overrides — re-registers with a {"shard", s} label so
  // sharded runs can tell the per-shard queues and tag counters apart.
  for (int s = 0; s < nshards(); ++s) {
    sims_[static_cast<std::size_t>(s)]->set_metrics(metrics, metrics ? s : -1);
  }
  if (!metrics) {
    lookahead_stalls_ = nullptr;
    xshard_msgs_ = nullptr;
    return;
  }
  lookahead_stalls_ = &metrics->counter("sim.shard.lookahead_stalls");
  xshard_msgs_ = &metrics->counter("sim.shard.xshard_msgs");
}

void ShardRuntime::set_journal(stats::Journal* journal) {
  journal_ = journal;
  if (journal_) journal_->begin_lanes(nshards());
}

void ShardRuntime::post(int dst, Time at, Callback fn, const char* tag) {
  assert(in_window_ && "post() is the mid-window hand-off; schedule directly at barriers");
  const int src = stats::lane();
  assert(src != dst);
  auto& box = mail_[static_cast<std::size_t>(src)];
  box.push_back(Xmsg{at, src, mail_seq_[static_cast<std::size_t>(src)]++, dst,
                     std::move(fn), tag});
  stats::Profiler::count(stats::ProfCounter::xshard_msgs);
}

void ShardRuntime::at_global(Time t, std::function<void()> fn) {
  assert(!in_window_ && "global ops are registered at barriers or setup");
  ops_.push_back(GlobalOp{t, op_seq_++, std::move(fn)});
}

bool ShardRuntime::next_op(std::size_t* index) const {
  if (ops_.empty()) return false;
  std::size_t best = 0;
  for (std::size_t i = 1; i < ops_.size(); ++i) {
    const GlobalOp& a = ops_[i];
    const GlobalOp& b = ops_[best];
    if (a.t < b.t || (a.t == b.t && a.seq < b.seq)) best = i;
  }
  *index = best;
  return true;
}

void ShardRuntime::run_window(Time end, bool inclusive) {
  stats::Profiler* prof = stats::Profiler::active();
  if (prof) prof->window_begin();
  for_each_shard([this, end, inclusive, prof](int s) {
    Simulator& sim = *sims_[static_cast<std::size_t>(s)];
    const std::uint64_t before = sim.events_executed();
    if (inclusive) {
      sim.run_until(end);
    } else {
      sim.run_before(end);
    }
    window_executed_[static_cast<std::size_t>(s)] =
        sim.events_executed() - before;
    // The finish stamp feeds the barrier-wait histogram: a shard's wait
    // is the gap between its own finish and the last finisher's.
    if (prof) prof->shard_window_done(s);
  });

  const int k = nshards();
  bool stalled = false;
  for (int s = 0; s < k; ++s) {
    if (window_executed_[static_cast<std::size_t>(s)] == 0) stalled = true;
  }
  if (stalled && lookahead_stalls_) lookahead_stalls_->inc();
  if (prof) prof->window_end(k, stalled);
  barrier();
}

void ShardRuntime::barrier() {
  // Merge every shard's outbox in strict (arrival, source shard, sequence)
  // order — the deterministic rank the tentpole contract names. The order
  // keys destination-queue tie-breaking (schedule order = seq order), so
  // it must never depend on which worker finished first.
  // Sampling gate (see ProfGate): every barrier counts, one in
  // kSamplePeriod is wall-timed under shard_barrier.
  stats::ProfGate gate(stats::ProfCounter::barriers,
                       stats::ProfSubsys::shard_barrier);
  std::vector<Xmsg> batch;
  for (auto& box : mail_) {
    for (Xmsg& m : box) batch.push_back(std::move(m));
    box.clear();
  }
  std::sort(batch.begin(), batch.end(), [](const Xmsg& a, const Xmsg& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (Xmsg& m : batch) {
    sims_[static_cast<std::size_t>(m.dst)]->at(m.at, std::move(m.fn), m.tag);
  }
  if (xshard_msgs_) xshard_msgs_->inc(batch.size());
  flush_journal();
}

void ShardRuntime::flush_journal() {
  if (journal_) journal_->flush_lanes();
}

void ShardRuntime::run_until(Time horizon) {
  const int k = nshards();
  for (;;) {
    Time h = kTimeInfinity;
    for (int s = 0; s < k; ++s) {
      h = std::min(h, sims_[static_cast<std::size_t>(s)]->next_event_time());
    }
    std::size_t oi = 0;
    const bool have_op = next_op(&oi);
    const Time t_op = have_op ? ops_[oi].t : kTimeInfinity;

    if (have_op && t_op <= h) {
      // Global ops run before any shard executes events at the same time.
      if (t_op > horizon) break;
      for (int s = 0; s < k; ++s) {
        sims_[static_cast<std::size_t>(s)]->run_before(t_op);  // clock only
      }
      GlobalOp op = std::move(ops_[oi]);
      ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(oi));
      op.fn();
      barrier();
      continue;
    }
    if (h > horizon) break;  // also covers h == infinity

    // One shard has no cross-shard link, so nothing bounds its window
    // but the next global op and the horizon (its lookahead may be 0).
    Time end = k == 1 ? kTimeInfinity : h + lookahead_;
    if (have_op) end = std::min(end, t_op);
    bool inclusive = false;
    if (end > horizon) {
      // Final stretch: every cross-shard message generated in [h, horizon]
      // arrives at >= h + lookahead > horizon, so the whole remainder is
      // one window. Inclusive, matching Simulator::run_until semantics.
      end = horizon;
      inclusive = true;
    }
    run_window(end, inclusive);
    if (inclusive) break;
  }
  for (int s = 0; s < k; ++s) {
    sims_[static_cast<std::size_t>(s)]->run_until(horizon);  // clocks to horizon
  }
  flush_journal();
}

std::uint64_t ShardRuntime::events_executed() const {
  std::uint64_t total = 0;
  for (const Simulator* s : sims_) total += s->events_executed();
  return total;
}

}  // namespace sharq::sim
