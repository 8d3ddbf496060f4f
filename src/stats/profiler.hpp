#pragma once

// Two-channel self-profiling layer (docs/OBSERVABILITY.md, "Profiles").
//
// Channel A — deterministic. Per-subsystem scope counts and named
// counters (events dispatched, packets forwarded, FEC bytes, cross-shard
// messages, windows, barriers) plus the pull-based memory census. Every
// value is a pure function of simulated history: sliced by execution
// lane (lane == shard), so the exported "deterministic"
// section is byte-identical across worker counts and belongs inside the
// same-seed reproducibility contract.
//
// Channel B — wall-clock timing, explicitly OUTSIDE every determinism
// artifact. Per-(shard, subsystem) self time, barrier-wait and
// lookahead-stall histograms. The clock itself is confined to
// profiler.cpp (the tree's single `sharq-lint: wall-clock-ok` file); this
// header contains no time source, so probe call sites never carry clock
// tokens. The "timing" section of the export is never compared byte-wise.
//
// Probes are cheap by construction: a disabled profiler costs one branch
// per scope; an enabled one costs a lane-local counter bump. Clock reads
// are SAMPLED: each lane opens a timing gate every kSamplePeriod-th event
// (ProfGate, at the dispatch site), and only scopes running under an open
// gate take the out-of-line timed path in profiler.cpp. Channel-A counts
// stay exact; Channel-B self times are unbiased 1-in-kSamplePeriod
// estimates, scaled back up at export. On hosts where a TSC read costs
// tens of nanoseconds this keeps the --profile wall-time overhead within
// a couple of percent at tens of millions of scopes. Nothing here feeds
// back into simulation state, so enabling profiling cannot perturb event
// order.

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "stats/lane.hpp"

namespace sharq::stats {

/// Subsystems a probe can attribute work to. The spelled-out lowercase
/// names double as the probe-catalog keys in docs/OBSERVABILITY.md
/// (scripts/check_docs.sh cross-checks both directions).
enum class ProfSubsys : int {
  event_loop = 0,  ///< event dispatch + handler time no finer probe claims
  net_forward,     ///< multicast forwarding: send, transmit, arrive
  agent_rx,        ///< agent receive path: corrupt and duplicate checks
  transfer,        ///< two-phase transfer engine (data/NACK/repair + timers)
  session,         ///< session messaging, elections, peer/RTT bookkeeping
  codec,           ///< GF(256) FEC encode/decode call sites
  shard_barrier,   ///< shard-runtime barrier: mailbox merge + journal flush
  kCount,
};
inline constexpr int kProfSubsysCount = static_cast<int>(ProfSubsys::kCount);

/// Stable lowercase name of a subsystem ("event_loop", ...).
const char* prof_subsys_name(ProfSubsys s);

/// Named deterministic counters (Channel A).
enum class ProfCounter : int {
  events_dispatched = 0,  ///< events executed across all shard queues
  packets_forwarded,      ///< link hand-offs (per-hop, not per-send)
  packets_delivered,      ///< agent deliveries
  fec_bytes_encoded,      ///< shard_size_bytes per repair shard sent
                          ///< (re-sent or stored indices included; the
                          ///< source's initial parity excluded)
  fec_bytes_decoded,      ///< payload bytes reconstructed by receivers
  xshard_msgs,            ///< cross-shard mailbox hand-offs
  windows,                ///< lookahead windows executed
  barriers,               ///< barrier merges executed
  lookahead_stalls,       ///< windows where some shard executed 0 events
  kCount,
};
inline constexpr int kProfCounterCount = static_cast<int>(ProfCounter::kCount);

/// Stable lowercase name of a counter ("events_dispatched", ...).
const char* prof_counter_name(ProfCounter c);

/// Resident bytes of one heap block holding `n` bytes, for census entries
/// that count individually allocated objects: glibc malloc adds an 8-byte
/// header and rounds to 16-byte granules, 32 bytes at least.
constexpr std::uint64_t heap_block_bytes(std::uint64_t n) {
  return std::max<std::uint64_t>(32, (n + 8 + 15) / 16 * 16);
}

/// Bookkeeping a std::map / std::set node carries ahead of its value: the
/// colour word and three tree links (libstdc++'s _Rb_tree_node_base).
inline constexpr std::uint64_t kTreeNodeHeader = 32;

/// Resident bytes of a std::vector's storage: one block of `capacity`
/// elements, none before the first allocation.
template <class Vec>
std::uint64_t vector_block_bytes(const Vec& v) {
  return v.capacity() == 0
             ? 0
             : heap_block_bytes(v.capacity() * sizeof(typename Vec::value_type));
}

/// Resident bytes of a standard hash container with integer keys: its
/// bucket array plus one block per entry (next pointer and value; integer
/// hashes are not cached in the node).
template <class Hash>
std::uint64_t hash_table_bytes(const Hash& c) {
  const std::uint64_t buckets =
      c.bucket_count() > 1 ? heap_block_bytes(c.bucket_count() * sizeof(void*))
                           : 0;
  return buckets + c.size() * heap_block_bytes(sizeof(void*) +
                                               sizeof(typename Hash::value_type));
}

/// Pull-based memory attribution: components report bytes per named
/// category once, at export time (no hot-path accounting). `live` is bytes
/// referenced right now; `peak` is the retained/high-water figure — what
/// the resident set paid for, since containers do not return memory
/// mid-run.
struct MemCensus {
  struct Entry {
    std::uint64_t live_bytes = 0;
    std::uint64_t peak_bytes = 0;
  };
  std::map<std::string, Entry> categories;

  void add(const std::string& category, std::uint64_t live,
           std::uint64_t peak) {
    Entry& e = categories[category];
    e.live_bytes += live;
    e.peak_bytes += peak;
  }
};

/// The profiler instance. Drivers construct one when `--profile=FILE` is
/// requested, install it with set_active(), run, feed the census, and
/// write_file(). One instance per process run; all probes in the tree
/// observe it through the process-wide active() pointer.
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The installed profiler, or nullptr (probes become no-ops). Install
  /// and remove outside windows only — probes read this without
  /// synchronization, which is safe exactly because it never changes
  /// while worker threads run.
  static Profiler* active() { return active_; }
  static void set_active(Profiler* p) { active_ = p; }

  // --- Channel A: deterministic counters ----------------------------------

  /// Bump a named counter in the calling lane. Safe (and free) when no
  /// profiler is installed.
  static void count(ProfCounter c, std::uint64_t n = 1) {
    if (active_ != nullptr) {
      active_->counters_[lane()][static_cast<int>(c)] += n;
    }
  }

  std::uint64_t counter_value(ProfCounter c) const;
  std::uint64_t scope_count(ProfSubsys s) const;

  // --- probes (Channel A count + Channel B self time) ----------------------

  /// One in kSamplePeriod gated units (event dispatches, barrier merges)
  /// is wall-timed; the rest only count. Exported self times are scaled
  /// back by this factor. 16 keeps the d3_f8_8k macro case's --profile
  /// overhead inside the 2% budget on hosts where one TSC read costs
  /// ~15 ns, while still clocking >1M events per macro run.
  static constexpr std::uint32_t kSamplePeriod = 16;

  /// Scope enter: always bumps the Channel-A scope count; takes the
  /// clock-reading path (timed_enter, out of line in profiler.cpp) only
  /// when the calling lane's sampling gate is open. Returns whether the
  /// timed path was taken so ~ProfScope stays balanced.
  bool enter(ProfSubsys s) {
    const int l = lane();
    ++scopes_[l][static_cast<int>(s)];
    if (!gate_[l]) return false;
    timed_enter(l, static_cast<int>(s));
    return true;
  }

  /// Open the calling lane's sampling gate for one unit of work: bumps
  /// counter `c` and the `s` scope count (Channel A, every unit), and on
  /// every kSamplePeriod-th unit opens the gate with a timed `s` frame so
  /// handler time not claimed by a finer probe lands in `s`'s self time.
  /// Returns whether the gate opened (ProfGate closes it symmetrically).
  bool gate_open(ProfCounter c, ProfSubsys s) {
    const int l = lane();
    ++counters_[l][static_cast<int>(c)];
    ++scopes_[l][static_cast<int>(s)];
    if (++gate_tick_[l] != kSamplePeriod) return false;
    gate_tick_[l] = 0;
    gate_[l] = true;
    timed_enter(l, static_cast<int>(s));
    return true;
  }
  void gate_close() {
    const int l = lane();
    timed_exit(l);
    gate_[l] = false;
  }

  /// Timed frame push/pop. Out of line: the clock reads live in
  /// profiler.cpp. Self time is attributed to the frame's subsystem
  /// (child frames subtract themselves from the parent), per lane, so
  /// shard workers never contend.
  void timed_enter(int l, int subsys);
  void timed_exit(int l);

  // --- shard-runtime hooks (Channel B histograms) --------------------------
  // Called by ShardRuntime so its own files stay clock-token-free. All
  // stamps are taken inside profiler.cpp.

  /// A lookahead window is about to run (single-threaded).
  void window_begin();
  /// Shard `shard`'s lane finished its slice of the window (worker thread;
  /// writes only that shard's slot).
  void shard_window_done(int shard);
  /// Window joined (single-threaded, after the worker join): computes
  /// per-shard barrier-wait = (last finisher − this shard) and the window
  /// span, feeding the barrier_wait / window / stall_window histograms.
  void window_end(int nshards, bool stalled);

  // --- export-time inputs ---------------------------------------------------

  /// Merge a memory census into the deterministic section.
  void set_memory(const MemCensus& census);

  /// Resident-set growth over the run (timing section only — RSS is not
  /// deterministic).
  void set_rss_delta(std::uint64_t bytes);

  /// Free-form run descriptors for the timing section ("case", "threads",
  /// "tool", ...). Never part of the deterministic section.
  void set_env(const std::string& key, const std::string& value);

  /// Lanes to export (the run's shard count; serial runs use 1).
  void set_shards(int n);

  // --- export ---------------------------------------------------------------

  /// `{"schema":"sharqfec.profile.v1","deterministic":{...},"timing":{...}}`.
  /// The deterministic object is byte-identical for identical simulated
  /// histories; the timing object is a side channel.
  void write_json(std::ostream& os) const;

  /// write_json to `path`; false (with a stderr note) on I/O failure.
  bool write_file(const std::string& path) const;

  /// Log2 tick histogram (Channel B): bucket i counts samples with
  /// 2^(i-1) < ticks <= 2^i; bucket 0 takes 0/1-tick samples. Public so
  /// the export formatter (profiler.cpp) and tests can inspect it.
  struct TickHist {
    static constexpr int kBuckets = 40;
    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum_ticks = 0;
    void add(std::uint64_t ticks);
  };

 private:
  struct Frame {
    int subsys = 0;
    std::uint64_t t0 = 0;
    std::uint64_t child = 0;
  };
  static constexpr int kMaxDepth = 16;
  struct LaneTiming {
    Frame stack[kMaxDepth];
    int depth = 0;
  };

  double ns_per_tick() const;
  void write_deterministic(std::ostream& os) const;
  void write_timing(std::ostream& os) const;

  inline static Profiler* active_ = nullptr;

  // Channel A (lane-sliced, summed/exported per shard).
  std::uint64_t counters_[kMaxLanes][kProfCounterCount] = {};
  std::uint64_t scopes_[kMaxLanes][kProfSubsysCount] = {};
  MemCensus memory_;
  int shards_ = 1;

  // Channel B (lane-sliced ticks; calibrated to ns at export). The gate
  // arrays are written only by their own lane, so sampling needs no
  // synchronization.
  bool gate_[kMaxLanes] = {};
  std::uint32_t gate_tick_[kMaxLanes] = {};
  LaneTiming timing_[kMaxLanes];
  std::uint64_t self_ticks_[kMaxLanes][kProfSubsysCount] = {};
  std::uint64_t truncated_scopes_[kMaxLanes] = {};  ///< past kMaxDepth, untimed
  std::uint64_t window_t0_ = 0;
  std::uint64_t shard_done_[kMaxLanes] = {};
  std::uint64_t barrier_wait_ticks_[kMaxLanes] = {};
  TickHist barrier_wait_;
  TickHist window_span_;
  TickHist stall_window_;
  std::uint64_t start_ticks_ = 0;
  std::uint64_t start_steady_ns_ = 0;
  std::uint64_t rss_delta_bytes_ = 0;
  std::map<std::string, std::string> env_;
};

/// RAII probe. `SHARQ_PROF_SCOPE(codec)` attributes the enclosing block's
/// self time (when the lane's sampling gate is open) and one scope count
/// (always) to ProfSubsys::codec.
class ProfScope {
 public:
  explicit ProfScope(ProfSubsys s) : prof_(Profiler::active()) {
    if (prof_ != nullptr) timed_ = prof_->enter(s);
  }
  ~ProfScope() {
    if (timed_) prof_->timed_exit(lane());
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* prof_;
  bool timed_ = false;
};

/// RAII sampling gate around one unit of dispatch (an event callback, a
/// barrier merge). Counts every unit exactly (Channel A); wall-times one
/// in Profiler::kSamplePeriod of them, opening the lane's gate so nested
/// ProfScope probes read the clock only inside sampled units.
class ProfGate {
 public:
  ProfGate(ProfCounter c, ProfSubsys s) : prof_(Profiler::active()) {
    if (prof_ != nullptr) opened_ = prof_->gate_open(c, s);
  }
  ~ProfGate() {
    if (opened_) prof_->gate_close();
  }
  ProfGate(const ProfGate&) = delete;
  ProfGate& operator=(const ProfGate&) = delete;

 private:
  Profiler* prof_;
  bool opened_ = false;
};

#define SHARQ_PROF_CAT2(a, b) a##b
#define SHARQ_PROF_CAT(a, b) SHARQ_PROF_CAT2(a, b)
/// Scoped probe: `SHARQ_PROF_SCOPE(net_forward);` — the argument must be
/// a ProfSubsys enumerator and appear in the docs/OBSERVABILITY.md probe
/// catalog (the prof-docs lint rule checks both directions).
// sharq-lint: prof-docs-ok begin (macro definition: `subsys` is the
// parameter name, not a probe)
#define SHARQ_PROF_SCOPE(subsys)                                    \
  ::sharq::stats::ProfScope SHARQ_PROF_CAT(sharq_prof_scope_,       \
                                           __LINE__)(               \
      ::sharq::stats::ProfSubsys::subsys)
// sharq-lint: prof-docs-ok end

}  // namespace sharq::stats
