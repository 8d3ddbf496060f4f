#include "stats/profiler.hpp"

// The ONE file in src/ allowed to read wall-clock time. Channel B is a
// timing side channel: its output lands only in the "timing" section of
// the profile export, which is never byte-compared and never feeds back
// into simulation state, so same-seed reproducibility is untouched.
// sharq-lint: wall-clock-ok file (Channel B self-profiling timing side
// channel; deterministic artifacts never read these values —
// docs/OBSERVABILITY.md, "Profiles")
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "stats/metrics.hpp"

namespace sharq::stats {

namespace {

/// Raw monotonic tick source. TSC where available (a serializing clock
/// call per probe would dominate the probe itself); steady_clock
/// nanoseconds elsewhere. Ticks are converted to seconds at export using
/// the steady_clock span measured across the whole run, so the unit never
/// needs to be known in advance.
std::uint64_t raw_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* clock_name() {
#if defined(__x86_64__) || defined(__i386__)
  return "tsc";
#else
  return "steady";
#endif
}

int log2_bucket(std::uint64_t ticks) {
  int b = 0;
  while (ticks > 1 && b < Profiler::TickHist::kBuckets - 1) {
    ticks >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

const char* prof_subsys_name(ProfSubsys s) {
  switch (s) {
    case ProfSubsys::event_loop: return "event_loop";
    case ProfSubsys::net_forward: return "net_forward";
    case ProfSubsys::agent_rx: return "agent_rx";
    case ProfSubsys::transfer: return "transfer";
    case ProfSubsys::session: return "session";
    case ProfSubsys::codec: return "codec";
    case ProfSubsys::shard_barrier: return "shard_barrier";
    case ProfSubsys::kCount: break;
  }
  return "?";
}

const char* prof_counter_name(ProfCounter c) {
  switch (c) {
    case ProfCounter::events_dispatched: return "events_dispatched";
    case ProfCounter::packets_forwarded: return "packets_forwarded";
    case ProfCounter::packets_delivered: return "packets_delivered";
    case ProfCounter::fec_bytes_encoded: return "fec_bytes_encoded";
    case ProfCounter::fec_bytes_decoded: return "fec_bytes_decoded";
    case ProfCounter::xshard_msgs: return "xshard_msgs";
    case ProfCounter::windows: return "windows";
    case ProfCounter::barriers: return "barriers";
    case ProfCounter::lookahead_stalls: return "lookahead_stalls";
    case ProfCounter::kCount: break;
  }
  return "?";
}

void Profiler::TickHist::add(std::uint64_t ticks) {
  ++buckets[log2_bucket(ticks)];
  ++count;
  sum_ticks += ticks;
}

Profiler::Profiler() {
  start_ticks_ = raw_ticks();
  start_steady_ns_ = steady_ns();
}

Profiler::~Profiler() {
  if (active_ == this) active_ = nullptr;
}

std::uint64_t Profiler::counter_value(ProfCounter c) const {
  std::uint64_t total = 0;
  for (int l = 0; l < kMaxLanes; ++l) {
    total += counters_[l][static_cast<int>(c)];
  }
  return total;
}

std::uint64_t Profiler::scope_count(ProfSubsys s) const {
  std::uint64_t total = 0;
  for (int l = 0; l < kMaxLanes; ++l) {
    total += scopes_[l][static_cast<int>(s)];
  }
  return total;
}

void Profiler::timed_enter(int l, int subsys) {
  LaneTiming& lt = timing_[l];
  if (lt.depth >= kMaxDepth) {
    ++truncated_scopes_[l];
    ++lt.depth;  // keep enter/exit balanced past the cap
    return;
  }
  Frame& f = lt.stack[lt.depth++];
  f.subsys = subsys;
  f.t0 = raw_ticks();
  f.child = 0;
}

void Profiler::timed_exit(int l) {
  LaneTiming& lt = timing_[l];
  if (lt.depth <= 0) return;  // unmatched exit: ignore
  if (lt.depth > kMaxDepth) {
    --lt.depth;  // untimed overflow frame
    return;
  }
  const Frame& f = lt.stack[--lt.depth];
  const std::uint64_t t1 = raw_ticks();
  const std::uint64_t incl = t1 >= f.t0 ? t1 - f.t0 : 0;
  const std::uint64_t self = incl >= f.child ? incl - f.child : 0;
  self_ticks_[l][f.subsys] += self;
  if (lt.depth > 0) lt.stack[lt.depth - 1].child += incl;
}

void Profiler::window_begin() {
  count(ProfCounter::windows);
  window_t0_ = raw_ticks();
  for (std::uint64_t& d : shard_done_) d = 0;
}

void Profiler::shard_window_done(int shard) {
  if (shard < 0 || shard >= kMaxLanes) return;
  shard_done_[shard] = raw_ticks();
}

void Profiler::window_end(int nshards, bool stalled) {
  const std::uint64_t t1 = raw_ticks();
  const std::uint64_t span = t1 >= window_t0_ ? t1 - window_t0_ : 0;
  window_span_.add(span);
  if (stalled) {
    count(ProfCounter::lookahead_stalls);
    stall_window_.add(span);
  }
  std::uint64_t last = 0;
  for (int s = 0; s < nshards && s < kMaxLanes; ++s) {
    if (shard_done_[s] > last) last = shard_done_[s];
  }
  for (int s = 0; s < nshards && s < kMaxLanes; ++s) {
    if (shard_done_[s] == 0) continue;
    const std::uint64_t wait = last - shard_done_[s];
    barrier_wait_ticks_[s] += wait;
    barrier_wait_.add(wait);
  }
}

void Profiler::set_memory(const MemCensus& census) {
  for (const auto& [cat, e] : census.categories) {
    memory_.add(cat, e.live_bytes, e.peak_bytes);
  }
}

void Profiler::set_rss_delta(std::uint64_t bytes) { rss_delta_bytes_ = bytes; }

void Profiler::set_env(const std::string& key, const std::string& value) {
  env_[key] = value;
}

void Profiler::set_shards(int n) {
  if (n < 1) n = 1;
  if (n > kMaxLanes) n = kMaxLanes;
  shards_ = n;
}

double Profiler::ns_per_tick() const {
  const std::uint64_t ticks = raw_ticks() - start_ticks_;
  const std::uint64_t ns = steady_ns() - start_steady_ns_;
  if (ticks == 0) return 1.0;
  return static_cast<double>(ns) / static_cast<double>(ticks);
}

void Profiler::write_deterministic(std::ostream& os) const {
  os << "{\"shards\":" << shards_ << ",\"scopes\":{";
  for (int i = 0; i < kProfSubsysCount; ++i) {
    if (i) os << ',';
    const auto s = static_cast<ProfSubsys>(i);
    os << json_quoted(prof_subsys_name(s)) << ":{\"total\":"
       << scope_count(s) << ",\"by_shard\":[";
    for (int l = 0; l < shards_; ++l) {
      if (l) os << ',';
      os << scopes_[l][i];
    }
    os << "]}";
  }
  os << "},\"counters\":{";
  for (int i = 0; i < kProfCounterCount; ++i) {
    if (i) os << ',';
    const auto c = static_cast<ProfCounter>(i);
    os << json_quoted(prof_counter_name(c)) << ":{\"total\":"
       << counter_value(c) << ",\"by_shard\":[";
    for (int l = 0; l < shards_; ++l) {
      if (l) os << ',';
      os << counters_[l][i];
    }
    os << "]}";
  }
  os << "},\"memory\":{";
  bool first = true;
  for (const auto& [cat, e] : memory_.categories) {
    if (!first) os << ',';
    first = false;
    os << json_quoted(cat) << ":{\"live_bytes\":" << e.live_bytes
       << ",\"peak_bytes\":" << e.peak_bytes << '}';
  }
  os << "}}";
}

namespace {

void write_hist(std::ostream& os, const Profiler::TickHist& h,
                double sec_per_tick) {
  os << "{\"count\":" << h.count << ",\"sum_s\":"
     << json_double(static_cast<double>(h.sum_ticks) * sec_per_tick)
     << ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < Profiler::TickHist::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"le_s\":" << json_double(std::ldexp(1.0, i) * sec_per_tick)
       << ",\"n\":" << h.buckets[i] << '}';
  }
  os << "]}";
}

}  // namespace

void Profiler::write_timing(std::ostream& os) const {
  const double npt = ns_per_tick();
  const double spt = npt / 1e9;  // seconds per tick
  // Self times are sampled 1-in-kSamplePeriod (the ProfGate contract):
  // scale the estimate back to whole-run seconds here, once, at export.
  const double self_spt = spt * static_cast<double>(kSamplePeriod);
  const double wall_s =
      static_cast<double>(steady_ns() - start_steady_ns_) / 1e9;
  os << "{\"clock\":" << json_quoted(clock_name())
     << ",\"sample_period\":" << kSamplePeriod
     << ",\"wall_s\":" << json_double(wall_s)
     << ",\"rss_delta_bytes\":" << rss_delta_bytes_ << ",\"env\":{";
  bool first = true;
  for (const auto& [k, v] : env_) {
    if (!first) os << ',';
    first = false;
    os << json_quoted(k) << ':' << json_quoted(v);
  }
  os << "},\"self_time\":{";
  for (int i = 0; i < kProfSubsysCount; ++i) {
    if (i) os << ',';
    std::uint64_t total = 0;
    for (int l = 0; l < kMaxLanes; ++l) total += self_ticks_[l][i];
    os << json_quoted(prof_subsys_name(static_cast<ProfSubsys>(i)))
       << ":{\"total_s\":"
       << json_double(static_cast<double>(total) * self_spt)
       << ",\"by_shard_s\":[";
    for (int l = 0; l < shards_; ++l) {
      if (l) os << ',';
      os << json_double(static_cast<double>(self_ticks_[l][i]) * self_spt);
    }
    os << "]}";
  }
  os << "},\"barrier_wait_by_shard_s\":[";
  for (int l = 0; l < shards_; ++l) {
    if (l) os << ',';
    os << json_double(static_cast<double>(barrier_wait_ticks_[l]) * spt);
  }
  std::uint64_t truncated = 0;
  for (int l = 0; l < kMaxLanes; ++l) truncated += truncated_scopes_[l];
  os << "],\"truncated_scopes\":" << truncated
     << ",\"histograms\":{\"barrier_wait\":";
  write_hist(os, barrier_wait_, spt);
  os << ",\"window_span\":";
  write_hist(os, window_span_, spt);
  os << ",\"stall_window\":";
  write_hist(os, stall_window_, spt);
  os << "}}";
}

void Profiler::write_json(std::ostream& os) const {
  os << "{\"schema\":\"sharqfec.profile.v1\",\n\"deterministic\":";
  write_deterministic(os);
  os << ",\n\"timing\":";
  write_timing(os);
  os << "}\n";
}

bool Profiler::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "profiler: cannot write %s\n", path.c_str());
    return false;
  }
  write_json(out);
  return out.good();
}

}  // namespace sharq::stats
