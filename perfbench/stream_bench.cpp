// End-to-end benchmark of the paper's real-payload stream (§6.2): a CBR
// source's bytes are FEC-coded, lost on the wire, NACKed, repaired, decoded
// and checked at every receiver. Everything is driven through the public
// API (topo builders -> sfq::Session -> Simulator / ShardRuntime) and
// measured from outside, at each layer's public boundary:
//
//   sim       Simulator::step() (serial traced runs step the loop here)
//   net       a counting net::TrafficSink (set_sink / set_shard_sink)
//   sharqfec  a proxy net::Agent attached in place of each sfq::Agent,
//             forwarding to Agent::on_receive, split by Packet::cls
//   fec       TransferEngine completion callback + reconstructed(g)
//   memory    Session / Network memory_census, Simulator::queue_memory_bytes
//   shards    the Metrics counters ShardRuntime::set_metrics registers
//
// Usage:
//   stream_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--workers N] [--all-metrics] [--trace-out FILE]
//
// The last stdout line is one JSON object {"correct","attempted","failed",
// "metrics"}; --trace 0 reports the end-to-end metrics of untraced runs,
// --trace 1 the per-layer metrics of a traced run, with the untraced runs'
// host times and the tracing overhead. perfbench/README.md documents every
// metric and workload.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "sharqfec/protocol.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "topo/figure10.hpp"
#include "topo/shapes.hpp"
#include "topo/shard_plan.hpp"

using namespace sharq;

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kClasses = net::kTrafficClassCount;
const char* const kClassNames[kClasses] = {"data", "repair", "nack", "session",
                                           "control"};
/// One in kSampleEvery steps (serial) or agent receives (sharded, per node)
/// keeps its spans; every count and sum covers all of them.
constexpr std::uint64_t kSampleEvery = 64;

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool deep;             // d3_f8 deep tree instead of Figure 10
  int workers;           // 0 = serial Simulator, >= 1 = ShardRuntime
  int replicas;          // independent runs pooled into one measured run
  std::uint32_t groups;  // k-packet groups streamed
  sim::Time start_at;    // first data packet (virtual s)
  sim::Time horizon;     // end of the measured run (virtual s)
  sim::Time deadline;    // a pair incomplete by now has failed (virtual s)
};

// Why each was chosen: perfbench/README.md.
constexpr Workload kWorkloads[] = {
    // The paper's own: 1024 x 1000 B at 800 kbit/s after a 6 s warm-up.
    // Four replicas: one stream's loss draws move its percentiles by ~10%
    // from seed to seed; pooling four halves that.
    {"fig10_stream", false, 0, 4, 64, 6.0, 45.0, 90.0},
    // Most pairs complete within 1 s of being due, the slowest in 4-8 s.
    {"deep_stream", true, 0, 1, 4, 2.0, 9.0, 20.0},
    {"deep_sharded", true, 4, 1, 4, 2.0, 9.0, 20.0},
};

// --- host measurements -------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long long rss_bytes() {
  long long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%lld %lld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident * static_cast<long long>(sysconf(_SC_PAGESIZE));
}

long long trimmed_rss_bytes() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return rss_bytes();
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // kB on Linux
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The stream's application bytes, from the workload seed (splitmix64, so
/// the same seed gives the same bytes on every toolchain).
std::vector<std::uint8_t> make_payload(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(out.data() + i, &z, std::min<std::size_t>(8, n - i));
  }
  return out;
}

// --- net: counting sink --------------------------------------------------------

/// Per-class delivery ledger. One per shard in sharded runs, so no thread
/// shares one; the totals are summed after the run.
class CountingSink final : public net::TrafficSink {
 public:
  explicit CountingSink(const std::vector<std::uint8_t>& is_receiver)
      : is_receiver_(is_receiver) {}

  void on_deliver(sim::Time, net::NodeId at, const net::Packet& p) override {
    const auto c = static_cast<std::size_t>(p.cls);
    ++deliveries[c];
    if (is_receiver_[static_cast<std::size_t>(at)]) {
      ++rx_pkts[c];
      rx_bytes += static_cast<std::uint64_t>(p.size_bytes);
    }
  }
  void on_transmit(sim::Time, net::LinkId, const net::Packet&) override {
    ++tx;
  }
  void on_hop(sim::Time, net::LinkId, const net::Packet&) override {
    hop_seen = true;
  }
  void on_drop(sim::Time, net::LinkId, const net::Packet&,
               net::DropReason reason) override {
    if (reason == net::DropReason::kLoss) ++drops_loss;
    if (reason == net::DropReason::kQueueFull) ++drops_queue_full;
  }

  std::array<std::uint64_t, kClasses> deliveries{};  // at every node
  std::array<std::uint64_t, kClasses> rx_pkts{};     // at receivers only
  std::uint64_t rx_bytes = 0;                        // at receivers only
  std::uint64_t tx = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_queue_full = 0;
  bool hop_seen = false;  // a propagation step ran (serial traced loop)

 private:
  const std::vector<std::uint8_t>& is_receiver_;
};

// --- spans -------------------------------------------------------------------

enum class SpanKind : std::uint8_t { kStep, kAgentRx, kFecDecode };

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  SpanKind kind = SpanKind::kStep;
  std::int8_t cls = -1;  // packet class of an agent_rx span
  int lane = 0;
};

/// Per-agent trace state, touched only by the thread executing the
/// agent's node (per-node slots keep sharded runs race-free).
struct Slot {
  std::array<std::uint64_t, kClasses> rx{};
  std::array<std::uint64_t, kClasses> rx_self_ns{};
  std::uint64_t decode_calls = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t decode_bytes = 0;
  std::vector<std::uint32_t> decode_samples_ns;
  std::uint64_t child_ns = 0;   // decode time inside the open agent_rx
  std::uint64_t open_span = 0;  // sampled agent_rx in progress (0 = none)
  std::uint64_t rx_calls = 0;
  std::uint64_t next_id = 0;
  std::vector<Span> spans;
};

class Tracer {
 public:
  Tracer(std::size_t agents, bool serial, Clock::time_point epoch)
      : slots_(agents), serial_(serial), epoch_(epoch) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].next_id = (static_cast<std::uint64_t>(i) + 1) << 40;
    }
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Slot& slot(std::size_t agent) { return slots_[agent]; }
  const std::vector<Slot>& slots() const { return slots_; }

  /// The sharqfec boundary: time one Agent::on_receive, minus the decode
  /// it triggers, under the packet's class.
  void agent_rx(net::Agent& inner, Slot& s, const net::Packet& p) {
    const int c = static_cast<int>(p.cls);
    const bool sample =
        serial_ ? step_span_ != 0 : (s.rx_calls++ % kSampleEvery == 0);
    const std::uint64_t id = sample ? ++s.next_id : 0;
    s.open_span = id;
    s.child_ns = 0;
    const std::int64_t t0 = now_ns();
    inner.on_receive(p);
    const std::int64_t t1 = now_ns();
    s.open_span = 0;
    const auto incl = static_cast<std::uint64_t>(t1 - t0);
    ++s.rx[static_cast<std::size_t>(c)];
    s.rx_self_ns[static_cast<std::size_t>(c)] += incl - s.child_ns;
    if (serial_) step_rx_ns_ += incl;
    if (sample) {
      s.spans.push_back({id, serial_ ? step_span_ : 0, t0, t1,
                         SpanKind::kAgentRx, static_cast<std::int8_t>(c),
                         stats::lane()});
    }
  }

  /// The fec boundary: one reconstructed(g) call.
  void decoded(Slot& s, std::int64_t t0, std::int64_t t1, std::size_t bytes) {
    const auto ns = static_cast<std::uint64_t>(t1 - t0);
    ++s.decode_calls;
    s.decode_ns += ns;
    s.decode_bytes += bytes;
    s.decode_samples_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, UINT32_MAX)));
    s.child_ns += ns;
    if (s.open_span != 0) {
      s.spans.push_back({++s.next_id, s.open_span, t0, t1,
                         SpanKind::kFecDecode, -1, stats::lane()});
    }
  }

  /// The sim boundary: drive the serial loop to `horizon` one
  /// Simulator::step() at a time.
  void step_until(sim::Simulator& simu, sim::Time horizon, CountingSink& sink) {
    std::uint64_t n = 0;
    while (simu.next_event_time() <= horizon) {
      const bool sample = n++ % kSampleEvery == 0;
      step_span_ = sample ? n : 0;  // step ids stay below 2^40
      step_rx_ns_ = 0;
      sink.hop_seen = false;
      const std::int64_t t0 = now_ns();
      simu.step();
      const std::int64_t t1 = now_ns();
      const auto d = static_cast<std::uint64_t>(t1 - t0);
      if (sample) steps.push_back({n, 0, t0, t1, SpanKind::kStep, -1, 0});
      if (sink.hop_seen) {
        ++hop_steps;
        hop_ns += d > step_rx_ns_ ? d - step_rx_ns_ : 0;
      }
    }
    step_span_ = 0;
    simu.run_until(horizon);  // clock to the horizon, as run_until does
  }

  std::vector<Span> steps;
  std::uint64_t hop_steps = 0;
  std::uint64_t hop_ns = 0;

 private:
  std::vector<Slot> slots_;
  bool serial_;
  Clock::time_point epoch_;
  std::uint64_t step_span_ = 0;   // id of the sampled step in progress
  std::uint64_t step_rx_ns_ = 0;  // agent receive time inside this step
};

/// Stands in for an sfq::Agent on its node and forwards every packet.
class RxProxy final : public net::Agent {
 public:
  RxProxy(net::Agent& inner, Tracer& tracer, Slot& slot)
      : inner_(inner), tracer_(tracer), slot_(slot) {}
  void on_receive(const net::Packet& p) override {
    tracer_.agent_rx(inner_, slot_, p);
  }

 private:
  net::Agent& inner_;
  Tracer& tracer_;
  Slot& slot_;
};

// --- one run -----------------------------------------------------------------

enum class Mode { kTimed, kTraced, kSetupOnly };

/// Per-receiver delivery record, written only by the receiver's shard.
struct RxRecord {
  std::vector<std::uint8_t> done;  // by group
  std::vector<double> delay_ms;    // completion minus the group's due time
  std::uint64_t ok = 0;            // completions whose bytes matched
  std::uint64_t bad = 0;           // mismatched, empty or repeated
  std::uint64_t decode_calls = 0;
};

/// Everything one run measured. Counts are deterministic per seed.
struct RunResult {
  double setup_s = 0, topo_build_s = 0, session_build_s = 0;
  double run_cpu_s = 0, run_wall_s = 0;
  std::uint64_t receivers = 0, pairs = 0, pairs_ok = 0, decode_calls = 0;
  std::uint64_t pairs_by_horizon = 0;  // pairs_ok within the measured run
  std::uint64_t completions = 0;
  double group_bytes = 0;
  std::vector<double> delay_ms;
  std::array<std::uint64_t, kClasses> deliveries{}, rx_pkts{};
  std::uint64_t rx_bytes = 0, tx = 0, drops_loss = 0, drops_queue_full = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> shard_events;
  double queue_high_water = 0, queue_bytes = 0;
  double xshard_msgs = 0, lookahead_stalls = 0;
  std::uint64_t dup_rejects = 0, nacks_sent = 0, repairs_sent = 0;
  std::uint64_t preemptive = 0, session_msgs = 0;
  stats::MemCensus census;
  double rss_growth = 0, peak_rss = 0;
  std::unique_ptr<Tracer> tracer;
};

RunResult run_once(const Workload& w, std::uint64_t seed, int workers,
                   const std::vector<std::uint8_t>& payload, Mode mode) {
  RunResult r;
  const bool traced = mode == Mode::kTraced;
  const long long rss0 = trimmed_rss_bytes();
  const auto setup0 = Clock::now();

  stats::Metrics metrics;  // outlives everything that caches into it
  sim::Simulator simu(seed);
  if (traced) simu.set_metrics(&metrics);
  net::Network net(simu);

  // topo: the topology (and, sharded, its zone partition).
  std::vector<net::NodeId> receivers;
  net::NodeId source = net::kNoNode;
  sfq::Config cfg;
  cfg.real_payload = true;
  std::unique_ptr<sim::ShardRuntime> rt;
  net::ShardMap map;
  if (w.deep) {
    topo::DeepTreeParams p;  // d3_f8: 8 + 64 + 512 hubs, 16 leaves per hub
    p.zone_depth = 3;
    p.fanout = 8;
    p.leaves_per_hub = 16;
    // 5%, not macro_sim's 1%: at 1% most (receiver, group) pairs need no
    // repair, so the median completion time would be the fixed path delay
    // on every seed. At 5% the median pair goes through recovery.
    p.leaf_loss = 0.05;
    p.queue_limit_pkts = 1024;
    topo::DeepTree tree = topo::make_deep_tree(net, p);
    receivers = tree.receivers;
    source = tree.source;
    // The paper's dedicated caches (§5.2): static ZCRs, no election storm.
    for (const auto& [zone, hub] : tree.zone_hubs) cfg.static_zcrs[zone] = hub;
    if (workers > 0) map = topo::make_zone_shard_map(net, stats::kMaxLanes);
  } else {
    topo::Figure10 fig = topo::make_figure10(net);
    receivers = fig.receivers;
    source = fig.source;
  }
  const auto topo1 = Clock::now();
  if (workers > 0) {
    if (map.nshards < 2) {
      std::fprintf(stderr, "%s: topology yields no shard partition\n", w.name);
      std::exit(1);
    }
    rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards, map.lookahead,
                                             seed, workers);
    net.enable_sharding(*rt, std::move(map));
    if (traced) rt->set_metrics(&metrics);
  }

  // net: counting sinks, one per shard.
  std::vector<std::uint8_t> is_receiver(
      static_cast<std::size_t>(net.node_count()), 0);
  for (net::NodeId n : receivers) is_receiver[static_cast<std::size_t>(n)] = 1;
  std::vector<std::unique_ptr<CountingSink>> sinks;
  sinks.push_back(std::make_unique<CountingSink>(is_receiver));
  if (rt) {
    for (int s = 1; s < rt->nshards(); ++s) {
      sinks.push_back(std::make_unique<CountingSink>(is_receiver));
    }
    for (int s = 0; s < rt->nshards(); ++s) {
      net.set_shard_sink(s, sinks[static_cast<std::size_t>(s)].get());
    }
  } else {
    net.set_sink(sinks[0].get());
  }

  // sharqfec: the session.
  const auto session0 = Clock::now();
  sfq::Session session(net, source, receivers, cfg);
  session.start();
  const auto setup1 = Clock::now();
  r.topo_build_s = seconds(topo1 - setup0);
  r.session_build_s = seconds(setup1 - session0);
  r.setup_s = seconds(setup1 - setup0);
  if (mode == Mode::kSetupOnly) return r;

  // fec: every completion decodes and checks its group's bytes.
  const std::size_t group_bytes = static_cast<std::size_t>(cfg.group_size) *
                                  static_cast<std::size_t>(cfg.shard_size_bytes);
  // A group is due when the source has sent its k originals.
  const double group_time = cfg.group_size * cfg.shard_size_bytes * 8.0 /
                            cfg.data_rate_bps;
  const auto& agents = session.agents();  // [0] = source
  if (traced) {
    r.tracer = std::make_unique<Tracer>(agents.size(), !rt, Clock::now());
  }
  std::vector<RxRecord> rec(agents.size());
  for (std::size_t i = 1; i < agents.size(); ++i) {
    rec[i].done.assign(w.groups, 0);
    sfq::Agent* a = agents[i].get();
    sim::Simulator* clock = &net.simulator_for(a->node());
    Slot* slot = traced ? &r.tracer->slot(i) : nullptr;
    Tracer* tracer = r.tracer.get();
    RxRecord* out = &rec[i];
    a->transfer().set_completion_callback([=, &payload,
                                           &w](std::uint32_t g) {
      std::vector<std::uint8_t> bytes;
      if (tracer != nullptr) {
        const std::int64_t t0 = tracer->now_ns();
        bytes = a->transfer().reconstructed(g);
        tracer->decoded(*slot, t0, tracer->now_ns(), bytes.size());
      } else {
        bytes = a->transfer().reconstructed(g);
      }
      ++out->decode_calls;
      const bool fresh = g < w.groups && !out->done[g];
      if (fresh && bytes.size() == group_bytes &&
          std::memcmp(bytes.data(), payload.data() + g * group_bytes,
                      group_bytes) == 0) {
        out->done[g] = 1;
        ++out->ok;
        const double due = w.start_at + (g + 1.0) * group_time;
        out->delay_ms.push_back((clock->now() - due) * 1e3);
      } else {
        ++out->bad;
      }
    });
  }
  std::vector<std::unique_ptr<RxProxy>> proxies;
  if (traced) {
    for (std::size_t i = 0; i < agents.size(); ++i) {
      sfq::Agent& a = *agents[i];
      proxies.push_back(
          std::make_unique<RxProxy>(a, *r.tracer, r.tracer->slot(i)));
      net.detach(a.node(), &a);
      net.attach(a.node(), proxies.back().get());
    }
  }
  session.send_stream(w.groups, w.start_at, payload);

  // The run.
  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  if (rt) {
    rt->run_until(w.horizon);
  } else if (traced) {
    r.tracer->step_until(simu, w.horizon, *sinks[0]);
  } else {
    simu.run_until(w.horizon);
  }
  r.run_wall_s = seconds(Clock::now() - wall0);
  r.run_cpu_s = cpu_seconds() - cpu0;

  // Count at the horizon.
  r.receivers = receivers.size();
  r.pairs = r.receivers * w.groups;
  r.group_bytes = static_cast<double>(group_bytes);
  for (std::size_t i = 1; i < agents.size(); ++i) {
    r.pairs_by_horizon += rec[i].ok;
  }
  for (const auto& s : sinks) {
    for (int c = 0; c < kClasses; ++c) {
      r.deliveries[c] += s->deliveries[c];
      r.rx_pkts[c] += s->rx_pkts[c];
    }
    r.rx_bytes += s->rx_bytes;
    r.tx += s->tx;
    r.drops_loss += s->drops_loss;
    r.drops_queue_full += s->drops_queue_full;
  }
  for (const auto& a : agents) {
    r.dup_rejects += a->duplicate_rejects();
    r.nacks_sent += a->transfer().nacks_sent();
    r.repairs_sent += a->transfer().repairs_sent();
    r.preemptive += a->transfer().preemptive_repairs_sent();
    r.session_msgs += a->session().session_messages_sent();
  }
  std::size_t evq = 0;
  if (rt) {
    r.events = rt->events_executed();
    for (int s = 0; s < rt->nshards(); ++s) {
      r.shard_events.push_back(rt->sim(s).events_executed());
      evq += rt->sim(s).queue_memory_bytes();
    }
  } else {
    r.events = simu.events_executed();
    r.shard_events.push_back(r.events);
    evq = simu.queue_memory_bytes();
  }
  r.queue_bytes = static_cast<double>(evq);
  if (traced) {
    // Max over every child, shard-labelled ones included: the unlabelled
    // gauge alone reads 0 once ShardRuntime relabels shard 0.
    const auto snap = metrics.snapshot();
    if (auto it = snap.families.find("sim.queue_high_water");
        it != snap.families.end()) {
      for (const auto& [key, v] : it->second.values) {
        r.queue_high_water = std::max(r.queue_high_water, v.scalar);
      }
    }
    r.xshard_msgs =
        static_cast<double>(metrics.counter_total("sim.shard.xshard_msgs"));
    r.lookahead_stalls = static_cast<double>(
        metrics.counter_total("sim.shard.lookahead_stalls"));
  }
  session.memory_census(r.census);
  net.memory_census(r.census);
  r.census.add("event_queue", evq, evq);
  const long long rss1 = trimmed_rss_bytes();
  r.rss_growth = static_cast<double>(std::max(0LL, rss1 - rss0));
  r.peak_rss = peak_rss_bytes();

  // A pair still short at the horizon may complete until the deadline,
  // untimed and uncounted: a rare straggler is measured, not failed, and
  // the measured run stays the same length on every seed.
  std::uint64_t done = r.pairs_by_horizon;
  for (sim::Time t = w.horizon; done < r.pairs && t < w.deadline;) {
    t = std::min(t + 0.5, w.deadline);
    if (rt) {
      rt->run_until(t);
    } else {
      simu.run_until(t);
    }
    done = 0;
    for (std::size_t i = 1; i < agents.size(); ++i) done += rec[i].ok;
  }
  for (std::size_t i = 1; i < agents.size(); ++i) {
    r.pairs_ok += rec[i].ok;
    r.completions += rec[i].ok + rec[i].bad;
    r.decode_calls += rec[i].decode_calls;
    r.delay_ms.insert(r.delay_ms.end(), rec[i].delay_ms.begin(),
                      rec[i].delay_ms.end());
  }
  return r;
}

// --- reporting ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"completion_p50_ms", "ms"},
    {"completion_p99_ms", "ms"},
    {"rx_pkts_per_receiver", "count"},
    {"nack_rx_per_receiver", "count"},
    {"rx_bytes_per_receiver", "B"},
    {"rss_bytes_per_receiver", "B"},
    {"peak_rss_mb", "MB"},
};

// The run phase's host times lead this list, not kEndToEnd: on a shared
// host they swing by up to half within minutes, wider than any bound an
// end-to-end metric may take (perfbench/README.md, "Host time").
constexpr MetricDef kPerLayer[] = {
    {"run_cpu_s", "s"},
    {"run_wall_s", "s"},
    {"goodput_mb_per_cpu_s", "MB/s"},
    {"goodput_mb_per_wall_s", "MB/s"},
    {"fec.decode_calls", "count"},
    {"fec.decode_s", "s"},
    {"fec.decode_mb_per_s", "MB/s"},
    {"fec.decode_ns_p99", "ns"},
    {"sharqfec.rx_ns.data", "ns"},
    {"sharqfec.rx_ns.repair", "ns"},
    {"sharqfec.rx_ns.nack", "ns"},
    {"sharqfec.rx_ns.session", "ns"},
    {"sharqfec.rx_ns.control", "ns"},
    {"sharqfec.session_share", "ratio"},
    {"sharqfec.dup_rejects", "count"},
    {"sharqfec.nacks_sent", "count"},
    {"sharqfec.repairs_sent", "count"},
    {"sharqfec.preemptive_repairs", "count"},
    {"sharqfec.session_msgs_sent", "count"},
    {"sharqfec.repairs_per_group", "count"},
    {"sharqfec.dedup_bytes_per_receiver", "B"},
    {"sharqfec.peer_table_bytes_per_receiver", "B"},
    {"sharqfec.group_bytes_per_receiver", "B"},
    {"sharqfec.session_build_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_cpu_s", "1/s"},
    {"sim.step_ns_p50", "ns"},
    {"sim.step_ns_p99", "ns"},
    {"sim.queue_high_water", "count"},
    {"sim.queue_bytes_per_receiver", "B"},
    {"sim.shard_imbalance", "ratio"},
    {"sim.xshard_msgs", "count"},
    {"sim.lookahead_stalls", "count"},
    {"net.tx", "count"},
    {"net.deliveries.data", "count"},
    {"net.deliveries.repair", "count"},
    {"net.deliveries.nack", "count"},
    {"net.deliveries.session", "count"},
    {"net.deliveries.control", "count"},
    {"net.drops.loss", "count"},
    {"net.drops.queue_full", "count"},
    {"net.hop_ns", "ns"},
    {"net.bytes_per_receiver", "B"},
    {"mem.attributed_ratio", "ratio"},
    {"topo.build_s", "s"},
    {"trace.overhead_cpu_s", "s"},
};

using Values = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double census_live(const stats::MemCensus& c, const char* category) {
  auto it = c.categories.find(category);
  return it == c.categories.end()
             ? 0.0
             : static_cast<double>(it->second.live_bytes);
}

/// The user-visible figures of one untraced run.
Values end_to_end(const RunResult& r) {
  const double mb =
      static_cast<double>(r.pairs_by_horizon) * r.group_bytes / 1e6;
  const double rx = static_cast<double>(r.receivers);
  return {
      {"setup_s", r.setup_s},
      {"run_cpu_s", r.run_cpu_s},
      {"run_wall_s", r.run_wall_s},
      {"goodput_mb_per_cpu_s", ratio(mb, r.run_cpu_s)},
      {"goodput_mb_per_wall_s", ratio(mb, r.run_wall_s)},
      {"completion_p50_ms", percentile(r.delay_ms, 0.50)},
      {"completion_p99_ms", percentile(r.delay_ms, 0.99)},
      {"rx_pkts_per_receiver",
       ratio(static_cast<double>(r.rx_pkts[0] + r.rx_pkts[1]), rx)},
      {"nack_rx_per_receiver", ratio(static_cast<double>(r.rx_pkts[2]), rx)},
      {"rx_bytes_per_receiver", ratio(static_cast<double>(r.rx_bytes), rx)},
      {"rss_bytes_per_receiver", ratio(r.rss_growth, rx)},
      {"peak_rss_mb", r.peak_rss / 1e6},
  };
}

/// Per-layer figures. Counts and time splits come from the traced run
/// `t`; CPU rates and memory from the untraced run `u` (tracing adds both
/// time and span storage); `s` is the run that stepped the serial loop.
Values per_layer(const RunResult& u, const RunResult& t, const RunResult& s,
                 std::uint32_t groups) {
  const Tracer& tr = *t.tracer;
  std::array<double, kClasses> count{}, self_ns{};
  double decode_calls = 0, decode_ns = 0, decode_bytes = 0;
  std::vector<std::uint32_t> decode_samples;
  for (const Slot& sl : tr.slots()) {
    for (int c = 0; c < kClasses; ++c) {
      count[c] += static_cast<double>(sl.rx[c]);
      self_ns[c] += static_cast<double>(sl.rx_self_ns[c]);
    }
    decode_calls += static_cast<double>(sl.decode_calls);
    decode_ns += static_cast<double>(sl.decode_ns);
    decode_bytes += static_cast<double>(sl.decode_bytes);
    decode_samples.insert(decode_samples.end(), sl.decode_samples_ns.begin(),
                          sl.decode_samples_ns.end());
  }
  double rx_total_ns = 0;
  for (double v : self_ns) rx_total_ns += v;
  std::vector<std::int64_t> step_ns;  // the sampled steps
  for (const Span& sp : s.tracer->steps) step_ns.push_back(sp.t1_ns - sp.t0_ns);
  const double rx = static_cast<double>(u.receivers);
  const double max_shard = static_cast<double>(
      *std::max_element(t.shard_events.begin(), t.shard_events.end()));
  const double mean_shard = static_cast<double>(t.events) /
                            static_cast<double>(t.shard_events.size());
  double census_total = 0;
  for (const auto& [cat, e] : u.census.categories) {
    census_total += static_cast<double>(e.live_bytes);
  }
  Values v{
      {"fec.decode_calls", decode_calls},
      {"fec.decode_s", decode_ns * 1e-9},
      {"fec.decode_mb_per_s", ratio(decode_bytes / 1e6, decode_ns * 1e-9)},
      {"fec.decode_ns_p99", percentile(decode_samples, 0.99)},
      {"sharqfec.session_share", ratio(self_ns[3] + self_ns[4], rx_total_ns)},
      {"sharqfec.dup_rejects", static_cast<double>(t.dup_rejects)},
      {"sharqfec.nacks_sent", static_cast<double>(t.nacks_sent)},
      {"sharqfec.repairs_sent", static_cast<double>(t.repairs_sent)},
      {"sharqfec.preemptive_repairs", static_cast<double>(t.preemptive)},
      {"sharqfec.session_msgs_sent", static_cast<double>(t.session_msgs)},
      {"sharqfec.repairs_per_group",
       ratio(static_cast<double>(t.repairs_sent), groups)},
      {"sharqfec.dedup_bytes_per_receiver",
       ratio(census_live(u.census, "dedup_windows"), rx)},
      {"sharqfec.peer_table_bytes_per_receiver",
       ratio(census_live(u.census, "peer_tables"), rx)},
      {"sharqfec.group_bytes_per_receiver",
       ratio(census_live(u.census, "transfer_groups"), rx)},
      {"sharqfec.session_build_s", u.session_build_s},
      {"sim.events", static_cast<double>(t.events)},
      {"sim.events_per_cpu_s",
       ratio(static_cast<double>(u.events), u.run_cpu_s)},
      {"sim.step_ns_p50", percentile(step_ns, 0.50)},
      {"sim.step_ns_p99", percentile(step_ns, 0.99)},
      {"sim.queue_high_water", t.queue_high_water},
      {"sim.queue_bytes_per_receiver", ratio(u.queue_bytes, rx)},
      {"sim.shard_imbalance", ratio(max_shard, mean_shard)},
      {"sim.xshard_msgs", t.xshard_msgs},
      {"sim.lookahead_stalls", t.lookahead_stalls},
      {"net.tx", static_cast<double>(t.tx)},
      {"net.drops.loss", static_cast<double>(t.drops_loss)},
      {"net.drops.queue_full", static_cast<double>(t.drops_queue_full)},
      {"net.hop_ns", ratio(static_cast<double>(s.tracer->hop_ns),
                           static_cast<double>(s.tracer->hop_steps))},
      {"net.bytes_per_receiver",
       ratio(census_live(u.census, "net_topology") +
                 census_live(u.census, "net_caches"),
             rx)},
      {"mem.attributed_ratio", ratio(census_total, u.rss_growth)},
      {"topo.build_s", u.topo_build_s},
      {"trace.overhead_cpu_s", t.run_cpu_s - u.run_cpu_s},
  };
  for (int c = 0; c < kClasses; ++c) {
    v[std::string("sharqfec.rx_ns.") + kClassNames[c]] =
        ratio(self_ns[c], count[c]);
    v[std::string("net.deliveries.") + kClassNames[c]] =
        static_cast<double>(t.deliveries[c]);
  }
  return v;
}

/// Median of each metric over the runs' values.
Values medians(const std::vector<Values>& runs) {
  Values out;
  for (const auto& [name, v0] : runs.front()) {
    std::vector<double> xs;
    for (const Values& r : runs) xs.push_back(r.at(name));
    out[name] = median(xs);
  }
  return out;
}

/// Writes the kept spans in the Chrome trace-event format (Perfetto and
/// chrome://tracing read it): one "X" event per span, ids and parents in
/// args so self time can be recomputed from the file.
void write_trace(const char* path, const Tracer& tr) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  auto emit = [&](const Span& s) {
    const char* name = s.kind == SpanKind::kStep      ? "step"
                       : s.kind == SpanKind::kAgentRx ? "agent_rx"
                                                      : "fec_decode";
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu%s%s%s}}",
                 first ? "" : ",", name, s.lane, s.t0_ns / 1e3,
                 (s.t1_ns - s.t0_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.cls >= 0 ? ",\"cls\":\"" : "",
                 s.cls >= 0 ? kClassNames[s.cls] : "", s.cls >= 0 ? "\"" : "");
    first = false;
  };
  for (const Span& s : tr.steps) emit(s);
  for (const Slot& sl : tr.slots()) {
    for (const Span& s : sl.spans) emit(s);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// Folds one replica's run into a pooled run: times and counts add and
/// samples pool, so per-receiver ratios become replica averages. Covers
/// what end_to_end() and the consistency checks read.
void accumulate(RunResult& a, RunResult&& r) {
  a.setup_s += r.setup_s;
  a.run_cpu_s += r.run_cpu_s;
  a.run_wall_s += r.run_wall_s;
  a.receivers += r.receivers;
  a.pairs += r.pairs;
  a.pairs_ok += r.pairs_ok;
  a.pairs_by_horizon += r.pairs_by_horizon;
  a.completions += r.completions;
  a.decode_calls += r.decode_calls;
  a.group_bytes = r.group_bytes;
  a.delay_ms.insert(a.delay_ms.end(), r.delay_ms.begin(), r.delay_ms.end());
  for (int c = 0; c < kClasses; ++c) {
    a.deliveries[c] += r.deliveries[c];
    a.rx_pkts[c] += r.rx_pkts[c];
  }
  a.rx_bytes += r.rx_bytes;
  a.events += r.events;
  a.rss_growth += r.rss_growth;
  a.peak_rss = std::max(a.peak_rss, r.peak_rss);
}

/// A run's own consistency: every pair delivered with the right bytes,
/// one decode per completion, nothing delivered twice.
void run_correct(const RunResult& r, std::string* why) {
  if (r.pairs_ok != r.pairs) *why += " incomplete or mismatched pairs;";
  if (r.completions != r.pairs_ok) *why += " bad or repeated completions;";
  if (r.decode_calls != r.completions) *why += " decode calls != completions;";
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: stream_bench --workload fig10_stream|deep_stream|"
               "deep_sharded --seed N --seconds S --trace 0|1 [--workers N] "
               "[--all-metrics] [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = nullptr;
  const char* trace_out = nullptr;
  long long seed = -1;
  double budget_s = -1;
  int trace = -1;
  int workers = -1;
  bool all_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_arg = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_arg) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_arg) {
      seed = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_arg) {
      budget_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_arg) {
      trace = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && has_arg) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_arg) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--all-metrics") == 0) {
      all_metrics = true;
    } else {
      usage();
    }
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name != nullptr && std::strcmp(name, w.name) == 0) wp = &w;
  }
  if (wp == nullptr || seed < 0 || budget_s <= 0 || (trace != 0 && trace != 1)) {
    usage();
  }
  Workload w = *wp;
  if (workers >= 0) {
    if (w.workers == 0 || workers < 1) usage();  // only sharded ones take it
    w.workers = workers;
  }
  // Replica j runs on seed replicas * seed + j, with its own payload.
  std::vector<std::uint64_t> seeds;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int j = 0; j < w.replicas; ++j) {
    seeds.push_back(static_cast<std::uint64_t>(seed) * w.replicas + j);
    payloads.push_back(make_payload(
        seeds.back(), static_cast<std::size_t>(w.groups) * 16 * 1000));
  }

  // Measure for the budget: whole runs (every replica) until it is spent,
  // at least one; medians over runs. Traced mode pairs each untraced
  // replica run with a traced one on the same inputs, so the overhead
  // compares like with like.
  const bool tracing = trace == 1 || all_metrics;
  std::vector<RunResult> timed;
  std::vector<Values> layers;
  std::vector<double> setups;
  RunResult serial_stepped;
  std::unique_ptr<Tracer> kept;  // the last traced run's spans
  std::string why;
  const auto t0 = Clock::now();
  do {
    RunResult run;
    for (int j = 0; j < w.replicas; ++j) {
      RunResult u = run_once(w, seeds[j], w.workers, payloads[j], Mode::kTimed);
      setups.push_back(u.setup_s);
      if (tracing) {
        RunResult t = run_once(w, seeds[j], w.workers, payloads[j], Mode::kTraced);
        run_correct(t, &why);
        std::uint64_t decodes = 0;
        for (const Slot& sl : t.tracer->slots()) decodes += sl.decode_calls;
        if (decodes != t.pairs_ok) why += " fec.decode_calls != completed pairs;";
        if (t.events > 0 && t.queue_high_water <= 0) {
          why += " sim.queue_high_water reads 0;";
        }
        // The proxies and sinks observe without steering.
        if (t.events != u.events || t.deliveries != u.deliveries ||
            t.delay_ms != u.delay_ms) {
          why += " traced run diverged;";
        }
        // Simulator::step() is out of reach inside ShardRuntime windows, so
        // a sharded workload's step and hop times come from its inputs
        // stepped once on the serial engine.
        if (w.workers > 0 && !serial_stepped.tracer) {
          serial_stepped = run_once(w, seeds[j], 0, payloads[j], Mode::kTraced);
        }
        layers.push_back(
            per_layer(u, t, w.workers > 0 ? serial_stepped : t, w.groups));
        kept = std::move(t.tracer);
      }
      accumulate(run, std::move(u));
    }
    std::printf("run %zu: setup %.3f s, run %.3f s CPU / %.3f s wall\n",
                timed.size() + 1, run.setup_s, run.run_cpu_s, run.run_wall_s);
    std::fflush(stdout);
    run_correct(run, &why);
    // Same seed, same history: every run repeats the first one's counts.
    if (!timed.empty() && (run.events != timed[0].events ||
                           run.deliveries != timed[0].deliveries ||
                           run.delay_ms != timed[0].delay_ms)) {
      why += " runs of one seed diverged;";
    }
    timed.push_back(std::move(run));
  } while (seconds(Clock::now() - t0) < budget_s);
  // Set-up is short against a run: take at least fifteen samples of it.
  while (setups.size() < 15) {
    for (int j = 0; j < w.replicas; ++j) {
      setups.push_back(
          run_once(w, seeds[j], w.workers, payloads[j], Mode::kSetupOnly)
              .setup_s);
    }
  }

  std::vector<Values> e2e;
  for (const RunResult& r : timed) e2e.push_back(end_to_end(r));
  Values out = medians(e2e);
  out["setup_s"] = median(setups);
  if (tracing) {
    Values l = medians(layers);
    out.insert(l.begin(), l.end());
    if (trace_out != nullptr) write_trace(trace_out, *kept);
  }

  const RunResult& r0 = timed.front();
  const std::uint64_t failed = r0.pairs - std::min(r0.pairs, r0.pairs_ok);
  std::printf("%s seed=%lld: %zu run(s), %zu traced replica run(s); %d "
              "replica(s) x %llu receivers x %u groups; %zu completion "
              "samples per run (max %.1f ms); %llu events\n",
              w.name, seed, timed.size(), layers.size(), w.replicas,
              static_cast<unsigned long long>(r0.receivers) / w.replicas,
              w.groups,
              r0.delay_ms.size(), percentile(r0.delay_ms, 1.0),
              static_cast<unsigned long long>(r0.events));
  if (!why.empty()) std::printf("INCORRECT:%s\n", why.c_str());
  std::string json = "{\"correct\": ";
  json += why.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r0.pairs);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto put = [&](const MetricDef& d) {
    auto it = out.find(d.name);
    if (it == out.end()) return;
    std::printf("  %-40s %16s %s\n", d.name,
                stats::json_double(it->second).c_str(), d.unit);
    json += first ? "" : ", ";
    json += "\"" + std::string(d.name) + "\": {\"value\": " +
            stats::json_double(it->second) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  };
  if (trace == 0 || all_metrics) {
    for (const MetricDef& d : kEndToEnd) put(d);
  }
  if (tracing) {
    for (const MetricDef& d : kPerLayer) put(d);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
