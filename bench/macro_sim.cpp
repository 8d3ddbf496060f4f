// Macro simulation benchmark: full SHARQFEC protocol runs on deep
// nested-zone hierarchies (topo::make_deep_tree), swept over zone depth
// and fan-out up to >= 10^5 receivers. Measures end-to-end simulator
// throughput and memory footprint and writes BENCH_sim.json — the
// committed baseline docs/PERFORMANCE.md explains how to read and
// reproduce.
//
// Usage:
//   macro_sim [--smoke] [--max-receivers N] [--out PATH] [--threads LIST]
//             [--dump-metrics DIR] [--case NAME] [--profile FILE]
//
//   --smoke           run only the smallest sweep point (CI smoke job)
//   --max-receivers N skip sweep points with more receivers than N
//   --case NAME       run only the named sweep point (CI profile job runs
//                     `--case d3_f8_8k`)
//   --profile FILE    write a sharqfec.profile.v1 self-profile (wall-time
//                     + memory attribution; see docs/OBSERVABILITY.md).
//                     Each executed case overwrites FILE — combine with
//                     --case (and a single --threads count) to profile
//                     one configuration.
//   --out PATH        write JSON here (default BENCH_sim.json, or the
//                     SHARQFEC_BENCH_SIM_JSON env var)
//   --threads LIST    after the serial sweep, rerun the largest executed
//                     point on the zone-sharded runtime once per
//                     comma-separated worker count (e.g. "1,4"); those
//                     rows get a _tN name suffix and a nonzero threads
//                     column. The shard count comes from the topology, so
//                     every N produces byte-identical simulation state.
//   --dump-metrics DIR  write DIR/<case>.metrics.json per case (the
//                     stable-ordered registry export; `cmp` two _tN dumps
//                     to check the determinism contract)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "sharqfec/protocol.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "topo/shapes.hpp"
#include "topo/shard_plan.hpp"

using namespace sharq;

namespace {

struct SweepPoint {
  const char* name;
  int zone_depth;      // hub levels below the source
  int fanout;          // hubs per hub
  int leaves_per_hub;  // subscribers per deepest hub
  double leaf_loss;
  std::uint32_t groups;    // groups streamed
  double horizon;          // virtual seconds simulated
};

struct CaseResult {
  SweepPoint point;
  std::string name;  // point name, plus _tN when sharded
  int threads = 0;   // worker count (0 = legacy serial engine)
  int shards = 0;    // topology shard count (0 = legacy serial engine)
  int receivers = 0;
  int nodes = 0;
  int zone_levels = 0;  // zone hierarchy depth including root
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double queue_high_water = 0.0;
  std::uint64_t rss_delta_bytes = 0;  // resident growth across build+run
  double bytes_per_receiver = 0.0;
  std::uint32_t complete_receivers = 0;
  stats::MemCensus census;  // post-run memory attribution by category
};

/// Process peak resident set in bytes (0 where unavailable).
long long peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return ru.ru_maxrss;  // bytes on macOS
#else
    return ru.ru_maxrss * 1024LL;  // kilobytes on Linux
#endif
  }
#endif
  return 0;
}

/// Run one sweep point. `threads` == 0 uses the legacy serial engine;
/// >= 1 partitions by zone subtree and runs the conservative-lookahead
/// shard runtime with that many workers. `dump_dir`, when non-null, gets
/// a <case>.metrics.json registry export for byte-identity checks.
CaseResult run_case(const SweepPoint& pt, int threads, const char* dump_dir,
                    const char* profile_path) {
  CaseResult res;
  res.point = pt;
  res.name = pt.name;
  if (threads > 0) res.name += "_t" + std::to_string(threads);
  res.threads = threads;
  // Trimmed, so each point's RSS delta reflects its own footprint, not the
  // high-water of the previous (larger) point.
  const std::uint64_t rss0 = stats::trimmed_rss_bytes();
  const auto wall0 = std::chrono::steady_clock::now();
  // Install the profiler before any protocol object exists so the build
  // phase is attributed too. Probes cost one branch when this is absent,
  // so unprofiled cases measure the same code the committed baseline did.
  std::unique_ptr<stats::Profiler> prof;
  if (profile_path != nullptr) {
    prof = std::make_unique<stats::Profiler>();
    stats::Profiler::set_active(prof.get());
  }

  sim::Simulator simu(7);
  stats::Metrics metrics;
  simu.set_metrics(&metrics);
  net::Network net(simu);
  topo::DeepTreeParams p;
  p.zone_depth = pt.zone_depth;
  p.fanout = pt.fanout;
  p.leaves_per_hub = pt.leaves_per_hub;
  p.leaf_loss = pt.leaf_loss;
  // Finite but generous: real routers have finite buffers, and an
  // unexpected queue blow-up should surface as counted drops rather than
  // unbounded memory. Never reached in the committed BENCH cases.
  p.queue_limit_pkts = 1024;
  topo::DeepTree tree = topo::make_deep_tree(net, p);
  res.receivers = static_cast<int>(tree.receivers.size());
  res.nodes = static_cast<int>(net.node_count());
  res.zone_levels = pt.zone_depth + 1;

  // Sharding must be enabled before any agent is constructed: agents bind
  // their node's per-shard Simulator (clock, timers, RNG stream) at
  // construction time.
  std::unique_ptr<sim::ShardRuntime> rt;
  if (threads > 0) {
    net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
    if (map.nshards > 1) {
      rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards,
                                               map.lookahead,
                                               /*seed=*/7, threads);
      res.shards = rt->nshards();
      net.enable_sharding(*rt, std::move(map));
      rt->set_metrics(&metrics);
    } else {
      // The threads column reports the engine that actually ran (0 =
      // serial); the _tN name suffix still records what was asked for.
      res.threads = 0;
      std::fprintf(stderr,
                   "  %s: topology yields no shardable partition; "
                   "running serial\n",
                   pt.name);
    }
  }

  sfq::Config cfg;
  cfg.scoping = true;
  // Dedicated caches at every bifurcation point (paper §5.2): static ZCRs
  // skip the bootstrap election storm, which is not what this benchmark
  // measures.
  for (const auto& [zone, hub] : tree.zone_hubs) cfg.static_zcrs[zone] = hub;
  sfq::Session session(net, tree.source, tree.receivers, cfg);
  session.start();
  session.send_stream(pt.groups, /*start_at=*/2.0);
  net.run_until(pt.horizon);

  const auto wall1 = std::chrono::steady_clock::now();
  res.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  res.events = net.events_executed();
  res.events_per_sec =
      res.wall_s > 0 ? static_cast<double>(res.events) / res.wall_s : 0.0;
  // Sharded runs register one gauge per shard ({"shard", s}; shard 0's
  // replaces the unlabeled one), so report the deepest shard queue.
  const int nshards = net.shard_map().nshards;
  res.queue_high_water = metrics.gauge_value("sim.queue_high_water", {});
  for (int s = 0; s < nshards; ++s) {
    res.queue_high_water = std::max(
        res.queue_high_water,
        metrics.gauge_value("sim.queue_high_water",
                            {{"shard", std::to_string(s)}}));
  }
  // Trimmed, so the delta measures live protocol/simulator state, not
  // transient churn high-water.
  const std::uint64_t rss1 = stats::trimmed_rss_bytes();
  res.rss_delta_bytes = rss1 > rss0 ? rss1 - rss0 : 0;
  res.bytes_per_receiver =
      res.receivers > 0
          ? static_cast<double>(res.rss_delta_bytes) / res.receivers
          : 0.0;
  const std::uint32_t total = pt.groups;
  for (const auto& agent : session.agents()) {
    if (agent->node() == tree.source) continue;
    bool all = true;
    for (std::uint32_t g = 0; g < total && all; ++g) {
      all = agent->transfer().group_complete(g);
    }
    res.complete_receivers += all ? 1 : 0;
  }
  // Memory attribution census: every named owner of retained bytes
  // reports live/peak per category (pull-based — zero hot-path cost).
  session.memory_census(res.census);
  net.memory_census(res.census);
  const std::uint64_t evq = net.queue_memory_bytes();
  res.census.add("event_queue", evq, evq);
  if (prof) {
    prof->set_memory(res.census);
    prof->set_rss_delta(res.rss_delta_bytes);
    prof->set_shards(nshards);
    prof->set_env("tool", "macro_sim");
    prof->set_env("case", res.name);
    prof->set_env("threads", std::to_string(threads));
    stats::Profiler::set_active(nullptr);
    prof->write_file(profile_path);
  }
  if (dump_dir != nullptr) {
    const std::string path =
        std::string(dump_dir) + "/" + res.name + ".metrics.json";
    std::ofstream os(path);
    if (os) {
      metrics.write_json(os);
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  return res;
}

void write_json(std::FILE* f, const std::vector<CaseResult>& results) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sharqfec-macro-sim-v1\",\n");
  std::fprintf(f, "  \"peak_rss_bytes\": %lld,\n", peak_rss_bytes());
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"threads\": %d,\n", r.threads);
    std::fprintf(f, "      \"shards\": %d,\n", r.shards);
    std::fprintf(f, "      \"zone_depth\": %d,\n", r.point.zone_depth);
    std::fprintf(f, "      \"zone_levels\": %d,\n", r.zone_levels);
    std::fprintf(f, "      \"fanout\": %d,\n", r.point.fanout);
    std::fprintf(f, "      \"leaves_per_hub\": %d,\n", r.point.leaves_per_hub);
    std::fprintf(f, "      \"receivers\": %d,\n", r.receivers);
    std::fprintf(f, "      \"nodes\": %d,\n", r.nodes);
    std::fprintf(f, "      \"groups\": %u,\n", r.point.groups);
    std::fprintf(f, "      \"horizon_s\": %.1f,\n", r.point.horizon);
    std::fprintf(f, "      \"events\": %llu,\n",
                 static_cast<unsigned long long>(r.events));
    // Full precision: check_bench.py compares events / wall_s against
    // events_per_sec, which a rounded time skews on short runs.
    std::fprintf(f, "      \"wall_s\": %.17g,\n", r.wall_s);
    std::fprintf(f, "      \"events_per_sec\": %.0f,\n", r.events_per_sec);
    std::fprintf(f, "      \"queue_high_water\": %.0f,\n", r.queue_high_water);
    std::fprintf(f, "      \"rss_delta_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.rss_delta_bytes));
    std::fprintf(f, "      \"bytes_per_receiver\": %.0f,\n",
                 r.bytes_per_receiver);
    // Per-subsystem retained bytes at end of run (the census's peak
    // column); check_bench.py requires it.
    std::fprintf(f, "      \"mem_peak_bytes\": {");
    bool first_cat = true;
    for (const auto& [cat, e] : r.census.categories) {
      std::fprintf(f, "%s\"%s\": %llu", first_cat ? "" : ", ", cat.c_str(),
                   static_cast<unsigned long long>(e.peak_bytes));
      first_cat = false;
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "      \"complete_receivers\": %u\n",
                 r.complete_receivers);
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  long max_receivers = -1;
  std::vector<int> thread_counts;
  const char* dump_dir = nullptr;
  const char* only_case = nullptr;
  const char* profile_path = nullptr;
  const char* out = std::getenv("SHARQFEC_BENCH_SIM_JSON");
  if (out == nullptr) out = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--max-receivers") == 0 && i + 1 < argc) {
      max_receivers = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      for (const char* s = argv[++i]; *s != '\0';) {
        char* end = nullptr;
        const long n = std::strtol(s, &end, 10);
        if (end == s || n < 1) {
          std::fprintf(stderr, "--threads wants counts >= 1 (got %s)\n", s);
          return 2;
        }
        thread_counts.push_back(static_cast<int>(n));
        s = *end == ',' ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "--dump-metrics") == 0 && i + 1 < argc) {
      dump_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--case") == 0 && i + 1 < argc) {
      only_case = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile_path = argv[i] + 10;
    } else {
      std::fprintf(stderr,
                   "usage: macro_sim [--smoke] [--max-receivers N] "
                   "[--out PATH] [--threads LIST] [--dump-metrics DIR] "
                   "[--case NAME] [--profile FILE]\n");
      return 2;
    }
  }

  // Depth x fan-out sweep, ascending size. Hub counts grow geometrically,
  // so the deep points carry most of the receivers in their leaf tier.
  const std::vector<SweepPoint> sweep{
      // name            depth fan leaves loss   groups horizon
      {"d2_f4_smoke",        2,  4,    8, 0.01,      2, 20.0},
      {"d3_f8_8k",           3,  8,   16, 0.01,      2, 20.0},
      {"d4_f8_70k",          4,  8,   16, 0.005,     1, 12.0},
      {"d5_f6_100k",         5,  6,   12, 0.0,       1, 10.0},
  };

  auto report = [](const CaseResult& r) {
    std::printf(
        "  %d receivers, %llu events in %.1f s wall  (%.2fM ev/s, "
        "%.0f B/receiver, queue hw %.0f, %u/%d complete)\n",
        r.receivers, static_cast<unsigned long long>(r.events), r.wall_s,
        r.events_per_sec / 1e6, r.bytes_per_receiver, r.queue_high_water,
        r.complete_receivers, r.receivers);
    std::fflush(stdout);
  };

  std::vector<CaseResult> results;
  for (const SweepPoint& pt : sweep) {
    if (only_case != nullptr && std::strcmp(pt.name, only_case) != 0) {
      continue;
    }
    // Receivers = hubs (geometric series) + deepest hubs * leaves.
    long hubs = 0, tier = 1;
    for (int l = 1; l <= pt.zone_depth; ++l) {
      tier *= pt.fanout;
      hubs += tier;
    }
    const long receivers = hubs + tier * pt.leaves_per_hub;
    if (max_receivers >= 0 && receivers > max_receivers) continue;
    std::printf("running %-14s depth=%d fanout=%d (~%ld receivers)...\n",
                pt.name, pt.zone_depth, pt.fanout, receivers);
    std::fflush(stdout);
    results.push_back(run_case(pt, /*threads=*/0, dump_dir, profile_path));
    report(results.back());
    if (smoke) break;
  }
  if (results.empty()) {
    std::fprintf(stderr, "no sweep point matched%s%s\n",
                 only_case != nullptr ? " --case " : "",
                 only_case != nullptr ? only_case : "");
    return 2;
  }

  // Sharded reruns of the largest executed point, one per requested
  // worker count. The shard count is the topology's, not N's, so every
  // rerun simulates the same history; the rows differ only in wall-clock
  // columns.
  if (!thread_counts.empty() && !results.empty()) {
    const SweepPoint pt = results.back().point;
    for (int n : thread_counts) {
      std::printf("running %s on the shard runtime, %d worker%s...\n",
                  pt.name, n, n == 1 ? "" : "s");
      std::fflush(stdout);
      results.push_back(run_case(pt, n, dump_dir, profile_path));
      report(results.back());
    }
  }

  if (std::FILE* f = std::fopen(out, "w")) {
    write_json(f, results);
    std::fclose(f);
    std::printf("wrote %s\n", out);
  } else {
    std::fprintf(stderr, "could not write %s\n", out);
    return 1;
  }
  return 0;
}
