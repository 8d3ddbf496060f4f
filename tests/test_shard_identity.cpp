// Byte-identity of the zone-sharded parallel runtime (the determinism
// contract in src/sim/shard_runtime.hpp): the shard count comes from the
// topology and every merge point is ordered by simulated history, so a
// run with N workers must produce *byte-identical* observable output to
// the 1-worker run — the causal journal, the metrics registry export,
// and every protocol aggregate. Thread arrival order must never leak.
//
// Two scenarios, each at 1, 2, and 4 workers:
//   - a clean Figure-10 stream (the paper topology, 8 FEC groups)
//   - the same stream under a fault plan driven through at_global
//     barriers (link flap, loss window, node kill/restart)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "net/shard_map.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "srm/session.hpp"
#include "stats/journal.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "stats/trace_writer.hpp"
#include "topo/figure10.hpp"
#include "topo/shapes.hpp"
#include "topo/shard_plan.hpp"

#include "lane_store_check.hpp"

namespace sharq {
namespace {

constexpr std::uint32_t kGroups = 8;

struct RunOutput {
  std::string journal;
  std::string metrics;
  std::uint64_t events = 0;
  int shards = 0;
  bool complete = false;
};

RunOutput run_sharded(int workers, bool with_faults) {
  RunOutput out;
  std::ostringstream jos;
  stats::Metrics metrics;
  stats::Journal journal(jos);
  sim::Simulator simu(4242);
  net::Network net(simu);
  simu.set_metrics(&metrics);
  net.set_journal(&journal);
  topo::Figure10 t = topo::make_figure10(net);

  net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
  EXPECT_GT(map.nshards, 1) << "Figure 10 must partition into shards";
  EXPECT_GT(map.lookahead, 0.0);
  sim::ShardRuntime rt(simu, map.nshards, map.lookahead, /*seed=*/4242,
                       workers);
  out.shards = rt.nshards();
  net.enable_sharding(rt, std::move(map));
  rt.set_metrics(&metrics);

  sfq::Config cfg;
  cfg.metrics = &metrics;
  cfg.journal = &journal;
  cfg.max_backoff_stage = 5;
  cfg.late_join_full_history = true;
  sfq::Session session(net, t.source, t.receivers, cfg);
  session.start();
  session.send_stream(kGroups, 6.0);

  fault::Injector inject(
      net, {.kill = [&](net::NodeId n) { session.remove_receiver(n); },
            .restart = [&](net::NodeId n) { session.add_receiver(n); }});
  if (with_faults) {
    fault::FaultPlan plan;
    const net::NodeId mid = t.middles.front();
    const net::NodeId leaf = t.leaves_of(0).front();
    const net::NodeId victim = t.leaves_of(0).back();
    // A link flap, a loss window on a tree edge, and one kill/restart
    // churn: each mutates global state (routing, conditioners,
    // membership), so each must cross the barrier path.
    plan.events.push_back({8.0, fault::EventKind::kLinkDown, mid, leaf,
                           0.0, 0.0, 0});
    plan.events.push_back({11.0, fault::EventKind::kLinkUp, mid, leaf,
                           0.0, 0.0, 0});
    plan.events.push_back({9.0, fault::EventKind::kLossRate, t.mesh[0], mid,
                           0.30, 0.0, 0});
    plan.events.push_back({14.0, fault::EventKind::kLossRate, t.mesh[0], mid,
                           0.0, 0.0, 0});
    plan.events.push_back({10.0, fault::EventKind::kNodeKill, victim,
                           net::kNoNode, 0.0, 0.0, 0});
    plan.events.push_back({16.0, fault::EventKind::kNodeRestart, victim,
                           net::kNoNode, 0.0, 0.0, 0});
    inject.schedule(plan);
  }

  net.run_until(with_faults ? 60.0 : 30.0);

  out.events = net.events_executed();
  out.complete = session.all_complete(kGroups);
  out.journal = jos.str();
  net.export_metrics(metrics);
  session.export_metrics(metrics);
  std::ostringstream mos;
  metrics.write_json(mos);
  out.metrics = mos.str();
  return out;
}

class ShardIdentity : public ::testing::TestWithParam<bool> {};

TEST_P(ShardIdentity, WorkerCountNeverChangesOutputBytes) {
  const bool faults = GetParam();
  const RunOutput one = run_sharded(1, faults);
  ASSERT_GT(one.events, 0u);
  EXPECT_TRUE(one.complete);
  EXPECT_FALSE(one.journal.empty());

  for (int workers : {2, 4}) {
    const RunOutput many = run_sharded(workers, faults);
    EXPECT_EQ(one.shards, many.shards)
        << "shard count must come from the topology, not the worker count";
    EXPECT_EQ(one.events, many.events) << "workers=" << workers;
    EXPECT_EQ(one.complete, many.complete) << "workers=" << workers;
    // The two byte-level contracts: the causal journal (every event line,
    // id, cause edge, and attribute) and the metrics registry export.
    EXPECT_EQ(one.journal, many.journal) << "workers=" << workers;
    EXPECT_EQ(one.metrics, many.metrics) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(CleanAndFaulted, ShardIdentity,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FaultPlan" : "CleanStream";
                         });

// One shard has no cross-shard link, so the map of an unshardable
// topology (one shard, lookahead 0) must still run: each window reaches
// the next global op or the horizon, and the history is the serial one.
std::string fig10_trace(bool one_shard_runtime) {
  sim::Simulator simu(4242);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  std::unique_ptr<sim::ShardRuntime> rt;
  if (one_shard_runtime) {
    net::ShardMap map = topo::make_zone_shard_map(net, /*max_shards=*/1);
    EXPECT_EQ(map.nshards, 1);
    EXPECT_EQ(map.lookahead, 0.0);
    rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards, map.lookahead,
                                             /*seed=*/4242, /*nthreads=*/1);
    net.enable_sharding(*rt, std::move(map));
  }
  std::ostringstream trace;
  stats::TraceWriter tw(trace, &net, nullptr);
  net.set_sink(&tw);
  sfq::Config cfg;
  sfq::Session session(net, t.source, t.receivers, cfg);
  session.start();
  session.send_stream(kGroups, 6.0);
  for (sim::Time horizon : {15.0, 30.0}) net.run_until(horizon);
  EXPECT_TRUE(session.all_complete(kGroups));
  return trace.str();
}

TEST(ShardIdentity, OneShardZeroLookaheadRunsTheSerialHistory) {
  const std::string serial = fig10_trace(false);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(fig10_trace(true), serial);
}

// The same seed on the *serial* engine is a different determinism domain
// (different RNG stream layout), but it must still agree on protocol
// outcome — completion is an engine-independent fact.
TEST(ShardIdentity, ShardedRunStillCompletesLikeSerial) {
  sim::Simulator simu(4242);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  sfq::Config cfg;
  cfg.max_backoff_stage = 5;
  sfq::Session session(net, t.source, t.receivers, cfg);
  session.start();
  session.send_stream(kGroups, 6.0);
  net.run_until(30.0);
  EXPECT_TRUE(session.all_complete(kGroups));

  const RunOutput sharded = run_sharded(2, /*with_faults=*/false);
  EXPECT_TRUE(sharded.complete);
}

// SRM binds each member's timers and RNG stream to its node's shard
// simulator, so it runs on Figure 10's shards like SHARQFEC does: every
// member ends holding the whole stream, and the worker count moves no
// event. Each agent's own packets_held() is read rather than a shared
// rm::DeliveryLog, which every shard would write at once.
constexpr std::uint32_t kSrmPackets = 64;

struct SrmRun {
  std::uint64_t events = 0;
  std::vector<std::uint32_t> held;  // by agent, [0] = source
};

SrmRun run_srm_sharded(int workers) {
  sim::Simulator simu(4242);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
  EXPECT_GT(map.nshards, 1);
  sim::ShardRuntime rt(simu, map.nshards, map.lookahead, /*seed=*/4242,
                       workers);
  net.enable_sharding(rt, std::move(map));
  srm::Session session(net, t.source, t.receivers, srm::Config{});
  session.start();
  session.send_stream(kSrmPackets, 6.0);
  net.run_until(30.0);
  SrmRun out;
  out.events = net.events_executed();
  for (const auto& a : session.agents()) out.held.push_back(a->packets_held());
  return out;
}

TEST(ShardIdentity, SrmRunsOnShards) {
  const SrmRun one = run_srm_sharded(1);
  const SrmRun four = run_srm_sharded(4);
  ASSERT_GT(one.events, 0u);
  EXPECT_EQ(one.events, four.events);
  for (const SrmRun* run : {&one, &four}) {
    for (std::size_t i = 0; i < run->held.size(); ++i) {
      EXPECT_EQ(run->held[i], kSrmPackets) << "agent #" << i;
    }
  }
}

// The pool's one primitive: every shard runs exactly once per phase, on
// its own lane and inside a window, whatever the worker count; a shard's
// exception reaches the caller after the phase, and the pool still runs
// the next one.
TEST(ShardIdentity, ForEachShardRunsEveryShardOnceAndRethrows) {
  for (int workers : {1, 2, 4}) {
    sim::Simulator simu(1);
    sim::ShardRuntime rt(simu, /*nshards=*/5, /*lookahead=*/0.01,
                         /*seed=*/1, workers);
    rt.set_shard_loads({1, 7, 3, 7, 2});
    std::vector<int> runs(5, 0);
    std::vector<int> lanes(5, -1);
    std::vector<char> windowed(5, 0);
    for (int phase = 0; phase < 3; ++phase) {
      rt.for_each_shard([&](int s) {
        ++runs[static_cast<std::size_t>(s)];
        lanes[static_cast<std::size_t>(s)] = stats::lane();
        windowed[static_cast<std::size_t>(s)] = rt.in_window();
      });
    }
    EXPECT_FALSE(rt.in_window());
    for (int s = 0; s < 5; ++s) {
      EXPECT_EQ(runs[static_cast<std::size_t>(s)], 3) << "workers=" << workers;
      EXPECT_EQ(lanes[static_cast<std::size_t>(s)], s) << "workers=" << workers;
      EXPECT_TRUE(windowed[static_cast<std::size_t>(s)]);
    }

    // Shards 1 and 3 throw; every shard still runs, and the caller gets
    // the lowest-numbered shard's exception, whichever worker ran it.
    std::vector<int> ran(5, 0);
    std::string what;
    try {
      rt.for_each_shard([&](int s) {
        ran[static_cast<std::size_t>(s)] = 1;
        if (s == 1 || s == 3) throw std::runtime_error(std::to_string(s));
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "1") << "workers=" << workers;
    EXPECT_EQ(ran, std::vector<int>(5, 1)) << "workers=" << workers;
    EXPECT_FALSE(rt.in_window());
    rt.for_each_shard([&](int s) { ++runs[static_cast<std::size_t>(s)]; });
    EXPECT_EQ(runs, std::vector<int>(5, 4)) << "workers=" << workers;
  }
}

// Set-up runs on the pool: Session joins every member serially, then each
// shard builds and starts its own agents on whichever worker claims it.
// The agents of one shard are visited in agent order, so every shard's
// RNG forks and timer sequence numbers, and with them the whole history,
// must not depend on the worker count. A d2_f4 deep tree (148 receivers)
// splits into several shards of unequal size, so workers claim shards
// in an order that differs from shard order.
struct DeepSetUp {
  std::vector<std::size_t> pending;    // by shard, right after start()
  std::vector<sim::Time> next_event;   // by shard, right after start()
  std::string journal;
  std::string metrics;
  std::uint64_t events = 0;
  bool complete = false;
};

DeepSetUp run_deep_setup(int workers) {
  constexpr std::uint32_t kDeepGroups = 4;
  DeepSetUp out;
  std::ostringstream jos;
  stats::Metrics metrics;
  stats::Journal journal(jos);
  sim::Simulator simu(77);
  net::Network net(simu);
  simu.set_metrics(&metrics);
  net.set_journal(&journal);
  topo::DeepTreeParams p;
  p.zone_depth = 2;
  p.fanout = 4;
  p.leaves_per_hub = 8;
  p.leaf_loss = 0.05;
  const topo::DeepTree tree = topo::make_deep_tree(net, p);
  net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
  sim::ShardRuntime rt(simu, map.nshards, map.lookahead, /*seed=*/77,
                       workers);
  net.enable_sharding(rt, std::move(map));
  rt.set_metrics(&metrics);

  sfq::Config cfg;
  cfg.metrics = &metrics;
  cfg.journal = &journal;
  for (const auto& [zone, hub] : tree.zone_hubs) cfg.static_zcrs[zone] = hub;
  sfq::Session session(net, tree.source, tree.receivers, cfg);
  session.start();
  for (int s = 0; s < rt.nshards(); ++s) {
    out.pending.push_back(rt.sim(s).events_pending());
    out.next_event.push_back(rt.sim(s).next_event_time());
  }
  session.send_stream(kDeepGroups, 1.0);
  net.run_until(20.0);

  out.events = net.events_executed();
  out.complete = session.all_complete(kDeepGroups);
  out.journal = jos.str();
  net.export_metrics(metrics);
  session.export_metrics(metrics);
  std::ostringstream mos;
  metrics.write_json(mos);
  out.metrics = mos.str();
  return out;
}

TEST(ShardIdentity, ParallelSetUpMatchesAnyWorkerCount) {
  const DeepSetUp one = run_deep_setup(1);
  ASSERT_GT(one.pending.size(), 2u) << "the deep tree must split into shards";
  for (std::size_t s = 0; s < one.pending.size(); ++s) {
    EXPECT_GT(one.pending[s], 0u) << "every shard arms timers; shard " << s;
  }
  EXPECT_TRUE(one.complete);
  EXPECT_FALSE(one.journal.empty());

  for (int workers : {2, 4}) {
    const DeepSetUp many = run_deep_setup(workers);
    EXPECT_EQ(one.pending, many.pending) << "workers=" << workers;
    EXPECT_EQ(one.next_event, many.next_event) << "workers=" << workers;
    EXPECT_EQ(one.events, many.events) << "workers=" << workers;
    EXPECT_EQ(one.journal, many.journal) << "workers=" << workers;
    EXPECT_EQ(one.metrics, many.metrics) << "workers=" << workers;
  }
}

// Real payload across worker threads: shard buffers are shared, never
// copied, so one buffer the source allocated is read by decoders and
// re-encoders on every worker. Each shard lane keeps its own store (one
// buffer per (group, index), adopted from the message that carried it in
// or encoded there), so no store is touched by two workers. Each receiver
// decodes in its completion callback, on its own shard's worker; the
// bytes must equal the payload and be identical at every worker count.
// With `crash`, one leaf is killed mid-stream and rejoins with a fresh
// agent (full-history recovery), which must decode every group too.
struct PayloadRun {
  std::vector<std::vector<std::uint8_t>> decoded;  // [receiver * groups + g]
  std::uint64_t events = 0;
  std::size_t lanes = 0;       // shard stores in the session
  std::size_t store_keys = 0;  // (lane, group, index) keys checked
  // Originals a lane holds in a buffer other than the source's: decoded
  // when a group settled in a lane that lacked them. The message carrying
  // an original shares the source's buffer into every lane it reaches.
  std::size_t lane_decoded = 0;
};

PayloadRun run_real_payload(int workers,
                            const std::vector<std::uint8_t>& payload,
                            bool crash = false) {
  sim::Simulator simu(4242);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  std::unique_ptr<sim::ShardRuntime> rt;
  if (workers > 0) {
    net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
    rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards, map.lookahead,
                                             /*seed=*/4242, workers);
    net.enable_sharding(*rt, std::move(map));
  }

  sfq::Config cfg;
  cfg.real_payload = true;
  cfg.late_join_full_history = true;
  sfq::Session session(net, t.source, t.receivers, cfg);
  session.start();
  PayloadRun out;
  out.decoded.resize(t.receivers.size() * kGroups);
  auto decode_into = [&out](sfq::TransferEngine& rx, std::size_t i) {
    rx.set_completion_callback([&out, &rx, i](std::uint32_t g) {
      if (g < kGroups) out.decoded[i * kGroups + g] = rx.reconstructed(g);
    });
  };
  for (std::size_t i = 0; i < t.receivers.size(); ++i) {
    decode_into(session.agent_for(t.receivers[i]).transfer(), i);
  }
  const net::NodeId victim = t.leaves_of(0).back();
  const std::size_t victim_at = static_cast<std::size_t>(
      std::find(t.receivers.begin(), t.receivers.end(), victim) -
      t.receivers.begin());
  fault::Injector::Hooks hooks;
  hooks.kill = [&](net::NodeId n) { session.remove_receiver(n); };
  hooks.restart = [&](net::NodeId n) {
    // The fresh agent decodes every group again.
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      out.decoded[victim_at * kGroups + g].clear();
    }
    decode_into(session.add_receiver(n).transfer(), victim_at);
  };
  fault::Injector inject(net, std::move(hooks));
  if (crash) {
    fault::FaultPlan plan;
    plan.events.push_back({6.6, fault::EventKind::kNodeKill, victim,
                           net::kNoNode, 0.0, 0.0, 0});
    plan.events.push_back({12.0, fault::EventKind::kNodeRestart, victim,
                           net::kNoNode, 0.0, 0.0, 0});
    inject.schedule(plan);
  }
  session.send_stream(kGroups, 6.0, payload);
  net.run_until(crash ? 60.0 : 30.0);
  out.events = net.events_executed();
  out.lanes = session.stores().size();
  EXPECT_EQ(out.lanes, static_cast<std::size_t>(net.shard_map().nshards));
  if (crash) {
    EXPECT_EQ(session.retired().size(), 1u);
  }
  testing::LaneStoreCheck lane_stores(kGroups, payload, cfg);
  out.store_keys = lane_stores(session);
  const fec::ShardStore& at_source = session.source_agent().transfer().store();
  for (const fec::ShardStore& lane : session.stores()) {
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      for (int d = 0; d < cfg.group_size; ++d) {
        const fec::ShardBuffer* held = lane.find(g, d);
        out.lane_decoded += held && *held != *at_source.find(g, d) ? 1 : 0;
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> test_payload() {
  const sfq::Config cfg;
  const std::size_t group_bytes =
      static_cast<std::size_t>(cfg.group_size) * cfg.shard_size_bytes;
  std::vector<std::uint8_t> payload(kGroups * group_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  return payload;
}

void expect_payload_decoded(const PayloadRun& run,
                            const std::vector<std::uint8_t>& payload) {
  const std::size_t group_bytes = payload.size() / kGroups;
  for (std::size_t slot = 0; slot < run.decoded.size(); ++slot) {
    const std::size_t g = slot % kGroups;
    const std::vector<std::uint8_t> want(
        payload.begin() + g * group_bytes,
        payload.begin() + (g + 1) * group_bytes);
    ASSERT_EQ(run.decoded[slot], want)
        << "receiver #" << slot / kGroups << " group " << g;
  }
}

TEST(ShardIdentity, RealPayloadBytesIdenticalAcrossWorkers) {
  const std::vector<std::uint8_t> payload = test_payload();
  const PayloadRun one = run_real_payload(1, payload);
  expect_payload_decoded(one, payload);
  EXPECT_GT(one.lanes, 1u);
  EXPECT_GT(one.store_keys, 0u);
  for (int workers : {2, 4}) {
    const PayloadRun many = run_real_payload(workers, payload);
    EXPECT_EQ(one.events, many.events) << "workers=" << workers;
    EXPECT_TRUE(one.decoded == many.decoded) << "workers=" << workers;
    EXPECT_EQ(one.store_keys, many.store_keys) << "workers=" << workers;
  }
}

// Where every member of a lane lost one original, the lane's store lacks it
// when those members' group settles: the first to settle decodes it once
// from the shards it holds, and the rest hold that buffer. LaneStoreCheck,
// inside the run, checks the decoded bytes are the source's and that the
// lane store holds one buffer per key its holders refer to; the run is the
// same at 1 and 4 workers.
TEST(ShardIdentity, LaneLackingAnOriginalDecodesItAtSettle) {
  const std::vector<std::uint8_t> payload = test_payload();
  const PayloadRun one = run_real_payload(1, payload);
  expect_payload_decoded(one, payload);
  EXPECT_GT(one.lane_decoded, 0u) << "no lane lacked an original at settle";
  const PayloadRun four = run_real_payload(4, payload);
  expect_payload_decoded(four, payload);
  EXPECT_EQ(four.lane_decoded, one.lane_decoded);
  EXPECT_EQ(four.events, one.events);
  EXPECT_EQ(four.store_keys, one.store_keys);
}

// A receiver crashes mid-stream and rejoins as a fresh agent: it recovers
// every group's bytes from its zone, serially and on two workers, and its
// retired agent's holds stay in its lane's store.
TEST(ShardIdentity, RealPayloadRejoinerDecodesCorrectBytes) {
  const std::vector<std::uint8_t> payload = test_payload();
  for (int workers : {0, 2}) {
    SCOPED_TRACE(workers == 0 ? "serial" : "2 workers");
    const PayloadRun run = run_real_payload(workers, payload, /*crash=*/true);
    expect_payload_decoded(run, payload);
    EXPECT_GT(run.store_keys, 0u);
  }
}


// Forwarding state is sized by the topology, not the shard count: each
// lane caches only its own nodes' forwarding rows, so the rows summed over
// eight lanes are the serial cache's. A d2 tree with fan-out 8 has eight
// top-level zones; the partitioner deals them across shards 1-7 beside the
// root zone's shard 0, so the run uses the full eight lanes.
struct DeepRun {
  std::uint64_t net_caches = 0;  // census peak bytes
  int shards = 0;
  std::uint32_t complete = 0;
  std::vector<std::vector<net::NodeId>> lane_rows;  // by lane
  std::vector<int> shard_of;                        // by node
};

DeepRun run_deep(int workers) {
  sim::Simulator simu(7);
  net::Network net(simu);
  topo::DeepTreeParams p;
  p.zone_depth = 2;
  p.fanout = 8;
  p.leaves_per_hub = 4;
  p.leaf_loss = 0.01;
  topo::DeepTree tree = topo::make_deep_tree(net, p);
  std::unique_ptr<sim::ShardRuntime> rt;
  DeepRun out;
  if (workers > 0) {
    net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
    out.shard_of = map.shard_of;
    rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards, map.lookahead,
                                             /*seed=*/7, workers);
    out.shards = rt->nshards();
    net.enable_sharding(*rt, std::move(map));
  }
  sfq::Config cfg;
  for (const auto& [zone, hub] : tree.zone_hubs) cfg.static_zcrs[zone] = hub;
  sfq::Session session(net, tree.source, tree.receivers, cfg);
  session.start();
  session.send_stream(2, /*start_at=*/2.0);
  net.run_until(12.0);
  for (net::NodeId r : tree.receivers) {
    if (session.agent_for(r).transfer().group_complete(1)) ++out.complete;
  }
  stats::MemCensus census;
  net.memory_census(census);
  out.net_caches = census.categories["net_caches"].peak_bytes;
  for (int lane = 0; lane < out.shards; ++lane) {
    out.lane_rows.push_back(net.cached_row_nodes(lane));
  }
  return out;
}

TEST(ShardIdentity, NetCachesDoNotScaleWithShards) {
  const DeepRun serial = run_deep(0);
  const DeepRun sharded = run_deep(4);
  ASSERT_EQ(sharded.shards, stats::kMaxLanes);
  EXPECT_GT(serial.complete, 0u);
  EXPECT_EQ(serial.complete, sharded.complete);
  ASSERT_GT(serial.net_caches, 0u);
  EXPECT_LE(static_cast<double>(sharded.net_caches),
            1.1 * static_cast<double>(serial.net_caches))
      << "serial " << serial.net_caches << " B, " << sharded.shards
      << " shards " << sharded.net_caches << " B";
}

TEST(ShardIdentity, EachLaneCachesOnlyItsOwnShardsRows) {
  const DeepRun run = run_deep(2);
  ASSERT_EQ(run.lane_rows.size(), static_cast<std::size_t>(run.shards));
  std::size_t rows = 0;
  for (int lane = 0; lane < run.shards; ++lane) {
    const auto& nodes = run.lane_rows[static_cast<std::size_t>(lane)];
    EXPECT_FALSE(nodes.empty()) << "lane " << lane;
    for (net::NodeId v : nodes) {
      EXPECT_EQ(run.shard_of[static_cast<std::size_t>(v)], lane)
          << "node " << v << " cached in lane " << lane;
    }
    rows += nodes.size();
  }
  // Every node forwards or receives something, and owns its rows once.
  EXPECT_EQ(rows, run.shard_of.size());
}

// A send issued from a barrier (lane 0) for a node of another shard reads
// that node's own lane, which holds its rows: it reaches every subscriber,
// as it does serially, whatever the worker count.
class RecordingAgent : public net::Agent {
 public:
  void on_receive(const net::Packet& packet) override {
    heard.push_back(packet.channel);
  }
  std::vector<net::ChannelId> heard;  // written only by this node's lane
};

using Heard = std::vector<std::pair<net::NodeId, net::ChannelId>>;

Heard barrier_send_receivers(int workers) {
  sim::Simulator simu(11);
  net::Network net(simu);
  topo::DeepTreeParams p;
  p.zone_depth = 2;
  p.fanout = 4;
  p.leaves_per_hub = 2;
  topo::DeepTree tree = topo::make_deep_tree(net, p);
  std::unique_ptr<sim::ShardRuntime> rt;
  const net::NodeId origin = tree.leaves.back();
  if (workers > 0) {
    net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
    EXPECT_NE(map.shard(origin), 0) << "the origin must sit outside shard 0";
    rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards, map.lookahead,
                                             /*seed=*/11, workers);
    net.enable_sharding(*rt, std::move(map));
  }
  // One unscoped channel and one confined to the root zone; both span
  // every shard.
  const net::ChannelId global = net.create_channel();
  const net::ChannelId root = net.create_channel(tree.root_zone);
  std::vector<RecordingAgent> agents(static_cast<std::size_t>(net.node_count()));
  for (net::NodeId v = 0; v < net.node_count(); ++v) {
    net.attach(v, &agents[static_cast<std::size_t>(v)]);
    net.subscribe(global, v);
    net.subscribe(root, v);
  }
  auto send = [&net, origin, global, root] {
    net.send(origin, global, net::TrafficClass::kControl, 100, nullptr);
    net.send(origin, root, net::TrafficClass::kControl, 100, nullptr);
  };
  net.at_global(1.0, send, "test.send");
  net.run_until(5.0);
  Heard heard;
  for (net::NodeId v = 0; v < net.node_count(); ++v) {
    for (net::ChannelId ch : agents[static_cast<std::size_t>(v)].heard) {
      heard.emplace_back(v, ch);
    }
  }
  return heard;
}

TEST(ShardIdentity, BarrierSendFromAnotherShardReachesEverySubscriber) {
  const Heard serial = barrier_send_receivers(0);
  // 53 nodes (source, 4 + 16 hubs, 32 leaves): every node but the origin
  // hears each of the two channels once.
  EXPECT_EQ(serial.size(), 2u * (53u - 1u));
  for (int workers : {1, 4}) {
    EXPECT_EQ(barrier_send_receivers(workers), serial)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace sharq
