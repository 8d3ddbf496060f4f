// The network's wire counts live in its lanes and reach the registry only
// through Network::export_metrics. Under a fault plan that drops packets
// for every reachable cause, corrupts and duplicates them, the export must
// agree with what the traffic sinks saw, serially and on four workers, and
// the shard runtime's worker count must not move any count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/traffic_recorder.hpp"
#include "topo/figure10.hpp"
#include "topo/shard_plan.hpp"

namespace sharq {
namespace {

constexpr net::DropReason kReasons[] = {net::DropReason::kQueueFull,
                                        net::DropReason::kLoss,
                                        net::DropReason::kEpochKill};
constexpr net::TrafficClass kClasses[] = {
    net::TrafficClass::kData, net::TrafficClass::kRepair,
    net::TrafficClass::kNack, net::TrafficClass::kSession,
    net::TrafficClass::kControl};

struct Counts {
  std::uint64_t exported_drops[net::kDropReasonCount] = {};
  std::uint64_t recorded_drops[net::kDropReasonCount] = {};
  std::uint64_t sends[net::kTrafficClassCount] = {};
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
};

/// Figure 10 carrying an 8-group stream under a plan that squeezes one
/// tree link (narrow and one packet deep, so the stream overflows it),
/// cuts it while a packet serializes, crashes a middle node, and corrupts
/// and duplicates on two others. The paper's link loss does the rest.
/// `workers` 0 runs the serial engine.
Counts run_plan(int workers) {
  sim::Simulator simu(2024);
  net::Network net(simu);
  const topo::Figure10 t = topo::make_figure10(net);
  std::unique_ptr<sim::ShardRuntime> rt;
  if (workers > 0) {
    net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
    rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards, map.lookahead,
                                             /*seed=*/2024, workers);
    net.enable_sharding(*rt, std::move(map));
  }
  std::vector<std::unique_ptr<stats::TrafficRecorder>> recs;
  for (int s = 0; s < net.shard_map().nshards; ++s) {
    recs.push_back(std::make_unique<stats::TrafficRecorder>(net.node_count()));
    net.set_shard_sink(s, recs.back().get());
  }

  sfq::Config cfg;
  cfg.max_backoff_stage = 5;
  sfq::Session session(net, t.source, t.receivers, cfg);
  session.start();
  session.send_stream(8, 6.0);

  fault::Injector::Hooks hooks;
  hooks.kill = [&](net::NodeId n) { session.remove_receiver(n); };
  hooks.restart = [&](net::NodeId n) { session.add_receiver(n); };
  fault::Injector inject(net, std::move(hooks));
  const net::NodeId mesh = t.mesh[0];
  const net::NodeId squeezed = t.middles_of(0)[0];
  const net::NodeId crashed = t.middles_of(1)[0];
  using K = fault::EventKind;
  fault::FaultPlan plan;
  plan.events = {
      {5.0, K::kBandwidth, mesh, squeezed, 2e5, 0.0, 0},
      {5.0, K::kQueueLimit, mesh, squeezed, 0.0, 0.0, 1},
      {6.3, K::kLinkDown, mesh, squeezed, 0.0, 0.0, 0},
      {6.8, K::kLinkUp, mesh, squeezed, 0.0, 0.0, 0},
      {6.4, K::kNodeKill, crashed, net::kNoNode, 0.0, 0.0, 0},
      {9.0, K::kNodeRestart, crashed, net::kNoNode, 0.0, 0.0, 0},
      {6.0, K::kCorruptRate, t.mesh[2], t.middles_of(2)[0], 0.2, 0.0, 0},
      {6.0, K::kDuplicateRate, t.mesh[3], t.middles_of(3)[0], 0.2, 0.0, 1},
      {12.0, K::kBandwidth, mesh, squeezed, 10e6, 0.0, 0},
      {12.0, K::kQueueLimit, mesh, squeezed, 0.0, 0.0, -1},
      {12.0, K::kCorruptRate, t.mesh[2], t.middles_of(2)[0], 0.0, 0.0, 0},
      {12.0, K::kDuplicateRate, t.mesh[3], t.middles_of(3)[0], 0.0, 0.0, 1},
  };
  plan.sort();
  inject.schedule(plan);
  net.run_until(40.0);

  stats::Metrics metrics;
  net.export_metrics(metrics);
  Counts c;
  for (net::DropReason r : kReasons) {
    const int i = static_cast<int>(r);
    c.exported_drops[i] =
        metrics.counter_value("net.drops", {{"reason", net::to_string(r)}});
    for (const auto& rec : recs) c.recorded_drops[i] += rec->drops(r);
  }
  for (net::TrafficClass cls : kClasses) {
    c.sends[static_cast<int>(cls)] =
        metrics.counter_value("net.sends", {{"class", net::to_string(cls)}});
  }
  c.corrupted = metrics.counter_total("net.corrupted");
  c.duplicated = metrics.counter_total("net.duplicated");
  return c;
}

void expect_drops_match_recorders(const Counts& c) {
  for (net::DropReason r : kReasons) {
    const int i = static_cast<int>(r);
    EXPECT_EQ(c.exported_drops[i], c.recorded_drops[i]) << net::to_string(r);
  }
  // The plan reaches every drop site a packet can take.
  EXPECT_GT(c.exported_drops[static_cast<int>(net::DropReason::kQueueFull)], 0u);
  EXPECT_GT(c.exported_drops[static_cast<int>(net::DropReason::kLoss)], 0u);
  EXPECT_GT(c.exported_drops[static_cast<int>(net::DropReason::kEpochKill)], 0u);
  EXPECT_GT(c.corrupted, 0u);
  EXPECT_GT(c.duplicated, 0u);
}

TEST(NetCounts, ExportedDropsMatchTheRecordersSerially) {
  expect_drops_match_recorders(run_plan(0));
}

TEST(NetCounts, ExportedDropsMatchTheShardRecordersOnFourWorkers) {
  expect_drops_match_recorders(run_plan(4));
}

TEST(NetCounts, WorkerCountMovesNoCount) {
  const Counts one = run_plan(1);
  const Counts four = run_plan(4);
  for (net::TrafficClass cls : kClasses) {
    const int i = static_cast<int>(cls);
    EXPECT_EQ(one.sends[i], four.sends[i]) << net::to_string(cls);
  }
  EXPECT_GT(one.sends[static_cast<int>(net::TrafficClass::kData)], 0u);
  EXPECT_EQ(one.corrupted, four.corrupted);
  EXPECT_EQ(one.duplicated, four.duplicated);
  for (net::DropReason r : kReasons) {
    const int i = static_cast<int>(r);
    EXPECT_EQ(one.exported_drops[i], four.exported_drops[i])
        << net::to_string(r);
  }
}

}  // namespace
}  // namespace sharq
