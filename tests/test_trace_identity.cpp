// Whole-protocol trace identity: two runs with the same seed must be
// BYTE-IDENTICAL — same packet trace, same event count, same protocol
// outcome. The event queue orders strictly by (time, seq), so a
// divergence means the tie-break contract every EXPERIMENTS.md result and
// the determinism lint rely on broke. Scenarios: the paper's Figure 10
// topology end to end, and a scripted chaos plan (partition + heal + ZCR
// kill) whose cancellations and re-elections exercise the queue's lazy
// deletion and compaction.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "stats/trace_writer.hpp"
#include "topo/figure10.hpp"

namespace sharq {
namespace {

struct RunResult {
  std::string trace;
  std::uint64_t events = 0;
  std::uint64_t nacks = 0;
  std::uint64_t repairs = 0;
  std::vector<sim::Time> completion_times;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_figure10(std::uint64_t seed) {
  sim::Simulator simu(seed);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  std::ostringstream trace;
  stats::TraceWriter tw(trace, &net, nullptr);
  net.set_sink(&tw);
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(8, 6.0);
  simu.run_until(30.0);

  RunResult r;
  r.trace = trace.str();
  r.events = simu.events_executed();
  for (auto& a : s.agents()) {
    r.nacks += a->transfer().nacks_sent();
    r.repairs += a->transfer().repairs_sent();
  }
  for (net::NodeId rcv : t.receivers) {
    for (std::uint32_t g = 0; g < 8; ++g) {
      r.completion_times.push_back(log.completion_time(rcv, g));
    }
  }
  return r;
}

TEST(TraceIdentity, Figure10TraceIsByteIdentical) {
  const RunResult a = run_figure10(424242);
  const RunResult b = run_figure10(424242);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a, b);
}

TEST(TraceIdentity, Figure10SecondSeedAgreesToo) {
  // One seed could agree by luck on a short run; a second pins it.
  EXPECT_EQ(run_figure10(7), run_figure10(7));
}

// Scripted chaos on a hub-zone: a mid-transfer partition, its heal, and
// the zone ZCR dying. Cancelled timers, re-elections, and catch-up
// repairs make this the densest cancellation workload in the tree —
// exactly where stale-key skipping or compaction could leak into order.
RunResult run_chaos(std::uint64_t seed) {
  sim::Simulator simu(seed);
  net::Network net(simu);
  const net::NodeId source = net.add_node();
  const net::NodeId hub = net.add_node();
  const net::NodeId relay = net.add_node();
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig up;
  up.delay = 0.020;
  net.add_duplex_link(source, hub, up);
  net::LinkConfig down;
  down.delay = 0.010;
  down.loss_rate = 0.02;
  for (net::NodeId n : {relay, a, b}) net.add_duplex_link(hub, n, down);
  const net::ZoneId root = net.zones().add_root();
  const net::ZoneId zone = net.zones().add_zone(root);
  net.zones().assign(source, root);
  for (net::NodeId n : {hub, relay, a, b}) net.zones().assign(n, zone);

  std::ostringstream trace;
  stats::TraceWriter tw(trace, &net, nullptr);
  net.set_sink(&tw);
  rm::DeliveryLog log;
  sfq::Config cfg;
  cfg.static_zcrs[zone] = relay;
  sfq::Session s(net, source, {relay, a, b}, cfg, &log);
  s.start();
  s.send_stream(12, 6.0);

  const auto plan = fault::FaultPlan::parse(
      "plan trace-identity\n"
      "at 7.0 partition 1 3\n"
      "at 13.0 heal 1 3\n"
      "at 20.0 kill 2\n");
  EXPECT_TRUE(plan.has_value());
  fault::Injector inject(
      net, {.kill = [&](net::NodeId n) { s.remove_receiver(n); },
            .restart = [&](net::NodeId n) { s.add_receiver(n); }});
  inject.schedule(*plan);
  simu.run_until(60.0);

  RunResult r;
  r.trace = trace.str();
  r.events = simu.events_executed();
  for (auto& agent : s.agents()) {
    r.nacks += agent->transfer().nacks_sent();
    r.repairs += agent->transfer().repairs_sent();
  }
  for (net::NodeId rcv : {a, b}) {
    for (std::uint32_t g = 0; g < 12; ++g) {
      r.completion_times.push_back(log.completion_time(rcv, g));
    }
  }
  return r;
}

TEST(TraceIdentity, ChaosPlanTraceIsByteIdentical) {
  const RunResult a = run_chaos(1717);
  const RunResult b = run_chaos(1717);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_GT(a.nacks + a.repairs, 0u) << "chaos run exercised no recovery";
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sharq
