// Determinism regression: two runs with the same seed must agree on every
// observable, and a different seed must diverge. This pins down the
// property every simulation result in EXPERIMENTS.md relies on.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "rm/delivery_log.hpp"
#include "sharqfec/messages.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "srm/session.hpp"
#include "stats/trace_writer.hpp"
#include "topo/figure10.hpp"

namespace sharq {
namespace {

struct Outcome {
  std::uint64_t nacks = 0;
  std::uint64_t repairs = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  std::vector<sim::Time> completion_times;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome run_sharqfec_once(std::uint64_t seed) {
  sim::Simulator simu(seed);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(8, 6.0);
  simu.run_until(30.0);
  Outcome o;
  for (auto& a : s.agents()) {
    o.nacks += a->transfer().nacks_sent();
    o.repairs += a->transfer().repairs_sent();
    o.sessions += a->session().session_messages_sent();
  }
  o.events = simu.events_executed();
  for (net::NodeId r : t.receivers) {
    for (std::uint32_t g = 0; g < 8; ++g) {
      o.completion_times.push_back(log.completion_time(r, g));
    }
  }
  return o;
}

Outcome run_srm_once(std::uint64_t seed) {
  sim::Simulator simu(seed);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  rm::DeliveryLog log;
  srm::Config cfg;
  srm::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(64, 6.0);
  simu.run_until(20.0);
  Outcome o;
  for (auto& a : s.agents()) {
    o.nacks += a->requests_sent();
    o.repairs += a->repairs_sent();
  }
  o.events = simu.events_executed();
  for (net::NodeId r : t.receivers) {
    for (std::uint32_t u = 0; u < 64; ++u) {
      o.completion_times.push_back(log.completion_time(r, u));
    }
  }
  return o;
}

TEST(Determinism, SharqfecSameSeedSameRun) {
  const Outcome a = run_sharqfec_once(12345);
  const Outcome b = run_sharqfec_once(12345);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
}

TEST(Determinism, SharqfecDifferentSeedDiverges) {
  const Outcome a = run_sharqfec_once(12345);
  const Outcome b = run_sharqfec_once(54321);
  EXPECT_NE(a, b);
}

TEST(Determinism, SrmSameSeedSameRun) {
  const Outcome a = run_srm_once(777);
  const Outcome b = run_srm_once(777);
  EXPECT_EQ(a, b);
}

// Full packet trace of a SHARQFEC run, as a string. Unlike the Outcome
// comparisons above (aggregates, which hash-order reshuffles can leave
// unchanged), the trace pins the exact wire ORDER of every transmission —
// the thing the forwarding graft and session-beacon container migrations
// are protecting. Two same-seed runs are separate Network objects at
// different addresses, so anything address- or hash-layout-dependent
// that leaks into packet sequencing shows up as a byte diff here.
std::string run_traced_once(std::uint64_t seed) {
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
  return trace.str();
}

TEST(Determinism, SameSeedTraceIsByteIdentical) {
  const std::string a = run_traced_once(424242);
  const std::string b = run_traced_once(424242);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Session beacons carry one RTT-echo entry per tracked peer; the entry
// list is wire output, so it must come off the (now ordered) peer table
// in ascending peer order, never hash order.
TEST(Determinism, SessionBeaconEntriesAreSortedByPeer) {
  struct EntryOrderSink final : net::TrafficSink {
    int beacons_with_entries = 0;
    void on_deliver(sim::Time, net::NodeId, const net::Packet& p) override {
      const auto* msg = p.as<sfq::SessionMsg>();
      if (!msg || msg->entries.size() < 2) return;
      ++beacons_with_entries;
      for (std::size_t i = 1; i < msg->entries.size(); ++i) {
        EXPECT_LT(msg->entries[i - 1].peer, msg->entries[i].peer);
      }
    }
  };
  sim::Simulator simu(99);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  EntryOrderSink sink;
  net.set_sink(&sink);
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  simu.run_until(20.0);
  EXPECT_GT(sink.beacons_with_entries, 0);
}

// Channel membership is stored sorted regardless of join order.
TEST(Determinism, SubscriberSnapshotIsSorted) {
  sim::Simulator simu(1);
  net::Network net(simu);
  net.add_nodes(6);
  const net::ChannelId ch = net.create_channel();
  for (net::NodeId n : {4, 1, 5, 0, 3}) net.subscribe(ch, n);
  auto subscribers = [&] {
    const std::span<const net::NodeId> s = net.subscribers(ch);
    return std::vector<net::NodeId>(s.begin(), s.end());
  };
  EXPECT_EQ(subscribers(), (std::vector<net::NodeId>{0, 1, 3, 4, 5}));
  EXPECT_EQ(net.subscriber_count(ch), 5u);
  net.unsubscribe(ch, 3);
  EXPECT_EQ(subscribers(), (std::vector<net::NodeId>{0, 1, 4, 5}));
}

// DeliveryLog::latencies walks each node's unit->time table into the
// report; recording order must not leak through.
TEST(Determinism, DeliveryLogLatenciesAreUnitOrdered) {
  rm::DeliveryLog log;
  // Record out of unit order, as real recovery does.
  log.record(/*node=*/7, /*unit=*/2, /*t=*/5.0);
  log.record(7, 0, 9.0);
  log.record(7, 1, 6.0);
  const std::unordered_map<std::uint64_t, sim::Time> sent_at{
      {0, 1.0}, {1, 1.5}, {2, 2.0}};
  const std::vector<double> lat = log.latencies({7}, sent_at);
  EXPECT_EQ(lat, (std::vector<double>{8.0, 4.5, 3.0}));  // units 0, 1, 2
}

}  // namespace
}  // namespace sharq
