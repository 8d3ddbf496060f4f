#include <gtest/gtest.h>

#include "rm/delivery_log.hpp"
#include "sim/simulator.hpp"
#include "srm/session.hpp"
#include "topo/shapes.hpp"

namespace sharq::srm {
namespace {

struct Fixture {
  sim::Simulator simu{777};
  net::Network net{simu};
};

TEST(Srm, LosslessStreamDeliversWithoutRepairs) {
  Fixture f;
  topo::BalancedTree t =
      topo::make_balanced_tree(f.net, 2, 3, net::LinkConfig{});
  std::vector<net::NodeId> receivers(t.all.begin() + 1, t.all.end());
  rm::DeliveryLog log;
  Config cfg;
  Session session(f.net, t.root, receivers, cfg, &log);
  session.start();
  session.send_stream(50, 2.0);
  f.simu.run_until(20.0);
  for (net::NodeId r : receivers) {
    EXPECT_TRUE(log.complete(r, 50)) << "receiver " << r;
  }
  for (auto& a : session.agents()) {
    EXPECT_EQ(a->requests_sent(), 0u) << "node " << a->node();
  }
}

TEST(Srm, RecoversFromLoss) {
  Fixture f;
  net::LinkConfig lossy;
  lossy.loss_rate = 0.10;
  topo::BalancedTree t = topo::make_balanced_tree(f.net, 2, 3, lossy);
  std::vector<net::NodeId> receivers(t.all.begin() + 1, t.all.end());
  rm::DeliveryLog log;
  Config cfg;
  Session session(f.net, t.root, receivers, cfg, &log);
  session.start();
  session.send_stream(100, 3.0);
  f.simu.run_until(120.0);
  for (net::NodeId r : receivers) {
    EXPECT_TRUE(log.complete(r, 100)) << "receiver " << r;
  }
}

TEST(Srm, SessionMessagesYieldDistances) {
  Fixture f;
  topo::Chain c = topo::make_chain(f.net, {0.010, 0.020});
  rm::DeliveryLog log;
  Config cfg;
  Session session(f.net, c.nodes[0], {c.nodes[1], c.nodes[2]}, cfg, &log);
  session.start();
  f.simu.run_until(10.0);
  Agent& end = session.agent_for(c.nodes[2]);
  EXPECT_NEAR(end.distance_to(c.nodes[0]), 0.030, 0.005);
  EXPECT_NEAR(end.distance_to(c.nodes[1]), 0.020, 0.005);
  Agent& mid = session.agent_for(c.nodes[1]);
  EXPECT_NEAR(mid.distance_to(c.nodes[0]), 0.010, 0.005);
}

TEST(Srm, SuppressionLimitsDuplicateRequests) {
  // One shared lossy link upstream of many receivers: a loss hits everyone;
  // suppression should keep the number of requests well under the number
  // of receivers.
  Fixture f;
  const net::NodeId src = f.net.add_node();
  const net::NodeId relay = f.net.add_node();
  net::LinkConfig upstream;
  upstream.loss_rate = 0.10;
  f.net.add_duplex_link(src, relay, upstream);
  std::vector<net::NodeId> receivers;
  for (int i = 0; i < 20; ++i) {
    const net::NodeId r = f.net.add_node();
    net::LinkConfig leaf;
    leaf.delay = 0.005;
    f.net.add_duplex_link(relay, r, leaf);
    receivers.push_back(r);
  }
  rm::DeliveryLog log;
  Config cfg;
  Session session(f.net, src, receivers, cfg, &log);
  session.start();
  session.send_stream(200, 3.0);
  f.simu.run_until(60.0);

  std::uint64_t requests = 0;
  for (auto& a : session.agents()) requests += a->requests_sent();
  // ~20 packets lost on the shared link, seen by all 20 receivers: naive
  // flooding would send ~400 requests (one per receiver per loss).
  // Suppression should cut that to a handful per loss event — duplicates
  // within one propagation window plus retries for lost repairs remain,
  // exactly as Floyd et al. report for SRM.
  EXPECT_GT(requests, 0u);
  EXPECT_LT(requests, 200u);
  for (net::NodeId r : receivers) EXPECT_TRUE(log.complete(r, 200));
}

TEST(Srm, TailLossRecoveredViaSession) {
  Fixture f;
  const net::NodeId src = f.net.add_node();
  const net::NodeId r = f.net.add_node();
  net::LinkConfig cfg_link;
  cfg_link.loss_rate = 0.3;
  f.net.add_duplex_link(src, r, cfg_link);
  rm::DeliveryLog log;
  Config cfg;
  Session session(f.net, src, {r}, cfg, &log);
  session.start();
  session.send_stream(20, 2.0);
  f.simu.run_until(60.0);
  EXPECT_TRUE(log.complete(r, 20));
}

TEST(Srm, AdaptiveTimersStayBounded) {
  Fixture f;
  net::LinkConfig lossy;
  lossy.loss_rate = 0.15;
  topo::BalancedTree t = topo::make_balanced_tree(f.net, 2, 2, lossy);
  std::vector<net::NodeId> receivers(t.all.begin() + 1, t.all.end());
  Config cfg;
  Session session(f.net, t.root, receivers, cfg, nullptr);
  session.start();
  session.send_stream(150, 3.0);
  f.simu.run_until(60.0);
  for (auto& a : session.agents()) {
    EXPECT_GE(a->adapted_c1(), rm::kAdaptiveMin.c1);
    EXPECT_LE(a->adapted_c1(), rm::kAdaptiveMax.c1);
    EXPECT_GE(a->adapted_c2(), rm::kAdaptiveMin.c2);
    EXPECT_LE(a->adapted_c2(), rm::kAdaptiveMax.c2);
  }
}

TEST(DeliveryLog, TracksCompleteness) {
  rm::DeliveryLog log;
  log.record(1, 0, 1.0);
  log.record(1, 1, 2.0);
  log.record(1, 1, 3.0);  // duplicate keeps earliest
  EXPECT_EQ(log.completed_count(1), 2u);
  EXPECT_TRUE(log.complete(1, 2));
  EXPECT_FALSE(log.complete(1, 3));
  EXPECT_DOUBLE_EQ(log.completion_time(1, 1), 2.0);
  EXPECT_EQ(log.completion_time(1, 9), sim::kTimeNever);
  EXPECT_TRUE(log.complete(2, 0));
}

}  // namespace
}  // namespace sharq::srm
