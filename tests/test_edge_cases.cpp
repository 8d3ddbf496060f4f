#include <gtest/gtest.h>

#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "srm/session.hpp"
#include "topo/shapes.hpp"

namespace sharq {
namespace {

// --- SHARQFEC session estimation fallbacks ------------------------------------

TEST(EstimateFallback, UnknownPeerUsesDefaultDistance) {
  sim::Simulator simu{301};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 3, net::LinkConfig{});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  for (net::NodeId n : c.nodes) z.assign(n, root);
  sfq::Config cfg;
  sfq::Session s(net, c.nodes[0], {c.nodes[1], c.nodes[2]}, cfg);
  // Before start(): no session traffic at all, every estimate falls back.
  EXPECT_DOUBLE_EQ(s.agent_for(c.nodes[1]).session().estimate_dist(c.nodes[2]),
                   rm::kDefaultDist);
  EXPECT_DOUBLE_EQ(s.agent_for(c.nodes[1]).session().estimate_dist(c.nodes[1]),
                   0.0);
}

TEST(EstimateFallback, ConvergesAfterSessionTraffic) {
  sim::Simulator simu{302};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, {0.010, 0.030});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  for (net::NodeId n : c.nodes) z.assign(n, root);
  sfq::Config cfg;
  sfq::Session s(net, c.nodes[0], {c.nodes[1], c.nodes[2]}, cfg);
  s.start();
  simu.run_until(15.0);
  const double est =
      s.agent_for(c.nodes[2]).session().estimate_dist(c.nodes[0]);
  EXPECT_NEAR(est, 0.040, 0.01);
}

TEST(EstimateFallback, EmptyHintsStillProduceEstimate) {
  // A NACK with no hints (sender's elections not converged) must still
  // yield a usable — if defaulted — distance, never a crash or zero.
  sim::Simulator simu{303};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 4, net::LinkConfig{});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  const net::ZoneId sub = z.add_zone(root);
  z.assign(c.nodes[0], root);
  z.assign(c.nodes[1], sub);
  z.assign(c.nodes[2], sub);
  z.assign(c.nodes[3], sub);
  sfq::Config cfg;
  sfq::Session s(net, c.nodes[0], {c.nodes[1], c.nodes[2], c.nodes[3]}, cfg);
  s.start();
  simu.run_until(3.0);
  const double d =
      s.agent_for(c.nodes[3]).session().estimate_dist(c.nodes[0], {});
  EXPECT_GT(d, 0.0);
}

// --- SRM internals -------------------------------------------------------------

TEST(SrmInternals, DefaultDistanceBeforeConvergence) {
  sim::Simulator simu{304};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 2, net::LinkConfig{});
  srm::Config cfg;
  srm::Session s(net, c.nodes[0], {c.nodes[1]}, cfg);
  EXPECT_DOUBLE_EQ(s.agent_for(c.nodes[1]).distance_to(c.nodes[0]),
                   rm::kDefaultDist);
}

TEST(SrmInternals, SourceHoldsEverythingItSent) {
  sim::Simulator simu{305};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 2, net::LinkConfig{});
  srm::Config cfg;
  srm::Session s(net, c.nodes[0], {c.nodes[1]}, cfg);
  s.start();
  s.send_stream(10, 1.0);
  simu.run_until(5.0);
  auto& src = s.source_agent();
  for (std::uint32_t q = 0; q < 10; ++q) EXPECT_TRUE(src.has(q));
  EXPECT_EQ(src.packets_held(), 10u);
  EXPECT_EQ(src.max_seq_seen(), 9u);
  EXPECT_TRUE(src.seen_any_data());
}

TEST(SrmInternals, ReceiverTracksMaxSeq) {
  sim::Simulator simu{306};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 2, net::LinkConfig{});
  srm::Config cfg;
  srm::Session s(net, c.nodes[0], {c.nodes[1]}, cfg);
  s.start();
  s.send_stream(25, 1.0);
  simu.run_until(10.0);
  EXPECT_EQ(s.agent_for(c.nodes[1]).max_seq_seen(), 24u);
  EXPECT_EQ(s.agent_for(c.nodes[1]).packets_held(), 25u);
}

TEST(SrmInternals, NoTrafficNoState) {
  sim::Simulator simu{307};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 2, net::LinkConfig{});
  srm::Config cfg;
  srm::Session s(net, c.nodes[0], {c.nodes[1]}, cfg);
  s.start();
  simu.run_until(5.0);  // sessions only, no stream
  EXPECT_FALSE(s.agent_for(c.nodes[1]).seen_any_data());
  EXPECT_EQ(s.agent_for(c.nodes[1]).requests_sent(), 0u);
}

// --- SHARQFEC misc edge cases ----------------------------------------------------

TEST(EdgeCases, SingleNodeZoneWorks) {
  // A receiver alone in its leaf zone: no peers to repair it locally, so
  // everything escalates — delivery must still complete.
  sim::Simulator simu{308};
  net::Network net{simu};
  const net::NodeId src = net.add_node();
  const net::NodeId mid = net.add_node();
  const net::NodeId lonely = net.add_node();
  net::LinkConfig l;
  l.loss_rate = 0.15;
  net.add_duplex_link(src, mid, l);
  net.add_duplex_link(mid, lonely, l);
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  const net::ZoneId mid_zone = z.add_zone(root);
  const net::ZoneId leaf_zone = z.add_zone(mid_zone);
  z.assign(src, root);
  z.assign(mid, mid_zone);
  z.assign(lonely, leaf_zone);
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, src, {mid, lonely}, cfg, &log);
  s.start();
  s.send_stream(10, 6.0);
  simu.run_until(120.0);
  EXPECT_TRUE(log.complete(lonely, 10));
  EXPECT_TRUE(log.complete(mid, 10));
}

TEST(EdgeCases, DeepHierarchyFiveLevels) {
  // Chain of zones five deep: parity slices shrink but must still work.
  sim::Simulator simu{309};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 6, net::LinkConfig{});
  auto& z = net.zones();
  net::ZoneId zone = z.add_root();
  z.assign(c.nodes[0], zone);
  std::vector<net::NodeId> receivers;
  for (int i = 1; i < 6; ++i) {
    zone = z.add_zone(zone);
    z.assign(c.nodes[i], zone);
    receivers.push_back(c.nodes[i]);
  }
  for (int i = 0; i < 5; ++i) {
    net.conditioner(net.find_link(c.nodes[i], c.nodes[i + 1]))
        .set_loss(net::LossModel::bernoulli(0.05));
  }
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, c.nodes[0], receivers, cfg, &log);
  s.start();
  s.send_stream(8, 6.0);
  simu.run_until(120.0);
  for (net::NodeId r : receivers) {
    EXPECT_TRUE(log.complete(r, 8)) << "receiver " << r;
  }
}

TEST(EdgeCases, TwoParallelSessionsCoexist) {
  // Two independent SHARQFEC sessions (distinct sources and channel sets)
  // on one network must not interfere.
  sim::Simulator simu{310};
  net::Network net{simu};
  topo::Star star = topo::make_star(net, {0.01, 0.01, 0.01, 0.01});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  z.assign(star.hub, root);
  for (net::NodeId n : star.leaves) z.assign(n, root);
  rm::DeliveryLog log_a, log_b;
  sfq::Config cfg;
  sfq::Session a(net, star.leaves[0],
                 {star.hub, star.leaves[1]}, cfg, &log_a);
  sfq::Session b(net, star.leaves[2],
                 {star.hub, star.leaves[3]}, cfg, &log_b);
  a.start();
  b.start();
  a.send_stream(5, 6.0);
  b.send_stream(7, 6.0);
  simu.run_until(60.0);
  EXPECT_TRUE(log_a.complete(star.leaves[1], 5));
  EXPECT_TRUE(log_b.complete(star.leaves[3], 7));
  EXPECT_FALSE(log_a.complete(star.leaves[3], 1));  // not a member of A
}

}  // namespace
}  // namespace sharq
