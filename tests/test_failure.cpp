#include <gtest/gtest.h>

#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "srm/session.hpp"
#include "topo/figure10.hpp"
#include "topo/shapes.hpp"

namespace sharq {
namespace {

// --- failure injection & adverse-condition tests -----------------------------

TEST(Failure, BurstLossGilbertElliottStillDelivers) {
  sim::Simulator simu{23};
  net::Network net{simu};
  net::LinkConfig link;
  topo::BalancedTree t = topo::make_balanced_tree(net, 2, 3, link);
  // Replace every link's loss process with a bursty one (~9% mean).
  for (net::LinkId l = 0; l < net.link_count(); ++l) {
    net.conditioner(l).set_loss(net::LossModel(0.02, 0.2, 0.01, 0.5));
  }
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  z.assign(t.root, root);
  for (std::size_t i = 0; i < t.levels[1].size(); ++i) {
    const net::ZoneId sub = z.add_zone(root);
    z.assign(t.levels[1][i], sub);
    for (int leaf = 0; leaf < 3; ++leaf) {
      z.assign(t.levels[2][i * 3 + leaf], sub);
    }
  }
  std::vector<net::NodeId> receivers(t.all.begin() + 1, t.all.end());
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.root, receivers, cfg, &log);
  s.start();
  s.send_stream(16, 6.0);
  simu.run_until(120.0);
  for (net::NodeId r : receivers) {
    EXPECT_TRUE(log.complete(r, 16)) << "receiver " << r;
  }
}

TEST(Failure, ZcrDeathMidTransferRecovers) {
  // Kill an elected leaf-zone ZCR in the middle of the stream; the zone
  // re-elects and the remaining members still complete.
  sim::Simulator simu{29};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(48, 6.0);

  // Middle node 8 is the natural ZCR of leaf zone 0; kill it at t=9.
  const net::NodeId victim = 8;
  simu.after(9.0, [&] {
    s.agent_for(victim).stop();
    net.detach(victim, &s.agent_for(victim));
  });
  simu.run_until(120.0);

  for (net::NodeId r : t.receivers) {
    if (r == victim) continue;
    EXPECT_TRUE(log.complete(r, 48)) << "receiver " << r;
  }
  // The orphaned zone elected a replacement ZCR among the leaves.
  const net::ZoneId zone = net.zones().smallest_zone(29);
  const net::NodeId new_zcr = s.agent_for(29).session().zcr_of(zone);
  EXPECT_NE(new_zcr, victim);
  EXPECT_NE(new_zcr, net::kNoNode);
}

TEST(Failure, RepairChannelLossHandled) {
  // Repairs themselves are lossy (the paper stresses this: "Realism was
  // further enhanced by subjecting repair packets to the same loss
  // patterns"). Even at 25% per-link loss, retries must converge.
  sim::Simulator simu{31};
  net::Network net{simu};
  net::LinkConfig lossy;
  lossy.loss_rate = 0.25;
  topo::BalancedTree t = topo::make_balanced_tree(net, 1, 4, lossy);
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  for (net::NodeId n : t.all) z.assign(n, root);
  std::vector<net::NodeId> receivers(t.all.begin() + 1, t.all.end());
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.root, receivers, cfg, &log);
  s.start();
  s.send_stream(10, 6.0);
  simu.run_until(240.0);
  for (net::NodeId r : receivers) {
    EXPECT_TRUE(log.complete(r, 10)) << "receiver " << r;
  }
}

TEST(Failure, SrmSurvivesBurstLoss) {
  sim::Simulator simu{37};
  net::Network net{simu};
  topo::BalancedTree t = topo::make_balanced_tree(net, 2, 2, net::LinkConfig{});
  for (net::LinkId l = 0; l < net.link_count(); ++l) {
    net.conditioner(l).set_loss(net::LossModel(0.05, 0.3, 0.02, 0.4));
  }
  std::vector<net::NodeId> receivers(t.all.begin() + 1, t.all.end());
  rm::DeliveryLog log;
  srm::Config cfg;
  srm::Session s(net, t.root, receivers, cfg, &log);
  s.start();
  s.send_stream(60, 3.0);
  simu.run_until(120.0);
  for (net::NodeId r : receivers) {
    EXPECT_TRUE(log.complete(r, 60)) << "receiver " << r;
  }
}

TEST(Failure, AsymmetricLossOnlyUpstream) {
  // Loss only on forward (source->receiver) directions; NACK/session paths
  // clean. Delivery must still complete and the reverse channel must not
  // be penalised.
  sim::Simulator simu{41};
  net::Network net{simu};
  const net::NodeId src = net.add_node();
  const net::NodeId rx = net.add_node();
  net.add_duplex_link(src, rx, net::LinkConfig{});
  net.conditioner(net.find_link(src, rx))
      .set_loss(net::LossModel::bernoulli(0.3));
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  z.assign(src, root);
  z.assign(rx, root);
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, src, {rx}, cfg, &log);
  s.start();
  s.send_stream(12, 6.0);
  simu.run_until(120.0);
  EXPECT_TRUE(log.complete(rx, 12));
}

TEST(Failure, TinyGroupsAndSingleReceiver) {
  // Degenerate parameters: k=1 (every packet its own group).
  sim::Simulator simu{43};
  net::Network net{simu};
  const net::NodeId src = net.add_node();
  const net::NodeId rx = net.add_node();
  net::LinkConfig lossy;
  lossy.loss_rate = 0.2;
  net.add_duplex_link(src, rx, lossy);
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  z.assign(src, root);
  z.assign(rx, root);
  rm::DeliveryLog log;
  sfq::Config cfg;
  cfg.group_size = 1;
  sfq::Session s(net, src, {rx}, cfg, &log);
  s.start();
  s.send_stream(20, 6.0);
  simu.run_until(120.0);
  EXPECT_TRUE(log.complete(rx, 20));
}

TEST(Failure, ZeroGroupStreamIsHarmless) {
  sim::Simulator simu{47};
  net::Network net{simu};
  const net::NodeId src = net.add_node();
  const net::NodeId rx = net.add_node();
  net.add_duplex_link(src, rx, net::LinkConfig{});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  z.assign(src, root);
  z.assign(rx, root);
  sfq::Config cfg;
  sfq::Session s(net, src, {rx}, cfg);
  s.start();
  s.send_stream(0, 6.0);
  simu.run_until(20.0);
  EXPECT_EQ(s.agent_for(rx).transfer().groups_completed(), 0u);
  EXPECT_EQ(s.agent_for(rx).transfer().nacks_sent(), 0u);
}

}  // namespace
}  // namespace sharq
