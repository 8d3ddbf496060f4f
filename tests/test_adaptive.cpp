#include <gtest/gtest.h>

#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "topo/shapes.hpp"

namespace sharq::sfq {
namespace {

struct Fixture {
  sim::Simulator simu{83};
  net::Network net{simu};
  net::NodeId source;
  std::vector<net::NodeId> receivers;

  explicit Fixture(double loss) {
    source = net.add_node();
    const net::NodeId relay = net.add_node();
    net::LinkConfig up;
    up.loss_rate = loss;
    net.add_duplex_link(source, relay, up);
    receivers.push_back(relay);
    for (int i = 0; i < 5; ++i) {
      net::LinkConfig down;
      down.loss_rate = loss;
      const net::NodeId r = net.add_node();
      net.add_duplex_link(relay, r, down);
      receivers.push_back(r);
    }
    auto& z = net.zones();
    const net::ZoneId root = z.add_root();
    z.assign(source, root);
    const net::ZoneId zone = z.add_zone(root);
    for (net::NodeId n : receivers) z.assign(n, zone);
  }
};

TEST(AdaptiveTimers, DisabledKeepsPaperConstants) {
  Fixture f(0.10);
  Config cfg;
  cfg.adaptive_timers = false;
  rm::DeliveryLog log;
  Session s(f.net, f.source, f.receivers, cfg, &log);
  s.start();
  s.send_stream(20, 6.0);
  f.simu.run_until(90.0);
  for (auto& a : s.agents()) {
    EXPECT_DOUBLE_EQ(a->transfer().adapted_c1(), 2.0);
    EXPECT_DOUBLE_EQ(a->transfer().adapted_c2(), 2.0);
  }
  for (net::NodeId r : f.receivers) EXPECT_TRUE(log.complete(r, 20));
}

TEST(AdaptiveTimers, EnabledStaysBoundedAndDelivers) {
  Fixture f(0.15);
  Config cfg;
  cfg.adaptive_timers = true;
  rm::DeliveryLog log;
  Session s(f.net, f.source, f.receivers, cfg, &log);
  s.start();
  s.send_stream(30, 6.0);
  f.simu.run_until(120.0);
  bool moved = false;
  for (auto& a : s.agents()) {
    const double c1 = a->transfer().adapted_c1();
    const double c2 = a->transfer().adapted_c2();
    EXPECT_GE(c1, rm::kAdaptiveMin.c1);
    EXPECT_LE(c1, rm::kAdaptiveMax.c1);
    EXPECT_GE(c2, rm::kAdaptiveMin.c2);
    EXPECT_LE(c2, rm::kAdaptiveMax.c2);
    moved = moved || c1 != 2.0 || c2 != 2.0;
  }
  EXPECT_TRUE(moved);  // at least someone adapted under 15% loss
  for (net::NodeId r : f.receivers) EXPECT_TRUE(log.complete(r, 30));
}

TEST(AdaptiveTimers, LonelyReceiverShrinksWindow) {
  // One receiver, no duplicate NACKs ever: the window should drift down
  // (faster recovery), never up.
  sim::Simulator simu{89};
  net::Network net{simu};
  const net::NodeId src = net.add_node();
  const net::NodeId rx = net.add_node();
  net::LinkConfig l;
  l.loss_rate = 0.15;
  net.add_duplex_link(src, rx, l);
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  z.assign(src, root);
  z.assign(rx, root);
  Config cfg;
  cfg.adaptive_timers = true;
  rm::DeliveryLog log;
  Session s(net, src, {rx}, cfg, &log);
  s.start();
  s.send_stream(40, 6.0);
  simu.run_until(240.0);
  EXPECT_LE(s.agent_for(rx).transfer().adapted_c1(), 2.0);
  EXPECT_TRUE(log.complete(rx, 40));
}

}  // namespace
}  // namespace sharq::sfq
