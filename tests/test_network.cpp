#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace sharq::net {
namespace {

struct Probe final : MessageBase {
  int tag = 0;
};

/// Collects deliveries for assertions.
class Collector final : public Agent {
 public:
  struct Rx {
    sim::Time at;
    std::uint64_t uid;
    NodeId origin;
    TrafficClass cls;
  };
  std::vector<Rx> received;
  sim::Simulator* simu = nullptr;

  void on_receive(const Packet& p) override {
    received.push_back(Rx{simu->now(), p.uid, p.origin, p.cls});
  }
};

struct Net2 {
  sim::Simulator simu{12345};
  Network net{simu};
};

TEST(ZoneHierarchy, NestingAndChains) {
  ZoneHierarchy z;
  const ZoneId root = z.add_root();
  const ZoneId a = z.add_zone(root);
  const ZoneId b = z.add_zone(root);
  const ZoneId a1 = z.add_zone(a);
  z.assign(1, a1);
  z.assign(2, a);
  z.assign(3, b);
  EXPECT_TRUE(z.contains(root, 1));
  EXPECT_TRUE(z.contains(a, 1));
  EXPECT_TRUE(z.contains(a1, 1));
  EXPECT_FALSE(z.contains(b, 1));
  EXPECT_EQ(z.chain(1), (std::vector<ZoneId>{a1, a, root}));
  EXPECT_EQ(z.common_zone(1, 2), a);
  EXPECT_EQ(z.common_zone(1, 3), root);
  EXPECT_EQ(z.level(a1), 2);
  EXPECT_TRUE(z.is_ancestor_or_self(root, a1));
  EXPECT_FALSE(z.is_ancestor_or_self(b, a1));
}

TEST(ZoneHierarchy, ReassignRemovesOldMembership) {
  ZoneHierarchy z;
  const ZoneId root = z.add_root();
  const ZoneId a = z.add_zone(root);
  const ZoneId b = z.add_zone(root);
  z.assign(7, a);
  z.assign(7, b);
  EXPECT_FALSE(z.contains(a, 7));
  EXPECT_TRUE(z.contains(b, 7));
  EXPECT_EQ(z.smallest_zone(7), b);
}

TEST(Network, UnicastStyleDeliveryTiming) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1000 bytes -> 1 ms serialization
  cfg.delay = 0.010;
  f.net.add_duplex_link(a, b, cfg);

  const ChannelId ch = f.net.create_channel();
  Collector rx;
  rx.simu = &f.simu;
  f.net.attach(b, &rx);
  f.net.subscribe(ch, b);

  f.net.send(a, ch, TrafficClass::kData, 1000, std::make_shared<Probe>());
  f.simu.run();
  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_NEAR(rx.received[0].at, 0.011, 1e-9);  // tx 1 ms + prop 10 ms
}

TEST(Network, SerializationQueuesBackToBack) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = 0.0;
  f.net.add_duplex_link(a, b, cfg);
  const ChannelId ch = f.net.create_channel();
  Collector rx;
  rx.simu = &f.simu;
  f.net.attach(b, &rx);
  f.net.subscribe(ch, b);

  for (int i = 0; i < 3; ++i) {
    f.net.send(a, ch, TrafficClass::kData, 1000, std::make_shared<Probe>());
  }
  f.simu.run();
  ASSERT_EQ(rx.received.size(), 3u);
  EXPECT_NEAR(rx.received[0].at, 0.001, 1e-9);
  EXPECT_NEAR(rx.received[1].at, 0.002, 1e-9);
  EXPECT_NEAR(rx.received[2].at, 0.003, 1e-9);
}

TEST(Network, MulticastFanOutDeliversOncePerSubscriber) {
  Net2 f;
  const NodeId src = f.net.add_node();
  std::vector<NodeId> leaves;
  std::vector<std::unique_ptr<Collector>> sinks;
  LinkConfig cfg;
  for (int i = 0; i < 5; ++i) {
    const NodeId n = f.net.add_node();
    f.net.add_duplex_link(src, n, cfg);
    leaves.push_back(n);
  }
  const ChannelId ch = f.net.create_channel();
  for (NodeId n : leaves) {
    auto c = std::make_unique<Collector>();
    c->simu = &f.simu;
    f.net.attach(n, c.get());
    f.net.subscribe(ch, n);
    sinks.push_back(std::move(c));
  }
  f.net.send(src, ch, TrafficClass::kData, 100, std::make_shared<Probe>());
  f.simu.run();
  for (auto& s : sinks) EXPECT_EQ(s->received.size(), 1u);
}

TEST(Network, NoLoopbackToOrigin) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.add_duplex_link(a, b, LinkConfig{});
  const ChannelId ch = f.net.create_channel();
  Collector rxa, rxb;
  rxa.simu = rxb.simu = &f.simu;
  f.net.attach(a, &rxa);
  f.net.attach(b, &rxb);
  f.net.subscribe(ch, a);
  f.net.subscribe(ch, b);
  f.net.send(a, ch, TrafficClass::kData, 100, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rxa.received.size(), 0u);
  EXPECT_EQ(rxb.received.size(), 1u);
}

TEST(Network, SharedLinkCarriesOneCopy) {
  // src -- r -- {a, b}: the src->r link must carry a single copy.
  Net2 f;
  const NodeId src = f.net.add_node();
  const NodeId r = f.net.add_node();
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.add_duplex_link(src, r, LinkConfig{});
  f.net.add_duplex_link(r, a, LinkConfig{});
  f.net.add_duplex_link(r, b, LinkConfig{});
  const ChannelId ch = f.net.create_channel();
  Collector rxa, rxb;
  rxa.simu = rxb.simu = &f.simu;
  f.net.attach(a, &rxa);
  f.net.attach(b, &rxb);
  f.net.subscribe(ch, a);
  f.net.subscribe(ch, b);

  class CountSink final : public TrafficSink {
   public:
    int transmits = 0;
    void on_deliver(sim::Time, NodeId, const Packet&) override {}
    void on_transmit(sim::Time, LinkId, const Packet&) override {
      ++transmits;
    }
  } sink;
  f.net.set_sink(&sink);
  f.net.send(src, ch, TrafficClass::kData, 100, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rxa.received.size(), 1u);
  EXPECT_EQ(rxb.received.size(), 1u);
  EXPECT_EQ(sink.transmits, 3);  // src->r, r->a, r->b
}

TEST(Network, ScopedChannelConfinedToZone) {
  // root zone {all}; child zone {r, a}. A scoped send from a must not
  // reach b (outside the zone).
  Net2 f;
  const NodeId src = f.net.add_node();
  const NodeId r = f.net.add_node();
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.add_duplex_link(src, r, LinkConfig{});
  f.net.add_duplex_link(r, a, LinkConfig{});
  f.net.add_duplex_link(r, b, LinkConfig{});
  auto& z = f.net.zones();
  const ZoneId root = z.add_root();
  const ZoneId child = z.add_zone(root);
  z.assign(src, root);
  z.assign(b, root);
  z.assign(r, child);
  z.assign(a, child);

  const ChannelId scoped = f.net.create_channel(child);
  Collector rxr, rxb;
  rxr.simu = rxb.simu = &f.simu;
  f.net.attach(r, &rxr);
  f.net.attach(b, &rxb);
  f.net.subscribe(scoped, r);
  f.net.subscribe(scoped, b);  // subscribed but outside the zone
  f.net.send(a, scoped, TrafficClass::kRepair, 100, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rxr.received.size(), 1u);
  EXPECT_EQ(rxb.received.size(), 0u);
}

TEST(Network, SendFromOutsideScopeGoesNowhere) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.add_duplex_link(a, b, LinkConfig{});
  auto& z = f.net.zones();
  const ZoneId root = z.add_root();
  const ZoneId child = z.add_zone(root);
  z.assign(a, root);   // a outside child
  z.assign(b, child);
  const ChannelId scoped = f.net.create_channel(child);
  Collector rxb;
  rxb.simu = &f.simu;
  f.net.attach(b, &rxb);
  f.net.subscribe(scoped, b);
  f.net.send(a, scoped, TrafficClass::kData, 100, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rxb.received.size(), 0u);
}

TEST(Network, LossyLinkDropsAtConfiguredRate) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  LinkConfig cfg;
  cfg.loss_rate = 0.25;
  cfg.bandwidth_bps = 1e9;
  f.net.add_duplex_link(a, b, cfg);
  const ChannelId ch = f.net.create_channel();
  Collector rx;
  rx.simu = &f.simu;
  f.net.attach(b, &rx);
  f.net.subscribe(ch, b);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    f.net.send(a, ch, TrafficClass::kData, 100, std::make_shared<Probe>());
  }
  f.simu.run();
  const double rate = 1.0 - rx.received.size() / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Network, LosslessFlagBypassesLoss) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  LinkConfig cfg;
  cfg.loss_rate = 0.9;
  f.net.add_duplex_link(a, b, cfg);
  const ChannelId ch = f.net.create_channel();
  Collector rx;
  rx.simu = &f.simu;
  f.net.attach(b, &rx);
  f.net.subscribe(ch, b);
  for (int i = 0; i < 100; ++i) {
    f.net.send(a, ch, TrafficClass::kSession, 64, std::make_shared<Probe>(),
               /*lossless=*/true);
  }
  f.simu.run();
  EXPECT_EQ(rx.received.size(), 100u);
}

TEST(Network, QueueLimitDropsExcess) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e3;  // 1000 bytes -> 1 s serialization
  cfg.queue_limit_pkts = 2;
  f.net.add_duplex_link(a, b, cfg);
  const ChannelId ch = f.net.create_channel();
  Collector rx;
  rx.simu = &f.simu;
  f.net.attach(b, &rx);
  f.net.subscribe(ch, b);
  for (int i = 0; i < 10; ++i) {
    f.net.send(a, ch, TrafficClass::kData, 1000, std::make_shared<Probe>());
  }
  f.simu.run();
  EXPECT_EQ(rx.received.size(), 2u);
}

TEST(Network, PathQueriesMatchTopology) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId m = f.net.add_node();
  const NodeId b = f.net.add_node();
  LinkConfig l1;
  l1.delay = 0.010;
  l1.loss_rate = 0.1;
  LinkConfig l2;
  l2.delay = 0.020;
  l2.loss_rate = 0.2;
  f.net.add_duplex_link(a, m, l1);
  f.net.add_duplex_link(m, b, l2);
  EXPECT_NEAR(f.net.path_delay(a, b), 0.030, 1e-9);
  EXPECT_NEAR(f.net.path_loss(a, b), 1.0 - 0.9 * 0.8, 1e-9);
  EXPECT_EQ(f.net.path(a, b), (std::vector<NodeId>{a, m, b}));
  EXPECT_DOUBLE_EQ(f.net.path_delay(a, a), 0.0);
}

TEST(Network, ShortestPathPreferred) {
  Net2 f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  const NodeId c = f.net.add_node();
  LinkConfig slow;
  slow.delay = 0.100;
  LinkConfig fast;
  fast.delay = 0.010;
  f.net.add_duplex_link(a, b, slow);           // direct but slow
  f.net.add_duplex_link(a, c, fast);
  f.net.add_duplex_link(c, b, fast);           // via c: 20 ms
  EXPECT_NEAR(f.net.path_delay(a, b), 0.020, 1e-9);
  EXPECT_EQ(f.net.path(a, b).size(), 3u);
}

TEST(Network, MembershipChangeRebuildsForwarding) {
  Net2 f;
  const NodeId src = f.net.add_node();
  const NodeId a = f.net.add_node();
  f.net.add_duplex_link(src, a, LinkConfig{});
  const ChannelId ch = f.net.create_channel();
  Collector rx;
  rx.simu = &f.simu;
  f.net.attach(a, &rx);
  f.net.send(src, ch, TrafficClass::kData, 64, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rx.received.size(), 0u);  // not subscribed yet
  f.net.subscribe(ch, a);
  f.net.send(src, ch, TrafficClass::kData, 64, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rx.received.size(), 1u);
  f.net.unsubscribe(ch, a);
  f.net.send(src, ch, TrafficClass::kData, 64, std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(rx.received.size(), 1u);
}

/// Records every hand-off and delivery, in order.
class WireLog final : public TrafficSink {
 public:
  struct Event {
    char kind;  // 't' transmit, 'r' deliver
    sim::Time at;
    int where;  // link for 't', node for 'r'
    friend bool operator==(const Event&, const Event&) = default;
  };
  std::vector<Event> events;

  void on_deliver(sim::Time t, NodeId at, const Packet&) override {
    events.push_back({'r', t, at});
  }
  void on_transmit(sim::Time t, LinkId link, const Packet&) override {
    events.push_back({'t', t, link});
  }
};

/// A 3x4 grid of equal-delay links — many equal-length paths, so ties
/// decide the trees — with two slower chords; every node sits in the root
/// zone. Returns the channel: unscoped, or scoped to the root zone.
ChannelId build_grid(Network& net, bool scoped) {
  constexpr int kRows = 3, kCols = 4;
  net.add_nodes(kRows * kCols);
  const LinkConfig cfg{.delay = 0.010};
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      const NodeId v = r * kCols + c;
      if (c + 1 < kCols) net.add_duplex_link(v, v + 1, cfg);
      if (r + 1 < kRows) net.add_duplex_link(v, v + kCols, cfg);
    }
  }
  net.add_duplex_link(0, 11, LinkConfig{.delay = 0.045});
  net.add_duplex_link(3, 8, LinkConfig{.delay = 0.030});
  const ZoneId root = net.zones().add_root();
  for (NodeId v = 0; v < net.node_count(); ++v) net.zones().assign(v, root);
  const ChannelId ch = net.create_channel(scoped ? root : kNoZone);
  for (NodeId v : {1, 4, 6, 8, 9, 11}) net.subscribe(ch, v);
  return ch;
}

TEST(Network, UnscopedTreeEqualsScopeHoldingEveryNode) {
  // An unscoped channel is the scope that holds every node: from every
  // origin, before and after a link and a node fail, both channels must
  // cache the same rows and put the same copies on the same links at the
  // same times.
  Net2 plain, scoped;
  const ChannelId pch = build_grid(plain.net, false);
  const ChannelId sch = build_grid(scoped.net, true);
  WireLog plog, slog;
  plain.net.set_sink(&plog);
  scoped.net.set_sink(&slog);
  for (int phase = 0; phase < 3; ++phase) {
    if (phase == 1) {
      plain.net.set_link_up(plain.net.find_link(5, 6), false);
      scoped.net.set_link_up(scoped.net.find_link(5, 6), false);
    } else if (phase == 2) {
      plain.net.set_node_up(2, false);
      scoped.net.set_node_up(2, false);
    }
    for (NodeId origin = 0; origin < plain.net.node_count(); ++origin) {
      plain.net.send(origin, pch, TrafficClass::kData, 100,
                     std::make_shared<Probe>());
      scoped.net.send(origin, sch, TrafficClass::kData, 100,
                      std::make_shared<Probe>());
      plain.simu.run();
      scoped.simu.run();
    }
    EXPECT_EQ(plain.net.cached_row_nodes(0), scoped.net.cached_row_nodes(0))
        << "phase " << phase;
    ASSERT_FALSE(plog.events.empty());
    EXPECT_EQ(plog.events, slog.events) << "phase " << phase;
  }
}

/// Feeds `n` loss-eligible packets through a link conditioner holding
/// `model` and checks the link's stream then equals a reference stream
/// from the same seed advanced by `draws` values.
void expect_draws(const LossModel& model, int n, int draws) {
  LinkConditioner cond;
  cond.set_loss(model);
  sim::Rng link(99), reference(99);
  const Packet packet;
  for (int i = 0; i < n; ++i) cond.next(link, packet);
  for (int i = 0; i < draws; ++i) reference.next_u64();
  for (int i = 0; i < 4; ++i) ASSERT_EQ(link.next_u64(), reference.next_u64());
}

TEST(LossModel, DrawContract) {
  // The draw counts loss.hpp documents: none when a probability is 0 or
  // 1, one per step whose probability lies strictly between.
  constexpr int kPackets = 1000;
  expect_draws(LossModel{}, kPackets, 0);
  expect_draws(LossModel::bernoulli(0.0), kPackets, 0);
  expect_draws(LossModel::bernoulli(1.0), kPackets, 0);
  expect_draws(LossModel::bernoulli(0.3), kPackets, kPackets);
  // Transition and loss rates all strictly inside (0, 1): two per packet.
  expect_draws(LossModel(0.1, 0.3, 0.02, 0.6), kPackets, 2 * kPackets);
}

TEST(GilbertElliott, MeanRateMatchesStationary) {
  LossModel ge(0.1, 0.3, 0.01, 0.5);
  // pi_bad = 0.1/0.4 = 0.25 -> mean = 0.75*0.01 + 0.25*0.5 = 0.1325
  EXPECT_NEAR(ge.mean_loss_rate(), 0.1325, 1e-12);
  sim::Rng rng(5);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) drops += ge.drop_next(rng) ? 1 : 0;
  EXPECT_NEAR(drops / static_cast<double>(n), 0.1325, 0.01);
}

TEST(GilbertElliott, BurstStatisticsPinned) {
  // The chaos soak leans on the burst *shape*, not just the mean rate:
  // pin the statistics that distinguish Gilbert-Elliott from Bernoulli.
  LossModel ge(0.05, 0.25, 0.0, 1.0);  // clean good, lossy bad
  sim::Rng rng(42);
  const int n = 400000;
  int drops = 0, runs = 0, paired = 0, prev = 0;
  int run_len = 0;
  long long run_total = 0;
  for (int i = 0; i < n; ++i) {
    const int d = ge.drop_next(rng) ? 1 : 0;
    drops += d;
    paired += (d && prev) ? 1 : 0;
    if (d) {
      ++run_len;
    } else if (run_len > 0) {
      ++runs;
      run_total += run_len;
      run_len = 0;
    }
    prev = d;
  }
  // Stationary drop rate: pi_bad = 0.05/0.30 = 1/6.
  EXPECT_NEAR(drops / static_cast<double>(n), 1.0 / 6.0, 0.01);
  // Bad-state sojourns are geometric with mean 1/p_bg = 4, and with
  // bad_loss=1 every sojourn is one unbroken drop burst.
  ASSERT_GT(runs, 0);
  EXPECT_NEAR(run_total / static_cast<double>(runs), 4.0, 0.25);
  // Burstiness proper: P(drop | previous dropped) must match the chain's
  // 1 - p_bg = 0.75, far above the unconditional rate a Bernoulli model
  // with the same mean would give.
  EXPECT_NEAR(paired / static_cast<double>(drops), 0.75, 0.02);
}

TEST(GilbertElliott, SameSeedSameDecisions) {
  // Chaos reproducibility depends on loss models consuming randomness
  // deterministically: two instances walked with equal seeds must agree
  // decision-for-decision, and copies must not share mutable state.
  LossModel a(0.1, 0.3, 0.02, 0.6);
  LossModel b = a;
  sim::Rng ra(7), rb(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.drop_next(ra), b.drop_next(rb)) << "diverged at " << i;
  }
}

}  // namespace
}  // namespace sharq::net
