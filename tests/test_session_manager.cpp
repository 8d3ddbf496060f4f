#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "rm/flat_table.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "topo/figure10.hpp"
#include "topo/shapes.hpp"

namespace sharq::sfq {
namespace {

Config session_only_cfg() {
  Config cfg;
  cfg.scoping = true;
  return cfg;
}

// Figure 9, chain case: 0 -- 2 -- 1 -- 3 (node 2 lies between the parent
// ZCR 0 and node 1). Zone = {1, 2, 3}; the election must converge on node
// 2, the receiver closest to the parent ZCR.
TEST(ZcrElection, ChainCaseElectsClosest) {
  sim::Simulator simu{5};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, {0.010, 0.015, 0.020});
  const net::NodeId n0 = c.nodes[0];  // source / parent ZCR
  const net::NodeId n2 = c.nodes[1];  // closest zone member
  const net::NodeId n1 = c.nodes[2];
  const net::NodeId n3 = c.nodes[3];

  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  const net::ZoneId child = z.add_zone(root);
  z.assign(n0, root);
  z.assign(n1, child);
  z.assign(n2, child);
  z.assign(n3, child);

  Session s(net, n0, {n2, n1, n3}, session_only_cfg());
  s.start();
  simu.run_until(40.0);

  for (net::NodeId n : {n1, n2, n3}) {
    EXPECT_EQ(s.agent_for(n).session().zcr_of(child), n2)
        << "node " << n << " disagrees";
  }
  EXPECT_TRUE(s.agent_for(n2).session().is_zcr(child));
}

// Figure 9, fork case: 0 -- 1, with 4 and 5 forking off node 1 at larger
// distances. Node 1 is closest to the parent ZCR and must win.
TEST(ZcrElection, ForkCaseElectsJunction) {
  sim::Simulator simu{6};
  net::Network net{simu};
  const net::NodeId n0 = net.add_node();
  const net::NodeId n1 = net.add_node();
  const net::NodeId n4 = net.add_node();
  const net::NodeId n5 = net.add_node();
  net::LinkConfig l01;
  l01.delay = 0.012;
  net::LinkConfig l14;
  l14.delay = 0.020;
  net::LinkConfig l15;
  l15.delay = 0.030;
  net.add_duplex_link(n0, n1, l01);
  net.add_duplex_link(n1, n4, l14);
  net.add_duplex_link(n1, n5, l15);

  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  const net::ZoneId child = z.add_zone(root);
  z.assign(n0, root);
  z.assign(n1, child);
  z.assign(n4, child);
  z.assign(n5, child);

  Session s(net, n0, {n4, n5, n1}, session_only_cfg());
  s.start();
  simu.run_until(40.0);

  for (net::NodeId n : {n1, n4, n5}) {
    EXPECT_EQ(s.agent_for(n).session().zcr_of(child), n1);
  }
}

TEST(ZcrElection, SourceIsStaticRootZcr) {
  sim::Simulator simu{7};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, 3, net::LinkConfig{});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  for (net::NodeId n : c.nodes) z.assign(n, root);
  Session s(net, c.nodes[0], {c.nodes[1], c.nodes[2]}, session_only_cfg());
  s.start();
  simu.run_until(10.0);
  for (net::NodeId n : c.nodes) {
    EXPECT_EQ(s.agent_for(n).session().zcr_of(root), c.nodes[0]);
  }
}

TEST(ZcrElection, Figure10ElectsNaturalHierarchy) {
  sim::Simulator simu{8};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Session s(net, t.source, t.receivers, session_only_cfg());
  s.start();
  simu.run_until(60.0);

  // Tree zones: the mesh node (closest to the source) must be ZCR.
  for (int m = 0; m < 7; ++m) {
    const net::NodeId mesh = t.mesh[m];
    EXPECT_EQ(s.agent_for(mesh).session().zcr_of(t.tree_zones[m]), mesh)
        << "tree zone " << m;
  }
  // Leaf zones: the middle node must be ZCR.
  for (int c = 0; c < 21; ++c) {
    const net::NodeId mid = t.middles[c];
    EXPECT_EQ(s.agent_for(mid).session().zcr_of(t.leaf_zones[c]), mid)
        << "leaf zone " << c;
  }
}

TEST(Session, DirectRttWithinSmallestZone) {
  sim::Simulator simu{9};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Session s(net, t.source, t.receivers, session_only_cfg());
  s.start();
  simu.run_until(30.0);

  // Leaves 29..32 share leaf zone 0 with middle node 8: direct estimates.
  const double actual = 2.0 * net.path_delay(29, 30);
  const double est = s.agent_for(29).session().direct_rtt(
      net.zones().smallest_zone(29), 30);
  ASSERT_GT(est, 0.0);
  EXPECT_NEAR(est, actual, 0.25 * actual);
}

// The paper's §6.1 experiment: receivers at every level send NACK-like
// messages carrying their ZCR distance hints; every other receiver
// estimates the RTT indirectly. Paper result: >50% of receivers estimate
// within a few percent; we assert the median is within 15% and that the
// scheme never fails to produce an estimate.
TEST(Session, IndirectRttEstimatesAccurate) {
  sim::Simulator simu{10};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Session s(net, t.source, t.receivers, session_only_cfg());
  s.start();
  simu.run_until(60.0);

  for (net::NodeId sender : {net::NodeId{3}, net::NodeId{25},
                             net::NodeId{36}}) {
    auto hints = s.agent_for(sender).session().make_hints();
    ASSERT_FALSE(hints.empty()) << "sender " << sender;
    std::vector<double> ratios;
    for (net::NodeId r : t.receivers) {
      if (r == sender) continue;
      const double est =
          s.agent_for(r).session().estimate_dist(sender, hints);
      const double actual = net.path_delay(r, sender);
      ASSERT_GT(actual, 0.0);
      ratios.push_back(est / actual);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    EXPECT_NEAR(median, 1.0, 0.15) << "sender " << sender;
    // More than half the receivers land within 25% of truth.
    const int close = static_cast<int>(
        std::count_if(ratios.begin(), ratios.end(),
                      [](double x) { return x > 0.75 && x < 1.25; }));
    EXPECT_GT(close, static_cast<int>(ratios.size()) / 2)
        << "sender " << sender;
  }
}

TEST(Session, HintsCoverChain) {
  sim::Simulator simu{11};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Session s(net, t.source, t.receivers, session_only_cfg());
  s.start();
  simu.run_until(40.0);
  // A leaf's hints should mention all three levels of its chain.
  auto hints = s.agent_for(29).session().make_hints();
  EXPECT_EQ(hints.size(), 3u);
  // Distances must be monotonically non-decreasing up the chain.
  for (std::size_t i = 1; i < hints.size(); ++i) {
    EXPECT_GE(hints[i].dist + 1e-9, hints[i - 1].dist);
  }
}

TEST(Session, ZcrFailureTriggersReelection) {
  sim::Simulator simu{12};
  net::Network net{simu};
  topo::Chain c = topo::make_chain(net, {0.010, 0.015, 0.020});
  auto& z = net.zones();
  const net::ZoneId root = z.add_root();
  const net::ZoneId child = z.add_zone(root);
  z.assign(c.nodes[0], root);
  for (int i = 1; i <= 3; ++i) z.assign(c.nodes[i], child);

  Session s(net, c.nodes[0], {c.nodes[1], c.nodes[2], c.nodes[3]},
            session_only_cfg());
  s.start();
  simu.run_until(40.0);
  ASSERT_EQ(s.agent_for(c.nodes[2]).session().zcr_of(child), c.nodes[1]);

  // Kill the elected ZCR: stop its timers (no more transmissions) and
  // detach it from the network (no more receptions).
  s.agent_for(c.nodes[1]).stop();
  net.detach(c.nodes[1], &s.agent_for(c.nodes[1]));
  simu.run_until(120.0);
  // Node 2 (next closest) must take over, and node 3 must agree.
  EXPECT_EQ(s.agent_for(c.nodes[2]).session().zcr_of(child), c.nodes[2]);
  EXPECT_EQ(s.agent_for(c.nodes[3]).session().zcr_of(child), c.nodes[2]);
}

// The per-level peer and bridge tables are sorted vectors standing in for
// std::map: beacon entries, expiry order and the oldest-first shed
// tie-break all follow their iteration order. Drive both through the same
// random inserts, finds, erases (by key and by iterator) and
// erase-while-iterating sweeps, and require identical ordered contents.
TEST(PeerTable, MatchesStdMapUnderRandomOps) {
  sim::Rng rng(16);
  rm::FlatTable<net::NodeId, double> flat;
  std::map<net::NodeId, double> ref;
  auto contents = [](const auto& table) {
    std::vector<std::pair<net::NodeId, double>> out;
    for (const auto& [k, v] : table) out.emplace_back(k, v);
    return out;
  };
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<net::NodeId>(rng.uniform_int(0, 63));
    switch (rng.uniform_int(0, 5)) {
      case 0:
      case 1: {  // insert (no overwrite), then update through the entry
        const double v = rng.unit();
        auto [fit, finserted] = flat.try_emplace(key, v);
        auto [rit, rinserted] = ref.try_emplace(key, v);
        ASSERT_EQ(finserted, rinserted);
        fit->second += 1.0;
        rit->second += 1.0;
        break;
      }
      case 2: {  // find
        auto fit = flat.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
      case 3:  // erase by key
        ASSERT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 4: {  // erase by iterator
        auto fit = flat.find(key);
        auto rit = ref.find(key);
        if (rit == ref.end()) break;
        auto fnext = flat.erase(fit);
        auto rnext = ref.erase(rit);
        ASSERT_EQ(fnext == flat.end(), rnext == ref.end());
        if (rnext != ref.end()) {
          ASSERT_EQ(fnext->first, rnext->first);
        }
        break;
      }
      case 5: {  // sweep: erase every entry under a threshold, as expiry does
        const double cut = 1.0 + rng.unit() * 0.3;
        for (auto it = flat.begin(); it != flat.end();) {
          it = it->second < cut ? flat.erase(it) : std::next(it);
        }
        for (auto it = ref.begin(); it != ref.end();) {
          it = it->second < cut ? ref.erase(it) : std::next(it);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(contents(flat), contents(ref)) << "after op " << op;
  }
  // Reserved capacity is kept: a table sized once never regrows.
  rm::FlatTable<net::NodeId, double> sized;
  sized.reserve(9);
  const std::size_t cap = sized.capacity();
  for (net::NodeId n = 9; n-- > 0;) sized.try_emplace(n, 0.0);
  EXPECT_EQ(sized.capacity(), cap);
  EXPECT_EQ(sized.begin()->first, 0);
}

}  // namespace
}  // namespace sharq::sfq
