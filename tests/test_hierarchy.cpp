#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>

#include "sharqfec/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "topo/figure10.hpp"

namespace sharq::sfq {
namespace {

struct Fixture {
  sim::Simulator simu{3};
  net::Network net{simu};
};

TEST(Hierarchy, ScopedMirrorsZoneTree) {
  Fixture f;
  topo::Figure10 t = topo::make_figure10(f.net);
  Hierarchy h(f.net, /*scoping=*/true);
  EXPECT_TRUE(h.scoping());
  EXPECT_EQ(h.root(), t.z_root);
  EXPECT_EQ(h.depth(), 3);
  EXPECT_EQ(h.all_zones().size(), 1u + 7u + 21u);
  EXPECT_EQ(h.parent(t.tree_zones[0]), t.z_root);
  EXPECT_EQ(h.level(t.leaf_zones[5]), 2);
  // Every zone gets distinct repair and session channels.
  std::unordered_set<net::ChannelId> chans{h.data_channel()};
  for (net::ZoneId z : h.all_zones()) {
    EXPECT_TRUE(chans.insert(h.repair_channel(z)).second);
    EXPECT_TRUE(chans.insert(h.session_channel(z)).second);
    EXPECT_EQ(h.zone_of_channel(h.repair_channel(z)), z);
    EXPECT_EQ(h.zone_of_channel(h.session_channel(z)), z);
  }
  EXPECT_EQ(h.zone_of_channel(h.data_channel()), net::kNoZone);
}

TEST(Hierarchy, ChainsAreSmallestFirst) {
  Fixture f;
  topo::Figure10 t = topo::make_figure10(f.net);
  Hierarchy h(f.net, true);
  const auto& leaf_chain = h.chain(29);
  ASSERT_EQ(leaf_chain.size(), 3u);
  EXPECT_EQ(leaf_chain[0], t.leaf_zones[0]);
  EXPECT_EQ(leaf_chain[1], t.tree_zones[0]);
  EXPECT_EQ(leaf_chain[2], t.z_root);
  EXPECT_EQ(h.smallest_zone(29), t.leaf_zones[0]);
  EXPECT_EQ(h.chain(0).size(), 1u);  // the source lives at the root only
}

TEST(Hierarchy, CommonZoneQueries) {
  Fixture f;
  topo::Figure10 t = topo::make_figure10(f.net);
  Hierarchy h(f.net, true);
  EXPECT_EQ(h.common_zone(29, 30), t.leaf_zones[0]);   // same leaf zone
  EXPECT_EQ(h.common_zone(29, 33), t.tree_zones[0]);   // sibling leaf zones
  EXPECT_EQ(h.common_zone(29, 112), t.z_root);         // different trees
  EXPECT_TRUE(h.zone_contains(t.z_root, 0));
  EXPECT_FALSE(h.zone_contains(t.tree_zones[0], 112));
}

TEST(Hierarchy, JoinSubscribesWholeChain) {
  Fixture f;
  topo::Figure10 t = topo::make_figure10(f.net);
  Hierarchy h(f.net, true);
  h.join(29);
  EXPECT_TRUE(f.net.subscribed(h.data_channel(), 29));
  EXPECT_TRUE(f.net.subscribed(h.repair_channel(t.leaf_zones[0]), 29));
  EXPECT_TRUE(f.net.subscribed(h.session_channel(t.tree_zones[0]), 29));
  EXPECT_TRUE(f.net.subscribed(h.repair_channel(t.z_root), 29));
  EXPECT_FALSE(f.net.subscribed(h.repair_channel(t.leaf_zones[1]), 29));
  EXPECT_TRUE(h.joined(29));
  EXPECT_FALSE(h.joined(30));
  // A zone's joined members are its session channel's subscribers.
  for (net::ZoneId z : {t.leaf_zones[0], t.z_root}) {
    const std::span<const net::NodeId> subs =
        f.net.subscribers(h.session_channel(z));
    EXPECT_EQ(std::count(subs.begin(), subs.end(), 29), 1);
  }
}

TEST(Hierarchy, FlatModeCollapsesToOneZone) {
  Fixture f;
  topo::Figure10 t = topo::make_figure10(f.net);
  (void)t;
  Hierarchy h(f.net, /*scoping=*/false);
  EXPECT_FALSE(h.scoping());
  EXPECT_EQ(h.depth(), 1);
  EXPECT_EQ(h.all_zones().size(), 1u);
  ASSERT_EQ(h.chain(29).size(), 1u);
  EXPECT_EQ(h.chain(29).front(), h.root());
  EXPECT_EQ(h.chain(0).data(), h.chain(112).data());
  EXPECT_EQ(h.common_zone(29, 112), h.root());
  EXPECT_EQ(h.parent(h.root()), net::kNoZone);
  // Flat channels are unscoped: a send from anywhere reaches subscribers.
  h.join(29);
  h.join(112);
  EXPECT_TRUE(f.net.subscribed(h.repair_channel(h.root()), 112));
}

TEST(Hierarchy, FlatModeWorksWithoutZoneOverlay) {
  Fixture f;
  f.net.add_nodes(3);
  f.net.add_duplex_link(0, 1, net::LinkConfig{});
  f.net.add_duplex_link(1, 2, net::LinkConfig{});
  Hierarchy h(f.net, false);  // no zones were ever built
  h.join(0);
  h.join(2);
  EXPECT_EQ(h.chain(2).front(), h.root());
}

}  // namespace
}  // namespace sharq::sfq
