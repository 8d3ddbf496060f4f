// Membership storage contract: zone members, channel subscribers and
// hierarchy chains are ascending flat arrays that always agree with a
// parent walk over the assignment, and protocol-level membership survives
// a crash that drops a node's subscriptions without a leave().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "stats/profiler.hpp"
#include "topo/shapes.hpp"

namespace sharq {
namespace {

std::vector<net::NodeId> as_vector(std::span<const net::NodeId> s) {
  return {s.begin(), s.end()};
}

bool strictly_ascending(std::span<const net::NodeId> s) {
  return std::adjacent_find(s.begin(), s.end(), std::greater_equal<>()) ==
         s.end();
}

// Random assign / re-assign and subscribe / unsubscribe sequences over
// shuffled ids, checked against std::set models after every step.
TEST(Membership, FlatArraysMatchSetModel) {
  constexpr int kNodes = 48;
  constexpr int kZones = 14;
  constexpr int kChannels = 3;
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int n) {
      return static_cast<int>(rng() % static_cast<std::uint32_t>(n));
    };
    sim::Simulator simu(seed);
    net::Network net(simu);
    net.add_nodes(kNodes);
    net::ZoneHierarchy& z = net.zones();
    std::vector<net::ZoneId> parent{net::kNoZone};
    z.add_root();
    for (int i = 1; i < kZones; ++i) {
      const net::ZoneId p = pick(i);
      ASSERT_EQ(z.add_zone(p), i);
      parent.push_back(p);
    }
    std::vector<net::ChannelId> chans;
    for (int c = 0; c < kChannels; ++c) chans.push_back(net.create_channel());

    std::map<net::NodeId, net::ZoneId> assigned;  // model
    std::vector<std::set<net::NodeId>> subs(kChannels);
    // Ids arrive shuffled; the last eight are never assigned.
    std::vector<net::NodeId> ids(kNodes);
    for (int i = 0; i < kNodes; ++i) ids[static_cast<std::size_t>(i)] = i;
    std::shuffle(ids.begin(), ids.end(), rng);
    const int assignable = kNodes - 8;

    auto walk = [&](net::NodeId n) {
      std::vector<net::ZoneId> out;
      auto it = assigned.find(n);
      if (it == assigned.end()) return out;
      for (net::ZoneId a = it->second; a != net::kNoZone; a = parent[a]) {
        out.push_back(a);
      }
      return out;
    };
    auto check = [&] {
      for (net::ZoneId zone = 0; zone < kZones; ++zone) {
        std::vector<net::NodeId> model;
        for (const auto& [n, small] : assigned) {
          const auto c = walk(n);
          if (std::find(c.begin(), c.end(), zone) != c.end()) {
            model.push_back(n);
          }
        }
        ASSERT_TRUE(strictly_ascending(z.members(zone)));
        ASSERT_EQ(as_vector(z.members(zone)), model) << "zone " << zone;
      }
      for (int c = 0; c < kChannels; ++c) {
        const auto s = net.subscribers(chans[static_cast<std::size_t>(c)]);
        ASSERT_TRUE(strictly_ascending(s));
        const std::set<net::NodeId>& m = subs[static_cast<std::size_t>(c)];
        ASSERT_EQ(as_vector(s),
                  std::vector<net::NodeId>(m.begin(), m.end()));
        ASSERT_EQ(net.subscriber_count(chans[static_cast<std::size_t>(c)]),
                  m.size());
      }
      for (net::NodeId a = 0; a < kNodes + 4; ++a) {
        const auto ca = walk(a);
        ASSERT_EQ(z.chain(a), ca) << "node " << a;
        ASSERT_EQ(z.smallest_zone(a), ca.empty() ? net::kNoZone : ca[0]);
        for (net::ZoneId zone = 0; zone < kZones; ++zone) {
          ASSERT_EQ(z.contains(zone, a),
                    std::find(ca.begin(), ca.end(), zone) != ca.end());
        }
        const net::NodeId b = pick(kNodes + 4);
        const auto cb = walk(b);
        net::ZoneId common = net::kNoZone;
        for (net::ZoneId x : ca) {
          if (std::find(cb.begin(), cb.end(), x) != cb.end()) {
            common = x;
            break;
          }
        }
        ASSERT_EQ(z.common_zone(a, b), common) << a << " vs " << b;
      }
    };

    for (int step = 0; step < 300; ++step) {
      const int op = pick(4);
      if (op == 0) {
        const net::NodeId n = ids[static_cast<std::size_t>(pick(assignable))];
        const net::ZoneId zone = pick(kZones);
        z.assign(n, zone);
        assigned[n] = zone;
      } else {
        const int c = pick(kChannels);
        const net::NodeId n = ids[static_cast<std::size_t>(pick(kNodes))];
        if (op == 3) {
          net.unsubscribe(chans[static_cast<std::size_t>(c)], n);
          subs[static_cast<std::size_t>(c)].erase(n);
        } else {
          net.subscribe(chans[static_cast<std::size_t>(c)], n);
          subs[static_cast<std::size_t>(c)].insert(n);
        }
        ASSERT_EQ(net.subscribed(chans[static_cast<std::size_t>(c)], n),
                  op != 3);
      }
      check();
      if (HasFatalFailure()) return;
    }
    // A node with an id beyond any assigned one is in no zone.
    const net::NodeId beyond = kNodes + 1000;
    EXPECT_EQ(z.smallest_zone(beyond), net::kNoZone);
    EXPECT_FALSE(z.contains(z.root(), beyond));
    EXPECT_TRUE(z.chain(beyond).empty());
    EXPECT_EQ(z.common_zone(ids[0], beyond), net::kNoZone);
  }
}

/// source -- relay -- {a, b, c}; zone = {relay, a, b, c}, relay its
/// static ZCR.
struct CrashFixture {
  sim::Simulator simu{17};
  net::Network net{simu};
  net::NodeId source, relay, a, b, c;
  net::ZoneId root, zone;

  CrashFixture() {
    source = net.add_node();
    relay = net.add_node();
    a = net.add_node();
    b = net.add_node();
    c = net.add_node();
    net::LinkConfig up;
    up.delay = 0.020;
    net.add_duplex_link(source, relay, up);
    net::LinkConfig down;
    down.delay = 0.010;
    for (net::NodeId n : {a, b, c}) net.add_duplex_link(relay, n, down);
    root = net.zones().add_root();
    zone = net.zones().add_zone(root);
    net.zones().assign(source, root);
    for (net::NodeId n : {relay, a, b, c}) net.zones().assign(n, zone);
  }
};

std::uint64_t peer_table_bytes(const sfq::Agent& agent) {
  stats::MemCensus census;
  agent.memory_census(census);
  return census.categories["peer_tables"].peak_bytes;
}

// A crash drops the node's subscriptions but no leave() runs. When it
// restarts and rejoins, the zone's joined count (which sizes every peer
// table) must count it once, not twice.
TEST(Membership, CrashWithoutLeaveRejoinsCountedOnce) {
  CrashFixture f;
  sfq::Config cfg;
  cfg.static_zcrs[f.zone] = f.relay;
  sfq::Session s(f.net, f.source, {f.relay, f.a, f.b, f.c}, cfg);
  sfq::Hierarchy& h = s.hierarchy();
  s.start();
  f.simu.run_until(5.0);
  // Four members live in the zone; the root holds the source and one ZCR
  // per child zone.
  ASSERT_EQ(h.session_peer_bound(f.zone), 4u);
  ASSERT_EQ(h.session_peer_bound(f.root), 2u);

  f.net.set_node_up(f.c, false);
  EXPECT_FALSE(f.net.subscribed(h.session_channel(f.zone), f.c));
  EXPECT_TRUE(h.joined(f.c));
  f.simu.run_until(8.0);
  f.net.set_node_up(f.c, true);
  sfq::Agent& rejoined = s.add_receiver(f.c);
  EXPECT_TRUE(f.net.subscribed(h.session_channel(f.zone), f.c));
  EXPECT_EQ(h.session_peer_bound(f.zone), 4u);
  EXPECT_EQ(h.session_peer_bound(f.root), 2u);
  f.simu.run_until(20.0);

  // The rejoined agent sized its tables exactly like its never-crashed
  // twin in the same zone.
  const std::uint64_t twin = peer_table_bytes(s.agent_for(f.b));
  EXPECT_GT(twin, 0u);
  EXPECT_EQ(peer_table_bytes(rejoined), twin);
  EXPECT_EQ(peer_table_bytes(s.agent_for(f.a)), twin);

  // A real leave() still drops the member from the count.
  h.leave(f.c);
  EXPECT_FALSE(h.joined(f.c));
  EXPECT_EQ(h.session_peer_bound(f.zone), 3u);
}

// Per-receiver membership and topology bytes on regular deep trees: the
// topology (nodes, links and their loss models, channel subscriptions,
// zone membership) plus the session's shared hierarchy. Membership lives
// once, in flat arrays; a return to per-element hash nodes (~45 B each,
// nine subscriptions per receiver on d3) moves these figures well past
// the bounds, which are the measured values plus 10%.
TEST(Membership, DeepTreeTopologyBytesPerReceiverStayFlat) {
  struct Case {
    int depth, fanout, leaves;
    double bound;  // B per receiver
  };
  for (const Case& k : {Case{2, 4, 8, 853.0}, Case{3, 8, 16, 893.0}}) {
    sim::Simulator simu(1);
    net::Network net(simu);
    topo::DeepTreeParams p;
    p.zone_depth = k.depth;
    p.fanout = k.fanout;
    p.leaves_per_hub = k.leaves;
    p.leaf_loss = 0.05;
    const topo::DeepTree t = topo::make_deep_tree(net, p);
    sfq::Config cfg;
    for (const auto& [zone, hub] : t.zone_hubs) cfg.static_zcrs[zone] = hub;
    sfq::Session s(net, t.source, t.receivers, cfg);
    stats::MemCensus census;
    net.memory_census(census);
    s.memory_census(census);
    const double per_receiver =
        static_cast<double>(census.categories["net_topology"].peak_bytes +
                            census.categories["session_shared"].peak_bytes) /
        static_cast<double>(t.receivers.size());
    // Appended piecewise: GCC 12 at -O3 flags the inlined
    // `"d" + std::to_string(...) + ...` with a -Wrestrict false positive.
    std::string property = "d";
    property += std::to_string(k.depth);
    property += "_bytes_per_receiver";
    RecordProperty(property, std::to_string(per_receiver));
    EXPECT_LE(per_receiver, k.bound)
        << "d" << k.depth << "_f" << k.fanout << ": " << t.receivers.size()
        << " receivers";
  }
}

}  // namespace
}  // namespace sharq
