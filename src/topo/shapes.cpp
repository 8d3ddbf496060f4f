#include "topo/shapes.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace sharq::topo {

Chain make_chain(net::Network& net, int n, const net::LinkConfig& link) {
  assert(n >= 1);
  Chain c;
  c.nodes.reserve(n);
  for (int i = 0; i < n; ++i) c.nodes.push_back(net.add_node());
  for (int i = 0; i + 1 < n; ++i) {
    net.add_duplex_link(c.nodes[i], c.nodes[i + 1], link);
  }
  return c;
}

Chain make_chain(net::Network& net, const std::vector<sim::Time>& delays,
                 double bandwidth_bps) {
  Chain c;
  const int n = static_cast<int>(delays.size()) + 1;
  for (int i = 0; i < n; ++i) c.nodes.push_back(net.add_node());
  for (int i = 0; i + 1 < n; ++i) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = bandwidth_bps;
    cfg.delay = delays[i];
    net.add_duplex_link(c.nodes[i], c.nodes[i + 1], cfg);
  }
  return c;
}

Star make_star(net::Network& net, const std::vector<sim::Time>& leaf_delays,
               double bandwidth_bps) {
  Star s;
  s.hub = net.add_node();
  for (sim::Time d : leaf_delays) {
    const net::NodeId leaf = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = bandwidth_bps;
    cfg.delay = d;
    net.add_duplex_link(s.hub, leaf, cfg);
    s.leaves.push_back(leaf);
  }
  return s;
}

BalancedTree make_balanced_tree(net::Network& net, int depth, int fanout,
                                const net::LinkConfig& link) {
  assert(depth >= 0 && fanout >= 1);
  BalancedTree t;
  t.root = net.add_node();
  t.levels.push_back({t.root});
  t.all.push_back(t.root);
  for (int d = 1; d <= depth; ++d) {
    std::vector<net::NodeId> level;
    for (net::NodeId parent : t.levels[d - 1]) {
      for (int f = 0; f < fanout; ++f) {
        const net::NodeId child = net.add_node();
        net.add_duplex_link(parent, child, link);
        level.push_back(child);
        t.all.push_back(child);
      }
    }
    t.levels.push_back(std::move(level));
  }
  t.leaves = t.levels.back();
  return t;
}

ExampleTree make_figure1_tree(net::Network& net) {
  // Reconstruction of the Figure 1 example (the figure itself is an image;
  // the paper quotes two derived numbers which this tree reproduces):
  //
  //   source S
  //   +-- R1 (0.5%) -- 3 leaves at 1%, 2%, 1%          (nearly lossless)
  //   +-- R2 (1.0%) -- 3 leaves at 5%, 6%, 7%
  //   +-- R3 (3.0%) -- 1 leaf  at 6.94%                 <- receiver X
  //   +-- R4 (2.0%) -- 14 leaves at y%                  (congested fan-out)
  //
  // X's compounded loss: 1 - 0.97 * 0.9306 = 9.732%            (paper: 9.73%)
  // y is solved so the product of (1 - loss) over every link is 0.270
  // (paper: P(all nodes receive a given packet) = 27.0%).
  ExampleTree t;
  t.source = net.add_node();

  auto relay = [&](double loss) {
    const net::NodeId r = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 10e6;
    cfg.delay = 0.010;
    cfg.loss_rate = loss;
    net.add_duplex_link(t.source, r, cfg);
    t.relays.push_back(r);
    return r;
  };
  auto leaf = [&](net::NodeId parent, double loss) {
    const net::NodeId l = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 10e6;
    cfg.delay = 0.010;
    cfg.loss_rate = loss;
    net.add_duplex_link(parent, l, cfg);
    t.receivers.push_back(l);
    return l;
  };

  const net::NodeId r1 = relay(0.005);
  const net::NodeId r2 = relay(0.010);
  const net::NodeId r3 = relay(0.030);
  const net::NodeId r4 = relay(0.020);

  double survive = 0.995 * 0.990 * 0.970 * 0.980;  // the four relay links

  for (double l : {0.01, 0.02, 0.01}) {
    leaf(r1, l);
    survive *= 1.0 - l;
  }
  for (double l : {0.05, 0.06, 0.07}) {
    leaf(r2, l);
    survive *= 1.0 - l;
  }
  t.worst_receiver = leaf(r3, 0.0694);
  survive *= 1.0 - 0.0694;

  // Solve the uniform loss y on R4's 14 leaf links so that
  // survive * (1-y)^14 == 0.270 exactly.
  constexpr int kR4Leaves = 14;
  const double y = 1.0 - std::pow(0.270 / survive, 1.0 / kR4Leaves);
  for (int i = 0; i < kR4Leaves; ++i) leaf(r4, y);

  return t;
}

namespace {

// Deep-tree links: hub -> hub, and hub -> subscriber.
constexpr double kHubBps = 100e6;
constexpr sim::Time kHubDelay = 0.005;
constexpr double kLeafBps = 10e6;
constexpr sim::Time kLeafDelay = 0.002;

}  // namespace

DeepTree make_deep_tree(net::Network& net, const DeepTreeParams& p) {
  DeepTree t;
  net::ZoneHierarchy& zones = net.zones();

  // Every node and link up front, so the tables grow once; ids are handed
  // out in the order the loops below visit them.
  int hubs = 0, tier = 1;
  for (int level = 1; level <= p.zone_depth; ++level) {
    tier *= p.fanout;
    hubs += tier;
  }
  const int leaves = tier * p.leaves_per_hub;
  net.reserve_links(2 * (hubs + leaves));
  net::NodeId next_id = net.add_nodes(1 + hubs + leaves);
  t.hubs.reserve(static_cast<std::size_t>(hubs));
  t.zone_hubs.reserve(static_cast<std::size_t>(hubs));
  t.leaves.reserve(static_cast<std::size_t>(leaves));

  t.source = next_id++;
  t.root_zone = zones.add_root();
  zones.assign(t.source, t.root_zone);

  // Frontier of the previous hub level: (node, zone) pairs. One pass per
  // level keeps the build O(total nodes) — no path queries.
  std::vector<std::pair<net::NodeId, net::ZoneId>> frontier{
      {t.source, t.root_zone}};
  net::LinkConfig hub_link;
  hub_link.bandwidth_bps = kHubBps;
  hub_link.delay = kHubDelay;
  hub_link.queue_limit_pkts = p.queue_limit_pkts;
  net::LinkConfig leaf_link;
  leaf_link.bandwidth_bps = kLeafBps;
  leaf_link.delay = kLeafDelay;
  leaf_link.loss_rate = p.leaf_loss;
  leaf_link.queue_limit_pkts = p.queue_limit_pkts;

  for (int level = 1; level <= p.zone_depth; ++level) {
    std::vector<std::pair<net::NodeId, net::ZoneId>> next;
    next.reserve(frontier.size() * static_cast<std::size_t>(p.fanout));
    for (const auto& [parent, pzone] : frontier) {
      for (int c = 0; c < p.fanout; ++c) {
        const net::NodeId hub = next_id++;
        net.add_duplex_link(parent, hub, hub_link);
        const net::ZoneId z = zones.add_zone(pzone);
        zones.assign(hub, z);
        t.hubs.push_back(hub);
        t.zone_hubs.emplace_back(z, hub);
        next.emplace_back(hub, z);
      }
    }
    frontier = std::move(next);
  }
  for (const auto& [hub, z] : frontier) {
    for (int u = 0; u < p.leaves_per_hub; ++u) {
      const net::NodeId leaf = next_id++;
      net.add_duplex_link(hub, leaf, leaf_link);
      zones.assign(leaf, z);
      t.leaves.push_back(leaf);
    }
  }
  t.receivers = t.hubs;
  t.receivers.insert(t.receivers.end(), t.leaves.begin(), t.leaves.end());
  return t;
}

}  // namespace sharq::topo
