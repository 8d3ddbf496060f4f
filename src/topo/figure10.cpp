#include "topo/figure10.hpp"

#include <cassert>

namespace sharq::topo {

namespace {

/// Per-tree cumulative backbone loss (source -> mesh node m). Tuned so
/// trees differ, tree 3 is worst and tree 6 best, matching the quoted
/// 28.3% / 13.4% compounded leaf losses.
constexpr double kBackboneLoss[7] = {0.08, 0.12,   0.188, 0.10,
                                     0.06, 0.0196, 0.04};
/// Source -> mesh propagation delays (the paper's backbone latencies are
/// in the unreadable figure; these span the same 10-50 ms regime).
constexpr sim::Time kBackboneDelay[7] = {0.030, 0.045, 0.020, 0.040,
                                         0.010, 0.025, 0.035};
constexpr sim::Time kTreeLinkDelay = 0.020;  ///< paper: 20 ms per link
constexpr double kBackboneBandwidthBps = 45e6;  ///< paper: 45 Mbit/s

}  // namespace

std::vector<net::NodeId> Figure10::middles_of(int m) const {
  assert(m >= 0 && m < static_cast<int>(mesh.size()));
  return {middles[3 * m], middles[3 * m + 1], middles[3 * m + 2]};
}

std::vector<net::NodeId> Figure10::leaves_of(int c) const {
  assert(c >= 0 && c < static_cast<int>(middles.size()));
  return {leaves[4 * c], leaves[4 * c + 1], leaves[4 * c + 2],
          leaves[4 * c + 3]};
}

Figure10 make_figure10(net::Network& net, const Figure10Options& opt) {
  assert(net.node_count() == 0 && "figure 10 numbering needs a fresh network");

  Figure10 t;
  t.source = net.add_node();  // node 0

  for (int m = 0; m < 7; ++m) t.mesh.push_back(net.add_node());       // 1-7
  for (int c = 0; c < 21; ++c) t.middles.push_back(net.add_node());   // 8-28
  for (int l = 0; l < 84; ++l) t.leaves.push_back(net.add_node());    // 29-112

  t.receivers = t.mesh;
  t.receivers.insert(t.receivers.end(), t.middles.begin(), t.middles.end());
  t.receivers.insert(t.receivers.end(), t.leaves.begin(), t.leaves.end());

  // Source -> mesh backbone links (45 Mbit/s, per-tree loss and latency).
  for (int m = 0; m < 7; ++m) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = kBackboneBandwidthBps;
    cfg.delay = kBackboneDelay[m];
    cfg.loss_rate = kBackboneLoss[m];
    cfg.queue_limit_pkts = opt.queue_limit_pkts;
    net.add_duplex_link(t.source, t.mesh[m], cfg);
  }
  // Mesh interconnect: a ring among the 7 backbone receivers. Shortest
  // paths from the source never use these, but they exist so backbone
  // failure/rerouting scenarios and mesh-shaped sessions can be exercised.
  for (int m = 0; m < 7; ++m) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = kBackboneBandwidthBps;
    cfg.delay = 0.030;
    cfg.loss_rate = 0.01;
    cfg.queue_limit_pkts = opt.queue_limit_pkts;
    net.add_duplex_link(t.mesh[m], t.mesh[(m + 1) % 7], cfg);
  }
  // Mesh -> middle links (8% loss) and middle -> leaf links (4% loss).
  for (int m = 0; m < 7; ++m) {
    for (int j = 0; j < 3; ++j) {
      const int c = 3 * m + j;
      net::LinkConfig cfg;
      cfg.bandwidth_bps = kFig10TreeBandwidthBps;
      cfg.delay = kTreeLinkDelay;
      cfg.loss_rate = kFig10MeshChildLoss;
      cfg.queue_limit_pkts = opt.queue_limit_pkts;
      net.add_duplex_link(t.mesh[m], t.middles[c], cfg);
      for (int i = 0; i < 4; ++i) {
        net::LinkConfig leaf_cfg;
        leaf_cfg.bandwidth_bps = kFig10TreeBandwidthBps;
        leaf_cfg.delay = kTreeLinkDelay;
        leaf_cfg.loss_rate = kFig10ChildLeafLoss;
        leaf_cfg.queue_limit_pkts = opt.queue_limit_pkts;
        net.add_duplex_link(t.middles[c], t.leaves[4 * c + i], leaf_cfg);
      }
    }
  }

  net::ZoneHierarchy& zones = net.zones();
  t.z_root = zones.add_root();
  zones.assign(t.source, t.z_root);
  for (int m = 0; m < 7; ++m) {
    const net::ZoneId tz = zones.add_zone(t.z_root);
    t.tree_zones.push_back(tz);
    zones.assign(t.mesh[m], tz);
    for (int j = 0; j < 3; ++j) {
      const int c = 3 * m + j;
      const net::ZoneId lz = zones.add_zone(tz);
      t.leaf_zones.push_back(lz);
      zones.assign(t.middles[c], lz);
      for (int i = 0; i < 4; ++i) zones.assign(t.leaves[4 * c + i], lz);
    }
  }
  return t;
}

}  // namespace sharq::topo
