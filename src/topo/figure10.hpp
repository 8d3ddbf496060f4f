#pragma once

#include <vector>

#include "net/network.hpp"

namespace sharq::topo {

/// The evaluation topology of the paper's §6 (Figure 10): a source (node 0)
/// feeding a mesh of 7 backbone receivers, each of which roots a balanced
/// tree (3 children, 4 leaves per child), for 112 receivers in total, plus
/// a 3-level administrative-scope hierarchy overlaid on the trees.
///
/// Node numbering matches the paper's: 0 = source, 1-7 = mesh nodes,
/// 8-28 = middle nodes (3 per mesh node), 29-112 = leaves (4 per middle
/// node). The paper states leaves 53.. (under mesh node 3) see the worst
/// compounded loss (~28.3%) and leaves 89-100 (under mesh node 6) the
/// least (~13.4%); the backbone loss rates in figure10.cpp are chosen to
/// reproduce those endpoints, since the figure carrying the exact values is
/// an image.
///
/// Link parameters from the paper: source->mesh links 45 Mbit/s, all other
/// links 10 Mbit/s; intra-tree link latency 20 ms; mesh->child links lose
/// 8%, child->leaf links lose 4%.
struct Figure10 {
  net::NodeId source = net::kNoNode;       ///< node 0
  std::vector<net::NodeId> mesh;           ///< nodes 1-7
  std::vector<net::NodeId> middles;        ///< nodes 8-28
  std::vector<net::NodeId> leaves;         ///< nodes 29-112
  std::vector<net::NodeId> receivers;      ///< nodes 1-112

  net::ZoneId z_root = net::kNoZone;       ///< global scope (source + all)
  std::vector<net::ZoneId> tree_zones;     ///< one per mesh node (7)
  std::vector<net::ZoneId> leaf_zones;     ///< one per middle node (21)

  /// Middle-node children of mesh node m (0-based index into mesh).
  std::vector<net::NodeId> middles_of(int m) const;
  /// Leaf children of middle node index c (0-based index into middles).
  std::vector<net::NodeId> leaves_of(int c) const;
};

/// The paper's per-link parameters, as the builder applies them.
inline constexpr double kFig10MeshChildLoss = 0.08;  ///< mesh -> middle
inline constexpr double kFig10ChildLeafLoss = 0.04;  ///< middle -> leaf
inline constexpr double kFig10TreeBandwidthBps = 10e6;

/// Options for the builder (defaults reproduce the paper's setup).
struct Figure10Options {
  int queue_limit_pkts = -1;  ///< per-link queue bound (-1 = unbounded)
};

/// Build the Figure 10 topology and its zone overlay into `net`. Must be
/// called on an empty network so the node numbering holds.
Figure10 make_figure10(net::Network& net,
                       const Figure10Options& opt = Figure10Options{});

}  // namespace sharq::topo
