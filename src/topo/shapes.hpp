#pragma once

#include <utility>
#include <vector>

#include "net/network.hpp"

namespace sharq::topo {

/// Result of building a chain topology: node ids in chain order.
struct Chain {
  std::vector<net::NodeId> nodes;  // nodes[0] .. nodes[n-1] in a line
};

/// Build a chain of n nodes: nodes[i] <-> nodes[i+1].
/// Used for the ZCR challenge "chain" case (Figure 9, left).
Chain make_chain(net::Network& net, int n, const net::LinkConfig& link);

/// A chain with per-hop delays (seconds); nodes[i] <-> nodes[i+1] has
/// delay `delays[i]`.
Chain make_chain(net::Network& net, const std::vector<sim::Time>& delays,
                 double bandwidth_bps = 10e6);

/// Result of building a star: hub plus leaves.
struct Star {
  net::NodeId hub = net::kNoNode;
  std::vector<net::NodeId> leaves;
};

/// Build a star/fork: hub connected to n leaves with the given per-leaf
/// delays. Used for the ZCR challenge "fork" case (Figure 9, right).
Star make_star(net::Network& net, const std::vector<sim::Time>& leaf_delays,
               double bandwidth_bps = 10e6);

/// Result of building a balanced tree.
struct BalancedTree {
  net::NodeId root = net::kNoNode;
  std::vector<std::vector<net::NodeId>> levels;  // [0] = {root}
  std::vector<net::NodeId> leaves;               // last level
  std::vector<net::NodeId> all;                  // breadth-first order
};

/// Build a balanced tree of the given depth and fanout (depth 0 = just the
/// root). All links share `link`.
BalancedTree make_balanced_tree(net::Network& net, int depth, int fanout,
                                const net::LinkConfig& link);

/// The heterogeneous example delivery tree of Figure 1, reconstructed so
/// that the two quantities the paper quotes hold exactly:
///  - P(every receiver gets a given packet) = 27.0%
///  - the worst receiver, X, sees 9.73% compounded loss.
/// Link losses are heterogeneous ("some branches virtually lossless,
/// others congested"), matching the figure's description.
struct ExampleTree {
  net::NodeId source = net::kNoNode;
  std::vector<net::NodeId> relays;        // interior nodes R1..R4
  std::vector<net::NodeId> receivers;     // all leaf receivers
  net::NodeId worst_receiver = net::kNoNode;  // "X" in the paper
};

ExampleTree make_figure1_tree(net::Network& net);

/// Parameters for a deep nested-zone hierarchy (macro-scale benchmarks).
///
/// A uniform tree of hub/cache receivers `zone_depth` levels below the
/// source, `fanout` hubs per hub, and `leaves_per_hub` subscribers under
/// each deepest hub. Every hub owns a zone nested in its parent's, so the
/// zone hierarchy is `zone_depth + 1` levels deep including the root —
/// the generalization of the 4-level national topology to arbitrary
/// depth, built in O(nodes). Link rates and delays are fixed in shapes.cpp.
struct DeepTreeParams {
  int zone_depth = 3;      ///< hub levels below the source (>= 1)
  int fanout = 4;          ///< child hubs per hub
  int leaves_per_hub = 8;  ///< subscribers under each deepest hub
  double leaf_loss = 0.0;  ///< loss on subscriber access links
  int queue_limit_pkts = -1;  ///< per-link queue bound (-1 = unbounded)
};

/// A built deep hierarchy. `receivers` is hubs + leaves (everything but
/// the source); `zone_hubs` maps each zone to the hub that owns it, for
/// static-ZCR placement (the paper's dedicated caches).
struct DeepTree {
  net::NodeId source = net::kNoNode;
  std::vector<net::NodeId> hubs;       ///< all hub receivers, BFS order
  std::vector<net::NodeId> leaves;     ///< subscribers
  std::vector<net::NodeId> receivers;  ///< hubs then leaves
  net::ZoneId root_zone = net::kNoZone;
  std::vector<std::pair<net::ZoneId, net::NodeId>> zone_hubs;
};

DeepTree make_deep_tree(net::Network& net, const DeepTreeParams& p);

}  // namespace sharq::topo
