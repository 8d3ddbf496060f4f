#include "topo/shard_plan.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "stats/lane.hpp"

namespace sharq::topo {

net::ShardMap make_zone_shard_map(const net::Network& net, int max_shards) {
  net::ShardMap map;
  map.shard_of.assign(static_cast<std::size_t>(net.node_count()), 0);

  const net::ZoneHierarchy& zones = net.zones();
  const int budget = std::min(max_shards, stats::kMaxLanes);
  if (budget < 2 || zones.root() == net::kNoZone) return map;
  const std::vector<net::ZoneId>& tops = zones.children(zones.root());
  if (tops.empty()) return map;

  // One shard per top-level zone subtree, plus shard 0 for the root
  // zone's own members; round-robin subtrees when the budget is smaller.
  // children() is a vector in creation order, so the assignment is a
  // pure function of the topology.
  const int nshards =
      std::min(static_cast<int>(tops.size()) + 1, budget);
  for (std::size_t i = 0; i < tops.size(); ++i) {
    const int shard = 1 + static_cast<int>(i) % (nshards - 1);
    for (net::NodeId n : zones.members(tops[i])) {
      map.shard_of[static_cast<std::size_t>(n)] = shard;
    }
  }

  // Conservative lookahead: a packet crossing shards rides a link whose
  // propagation delay is at least this, so nothing sent inside a window
  // [h, h + lookahead) can land before the window ends. A zero-delay
  // cross-shard link would make the window empty — fall back to serial.
  sim::Time lookahead = sim::kTimeInfinity;
  for (net::LinkId l = 0; l < net.link_count(); ++l) {
    if (map.shard_of[static_cast<std::size_t>(net.link_from(l))] !=
        map.shard_of[static_cast<std::size_t>(net.link_to(l))]) {
      lookahead = std::min(lookahead, net.link_delay(l));
    }
  }
  if (lookahead <= 0.0) {
    map.shard_of.assign(static_cast<std::size_t>(net.node_count()), 0);
    return map;  // nshards stays 1
  }
  map.nshards = nshards;
  map.lookahead = lookahead;
  return map;
}

}  // namespace sharq::topo
