#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"

namespace sharq::sfq {

/// The protocol's view of the scope hierarchy plus the channels built on
/// it: one global data channel, and a repair + session channel per zone.
///
/// With scoping enabled this mirrors the network's ZoneHierarchy (zone ids
/// are shared, so the network's administrative boundaries actually confine
/// the channels). With scoping disabled — the paper's "ns" ablation — the
/// hierarchy collapses to a single unscoped root zone covering everyone,
/// turning SHARQFEC into a flat hybrid ARQ/FEC protocol.
class Hierarchy {
 public:
  Hierarchy(net::Network& net, bool scoping);

  bool scoping() const { return scoping_; }

  net::ChannelId data_channel() const { return data_channel_; }
  net::ChannelId repair_channel(net::ZoneId z) const;
  net::ChannelId session_channel(net::ZoneId z) const;

  /// Zone of a repair/session channel (kNoZone for the data channel).
  net::ZoneId zone_of_channel(net::ChannelId ch) const;

  net::ZoneId root() const { return root_; }
  net::ZoneId parent(net::ZoneId z) const { return info_.at(z).parent; }
  int level(net::ZoneId z) const { return info_.at(z).level; }

  /// Number of levels in the hierarchy (root-only = 1).
  int depth() const { return depth_; }

  /// The node's zones, smallest first, ending at the root.
  const std::vector<net::ZoneId>& chain(net::NodeId n) const;

  net::ZoneId smallest_zone(net::NodeId n) const { return chain(n).front(); }

  /// Smallest zone containing both nodes.
  net::ZoneId common_zone(net::NodeId a, net::NodeId b) const;

  bool zone_contains(net::ZoneId z, net::NodeId n) const;

  /// Subscribe a member to the data channel and to the repair + session
  /// channels of every zone on its chain.
  void join(net::NodeId n);

  /// Undo join(): unsubscribe from every channel and drop protocol-level
  /// membership. Used when a member crashes or leaves the session.
  void leave(net::NodeId n);

  /// Members that have join()ed, per zone (protocol-level membership).
  const std::unordered_set<net::NodeId>& joined(net::ZoneId z) const {
    return info_.at(z).joined;
  }

  /// Members that speak on `z`'s session channel in steady state: the
  /// joined members whose smallest zone is `z`, plus one ZCR per child
  /// zone (paper §5's bounded per-zone state). Sizes the session
  /// manager's per-level peer tables.
  std::size_t session_peer_bound(net::ZoneId z) const;

  /// All zone ids, root first (BFS order).
  const std::vector<net::ZoneId>& all_zones() const { return order_; }

  /// Bytes this object retains: its zone, channel and per-zone membership
  /// tables and the cached chains, each hash entry at its heap-node cost
  /// (memory-census probe).
  std::uint64_t memory_bytes() const;

 private:
  struct ZoneInfo {
    net::ZoneId parent = net::kNoZone;
    int level = 0;
    net::ChannelId repair = net::kNoChannel;
    net::ChannelId session = net::kNoChannel;
    std::unordered_set<net::NodeId> joined;
    /// Joined members whose smallest zone this is.
    std::size_t direct_joined = 0;
  };

  net::Network& net_;
  bool scoping_;
  int depth_ = 1;
  net::ZoneId root_ = net::kNoZone;
  net::ChannelId data_channel_ = net::kNoChannel;
  std::unordered_map<net::ZoneId, ZoneInfo> info_;
  std::vector<net::ZoneId> order_;
  std::unordered_map<net::ChannelId, net::ZoneId> by_channel_;
  mutable std::unordered_map<net::NodeId, std::vector<net::ZoneId>> chains_;
};

}  // namespace sharq::sfq
