#pragma once

#include <cstdint>
#include <span>
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
  net::ChannelId repair_channel(net::ZoneId z) const {
    return info(z).repair;
  }
  net::ChannelId session_channel(net::ZoneId z) const {
    return info(z).session;
  }

  /// Zone of a repair/session channel (kNoZone for the data channel).
  net::ZoneId zone_of_channel(net::ChannelId ch) const;

  net::ZoneId root() const { return root_; }
  net::ZoneId parent(net::ZoneId z) const;
  int level(net::ZoneId z) const;

  /// Number of levels in the hierarchy (root-only = 1).
  int depth() const { return depth_; }

  /// The node's zones, smallest first, ending at the root: a view into a
  /// table built once at construction, valid for this object's lifetime.
  std::span<const net::ZoneId> chain(net::NodeId n) const;

  net::ZoneId smallest_zone(net::NodeId n) const { return chain(n).front(); }

  /// Smallest zone containing both nodes.
  net::ZoneId common_zone(net::NodeId a, net::NodeId b) const;

  bool zone_contains(net::ZoneId z, net::NodeId n) const;

  /// Subscribe a member to the data channel and to the repair + session
  /// channels of every zone on its chain. A zone's joined members are its
  /// session channel's subscribers.
  void join(net::NodeId n);

  /// Undo join(): unsubscribe from every channel and drop protocol-level
  /// membership. Used when a member crashes or leaves the session.
  void leave(net::NodeId n);

  /// True between join(n) and leave(n) (protocol-level membership). A
  /// crash drops the node's subscriptions but not this: the member is
  /// still counted once when it rejoins.
  bool joined(net::NodeId n) const {
    return n >= 0 && static_cast<std::size_t>(n) < joined_.size() &&
           joined_[static_cast<std::size_t>(n)];
  }

  /// Members that speak on `z`'s session channel in steady state: the
  /// joined members whose smallest zone is `z`, plus one ZCR per child
  /// zone (paper §5's bounded per-zone state). Sizes the session
  /// manager's per-level peer tables.
  std::size_t session_peer_bound(net::ZoneId z) const;

  /// All zone ids, root first (BFS order).
  const std::vector<net::ZoneId>& all_zones() const { return order_; }

  /// Bytes this object retains: its per-zone table, the zone order, the
  /// chain table and the joined flags (memory-census probe).
  std::uint64_t memory_bytes() const;

 private:
  struct ZoneInfo {
    net::ChannelId repair = net::kNoChannel;
    net::ChannelId session = net::kNoChannel;
    /// Joined members whose smallest zone this is.
    std::size_t direct_joined = 0;
  };
  /// Slot of zone `z` in the per-zone tables: the zone id when scoped, 0
  /// for the flat pseudo-root.
  std::size_t slot(net::ZoneId z) const;
  const ZoneInfo& info(net::ZoneId z) const { return info_[slot(z)]; }

  net::Network& net_;
  bool scoping_;
  int depth_ = 1;
  net::ZoneId root_ = net::kNoZone;
  net::ChannelId data_channel_ = net::kNoChannel;
  std::vector<ZoneInfo> info_;        // by slot
  std::vector<net::ZoneId> order_;
  /// Chain of the zone in slot s at [s * depth_, s * depth_ + level + 1).
  std::vector<net::ZoneId> chains_;
  std::vector<bool> joined_;  // by node
};

}  // namespace sharq::sfq
