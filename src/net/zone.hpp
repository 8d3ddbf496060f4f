#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "net/types.hpp"

namespace sharq::net {

/// Membership arrays: ascending, duplicate-free node ids. Membership
/// changes only at set-up or at barriers, and builders add ids in
/// ascending order, so an insert is almost always an append.
/// Returns true when `id` was not present.
inline bool insert_sorted(std::vector<NodeId>& ids, NodeId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) return false;
  ids.insert(it, id);
  return true;
}

/// Returns true when `id` was present.
inline bool erase_sorted(std::vector<NodeId>& ids, NodeId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return false;
  ids.erase(it);
  return true;
}

/// A hierarchy of nested administratively scoped zones.
///
/// Zones form a tree: the root zone (level 0) covers the whole session;
/// every other zone is strictly contained in its parent. Each node is
/// *assigned* to exactly one smallest zone and is implicitly a member of
/// every ancestor of that zone — matching how administrative scoping nests
/// on real networks (a host inside a site is also inside its region, etc.).
///
/// The network layer uses zone membership to confine scoped channels; the
/// SHARQFEC session layer uses the parent chain for ZCR election and
/// indirect RTT estimation.
class ZoneHierarchy {
 public:
  /// Create the root zone. Must be called exactly once, first.
  ZoneId add_root();

  /// Create a child zone of `parent`.
  ZoneId add_zone(ZoneId parent);

  /// Assign `node` to `zone` as its smallest zone. The node becomes a
  /// member of `zone` and all of its ancestors. A node may be re-assigned;
  /// old memberships are removed.
  void assign(NodeId node, ZoneId zone);

  /// True if `node` is a member of `zone` (directly or via nesting).
  bool contains(ZoneId zone, NodeId node) const {
    return zone >= 0 && zone < zone_count() &&
           is_ancestor_or_self(zone, smallest_zone(node));
  }

  /// The smallest zone `node` was assigned to (kNoZone if unassigned).
  ZoneId smallest_zone(NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < assignment_.size()
               ? assignment_[static_cast<std::size_t>(node)]
               : kNoZone;
  }

  /// Zones containing `node`, ordered smallest -> root.
  std::vector<ZoneId> chain(NodeId node) const;

  /// Smallest zone containing both nodes (kNoZone if either unassigned).
  ZoneId common_zone(NodeId a, NodeId b) const;

  /// Parent of a zone (kNoZone for the root).
  ZoneId parent(ZoneId zone) const { return zones_.at(zone).parent; }

  /// Depth below the root (root = 0).
  int level(ZoneId zone) const { return zones_.at(zone).level; }

  /// The root zone id (kNoZone until add_root()).
  ZoneId root() const { return root_; }

  /// Direct children of a zone.
  const std::vector<ZoneId>& children(ZoneId zone) const {
    return zones_.at(zone).children;
  }

  /// All members of a zone (directly assigned or nested), ascending.
  std::span<const NodeId> members(ZoneId zone) const {
    return zones_.at(zone).members;
  }

  int zone_count() const { return static_cast<int>(zones_.size()); }

  /// True when `ancestor` is `zone` itself or one of its ancestors.
  bool is_ancestor_or_self(ZoneId ancestor, ZoneId zone) const;

  /// Heap bytes of the zone table, the membership arrays and the
  /// assignment array (memory-census probe).
  std::uint64_t memory_bytes() const;

 private:
  struct Zone {
    ZoneId parent = kNoZone;
    int level = 0;
    std::vector<ZoneId> children;
    std::vector<NodeId> members;  // ascending
  };
  std::vector<Zone> zones_;
  std::vector<ZoneId> assignment_;  // by node; kNoZone when unassigned
  ZoneId root_ = kNoZone;
};

}  // namespace sharq::net
