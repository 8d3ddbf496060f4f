#include "net/zone.hpp"

#include <cassert>

#include "stats/profiler.hpp"

namespace sharq::net {

std::uint64_t ZoneHierarchy::memory_bytes() const {
  std::uint64_t bytes = stats::vector_block_bytes(zones_) +
                        stats::hash_table_bytes(assignment_);
  for (const Zone& z : zones_) {
    bytes += stats::vector_block_bytes(z.children) +
             stats::hash_table_bytes(z.members) +
             stats::hash_table_bytes(z.direct);
  }
  return bytes;
}

ZoneId ZoneHierarchy::add_root() {
  assert(root_ == kNoZone && "root zone already exists");
  root_ = static_cast<ZoneId>(zones_.size());
  zones_.push_back(Zone{});
  return root_;
}

ZoneId ZoneHierarchy::add_zone(ZoneId parent) {
  assert(parent >= 0 && parent < static_cast<ZoneId>(zones_.size()));
  const ZoneId id = static_cast<ZoneId>(zones_.size());
  Zone z;
  z.parent = parent;
  z.level = zones_[parent].level + 1;
  zones_.push_back(std::move(z));
  zones_[parent].children.push_back(id);
  return id;
}

void ZoneHierarchy::assign(NodeId node, ZoneId zone) {
  assert(zone >= 0 && zone < static_cast<ZoneId>(zones_.size()));
  auto it = assignment_.find(node);
  if (it != assignment_.end()) {
    for (ZoneId z = it->second; z != kNoZone; z = zones_[z].parent) {
      zones_[z].members.erase(node);
    }
    zones_[it->second].direct.erase(node);
  }
  assignment_[node] = zone;
  zones_[zone].direct.insert(node);
  for (ZoneId z = zone; z != kNoZone; z = zones_[z].parent) {
    zones_[z].members.insert(node);
  }
}

bool ZoneHierarchy::contains(ZoneId zone, NodeId node) const {
  if (zone < 0 || zone >= static_cast<ZoneId>(zones_.size())) return false;
  return zones_[zone].members.contains(node);
}

ZoneId ZoneHierarchy::smallest_zone(NodeId node) const {
  auto it = assignment_.find(node);
  return it == assignment_.end() ? kNoZone : it->second;
}

std::vector<ZoneId> ZoneHierarchy::chain(NodeId node) const {
  std::vector<ZoneId> out;
  for (ZoneId z = smallest_zone(node); z != kNoZone; z = zones_[z].parent) {
    out.push_back(z);
  }
  return out;
}

ZoneId ZoneHierarchy::common_zone(NodeId a, NodeId b) const {
  ZoneId za = smallest_zone(a);
  if (za == kNoZone || smallest_zone(b) == kNoZone) return kNoZone;
  for (ZoneId z = za; z != kNoZone; z = zones_[z].parent) {
    if (contains(z, b)) return z;
  }
  return kNoZone;
}

bool ZoneHierarchy::is_ancestor_or_self(ZoneId ancestor, ZoneId zone) const {
  for (ZoneId z = zone; z != kNoZone; z = zones_[z].parent) {
    if (z == ancestor) return true;
  }
  return false;
}

}  // namespace sharq::net
