#include "net/zone.hpp"

#include <cassert>

#include "stats/profiler.hpp"

namespace sharq::net {

std::uint64_t ZoneHierarchy::memory_bytes() const {
  using stats::vector_block_bytes;
  std::uint64_t bytes =
      vector_block_bytes(zones_) + vector_block_bytes(assignment_);
  for (const Zone& z : zones_) {
    bytes += vector_block_bytes(z.children) + vector_block_bytes(z.members);
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
  assert(node >= 0);
  assert(zone >= 0 && zone < static_cast<ZoneId>(zones_.size()));
  const auto slot = static_cast<std::size_t>(node);
  if (slot >= assignment_.size()) assignment_.resize(slot + 1, kNoZone);
  for (ZoneId z = assignment_[slot]; z != kNoZone; z = zones_[z].parent) {
    erase_sorted(zones_[z].members, node);
  }
  assignment_[slot] = zone;
  for (ZoneId z = zone; z != kNoZone; z = zones_[z].parent) {
    insert_sorted(zones_[z].members, node);
  }
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
  ZoneId zb = smallest_zone(b);
  if (za == kNoZone || zb == kNoZone) return kNoZone;
  while (zones_[za].level > zones_[zb].level) za = zones_[za].parent;
  while (zones_[zb].level > zones_[za].level) zb = zones_[zb].parent;
  while (za != zb) {
    za = zones_[za].parent;
    zb = zones_[zb].parent;
  }
  return za;
}

bool ZoneHierarchy::is_ancestor_or_self(ZoneId ancestor, ZoneId zone) const {
  for (ZoneId z = zone; z != kNoZone; z = zones_[z].parent) {
    if (z == ancestor) return true;
  }
  return false;
}

}  // namespace sharq::net
