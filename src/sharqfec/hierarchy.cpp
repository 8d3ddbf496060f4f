#include "sharqfec/hierarchy.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "stats/profiler.hpp"

namespace sharq::sfq {

Hierarchy::Hierarchy(net::Network& net, bool scoping)
    : net_(net), scoping_(scoping) {
  data_channel_ = net_.create_channel(net::kNoZone);

  if (scoping_) {
    const net::ZoneHierarchy& zones = net_.zones();
    assert(zones.root() != net::kNoZone &&
           "scoped SHARQFEC needs a zone hierarchy on the network");
    root_ = zones.root();
    info_.resize(static_cast<std::size_t>(zones.zone_count()));
    // BFS so parents are registered before children.
    std::deque<net::ZoneId> todo{root_};
    while (!todo.empty()) {
      const net::ZoneId z = todo.front();
      todo.pop_front();
      ZoneInfo& zi = info_[slot(z)];
      zi.repair = net_.create_channel(z);
      zi.session = net_.create_channel(z);
      assert(zi.repair == data_channel_ + 1 +
                              2 * static_cast<net::ChannelId>(order_.size()) &&
             zi.session == zi.repair + 1 && "channel ids are consecutive");
      depth_ = std::max(depth_, zones.level(z) + 1);
      order_.push_back(z);
      for (net::ZoneId c : zones.children(z)) todo.push_back(c);
    }
    // One fixed-stride row per zone: its chain, smallest first.
    chains_.assign(info_.size() * static_cast<std::size_t>(depth_),
                   net::kNoZone);
    for (net::ZoneId z : order_) {
      std::size_t i = slot(z) * static_cast<std::size_t>(depth_);
      for (net::ZoneId a = z; a != net::kNoZone; a = zones.parent(a)) {
        chains_[i++] = a;
      }
    }
  } else {
    // Flat pseudo-hierarchy: one root zone over everyone, channels
    // unscoped. We use a synthetic zone id that cannot collide with the
    // network's (negative ids other than kNoZone are never allocated).
    root_ = -2;
    ZoneInfo zi;
    zi.repair = net_.create_channel(net::kNoZone);
    zi.session = net_.create_channel(net::kNoZone);
    info_.push_back(zi);
    order_.push_back(root_);
    chains_.push_back(root_);
  }
}

std::size_t Hierarchy::slot(net::ZoneId z) const {
  assert((scoping_ ? z >= 0 && static_cast<std::size_t>(z) < info_.size()
                   : z == root_) &&
         "zone not in this hierarchy");
  return scoping_ ? static_cast<std::size_t>(z) : 0;
}

net::ZoneId Hierarchy::parent(net::ZoneId z) const {
  return scoping_ ? net_.zones().parent(z) : net::kNoZone;
}

int Hierarchy::level(net::ZoneId z) const {
  return scoping_ ? net_.zones().level(z) : 0;
}

net::ZoneId Hierarchy::zone_of_channel(net::ChannelId ch) const {
  // Each zone's repair and session channels follow the data channel, in
  // all_zones() order (asserted at construction).
  const auto i = static_cast<std::size_t>(ch - data_channel_ - 1) / 2;
  return ch > data_channel_ && i < order_.size() ? order_[i] : net::kNoZone;
}

std::span<const net::ZoneId> Hierarchy::chain(net::NodeId n) const {
  if (!scoping_) return {chains_.data(), 1};
  const net::ZoneId z = net_.zones().smallest_zone(n);
  assert(z != net::kNoZone && "node not assigned to any zone");
  return {chains_.data() + slot(z) * static_cast<std::size_t>(depth_),
          static_cast<std::size_t>(level(z) + 1)};
}

net::ZoneId Hierarchy::common_zone(net::NodeId a, net::NodeId b) const {
  if (!scoping_) return root_;
  return net_.zones().common_zone(a, b);
}

bool Hierarchy::zone_contains(net::ZoneId z, net::NodeId n) const {
  if (!scoping_) return z == root_;
  return net_.zones().contains(z, n);
}

std::uint64_t Hierarchy::memory_bytes() const {
  using stats::vector_block_bytes;
  // vector<bool> packs its flags into 64-bit words.
  const std::uint64_t flags =
      joined_.capacity() == 0
          ? 0
          : stats::heap_block_bytes((joined_.capacity() + 63) / 64 * 8);
  return stats::heap_block_bytes(sizeof(Hierarchy)) +
         vector_block_bytes(info_) + vector_block_bytes(order_) +
         vector_block_bytes(chains_) + flags;
}

void Hierarchy::join(net::NodeId n) {
  const std::span<const net::ZoneId> zones = chain(n);
  net_.subscribe(data_channel_, n);
  for (net::ZoneId z : zones) {
    net_.subscribe(info(z).repair, n);
    net_.subscribe(info(z).session, n);
  }
  const auto i = static_cast<std::size_t>(n);
  if (i >= joined_.size()) joined_.resize(i + 1, false);
  if (!joined_[i]) {
    joined_[i] = true;
    ++info_[slot(zones.front())].direct_joined;
  }
}

std::size_t Hierarchy::session_peer_bound(net::ZoneId z) const {
  const std::size_t children =
      scoping_ ? net_.zones().children(z).size() : 0;
  return info(z).direct_joined + children;
}

void Hierarchy::leave(net::NodeId n) {
  const std::span<const net::ZoneId> zones = chain(n);
  net_.unsubscribe(data_channel_, n);
  for (net::ZoneId z : zones) {
    net_.unsubscribe(info(z).repair, n);
    net_.unsubscribe(info(z).session, n);
  }
  if (joined(n)) {
    joined_[static_cast<std::size_t>(n)] = false;
    --info_[slot(zones.front())].direct_joined;
  }
}

}  // namespace sharq::sfq
