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
    // BFS so parents are registered before children.
    std::deque<net::ZoneId> todo{root_};
    while (!todo.empty()) {
      const net::ZoneId z = todo.front();
      todo.pop_front();
      ZoneInfo zi;
      zi.parent = zones.parent(z);
      zi.level = zones.level(z);
      zi.repair = net_.create_channel(z);
      zi.session = net_.create_channel(z);
      by_channel_[zi.repair] = z;
      by_channel_[zi.session] = z;
      depth_ = std::max(depth_, zi.level + 1);
      info_.emplace(z, std::move(zi));
      order_.push_back(z);
      for (net::ZoneId c : zones.children(z)) todo.push_back(c);
    }
  } else {
    // Flat pseudo-hierarchy: one root zone over everyone, channels
    // unscoped. We use a synthetic zone id that cannot collide with the
    // network's (negative ids other than kNoZone are never allocated).
    root_ = -2;
    ZoneInfo zi;
    zi.parent = net::kNoZone;
    zi.level = 0;
    zi.repair = net_.create_channel(net::kNoZone);
    zi.session = net_.create_channel(net::kNoZone);
    by_channel_[zi.repair] = root_;
    by_channel_[zi.session] = root_;
    info_.emplace(root_, std::move(zi));
    order_.push_back(root_);
  }
}

net::ChannelId Hierarchy::repair_channel(net::ZoneId z) const {
  return info_.at(z).repair;
}

net::ChannelId Hierarchy::session_channel(net::ZoneId z) const {
  return info_.at(z).session;
}

net::ZoneId Hierarchy::zone_of_channel(net::ChannelId ch) const {
  auto it = by_channel_.find(ch);
  return it == by_channel_.end() ? net::kNoZone : it->second;
}

const std::vector<net::ZoneId>& Hierarchy::chain(net::NodeId n) const {
  auto it = chains_.find(n);
  if (it != chains_.end()) return it->second;
  std::vector<net::ZoneId> c;
  if (!scoping_) {
    c = {root_};
  } else {
    const net::ZoneHierarchy& zones = net_.zones();
    net::ZoneId z = zones.smallest_zone(n);
    assert(z != net::kNoZone && "node not assigned to any zone");
    for (; z != net::kNoZone; z = zones.parent(z)) c.push_back(z);
  }
  return chains_.emplace(n, std::move(c)).first->second;
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
  using stats::hash_table_bytes;
  std::uint64_t bytes = stats::heap_block_bytes(sizeof(Hierarchy)) +
                        stats::vector_block_bytes(order_) +
                        hash_table_bytes(info_) + hash_table_bytes(by_channel_) +
                        hash_table_bytes(chains_);
  for (net::ZoneId z : order_) bytes += hash_table_bytes(info_.at(z).joined);
  for (const auto& [n, c] : chains_) {  // sharq-lint: unordered-iter-ok (integer byte sums commute)
    bytes += stats::vector_block_bytes(c);
  }
  return bytes;
}

void Hierarchy::join(net::NodeId n) {
  net_.subscribe(data_channel_, n);
  for (net::ZoneId z : chain(n)) {
    ZoneInfo& zi = info_.at(z);
    net_.subscribe(zi.repair, n);
    net_.subscribe(zi.session, n);
    if (zi.joined.insert(n).second && z == chain(n).front()) {
      ++zi.direct_joined;
    }
  }
}

std::size_t Hierarchy::session_peer_bound(net::ZoneId z) const {
  const std::size_t children =
      scoping_ ? net_.zones().children(z).size() : 0;
  return info_.at(z).direct_joined + children;
}

void Hierarchy::leave(net::NodeId n) {
  net_.unsubscribe(data_channel_, n);
  for (net::ZoneId z : chain(n)) {
    ZoneInfo& zi = info_.at(z);
    net_.unsubscribe(zi.repair, n);
    net_.unsubscribe(zi.session, n);
    if (zi.joined.erase(n) > 0 && z == chain(n).front()) {
      --zi.direct_joined;
    }
  }
}

}  // namespace sharq::sfq
