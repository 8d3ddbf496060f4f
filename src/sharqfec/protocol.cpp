#include "sharqfec/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace sharq::sfq {

Session::Session(net::Network& net, net::NodeId source,
                 const std::vector<net::NodeId>& receivers, const Config& cfg,
                 rm::DeliveryLog* log)
    : net_(net),
      cfg_(std::make_shared<const Config>(cfg)),
      codec_(std::make_shared<const fec::ReedSolomon>(cfg_->group_size,
                                                      cfg_->max_parity)),
      stores_(static_cast<std::size_t>(net.shard_map().nshards)),
      log_(log) {
  hier_ = std::make_unique<Hierarchy>(net, cfg_->scoping);
  std::vector<net::NodeId> nodes{source};  // agents_[i] serves nodes[i]
  nodes.insert(nodes.end(), receivers.begin(), receivers.end());
  // Channel membership is shared: every member joins first, serially and
  // in agent order.
  for (net::NodeId n : nodes) hier_->join(n);
  // Each shard then builds its own agents, in agent order, so its RNG
  // forks come out as they would serially.
  agents_.resize(nodes.size());
  net.for_each_shard([&](int shard) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (net.shard_map().shard(nodes[i]) == shard) {
        agents_[i] = make_agent(nodes[i], /*is_source=*/i == 0);
      }
    }
  });
  // So is the metrics registry: serially, in agent order.
  for (auto& a : agents_) a->transfer().register_metrics();
}

std::unique_ptr<Agent> Session::make_agent(net::NodeId node, bool is_source) {
  return std::make_unique<Agent>(net_, *hier_, cfg_, codec_, store_for(node),
                                 node, is_source, log_);
}

void Session::start() {
  // Arming timers touches only the agent's shard: each shard arms its own
  // agents, in agent order, so its event sequence numbers match a serial
  // start.
  net_.for_each_shard([this](int shard) {
    for (auto& a : agents_) {
      if (net_.shard_map().shard(a->node()) == shard) a->start();
    }
  });
}

Agent& Session::add_receiver(net::NodeId node) {
  hier_->join(node);
  agents_.push_back(make_agent(node, /*is_source=*/false));
  Agent& a = *agents_.back();
  a.transfer().register_metrics();
  a.start();
  return a;
}

void Session::remove_receiver(net::NodeId node) {
  for (std::size_t i = 1; i < agents_.size(); ++i) {
    if (agents_[i]->node() != node) continue;
    Agent& a = *agents_[i];
    a.stop();
    net_.detach(node, &a);
    hier_->leave(node);
    retired_.push_back(std::move(agents_[i]));
    agents_.erase(agents_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

Agent& Session::agent_for(net::NodeId node) {
  for (auto& a : agents_) {
    if (a->node() == node) return *a;
  }
  throw std::out_of_range("no SHARQFEC agent for node");
}

void Session::export_metrics(stats::Metrics& m) const {
  for (const auto& a : retired_) a->export_metrics(m);
  for (const auto& a : agents_) a->export_metrics(m);
}

void Session::memory_census(stats::MemCensus& census) const {
  const fec::Matrix& gen = codec_->generator();
  const std::uint64_t shared =
      hier_->memory_bytes() + sizeof(fec::ReedSolomon) +
      static_cast<std::uint64_t>(gen.rows()) * gen.cols() *
          sizeof(fec::Matrix::Elem);
  census.add("session_shared", shared, shared);
  for (const auto& a : agents_) a->memory_census(census);
  for (const auto& a : retired_) a->memory_census(census);
  std::uint64_t stored = 0;
  std::vector<std::pair<std::uintptr_t, std::uint64_t>> buffers;
  for (const fec::ShardStore& s : stores_) {
    s.for_each_array(
        [&](const auto& array) { stored += stats::vector_block_bytes(array); });
    s.for_each_buffer([&](const fec::ShardBuffer& b) {
      buffers.emplace_back(reinterpret_cast<std::uintptr_t>(b.get()),
                           fec::buffer_bytes(b));
    });
  }
  std::sort(buffers.begin(), buffers.end());
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    if (i == 0 || buffers[i].first != buffers[i - 1].first) {
      stored += buffers[i].second;
    }
  }
  census.add("transfer_groups", stored, stored);
}

bool Session::all_complete(std::uint32_t total) const {
  for (std::size_t i = 1; i < agents_.size(); ++i) {
    for (std::uint32_t g = 0; g < total; ++g) {
      if (!agents_[i]->transfer().group_complete(g)) return false;
    }
  }
  return true;
}

}  // namespace sharq::sfq
