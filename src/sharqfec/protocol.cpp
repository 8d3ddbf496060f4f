#include "sharqfec/protocol.hpp"

#include <stdexcept>

namespace sharq::sfq {

Session::Session(net::Network& net, net::NodeId source,
                 const std::vector<net::NodeId>& receivers, const Config& cfg,
                 rm::DeliveryLog* log)
    : net_(net),
      cfg_(std::make_shared<const Config>(cfg)),
      codec_(std::make_shared<const fec::ReedSolomon>(cfg_->group_size,
                                                      cfg_->max_parity)),
      log_(log) {
  hier_ = std::make_unique<Hierarchy>(net, cfg_->scoping);
  agents_.push_back(std::make_unique<Agent>(net, *hier_, cfg_, codec_, source,
                                            /*is_source=*/true, log));
  for (net::NodeId r : receivers) {
    agents_.push_back(std::make_unique<Agent>(net, *hier_, cfg_, codec_, r,
                                              /*is_source=*/false, log));
  }
}

void Session::start() {
  for (auto& a : agents_) a->start();
}

Agent& Session::add_receiver(net::NodeId node) {
  agents_.push_back(std::make_unique<Agent>(net_, *hier_, cfg_, codec_, node,
                                            /*is_source=*/false, log_));
  agents_.back()->start();
  return *agents_.back();
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

bool Session::all_complete(std::uint32_t total) const {
  for (std::size_t i = 1; i < agents_.size(); ++i) {
    for (std::uint32_t g = 0; g < total; ++g) {
      if (!agents_[i]->transfer().group_complete(g)) return false;
    }
  }
  return true;
}

}  // namespace sharq::sfq
