#pragma once

#include <cstdint>
#include <functional>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"

namespace sharq::fault {

/// Drives a FaultPlan against a live network off the simulator clock.
///
/// The injector owns only the *network* side of a fault: link state,
/// conditioner retuning, and Network::set_node_up. Protocol-level churn
/// (stopping a crashed node's agent, re-adding it on restart) belongs to
/// whoever owns the session, so node events call back through Hooks:
/// kill fires the hook FIRST (the agent must stop transmitting before the
/// network tears its links down), restart brings the network up FIRST
/// (a rejoining agent needs working links to re-subscribe).
class Injector {
 public:
  struct Hooks {
    std::function<void(net::NodeId)> kill{};     ///< before set_node_up(false)
    std::function<void(net::NodeId)> restart{};  ///< after set_node_up(true)
    /// Late join: the session owner adds `node` as a receiver (flash-crowd
    /// events fan out to one call per node, staggered by the spacing).
    std::function<void(net::NodeId)> join{};
    /// Synthetic NACK burst: `node` emits `count` scoped NACKs, `spacing`
    /// seconds apart (overload pressure, not a real deficit).
    std::function<void(net::NodeId, int count, sim::Time spacing)> nack_storm{};
  };

  Injector(net::Network& net, Hooks hooks)
      : net_(net), hooks_(std::move(hooks)) {}

  /// Schedule every event of `plan` at its absolute simulator time, as
  /// a Network::at_global op: fault events mutate global state (link
  /// flags, routing, conditioners, membership), so a sharded run executes
  /// them at a window barrier.
  /// Events naming a nonexistent link/node are counted in
  /// `skipped_events()` and otherwise ignored — a randomized plan must
  /// not abort the whole soak over one unroutable statement.
  void schedule(const FaultPlan& plan);

  std::uint64_t applied_events() const { return applied_; }
  std::uint64_t skipped_events() const { return skipped_; }

 private:
  void apply(const FaultEvent& e);
  /// Apply `fn` to the simplex link from->to (counts a skip if absent).
  void on_link(net::NodeId from, net::NodeId to,
               const std::function<void(net::LinkId)>& fn);

  net::Network& net_;
  Hooks hooks_;
  std::uint64_t applied_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace sharq::fault
