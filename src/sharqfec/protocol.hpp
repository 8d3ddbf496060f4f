#pragma once

#include <memory>
#include <vector>

#include "sharqfec/agent.hpp"

namespace sharq::sfq {

/// Convenience owner of a full SHARQFEC session over a network whose zone
/// hierarchy (if scoping is on) has already been built: creates the channel
/// hierarchy, the source agent, and one receiver agent per node.
class Session {
 public:
  /// Joins every member to its channels and registers each one's metrics
  /// serially, in agent order; builds the agents themselves shard by shard
  /// through net::Network::for_each_shard (in parallel on a sharded
  /// network).
  Session(net::Network& net, net::NodeId source,
          const std::vector<net::NodeId>& receivers, const Config& cfg,
          rm::DeliveryLog* log = nullptr);

  /// Start session messaging/elections on every member, shard by shard
  /// like construction.
  void start();

  /// Late join: add (and start) a receiver while the session runs. The
  /// joiner recovers history or starts live per Config::late_join_full_
  /// history; its zone's repair channels localize any catch-up traffic.
  /// Also how a crashed receiver rejoins after Network::set_node_up(node,
  /// true): the fresh agent re-subscribes and recovers like any late
  /// joiner.
  Agent& add_receiver(net::NodeId node);

  /// Crash a receiver mid-transfer: its agent stops (no timers left
  /// pending, never transmits again), detaches from the network, and
  /// leaves every channel. The dead agent is retired, not destroyed —
  /// in-flight events may still reference it — so `agents()` and
  /// `all_complete()` immediately stop counting it. No-op for unknown
  /// nodes and for the source.
  void remove_receiver(net::NodeId node);

  /// Emit `group_count` groups from the source at `start_at`.
  void send_stream(std::uint32_t group_count, sim::Time start_at,
                   const std::vector<std::uint8_t>& payload = {}) {
    source_agent().send_stream(group_count, start_at, payload);
  }

  Hierarchy& hierarchy() { return *hier_; }
  Agent& source_agent() { return *agents_.front(); }
  Agent& agent_for(net::NodeId node);
  const std::vector<std::unique_ptr<Agent>>& agents() const { return agents_; }

  /// Agents retired by remove_receiver (stopped and detached, kept alive
  /// only so stale scheduled events fire harmlessly).
  const std::vector<std::unique_ptr<Agent>>& retired() const {
    return retired_;
  }

  /// True if every receiver completed every group in [0, total).
  bool all_complete(std::uint32_t total) const;

  /// The shard store of each execution lane (one in a serial run, one per
  /// shard on a ShardRuntime), by lane; every agent uses its node's.
  const std::vector<fec::ShardStore>& stores() const { return stores_; }

  /// Write every agent's sharqfec.* counts into `m`, retired agents first
  /// in retirement order, then the live ones: a node's counters sum over
  /// its incarnations, its per-node gauges keep the newest incarnation's
  /// measurement, and fleet-wide high waters take the maximum. Counters
  /// add, so call it once per registry, after the run
  /// (docs/OBSERVABILITY.md).
  void export_metrics(stats::Metrics& m) const;

  /// Memory census over every agent, retired ones included (their state
  /// is retained until destruction, so the resident set still pays for
  /// it), plus what the session holds once for all of them under
  /// "session_shared": the channel hierarchy and the codec. The lane
  /// stores go under "transfer_groups": their entries, and each shard
  /// buffer once by address (a buffer that crossed lanes sits in two
  /// stores). Drivers feed the result to Profiler::set_memory.
  void memory_census(stats::MemCensus& census) const;

 private:
  net::Network& net_;
  // One immutable Config and one Reed–Solomon codec aliased by every agent
  // (see Agent's constructor): per-receiver memory stays independent of
  // their size, and the codec's generator is built once per session.
  std::shared_ptr<const Config> cfg_;
  std::shared_ptr<const fec::ReedSolomon> codec_;
  // Never resized after construction (agents keep references); declared
  // before the agents, so it outlives them.
  std::vector<fec::ShardStore> stores_;
  rm::DeliveryLog* log_;
  std::unique_ptr<Hierarchy> hier_;
  std::vector<std::unique_ptr<Agent>> agents_;  // [0] = source
  std::vector<std::unique_ptr<Agent>> retired_;

  /// An agent for `node`, which has joined the hierarchy; its metrics
  /// are not registered yet.
  std::unique_ptr<Agent> make_agent(net::NodeId node, bool is_source);
  fec::ShardStore& store_for(net::NodeId node) {
    return stores_[static_cast<std::size_t>(net_.shard_map().shard(node))];
  }
};

}  // namespace sharq::sfq
