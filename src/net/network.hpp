#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/conditioner.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "net/shard_map.hpp"
#include "net/types.hpp"
#include "net/zone.hpp"
#include "sim/simulator.hpp"

namespace sharq::sim {
class ShardRuntime;
}  // namespace sharq::sim

namespace sharq::stats {
class Journal;
class Metrics;
struct MemCensus;
}  // namespace sharq::stats

namespace sharq::net {

class Network;

/// A protocol endpoint attached to a node.
///
/// Agents receive every packet delivered to their node on channels the
/// node subscribes to. A node's own sends are NOT looped back to its
/// agents (protocols track their own transmissions directly).
class Agent {
 public:
  virtual ~Agent() = default;

  /// Packet delivered to this agent's node.
  virtual void on_receive(const Packet& packet) = 0;

  NodeId node() const { return node_; }
  Network& network() const { return *net_; }

 private:
  friend class Network;
  NodeId node_ = kNoNode;
  Network* net_ = nullptr;
};

/// Why a link discarded a packet.
enum class DropReason : std::uint8_t {
  kQueueFull,  ///< FIFO cap reached at hand-off
  kLoss,       ///< the link's conditioner dropped it on the wire
  kEpochKill,  ///< link (or an endpoint node) died mid-serialization
};
inline constexpr int kDropReasonCount = 3;

/// Human-readable name for a DropReason.
const char* to_string(DropReason reason);

/// Observer for traffic accounting (implemented by the stats module).
///
/// Per-hop conservation contract: every `on_transmit` is followed, once the
/// event queue drains, by exactly one of `on_hop` (the hop completed) or
/// `on_drop` with reason kLoss / kEpochKill. Drops with reason kQueueFull
/// happen at hand-off, *instead of* `on_transmit`. The chaos soak asserts
/// this ledger balances after every plan.
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;

  /// Packet delivered to a subscribed node.
  virtual void on_deliver(sim::Time t, NodeId at, const Packet& packet) = 0;

  /// Packet handed to a link for transmission.
  virtual void on_transmit(sim::Time t, LinkId link, const Packet& packet) {
    (void)t, (void)link, (void)packet;
  }

  /// Packet completed one hop (propagation finished, about to arrive).
  virtual void on_hop(sim::Time t, LinkId link, const Packet& packet) {
    (void)t, (void)link, (void)packet;
  }

  /// Packet dropped by a link.
  virtual void on_drop(sim::Time t, LinkId link, const Packet& packet,
                       DropReason reason) {
    (void)t, (void)link, (void)packet, (void)reason;
  }
};

/// Configuration for one simplex link.
struct LinkConfig {
  double bandwidth_bps = 10e6;  ///< serialization rate
  sim::Time delay = 0.010;      ///< propagation delay, seconds
  double loss_rate = 0.0;       ///< Bernoulli drop probability
  int queue_limit_pkts = -1;    ///< FIFO cap; -1 = unbounded
};

/// The simulated network: nodes, simplex links, multicast channels with
/// administrative scoping, and source-rooted shortest-path forwarding.
///
/// Routing model: every source uses its shortest-path tree (by propagation
/// delay) toward the channel's subscribers, computed over the nodes of the
/// channel's scope zone only — packets on a scoped channel never traverse
/// a node outside the zone, which is exactly the containment administrative
/// scoping provides. An unscoped channel is the scope that holds every
/// node, so one routine builds both kinds of tree, and it answers the path
/// queries too. Trees are rebuilt lazily when membership changes.
class Network {
 public:
  explicit Network(sim::Simulator& simu);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -----------------------------------------------------------

  /// Add a node; returns its dense id.
  NodeId add_node();

  /// Add `count` nodes; returns the id of the first.
  NodeId add_nodes(int count);

  /// Make room for `count` more simplex links, so a builder that knows its
  /// size grows the link table once (add_nodes grows the node table once).
  void reserve_links(int count);

  int node_count() const { return static_cast<int>(nodes_.size()); }

  /// Add one simplex link. Routing caches are invalidated.
  LinkId add_link(NodeId from, NodeId to, const LinkConfig& cfg);

  /// Add a duplex link (two simplex links with the same config).
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b,
                                            const LinkConfig& cfg);

  /// Full fault-conditioning pipeline of a link (loss, corruption,
  /// duplication, reordering). Mutable so fault plans can retune it mid-run;
  /// `conditioner(link).set_loss(...)` replaces the loss process.
  LinkConditioner& conditioner(LinkId link) { return links_[link].cond; }
  const LinkConditioner& conditioner(LinkId link) const {
    return links_[link].cond;
  }

  /// The simplex link from `from` to `to`, or kNoLink.
  LinkId find_link(NodeId from, NodeId to) const;

  int link_count() const { return static_cast<int>(links_.size()); }

  /// Endpoints of a link.
  NodeId link_from(LinkId l) const { return links_[l].from; }
  NodeId link_to(LinkId l) const { return links_[l].to; }

  /// Mean loss rate configured on a link.
  double link_loss_rate(LinkId l) const {
    return links_[l].cond.mean_drop_rate();
  }

  /// Propagation delay configured on a link.
  sim::Time link_delay(LinkId l) const { return links_[l].delay; }

  /// Take a link down (packets in flight are lost; routing recomputes
  /// around it) or bring it back up. Models backbone failures.
  void set_link_up(LinkId l, bool up);
  bool link_up(LinkId l) const { return links_[l].up; }

  /// Retune a link's serialization rate mid-run (fault plans: slow-receiver
  /// drag). Effective from the next hand-off; in-flight packets keep their
  /// computed serialization window.
  void set_link_bandwidth(LinkId l, double bandwidth_bps);

  /// Retune a link's FIFO cap mid-run (fault plans: queue-limit squeeze);
  /// -1 = unbounded. Applies to subsequent hand-offs only.
  void set_link_queue_limit(LinkId l, int queue_limit_pkts);

  /// Crash a node (all incident links kill in-flight packets, every channel
  /// subscription is lost, sends from it become no-ops, and routing steers
  /// around it) or bring it back up. Rejoining is the protocol's job: a
  /// restarted node has no subscriptions until it re-joins its channels.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const { return nodes_[node].up; }

  // --- zones & channels ----------------------------------------------------

  ZoneHierarchy& zones() { return zones_; }
  const ZoneHierarchy& zones() const { return zones_; }

  /// Create a channel confined to `scope` (kNoZone = unscoped/global).
  ChannelId create_channel(ZoneId scope = kNoZone);

  void subscribe(ChannelId ch, NodeId node);
  void unsubscribe(ChannelId ch, NodeId node);
  bool subscribed(ChannelId ch, NodeId node) const;

  /// Current members of a channel, ascending by id. Membership is stored
  /// sorted, so callers may iterate this into timers, wire messages and
  /// reports directly (docs/DETERMINISM.md). Valid until the channel's
  /// membership next changes.
  std::span<const NodeId> subscribers(ChannelId ch) const {
    return channels_[ch].subs;
  }
  std::size_t subscriber_count(ChannelId ch) const {
    return channels_[ch].subs.size();
  }

  // --- agents ---------------------------------------------------------------

  /// Attach an agent (non-owning) to a node.
  void attach(NodeId node, Agent* agent);
  void detach(NodeId node, Agent* agent);

  // --- traffic ---------------------------------------------------------------

  /// Multicast `msg` from `origin` on `ch`. Returns the packet uid.
  /// `lossless` exempts the packet from link loss (paper §6.2 exempts
  /// session messages and NACKs).
  std::uint64_t send(NodeId origin, ChannelId ch, TrafficClass cls,
                     int size_bytes, std::shared_ptr<const MessageBase> msg,
                     bool lossless = false);

  // --- ground truth (for tests, metrics, and analytic benches) -------------

  /// One-way propagation delay along the routed path (kTimeInfinity if
  /// unreachable).
  sim::Time path_delay(NodeId a, NodeId b);

  /// Compounded mean loss along the routed path a -> b.
  double path_loss(NodeId a, NodeId b);

  /// The routed node sequence a..b (empty if unreachable).
  std::vector<NodeId> path(NodeId a, NodeId b);

  /// Nodes with forwarding rows cached in lane `lane`, ascending. Every
  /// one belongs to that lane's shard.
  std::vector<NodeId> cached_row_nodes(int lane) const;

  // --- plumbing --------------------------------------------------------------

  /// Observe every lane's traffic with `sink` (set_shard_sink overrides
  /// one shard's).
  void set_sink(TrafficSink* sink);

  /// Write the wire counts, summed over lanes: net.sends{class},
  /// net.drops{reason}, net.corrupted, net.duplicated, zeros included.
  /// Counters add, so a registry gets one export, after the run.
  void export_metrics(stats::Metrics& m) const;

  /// Contribute the network's retained bytes to the profiler's memory
  /// census: topology vectors under "net_topology", the links' random
  /// streams under "rng_streams", each lane's forwarding rows, path-query
  /// trees and packet scratch under "net_caches".
  void memory_census(stats::MemCensus& census) const;

  /// Attach the recovery-lifecycle journal: drops of recovery traffic
  /// (NACK / repair classes only — data loss is ordinary, journaled
  /// indirectly as `loss.detected`) become `net.dropped` events whose
  /// cause is the event that sent the packet. A sharded network also
  /// hands the journal to its runtime, which buffers emits by lane and
  /// flushes them at barriers; enable_sharding does the same for a
  /// journal attached before it. Pass nullptr to detach.
  void set_journal(stats::Journal* journal);

  // --- running (one path whether or not the network is sharded) -----------

  /// Run every shard to `t` (inclusive, like Simulator::run_until): in
  /// the runtime's lookahead windows when sharded, on the base simulator
  /// otherwise. Re-entrant across calls.
  void run_until(sim::Time t);

  /// Run `fn` at time `t` with the whole network to itself, before any
  /// event at `t`: a barrier op when sharded (same-time ops run in
  /// registration order), an ordinary event named `tag` (a string
  /// literal) on a one-shard network. Global state — link flags,
  /// routing, conditioners, membership — may change only here or at
  /// set-up. Call outside a window.
  void at_global(sim::Time t, std::function<void()> fn, const char* tag);

  /// Events executed and pending, summed over shards.
  std::uint64_t events_executed() const;
  std::size_t events_pending() const;

  /// Bytes retained by every shard's event queue (the profiler census's
  /// "event_queue" category).
  std::size_t queue_memory_bytes() const;

  // --- sharding (docs/ARCHITECTURE.md, "Zone-sharded parallel simulation") --

  /// Switch this network onto a shard runtime. Call after the topology is
  /// built (the map is computed from it) and before any protocol agents
  /// bind — agents must schedule into their node's shard via
  /// simulator_for(). Link events run on the shard owning the link's
  /// `from` node; a packet crossing into another shard is handed through
  /// the runtime's deterministic mailbox merge. Each shard's lane caches
  /// only its own nodes' forwarding rows, so lookups stay thread-private
  /// and the rows summed over lanes are the serial cache's.
  ///
  /// Until then the network is a one-shard network: the default map puts
  /// every node on shard 0, whose simulator is the base one.
  void enable_sharding(sim::ShardRuntime& rt, ShardMap map);

  const ShardMap& shard_map() const { return shard_map_; }

  /// The simulator that owns `node`'s events: its shard's simulator (the
  /// base simulator on a one-shard network). Agents bind their timers and
  /// RNG forks through this.
  sim::Simulator& simulator_for(NodeId node);

  /// Run `fn(s)` once per shard s — in parallel on the runtime's workers
  /// (ShardRuntime::for_each_shard), or as `fn(0)` inline on a one-shard
  /// network — then flush the journal's lane buffers as a barrier would.
  /// Set-up's phase primitive: `fn` may touch only shard s's nodes and
  /// simulator, never topology, membership or a metrics registry. Call
  /// outside a window.
  void for_each_shard(const std::function<void(int)>& fn);

  /// Per-shard traffic sink: hop/deliver callbacks fire on the shard
  /// executing the packet, so each shard needs its own recorder; ledgers
  /// balance across the set, not per recorder. A one-shard network has
  /// shard 0 only.
  void set_shard_sink(int shard, TrafficSink* sink);

  /// Drop all routing/forwarding caches (topology editing mid-run).
  void invalidate_routing();

 private:
  struct Link {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    double bandwidth_bps = 0.0;
    sim::Time delay = 0.0;
    LinkConditioner cond;
    sim::Rng rng;
    int queue_limit_pkts = -1;
    sim::Time busy_until = 0.0;
    int queued = 0;
    bool up = true;
    std::uint32_t epoch = 0;  // bumped on down; kills in-flight packets
  };
  struct NodeRec {
    std::vector<LinkId> out_links;
    std::vector<Agent*> agents;
    bool up = true;
  };
  struct Channel {
    ZoneId scope = kNoZone;
    std::vector<NodeId> subs;  // ascending
    std::uint64_t version = 0;
  };
  /// The nodes a tree may cross: a scope zone's members, ascending, or
  /// every node (`members` empty), indexed by id. Index order is id order
  /// either way, so ties between equal-distance paths break alike.
  struct Domain {
    std::span<const NodeId> members;
    int size = 0;
    /// Position of `v` in the domain, or -1 outside it.
    int index(NodeId v) const;
    NodeId node(int i) const {
      return members.empty() ? i : members[static_cast<std::size_t>(i)];
    }
  };
  /// Shortest-path tree from one source by propagation delay, by domain
  /// index.
  struct Routing {
    std::vector<sim::Time> dist;    // from src
    std::vector<LinkId> pred_link;  // into the node on the shortest path
  };
  struct FwdKey {
    ChannelId channel;
    NodeId origin;
    friend bool operator==(const FwdKey&, const FwdKey&) = default;
  };
  struct FwdKeyHash {
    // noexcept so the map's nodes do not cache the hash code.
    std::size_t operator()(const FwdKey& k) const noexcept {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.channel))
           << 32) |
          static_cast<std::uint32_t>(k.origin));
    }
  };
  /// Sparse forwarding rows for one (channel, origin) as one lane sees
  /// them: only the lane's own nodes that forward or receive appear, in
  /// CSR form. On a scoped channel every member is an origin (session
  /// beacons), so a dense per-node layout would cost O(V) per entry —
  /// O(V²) across a session. Sparse rows cost O(zone size) instead, and a
  /// lane's share of them is its own nodes', so the rows summed over lanes
  /// are the serial rows (docs/ARCHITECTURE.md).
  ///
  /// The header and its four arrays share one heap block; the arrays
  /// follow the header as 32-bit words:
  ///   NodeId        nodes[n]             sorted, binary-searched
  ///   std::uint32_t out_begin[n + 1]     offsets into links
  ///   LinkId        links[nlinks]        grouped by node, in wire order
  ///   std::uint32_t deliver[(n+31)/32]   one bit per row
  struct FwdRows {
    std::uint64_t version;  // channel version the rows were built for
    std::uint32_t n;
    std::uint32_t nlinks;

    static std::size_t block_bytes(std::size_t n, std::size_t nlinks) {
      return sizeof(FwdRows) +
             sizeof(std::uint32_t) * (2 * n + 1 + nlinks + (n + 31) / 32);
    }
    std::size_t block_bytes() const { return block_bytes(n, nlinks); }
    const std::uint32_t* words() const {
      return reinterpret_cast<const std::uint32_t*>(this + 1);
    }
    std::span<const NodeId> nodes() const {
      return {reinterpret_cast<const NodeId*>(words()), n};
    }
    /// Index of `v` among the rows, or -1 when the node takes no part.
    int find(NodeId v) const;
    /// Row `i`'s out-links, in wire order.
    std::span<const LinkId> out(int i) const {
      const std::uint32_t* out_begin = words() + n;
      const auto* links = reinterpret_cast<const LinkId*>(out_begin + n + 1);
      return {links + out_begin[i], links + out_begin[i + 1]};
    }
    bool deliver(int i) const {
      const std::uint32_t* bits = words() + 2 * n + 1 + nlinks;
      return (bits[i / 32] >> (i % 32)) & 1u;
    }
  };
  struct FwdRowsFree {
    void operator()(FwdRows* r) const { ::operator delete(r); }
  };
  using FwdRowsPtr = std::unique_ptr<FwdRows, FwdRowsFree>;

  /// Per-execution-lane working state. Serial runs use exactly lane 0; a
  /// sharded run gives every shard a lane. A lane's forwarding cache holds
  /// only the rows of its shard's nodes: `send` looks rows up in its
  /// origin's lane and `arrive` in the arrival node's lane, so inside a
  /// window every access comes from the thread executing that shard (no
  /// sharing, no locks), and a barrier, which runs alone, may touch any
  /// lane. Cache contents stay a pure function of topology state.
  ///
  /// A lane also owns the traffic it executes: its sink, its uid stream
  /// and its wire counts, which export_metrics sums.
  struct WireCounts {
    std::uint64_t sends[kTrafficClassCount] = {};
    std::uint64_t drops[kDropReasonCount] = {};
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
  };
  struct LaneCtx {
    // Ground-truth path queries' trees, only for the sources queried.
    std::unordered_map<NodeId, Routing> routing;
    std::unordered_map<FwdKey, FwdRowsPtr, FwdKeyHash> fwd_cache;
    // Per-packet scratch, reused across calls so the hot path performs no
    // heap allocation in steady state. arrive()/send() are not reentrant
    // (transmission is event-deferred); guarded by an assert in debug.
    std::vector<LinkId> arrive_outs;
    std::vector<Agent*> arrive_agents;
    std::vector<LinkId> send_outs;
    bool in_arrive = false;
    bool in_send = false;

    TrafficSink* sink = nullptr;
    /// The uid stream of the lane's origins: uid = (shard+1) << 48 |
    /// counter with more than one shard, the plain counter otherwise, so
    /// uids are unique and depend only on each shard's own send order.
    std::uint64_t next_uid = 1;
    WireCounts wire;
  };

  /// Lane of the executing thread.
  LaneCtx& ctx();
  /// Lane holding `node`'s forwarding rows: its shard's. Inside a window
  /// that is always the executing lane (asserted in debug builds).
  int lane_of(NodeId node) const;
  /// Simulator providing "now" for the executing context: the executing
  /// lane's shard simulator. At barriers every shard clock agrees, so
  /// lane 0 is always safe there.
  sim::Simulator& ctx_sim();
  /// The sink observing the executing lane.
  TrafficSink* sink() { return ctx().sink; }

  /// Every node, indexed by id: the domain of unscoped channels and path
  /// queries.
  Domain all_nodes() const { return {{}, node_count()}; }
  /// Dijkstra from `src` (a member of `dom`) over the links between
  /// members of `dom` that are up at both ends.
  Routing shortest_paths(NodeId src, const Domain& dom) const;
  /// The executing lane's cached tree from `src` over every node (path
  /// queries).
  const Routing& routing(NodeId src);
  /// Rows of (ch, origin) for the nodes of shard `lane`, built on first
  /// use and rebuilt when the channel's membership version moves.
  const FwdRows& forwarding(int lane, ChannelId ch, NodeId origin);
  using Hops = std::vector<std::pair<NodeId, LinkId>>;
  /// Graft the shortest paths from `origin` to the channel's subscribers
  /// inside its scope, appending (node, link) hops and delivery nodes.
  /// Nothing when the scope does not hold `origin`.
  void build_tree(const Channel& channel, NodeId origin, Hops& hops,
                  std::vector<NodeId>& deliver_nodes) const;
  /// Keep the hops and deliveries of `shard`'s nodes and pack them into
  /// one block.
  FwdRowsPtr pack_rows(std::uint64_t version, int shard, Hops& hops,
                       std::vector<NodeId>& deliver_nodes) const;
  void transmit(LinkId link, const Packet& packet);
  /// Schedule the propagation-complete (hop + arrive) event for `out` on
  /// the shard owning the link's receiving side, crossing shards through
  /// the runtime mailbox when mid-window.
  void deliver_after(LinkId link, const Packet& out, sim::Time arrival);
  void arrive(NodeId at, const Packet& packet);

  std::vector<NodeRec> nodes_;
  std::vector<Link> links_;
  std::vector<Channel> channels_;
  ZoneHierarchy zones_;
  /// Count a wire drop in the executing lane, journal it and tell the
  /// lane's sink.
  void drop(LinkId link, const Packet& packet, DropReason reason);

  // sharq-lint: shard-owned begin (per-shard lanes: inside a window only the owning lane touches them; the single-threaded barrier may touch any lane)
  std::vector<LaneCtx> lanes_;          // by shard
  std::vector<sim::Simulator*> sims_;   // by shard; [0] = the base one
  sim::ShardRuntime* rt_ = nullptr;     // null on a one-shard network
  ShardMap shard_map_;
  // sharq-lint: shard-owned end

  stats::Journal* journal_ = nullptr;
};

}  // namespace sharq::net
