#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <queue>
#include <utility>

#include "sim/shard_runtime.hpp"
#include "stats/journal.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"

namespace sharq::net {

const char* to_string(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kData: return "data";
    case TrafficClass::kRepair: return "repair";
    case TrafficClass::kNack: return "nack";
    case TrafficClass::kSession: return "session";
    case TrafficClass::kControl: return "control";
  }
  return "?";
}

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueFull: return "queue-full";
    case DropReason::kLoss: return "loss";
    case DropReason::kEpochKill: return "epoch-kill";
  }
  return "?";
}

Network::Network(sim::Simulator& simu) : lanes_(1), sims_{&simu} {}

// --- sharding ---------------------------------------------------------------

Network::LaneCtx& Network::ctx() {
  return lanes_[static_cast<std::size_t>(stats::lane())];
}

int Network::lane_of(NodeId node) const {
  const int shard = shard_map_.shard(node);
  assert((!rt_ || !rt_->in_window() || shard == stats::lane()) &&
         "a node's traffic runs on its own shard's lane inside a window");
  return shard;
}

sim::Simulator& Network::ctx_sim() {
  return *sims_[static_cast<std::size_t>(stats::lane())];
}

sim::Simulator& Network::simulator_for(NodeId node) {
  return *sims_[static_cast<std::size_t>(shard_map_.shard(node))];
}

void Network::for_each_shard(const std::function<void(int)>& fn) {
  if (!rt_) {
    fn(0);
    return;
  }
  rt_->for_each_shard(fn);
  rt_->flush_journal();
}

void Network::enable_sharding(sim::ShardRuntime& rt, ShardMap map) {
  assert(static_cast<int>(map.shard_of.size()) == node_count());
  assert(map.nshards == rt.nshards());
  assert(lanes_[0].next_uid == 1 && "enable sharding before any traffic");
  rt_ = &rt;
  if (journal_) rt.set_journal(journal_);
  shard_map_ = std::move(map);
  // A shard's set-up and window work grow with its node count.
  std::vector<std::size_t> loads(static_cast<std::size_t>(shard_map_.nshards));
  for (int s : shard_map_.shard_of) ++loads[static_cast<std::size_t>(s)];
  rt.set_shard_loads(loads);
  TrafficSink* const sink = lanes_[0].sink;
  lanes_.clear();
  lanes_.resize(static_cast<std::size_t>(shard_map_.nshards));
  sims_.clear();
  for (int s = 0; s < shard_map_.nshards; ++s) {
    lanes_[static_cast<std::size_t>(s)].sink = sink;
    sims_.push_back(&rt.sim(s));
  }
}

void Network::set_sink(TrafficSink* sink) {
  for (LaneCtx& lc : lanes_) lc.sink = sink;
}

void Network::set_shard_sink(int shard, TrafficSink* sink) {
  assert(shard >= 0 && shard < shard_map_.nshards);
  lanes_[static_cast<std::size_t>(shard)].sink = sink;
}

void Network::set_journal(stats::Journal* journal) {
  journal_ = journal;
  if (rt_) rt_->set_journal(journal);
}

// --- running ----------------------------------------------------------------

void Network::run_until(sim::Time t) {
  if (rt_) {
    rt_->run_until(t);
  } else {
    sims_.front()->run_until(t);
  }
}

void Network::at_global(sim::Time t, std::function<void()> fn,
                        const char* tag) {
  if (rt_) {
    rt_->at_global(t, std::move(fn));
  } else {
    sims_.front()->at(t, std::move(fn), tag);
  }
}

std::uint64_t Network::events_executed() const {
  std::uint64_t total = 0;
  for (const sim::Simulator* s : sims_) total += s->events_executed();
  return total;
}

std::size_t Network::events_pending() const {
  std::size_t total = 0;
  for (const sim::Simulator* s : sims_) total += s->events_pending();
  return total;
}

std::size_t Network::queue_memory_bytes() const {
  std::size_t total = 0;
  for (const sim::Simulator* s : sims_) total += s->queue_memory_bytes();
  return total;
}

void Network::export_metrics(stats::Metrics& m) const {
  WireCounts total;
  for (const LaneCtx& lc : lanes_) {
    const WireCounts& w = lc.wire;
    for (int i = 0; i < kTrafficClassCount; ++i) total.sends[i] += w.sends[i];
    for (int i = 0; i < kDropReasonCount; ++i) total.drops[i] += w.drops[i];
    total.corrupted += w.corrupted;
    total.duplicated += w.duplicated;
  }
  for (int i = 0; i < kTrafficClassCount; ++i) {
    m.counter("net.sends", {{"class", to_string(static_cast<TrafficClass>(i))}})
        .inc(total.sends[i]);
  }
  for (int i = 0; i < kDropReasonCount; ++i) {
    m.counter("net.drops", {{"reason", to_string(static_cast<DropReason>(i))}})
        .inc(total.drops[i]);
  }
  m.counter("net.corrupted").inc(total.corrupted);
  m.counter("net.duplicated").inc(total.duplicated);
}

void Network::memory_census(stats::MemCensus& census) const {
  // Topology vectors are append-only after build, so live == retained.
  // Each link's random stream sits inline in its Link but is reported
  // under "rng_streams", with the agents' streams; its loss state is
  // inline too.
  const std::uint64_t rngs = links_.size() * sizeof(sim::Rng);
  census.add("rng_streams", rngs, rngs);
  using stats::vector_block_bytes;
  std::uint64_t topo = vector_block_bytes(nodes_) + vector_block_bytes(links_) +
                       vector_block_bytes(channels_) - rngs +
                       zones_.memory_bytes();
  for (const NodeRec& n : nodes_) {
    topo += vector_block_bytes(n.out_links) + vector_block_bytes(n.agents);
  }
  for (const Channel& c : channels_) topo += vector_block_bytes(c.subs);
  census.add("net_topology", topo, topo);

  // Lazily built per-lane routing/forwarding caches; they only grow (no
  // eviction), so live == retained here too.
  std::uint64_t caches = vector_block_bytes(lanes_);
  for (const LaneCtx& lc : lanes_) {
    // Neither map caches hash codes in its nodes (both hashes are
    // noexcept), so hash_table_bytes applies. The census sums integers,
    // so iteration order never shows.
    caches += stats::hash_table_bytes(lc.routing);
    for (const auto& [src, r] : lc.routing) {  // sharq-lint: unordered-iter-ok (integer byte sums commute)
      caches += vector_block_bytes(r.dist) + vector_block_bytes(r.pred_link);
    }
    caches += stats::hash_table_bytes(lc.fwd_cache);
    for (const auto& [key, rows] : lc.fwd_cache) {  // sharq-lint: unordered-iter-ok (integer byte sums commute)
      caches += stats::heap_block_bytes(rows->block_bytes());
    }
    caches += vector_block_bytes(lc.arrive_outs) +
              vector_block_bytes(lc.send_outs) +
              vector_block_bytes(lc.arrive_agents);
  }
  census.add("net_caches", caches, caches);
}

void Network::drop(LinkId link, const Packet& packet, DropReason reason) {
  LaneCtx& lc = ctx();
  ++lc.wire.drops[static_cast<int>(reason)];
  const sim::Time now = ctx_sim().now();
  // Recovery traffic always journals: a lost NACK or repair breaks a
  // causal chain the analyzer would otherwise call "stuck", so the drop
  // itself is the explanation. Data loss from the conditioner is ordinary
  // here and surfaces as loss.detected — but a queue-full drop journals
  // for every class, because overflow is an overload symptom the
  // robustness campaign must be able to narrate (docs/ROBUSTNESS.md).
  if (journal_ && (reason == DropReason::kQueueFull ||
                   packet.cls == TrafficClass::kNack ||
                   packet.cls == TrafficClass::kRepair)) {
    journal_->emit("net.dropped", now, links_[link].to, -1,
                   journal_->uid_event(packet.uid),
                   {{"class", to_string(packet.cls)},
                    {"from", links_[link].from},
                    {"reason", to_string(reason)},
                    {"to", links_[link].to}});
  }
  if (lc.sink) lc.sink->on_drop(now, link, packet, reason);
}

NodeId Network::add_node() { return add_nodes(1); }

NodeId Network::add_nodes(int count) {
  const NodeId first = static_cast<NodeId>(nodes_.size());
  nodes_.resize(nodes_.size() + static_cast<std::size_t>(count));
  invalidate_routing();
  return first;
}

void Network::reserve_links(int count) {
  links_.reserve(links_.size() + static_cast<std::size_t>(count));
}

LinkId Network::add_link(NodeId from, NodeId to, const LinkConfig& cfg) {
  assert(from >= 0 && from < node_count() && to >= 0 && to < node_count());
  assert(from != to && "self links are not allowed");
  Link l;
  l.from = from;
  l.to = to;
  l.bandwidth_bps = cfg.bandwidth_bps;
  l.delay = cfg.delay;
  l.cond.set_loss(LossModel::bernoulli(cfg.loss_rate));
  l.rng = sims_.front()->rng().fork();
  l.queue_limit_pkts = cfg.queue_limit_pkts;
  links_.push_back(std::move(l));
  const LinkId id = static_cast<LinkId>(links_.size() - 1);
  nodes_[from].out_links.push_back(id);
  invalidate_routing();
  return id;
}

std::pair<LinkId, LinkId> Network::add_duplex_link(NodeId a, NodeId b,
                                                   const LinkConfig& cfg) {
  return {add_link(a, b, cfg), add_link(b, a, cfg)};
}

void Network::set_link_bandwidth(LinkId link, double bandwidth_bps) {
  assert(link >= 0 && link < link_count());
  assert(bandwidth_bps > 0.0);
  // Takes effect at the next hand-off: packets already serializing keep
  // their computed busy window. Routing is delay-based, so no cache
  // invalidation is needed.
  links_[link].bandwidth_bps = bandwidth_bps;
}

void Network::set_link_queue_limit(LinkId link, int queue_limit_pkts) {
  assert(link >= 0 && link < link_count());
  // Already-queued packets are not evicted; a tighter limit applies to
  // subsequent hand-offs only (a squeeze narrows the door, it does not
  // throw out whoever is inside).
  links_[link].queue_limit_pkts = queue_limit_pkts;
}

LinkId Network::find_link(NodeId from, NodeId to) const {
  if (from < 0 || from >= node_count()) return kNoLink;
  for (LinkId l : nodes_[from].out_links) {
    if (links_[l].to == to) return l;
  }
  return kNoLink;
}

ChannelId Network::create_channel(ZoneId scope) {
  Channel c;
  c.scope = scope;
  channels_.push_back(std::move(c));
  return static_cast<ChannelId>(channels_.size() - 1);
}

void Network::subscribe(ChannelId ch, NodeId node) {
  assert(ch >= 0 && ch < static_cast<ChannelId>(channels_.size()));
  // Membership is shared read-only state inside a shard window; mutations
  // (joins/leaves, fault hooks) must happen at barriers or setup.
  assert(!rt_ || !rt_->in_window());
  if (insert_sorted(channels_[ch].subs, node)) ++channels_[ch].version;
}

void Network::unsubscribe(ChannelId ch, NodeId node) {
  assert(ch >= 0 && ch < static_cast<ChannelId>(channels_.size()));
  assert(!rt_ || !rt_->in_window());
  if (erase_sorted(channels_[ch].subs, node)) ++channels_[ch].version;
}

bool Network::subscribed(ChannelId ch, NodeId node) const {
  const std::vector<NodeId>& subs = channels_[ch].subs;
  return std::binary_search(subs.begin(), subs.end(), node);
}

void Network::attach(NodeId node, Agent* agent) {
  assert(node >= 0 && node < node_count());
  agent->node_ = node;
  agent->net_ = this;
  nodes_[node].agents.push_back(agent);
}

void Network::detach(NodeId node, Agent* agent) {
  auto& v = nodes_[node].agents;
  v.erase(std::remove(v.begin(), v.end(), agent), v.end());
}

void Network::invalidate_routing() {
  for (LaneCtx& lc : lanes_) {
    lc.routing.clear();
    lc.fwd_cache.clear();
  }
}

int Network::Domain::index(NodeId v) const {
  if (members.empty()) return v;
  const auto it = std::lower_bound(members.begin(), members.end(), v);
  if (it == members.end() || *it != v) return -1;
  return static_cast<int>(it - members.begin());
}

Network::Routing Network::shortest_paths(NodeId src,
                                         const Domain& dom) const {
  Routing r;
  r.dist.assign(dom.size, sim::kTimeInfinity);
  r.pred_link.assign(dom.size, kNoLink);
  // Dijkstra by propagation delay, with a tiny per-hop epsilon so equal-
  // delay paths deterministically prefer fewer hops; remaining ties pop
  // in index (= node id) order.
  constexpr sim::Time kHopEps = 1e-9;
  using Item = std::pair<sim::Time, int>;  // (dist, domain index)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  const int s = dom.index(src);
  r.dist[s] = 0.0;
  pq.emplace(0.0, s);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > r.dist[u]) continue;
    for (LinkId lid : nodes_[dom.node(u)].out_links) {
      const Link& l = links_[lid];
      if (!l.up || !nodes_[l.from].up || !nodes_[l.to].up) continue;
      const int v = dom.index(l.to);
      if (v < 0) continue;  // leaves the zone: scope boundary blocks it
      const sim::Time nd = d + l.delay + kHopEps;
      if (nd < r.dist[v]) {
        r.dist[v] = nd;
        r.pred_link[v] = lid;
        pq.emplace(nd, v);
      }
    }
  }
  return r;
}

const Network::Routing& Network::routing(NodeId src) {
  auto& cache = ctx().routing;
  auto it = cache.find(src);
  if (it == cache.end()) {
    it = cache.emplace(src, shortest_paths(src, all_nodes())).first;
  }
  return it->second;
}

std::vector<NodeId> Network::path(NodeId a, NodeId b) {
  const Routing& r = routing(a);
  if (b < 0 || b >= node_count() || r.dist[b] == sim::kTimeInfinity) return {};
  std::vector<NodeId> rev{b};
  NodeId cur = b;
  while (cur != a) {
    const LinkId pl = r.pred_link[cur];
    cur = links_[pl].from;
    rev.push_back(cur);
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

sim::Time Network::path_delay(NodeId a, NodeId b) {
  if (a == b) return 0.0;
  const Routing& r = routing(a);
  const sim::Time d = r.dist[b];
  if (d == sim::kTimeInfinity) return sim::kTimeInfinity;
  // Strip the per-hop epsilon contribution by recomputing over the path.
  sim::Time total = 0.0;
  NodeId cur = b;
  while (cur != a) {
    const LinkId pl = r.pred_link[cur];
    total += links_[pl].delay;
    cur = links_[pl].from;
  }
  return total;
}

double Network::path_loss(NodeId a, NodeId b) {
  if (a == b) return 0.0;
  const Routing& r = routing(a);
  if (r.dist[b] == sim::kTimeInfinity) return 1.0;
  double deliver = 1.0;
  NodeId cur = b;
  while (cur != a) {
    const LinkId pl = r.pred_link[cur];
    deliver *= 1.0 - links_[pl].cond.mean_drop_rate();
    cur = links_[pl].from;
  }
  return 1.0 - deliver;
}

std::vector<NodeId> Network::cached_row_nodes(int lane) const {
  std::vector<NodeId> out;
  const LaneCtx& lc = lanes_[static_cast<std::size_t>(lane)];
  for (const auto& [key, rows] : lc.fwd_cache) {  // sharq-lint: unordered-iter-ok (sorted below)
    out.insert(out.end(), rows->nodes().begin(), rows->nodes().end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Network::FwdRows::find(NodeId v) const {
  const std::span<const NodeId> rows = nodes();
  const auto it = std::lower_bound(rows.begin(), rows.end(), v);
  if (it == rows.end() || *it != v) return -1;
  return static_cast<int>(it - rows.begin());
}

/// Pack graft output — hops in insertion order (= wire order of
/// downstream copies) and delivery nodes in ascending order — into one
/// block of CSR rows, keeping only the nodes of `shard`. A serial network
/// has one shard, so it keeps every row.
Network::FwdRowsPtr Network::pack_rows(
    std::uint64_t version, int shard, Hops& hops,
    std::vector<NodeId>& deliver_nodes) const {
  const auto foreign = [&](NodeId v) { return shard_map_.shard(v) != shard; };
  std::erase_if(hops, [&](const auto& h) { return foreign(h.first); });
  std::erase_if(deliver_nodes, foreign);
  // stable_sort keeps each node's links in insertion order, which is the
  // deterministic wire order the dense layout used to provide.
  std::stable_sort(hops.begin(), hops.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeId> nodes;
  nodes.reserve(hops.size() + deliver_nodes.size());
  for (const auto& [node, link] : hops) {
    if (nodes.empty() || nodes.back() != node) nodes.push_back(node);
  }
  const auto forwarders = static_cast<std::ptrdiff_t>(nodes.size());
  nodes.insert(nodes.end(), deliver_nodes.begin(), deliver_nodes.end());
  std::inplace_merge(nodes.begin(), nodes.begin() + forwarders, nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  const auto n = static_cast<std::uint32_t>(nodes.size());
  const auto nlinks = static_cast<std::uint32_t>(hops.size());
  FwdRowsPtr rows(new (::operator new(FwdRows::block_bytes(n, nlinks)))
                      FwdRows{version, n, nlinks});
  auto* words = reinterpret_cast<std::uint32_t*>(rows.get() + 1);
  std::copy(nodes.begin(), nodes.end(), reinterpret_cast<NodeId*>(words));
  std::uint32_t* out_begin = words + n;
  auto* links = reinterpret_cast<LinkId*>(out_begin + n + 1);
  std::uint32_t hi = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    out_begin[i] = hi;
    for (; hi < nlinks && hops[hi].first == nodes[i]; ++hi) {
      links[hi] = hops[hi].second;
    }
  }
  out_begin[n] = hi;
  std::uint32_t* bits = out_begin + n + 1 + nlinks;
  std::fill_n(bits, (n + 31) / 32, 0u);
  for (NodeId d : deliver_nodes) {
    const auto i = static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), d) - nodes.begin());
    bits[i / 32] |= 1u << (i % 32);  // sharq-lint: unchecked-shift-ok (i % 32 < 32)
  }
  return rows;
}

const Network::FwdRows& Network::forwarding(int lane, ChannelId ch,
                                            NodeId origin) {
  const Channel& channel = channels_[ch];
  LaneCtx& lc = lanes_[static_cast<std::size_t>(lane)];
  FwdRowsPtr& rows = lc.fwd_cache[FwdKey{ch, origin}];
  if (rows && rows->version == channel.version) return *rows;

  Hops hops;
  std::vector<NodeId> deliver_nodes;
  build_tree(channel, origin, hops, deliver_nodes);
  rows = pack_rows(channel.version, lane, hops, deliver_nodes);
  return *rows;
}

void Network::build_tree(const Channel& channel, NodeId origin, Hops& hops,
                         std::vector<NodeId>& deliver_nodes) const {
  // A scoped channel never traverses a node outside its zone, so the tree
  // is computed over the zone's members only: cost scales with the zone,
  // not the whole network — essential because every member is an origin
  // on its session channel.
  Domain dom = all_nodes();
  if (channel.scope != kNoZone) {
    dom.members = zones_.members(channel.scope);
    dom.size = static_cast<int>(dom.members.size());
  }
  const int root = dom.index(origin);
  if (root < 0) return;  // the scope boundary blocks everything: no rows
  // Computed per build, not cached: a cache would hold O(domain) per
  // origin in every lane that carries the channel.
  const Routing r = shortest_paths(origin, dom);
  std::vector<bool> on_tree(static_cast<std::size_t>(dom.size), false);
  on_tree[root] = true;
  // Graft in ascending subscriber order (the order membership is stored
  // in): it decides the order links join the entry — i.e. the wire order
  // of downstream copies.
  for (NodeId s : channel.subs) {
    if (s == origin) continue;
    const int leaf = dom.index(s);
    if (leaf < 0 || r.dist[leaf] == sim::kTimeInfinity) continue;
    deliver_nodes.push_back(s);
    for (int cur = leaf; !on_tree[cur];) {
      on_tree[cur] = true;
      const LinkId pl = r.pred_link[cur];
      hops.emplace_back(links_[pl].from, pl);
      cur = dom.index(links_[pl].from);
    }
  }
}

std::uint64_t Network::send(NodeId origin, ChannelId ch, TrafficClass cls,
                            int size_bytes,
                            std::shared_ptr<const MessageBase> msg,
                            bool lossless) {
  assert(origin >= 0 && origin < node_count());
  assert(ch >= 0 && ch < static_cast<ChannelId>(channels_.size()));
  SHARQ_PROF_SCOPE(net_forward);
  if (!nodes_[origin].up) return 0;  // a crashed node's NIC sends nothing
  // The origin's own lane holds its rows and its uid stream — also when a
  // barrier on lane 0 sends for a node of another shard.
  const int lane = lane_of(origin);
  LaneCtx& lc = lanes_[static_cast<std::size_t>(lane)];
  // With more than one shard the origin's shard prefixes the uid, so uids
  // stay unique across the lanes' streams.
  const std::uint64_t prefix =
      shard_map_.nshards > 1 ? static_cast<std::uint64_t>(lane + 1) << 48 : 0;
  Packet p;
  p.uid = prefix | lc.next_uid++;
  p.origin = origin;
  p.channel = ch;
  p.cls = cls;
  p.size_bytes = size_bytes;
  p.lossless = lossless;
  p.msg = std::move(msg);
  // Bound-check before indexing: same forged-class hazard as
  // TraceWriter::enabled().
  const unsigned ci = static_cast<unsigned>(cls);
  if (ci < static_cast<unsigned>(kTrafficClassCount)) ++lc.wire.sends[ci];
  // Copy the origin's out-links into lane scratch (capacity retained
  // across packets, so no steady-state allocation): transmit() is
  // event-deferred and touches no forwarding state, but the rows
  // themselves live in the lane's fwd cache and a rebuild must not
  // invalidate the iteration.
  assert(!lc.in_send && "Network::send is not reentrant");
  lc.in_send = true;
  const FwdRows& fwd = forwarding(lane, ch, origin);
  lc.send_outs.clear();
  if (const int i = fwd.find(origin); i >= 0) {
    const std::span<const LinkId> outs = fwd.out(i);
    lc.send_outs.assign(outs.begin(), outs.end());
  }
  for (LinkId l : lc.send_outs) transmit(l, p);
  lc.in_send = false;
  return p.uid;
}

void Network::set_link_up(LinkId l, bool up) {
  assert(l >= 0 && l < link_count());
  // Link state is owned by one shard; administrative flips come from the
  // fault injector, which runs at barriers in sharded runs (every shard
  // clock agrees there, so ctx_sim().now() is THE time).
  assert(!rt_ || !rt_->in_window());
  Link& lk = links_[l];
  if (lk.up == up) return;
  lk.up = up;
  if (!up) {
    ++lk.epoch;  // invalidates packets currently being serialized
    lk.busy_until = ctx_sim().now();
    lk.queued = 0;
  }
  invalidate_routing();
}

void Network::set_node_up(NodeId node, bool up) {
  assert(node >= 0 && node < node_count());
  assert(!rt_ || !rt_->in_window());
  NodeRec& rec = nodes_[node];
  if (rec.up == up) return;
  rec.up = up;
  if (!up) {
    // Kill everything being serialized on an incident link, in either
    // direction — a crashed node neither finishes its own transmissions
    // nor terminates anyone else's.
    for (Link& lk : links_) {
      if (lk.from != node && lk.to != node) continue;
      ++lk.epoch;
      lk.busy_until = ctx_sim().now();
      lk.queued = 0;
    }
    // Multicast membership is soft state refreshed by the member; a dead
    // node stops refreshing, so drop it everywhere. Rejoining after a
    // restart is the protocol's responsibility.
    for (Channel& c : channels_) {
      if (erase_sorted(c.subs, node)) ++c.version;
    }
  }
  invalidate_routing();
}

void Network::deliver_after(LinkId link, const Packet& out, sim::Time arrival) {
  // The propagate event belongs to the RECEIVING node's shard: its on_hop
  // accounting lands in that shard's sink and arrive() runs in that
  // shard's lane. Same-shard (and serial) hops schedule directly;
  // mid-window cross-shard hops ride the runtime's mailbox and are merged
  // at the barrier in (arrival, source shard, sequence) order — the
  // conservative lookahead guarantees `arrival` is at or beyond the
  // current window's end, so the merge never misses.
  auto fn = [this, link, out] {
    if (TrafficSink* s = sink()) s->on_hop(ctx_sim().now(), link, out);
    arrive(links_[link].to, out);
  };
  // Two shards imply a runtime.
  const int dst_shard = shard_map_.shard(links_[link].to);
  if (dst_shard != shard_map_.shard(links_[link].from) && rt_->in_window()) {
    rt_->post(dst_shard, arrival, std::move(fn), "net.propagate");
  } else {
    sims_[static_cast<std::size_t>(dst_shard)]->at(arrival, std::move(fn),
                                                   "net.propagate");
  }
}

void Network::transmit(LinkId link, const Packet& packet) {
  Link& l = links_[link];
  const sim::Time now = ctx_sim().now();
  // Routing skips down links and every set_link_up clears the rows, so a
  // down link is never offered a packet.
  assert(l.up);
  if (l.queue_limit_pkts >= 0 && l.queued >= l.queue_limit_pkts) {
    drop(link, packet, DropReason::kQueueFull);
    return;
  }
  if (TrafficSink* s = sink()) s->on_transmit(now, link, packet);
  stats::Profiler::count(stats::ProfCounter::packets_forwarded);
  const sim::Time tx_time =
      static_cast<double>(packet.size_bytes) * 8.0 / l.bandwidth_bps;
  const sim::Time start = std::max(now, l.busy_until);
  l.busy_until = start + tx_time;
  ++l.queued;
  // The packet's fate is decided at serialization completion so stateful
  // (bursty) conditioner stages see packets in wire order. The event
  // runs on the shard owning the link's sending side — the same lane
  // executing this hand-off during a window, so link state stays
  // thread-private.
  simulator_for(l.from).at(
      start + tx_time,
      [this, packet, link, epoch = l.epoch] {
        SHARQ_PROF_SCOPE(net_forward);
        Link& lk = links_[link];
        const sim::Time snow = ctx_sim().now();
        if (!lk.up || lk.epoch != epoch) {  // link or endpoint died mid-flight
          drop(link, packet, DropReason::kEpochKill);
          return;
        }
        --lk.queued;
        const PacketFate fate = lk.cond.next(lk.rng, packet);
        if (fate.drop) {
          drop(link, packet, DropReason::kLoss);
          return;
        }
        LaneCtx& lc = ctx();
        Packet out = packet;
        if (fate.corrupt) {
          out.corrupted = true;
          ++lc.wire.corrupted;
        }
        if (fate.duplicates > 0) {
          lc.wire.duplicated += static_cast<std::uint64_t>(fate.duplicates);
        }
        // Duplicates are real wire copies, so each gets its own ledger entry;
        // jitter shifts the whole burst, letting later packets overtake it.
        for (int copy = 0; copy <= fate.duplicates; ++copy) {
          if (copy > 0 && lc.sink) lc.sink->on_transmit(snow, link, out);
          deliver_after(link, out, snow + lk.delay + fate.extra_delay);
        }
      },
      "net.serialize");
}

void Network::arrive(NodeId at, const Packet& packet) {
  SHARQ_PROF_SCOPE(net_forward);
  if (!nodes_[at].up) return;  // a crashed node terminates nothing
  // Copy what we need out of the cache entry first: agent callbacks may
  // send(), which can rebuild entries and invalidate references into the
  // cache. The copies land in lane scratch (capacity retained across
  // packets) — arrive() cannot reenter because every transmission is
  // deferred through the event queue.
  const int lane = lane_of(at);
  LaneCtx& lc = lanes_[static_cast<std::size_t>(lane)];
  assert(!lc.in_arrive && "Network::arrive is not reentrant");
  lc.in_arrive = true;
  bool deliver_here = false;
  lc.arrive_outs.clear();
  {
    const FwdRows& fwd = forwarding(lane, packet.channel, packet.origin);
    if (const int i = fwd.find(at); i >= 0) {
      deliver_here = fwd.deliver(i);
      const std::span<const LinkId> outs = fwd.out(i);
      lc.arrive_outs.assign(outs.begin(), outs.end());
    }
  }
  // Forward before delivering so downstream copies are not reordered by
  // anything an agent transmits synchronously on the same links.
  for (LinkId l : lc.arrive_outs) transmit(l, packet);
  if (deliver_here) {
    stats::Profiler::count(stats::ProfCounter::packets_delivered);
    if (TrafficSink* s = sink()) s->on_deliver(ctx_sim().now(), at, packet);
    // Copy: an agent may detach others while handling the packet.
    lc.arrive_agents.assign(nodes_[at].agents.begin(), nodes_[at].agents.end());
    for (Agent* a : lc.arrive_agents) a->on_receive(packet);
  }
  lc.in_arrive = false;
}

}  // namespace sharq::net
