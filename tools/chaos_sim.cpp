// chaos_sim: randomized fault-injection soak for the SHARQFEC protocol.
//
// Runs N seeded random fault plans (partitions, loss/corruption/duplication/
// reordering windows, node kill/restart churn) against the paper's Figure 10
// topology and asserts protocol invariants after every plan:
//
//   complete  every live receiver finished every group
//   drained   no stuck timers: after stopping all agents and a grace
//             period, the event queue is empty
//   bounded   per-agent state (tracked groups, session peers) stayed
//             within its structural bound (peers: the members of the
//             agent's zones)
//   ledger    per-hop conservation: transmissions == hops + wire drops
//
// Output is one JSON object per plan plus a totals line, and is
// byte-identical for the same --seed (the acceptance bar for reproducing
// chaos failures). Exit status 0 iff every invariant held on every plan.
//
// --exhaustion layers an overload campaign on top (docs/ROBUSTNESS.md):
// finite per-node repair caps, NACK storms, flash-crowd joins,
// bandwidth/queue squeezes — and a fifth invariant:
//
//   budget    the repair-queue high water stayed at or under its cap and
//             the repair pacer never beat its minimum spacing
//
//   chaos_sim --plans 20 --seed 1
//   chaos_sim --plans 1 --seed 7 --dump-plans   # show the plan spec text
//   chaos_sim --plans 5 --seed 3 --exhaustion   # overload campaign
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/random_plan.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "stats/lane.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "stats/traffic_recorder.hpp"
#include "topo/figure10.hpp"
#include "topo/shard_plan.hpp"

using namespace sharq;

namespace {

struct Options {
  int plans = 20;
  std::uint64_t seed = 1;
  std::uint32_t groups = 20;       // 20 groups x 16 shards = 320 data packets
  double data_start = 6.0;         // after the paper's session warm-up
  double horizon = 40.0;           // faults all recover before this
  double until = 90.0;             // completion deadline
  double grace = 5.0;              // post-stop drain window
  int queue_limit = 512;           // per-link queue bound (-1 = unbounded)
  bool exhaustion = false;         // overload campaign + finite budgets
  bool dump_plans = false;
  int threads = 0;                 // 0 = serial engine; >=1 = shard runtime
  const char* profile = nullptr;   // campaign-wide sharqfec.profile.v1
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --plans N       number of random fault plans (default 20)\n"
      "  --seed S        master seed; same seed => identical output\n"
      "  --groups N      FEC groups per transfer (default 20)\n"
      "  --horizon T     all faults recover before T (default 40)\n"
      "  --until T       completion deadline per plan (default 90)\n"
      "  --grace T       post-stop drain window (default 5)\n"
      "  --queue-limit N per-link queue bound in packets, -1 = unbounded\n"
      "                  (default 512)\n"
      "  --exhaustion    overload campaign: finite per-node repair caps plus\n"
      "                  NACK storms, flash crowds, bandwidth and queue\n"
      "                  squeezes (adds the budget invariant)\n"
      "  --dump-plans    print each plan's spec text before running it\n"
      "  --threads N     run on the zone-sharded runtime with N workers\n"
      "                  (output is byte-identical for every N; 0 =\n"
      "                  legacy serial engine, the default)\n"
      "  --profile FILE  write a campaign-wide sharqfec.profile.v1 (time\n"
      "                  and memory attribution summed over every plan;\n"
      "                  never part of the byte-compared stdout)\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--plans") o.plans = std::atoi(need(i));
    else if (a == "--seed") o.seed = std::strtoull(need(i), nullptr, 10);
    else if (a == "--groups") o.groups = std::strtoul(need(i), nullptr, 10);
    else if (a == "--horizon") o.horizon = std::atof(need(i));
    else if (a == "--until") o.until = std::atof(need(i));
    else if (a == "--grace") o.grace = std::atof(need(i));
    else if (a == "--queue-limit") o.queue_limit = std::atoi(need(i));
    else if (a == "--exhaustion") o.exhaustion = true;
    else if (a == "--dump-plans") o.dump_plans = true;
    else if (a == "--threads") o.threads = std::atoi(need(i));
    else if (a == "--profile") o.profile = need(i);
    else if (a.rfind("--profile=", 0) == 0) o.profile = argv[i] + 10;
    else usage(argv[0]);
  }
  return o;
}

/// Per-plan result row; every field is derived deterministically from the
/// plan seed so two runs of the same master seed print identical bytes.
struct PlanResult {
  bool complete = false;
  bool drained = false;
  bool bounded = false;
  bool ledger = false;
  std::size_t stuck_events = 0;
  std::uint64_t applied = 0, skipped = 0;
  std::uint64_t corrupt_rejects = 0, duplicate_rejects = 0;
  std::uint64_t malformed_rejects = 0;
  std::uint64_t peers_expired = 0, zcr_expiries = 0;
  std::size_t max_tracked_groups = 0, max_tracked_peers = 0;
  /// Most groups any one agent held live at once (its live-state pool).
  std::size_t max_live_groups = 0;
  bool live_within_tracked = true;  // per agent: live high water <= tracked
  bool peers_within_zones = true;   // per agent: see zone_peer_bound()
  std::uint64_t drops_epoch_kill = 0, drops_queue_full = 0;
  std::uint64_t events = 0;
  std::uint64_t nacks = 0, repairs = 0, preemptive = 0;
  bool budget_ok = true;  // vacuous when no repair cap is enabled
  std::uint64_t repairs_deferred = 0, repairs_coalesced = 0;
  std::string metrics_json;  // per-plan registry totals, deterministic

  bool ok() const {
    return complete && drained && bounded && ledger && budget_ok;
  }
};

PlanResult run_plan(const Options& o, std::uint64_t plan_seed,
                    const std::string& plan_name, bool dump,
                    stats::MemCensus* census) {
  // Declared before the simulator/network/agents that cache pointers into
  // it, so it is destroyed last.
  stats::Metrics metrics;
  sim::Simulator simu(plan_seed);
  net::Network net(simu);
  simu.set_metrics(&metrics);
  topo::Figure10Options topt;
  topt.queue_limit_pkts = o.queue_limit;
  const topo::Figure10 t = topo::make_figure10(net, topt);

  // Sharding decisions happen before any recorder/agent exists: agents
  // bind their shard's Simulator at construction, and sinks must be
  // per-shard so recording stays lane-private inside a window.
  std::unique_ptr<sim::ShardRuntime> rt;
  if (o.threads > 0) {
    net::ShardMap map = topo::make_zone_shard_map(net, stats::kMaxLanes);
    if (map.nshards > 1) {
      rt = std::make_unique<sim::ShardRuntime>(simu, map.nshards,
                                               map.lookahead, plan_seed,
                                               o.threads);
      net.enable_sharding(*rt, std::move(map));
      rt->set_metrics(&metrics);
    }
  }
  const int nshards = net.shard_map().nshards;
  std::vector<std::unique_ptr<stats::TrafficRecorder>> recs;
  for (int s = 0; s < nshards; ++s) {
    recs.push_back(std::make_unique<stats::TrafficRecorder>(net.node_count()));
    net.set_shard_sink(s, recs.back().get());
  }
  sfq::Config cfg;
  cfg.metrics = &metrics;
  // Chaos tuning: a tighter backoff cap keeps post-heal recovery latency
  // inside the completion deadline (the paper's cap of 10 gives worst-case
  // 2^10 backoff factors that outlive any reasonable soak budget).
  cfg.max_backoff_stage = 5;
  if (o.exhaustion) {
    // Finite repair caps, sized so the storms/crowds below actually trip
    // them while leaving enough headroom that transfers still complete
    // (docs/ROBUSTNESS.md rationale).
    cfg.budget.repair_queue_depth = 8;
    cfg.budget.repair_rate_per_s = 150.0;
  }

  // Exhaustion campaigns hold out one leaf per middle node as flash-crowd
  // joiners: they join mid-stream (via the fault plan) and must still
  // complete, proving overload shedding does not wedge late catch-up.
  std::vector<net::NodeId> receivers;
  std::vector<net::NodeId> joiners;
  if (o.exhaustion) {
    std::set<net::NodeId> held;
    for (std::size_t c = 0; c < t.middles.size(); ++c) {
      held.insert(t.leaves[4 * c + 3]);
    }
    for (net::NodeId n : t.receivers) {
      (held.count(n) ? joiners : receivers).push_back(n);
    }
  } else {
    receivers = t.receivers;
  }

  sfq::Session session(net, t.source, receivers, cfg);
  session.start();
  session.send_stream(o.groups, o.data_start);

  // Candidate faults: the downstream tree edges (mesh->middle, middle->leaf)
  // with their configured baseline loss, so loss windows restore the paper's
  // rates. Backbone edges stay clean — cutting source->mesh with no mesh
  // interconnect would strand a whole tree with no alternate route.
  fault::PlanShape shape;
  shape.horizon = o.horizon;
  for (std::size_t m = 0; m < t.mesh.size(); ++m) {
    for (net::NodeId mid : t.middles_of(static_cast<int>(m))) {
      shape.edges.push_back({t.mesh[m], mid, topo::kFig10MeshChildLoss,
                             topo::kFig10TreeBandwidthBps});
    }
  }
  for (std::size_t c = 0; c < t.middles.size(); ++c) {
    for (net::NodeId leaf : t.leaves_of(static_cast<int>(c))) {
      shape.edges.push_back({t.middles[c], leaf, topo::kFig10ChildLeafLoss,
                             topo::kFig10TreeBandwidthBps});
    }
  }
  // Churn victims; middles/ZCRs churn via tests. Held-out joiners are
  // excluded: killing a node before it ever joined is meaningless churn.
  for (net::NodeId n : t.leaves) {
    if (!o.exhaustion ||
        std::find(joiners.begin(), joiners.end(), n) == joiners.end()) {
      shape.killable.push_back(n);
    }
  }
  shape.partitions = 1;
  shape.degrade_windows = 3;
  shape.node_churns = 2;
  if (o.exhaustion) {
    shape.nack_storms = 3;
    shape.bw_squeezes = 2;
    shape.queue_squeezes = 2;
    shape.flash_crowds = 1;
    shape.baseline_queue_pkts = o.queue_limit;
    shape.joinable = joiners;
    shape.stormers = shape.killable;  // in-session leaves
  }

  sim::Rng plan_rng(plan_seed ^ 0xc4a05fau);
  const fault::FaultPlan plan =
      fault::make_random_plan(plan_rng, shape, plan_name);
  if (dump) std::fputs(plan.to_spec().c_str(), stdout);

  auto member = [&](net::NodeId n) -> sfq::Agent* {
    for (const auto& a : session.agents()) {
      if (a->node() == n) return a.get();
    }
    return nullptr;
  };
  fault::Injector inject(
      net, {.kill = [&](net::NodeId n) { session.remove_receiver(n); },
            .restart = [&](net::NodeId n) { session.add_receiver(n); },
            .join =
                [&](net::NodeId n) {
                  if (net.node_up(n) && !member(n)) session.add_receiver(n);
                },
            .nack_storm =
                [&](net::NodeId n, int count, sim::Time spacing) {
                  if (sfq::Agent* a = member(n)) {
                    a->transfer().nack_storm(count, spacing);
                  }
                }});
  inject.schedule(plan);
  net.run_until(o.until);

  PlanResult r;
  r.complete = session.all_complete(o.groups);
  // Budget invariants: the repair-queue high water stayed at or under its
  // cap, and the repair pacer kept its minimum spacing.
  const sfq::ResourceBudget& bud = cfg.budget;
  // Session state needs no cap: every key in an agent's level-l RTT table
  // is a node heard on zone chain[l]'s session channel, which only that
  // zone's members join, and every key in its level-l bridge table is one
  // the bridge ZCR heard there. So the RTT table holds at most the zone's
  // other members and the bridge table at most all of them. Elections can
  // hand any member a ZCR role (and a ZCR speaks one level up), and expiry
  // only removes entries, so neither can break the bound; it holds for
  // agents killed mid-election too.
  auto zone_peer_bound = [&](const sfq::Agent& a) {
    std::size_t n = 0;
    for (net::ZoneId z : a.session().chain()) {
      n += 2 * net.zones().members(z).size() - 1;
    }
    return n;
  };
  auto tally = [&](const sfq::Agent& a) {
    r.corrupt_rejects += a.corrupt_rejects();
    r.duplicate_rejects += a.duplicate_rejects();
    r.malformed_rejects += a.transfer().malformed_rejects();
    r.nacks += a.transfer().nacks_sent();
    r.repairs += a.transfer().repairs_sent();
    r.preemptive += a.transfer().preemptive_repairs_sent();
    r.peers_expired += a.session().peers_expired();
    r.zcr_expiries += a.session().zcr_expiries();
    r.max_tracked_groups =
        std::max(r.max_tracked_groups, a.transfer().tracked_group_count());
    r.max_live_groups =
        std::max(r.max_live_groups, a.transfer().live_group_high_water());
    if (a.transfer().live_group_high_water() >
        a.transfer().tracked_group_count()) {
      r.live_within_tracked = false;
    }
    r.max_tracked_peers =
        std::max(r.max_tracked_peers, a.session().tracked_peer_count());
    if (a.session().tracked_peer_count() > zone_peer_bound(a)) {
      r.peers_within_zones = false;
    }
    r.repairs_deferred += a.transfer().repairs_deferred();
    r.repairs_coalesced += a.transfer().repairs_coalesced();
    if (bud.repair_queue_depth > 0 &&
        a.transfer().pending_high_water() > bud.repair_queue_depth) {
      r.budget_ok = false;
    }
    if (bud.repair_rate_per_s > 0.0 &&
        a.transfer().min_repair_spacing() != sim::kTimeNever &&
        a.transfer().min_repair_spacing() <
            1.0 / bud.repair_rate_per_s - 1e-9) {
      r.budget_ok = false;
    }
  };
  for (const auto& a : session.agents()) tally(*a);
  for (const auto& a : session.retired()) tally(*a);
  // Structural bounds: an agent never tracks more groups than the transfer
  // has, never holds more of them live at once than it tracks, and never
  // more session peers than its zones have members (zone_peer_bound).
  r.bounded = r.max_tracked_groups <= o.groups && r.live_within_tracked &&
              r.peers_within_zones;

  // Stuck-timer check: once every agent stops, the queue must fully drain
  // within the grace window (in-flight packets, pacing chains, and stale
  // scheduled lambdas all fire and no-op).
  for (const auto& a : session.agents()) a->stop();
  net.run_until(o.until + o.grace);
  r.stuck_events = net.events_pending();
  r.drained = r.stuck_events == 0;

  // Per-hop conservation. A sharded run records a transmission on the
  // sender's shard and the matching hop on the receiver's, so only the
  // ledger summed across recorders balances.
  std::uint64_t tx = 0, hops = 0, d_loss = 0, d_kill = 0;
  auto sum_drops = [&recs](net::DropReason reason) {
    std::uint64_t n = 0;
    for (const auto& rp : recs) n += rp->drops(reason);
    return n;
  };
  for (const auto& rp : recs) {
    tx += rp->link_transmissions();
    hops += rp->link_hops();
  }
  d_loss = sum_drops(net::DropReason::kLoss);
  d_kill = sum_drops(net::DropReason::kEpochKill);
  r.ledger = tx == hops + d_loss + d_kill;
  r.applied = inject.applied_events();
  r.skipped = inject.skipped_events();
  r.drops_epoch_kill = d_kill;
  r.drops_queue_full = sum_drops(net::DropReason::kQueueFull);
  r.events = net.events_executed();
  net.export_metrics(metrics);
  session.export_metrics(metrics);
  std::ostringstream mos;
  metrics.write_totals_json(mos);
  r.metrics_json = mos.str();
  // Campaign-wide memory attribution: each plan's retained bytes add onto
  // the caller's census (the profile reports the campaign sum).
  if (census != nullptr) {
    session.memory_census(*census);
    net.memory_census(*census);
    const std::uint64_t evq = net.queue_memory_bytes();
    census->add("event_queue", evq, evq);
    if (stats::Profiler* prof = stats::Profiler::active()) {
      prof->set_shards(nshards);
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  sim::Rng master(o.seed);
  std::unique_ptr<stats::Profiler> prof;
  stats::MemCensus census;
  if (o.profile != nullptr) {
    prof = std::make_unique<stats::Profiler>();
    stats::Profiler::set_active(prof.get());
  }
  int failed = 0;
  for (int i = 0; i < o.plans; ++i) {
    const std::uint64_t plan_seed = master.next_u64();
    const PlanResult r =
        run_plan(o, plan_seed, "chaos-" + std::to_string(i), o.dump_plans,
                 prof ? &census : nullptr);
    if (!r.ok()) ++failed;
    std::printf(
        "{\"plan\":%d,\"seed\":%llu,\"applied\":%llu,\"skipped\":%llu,"
        "\"complete\":%s,\"drained\":%s,\"bounded\":%s,\"ledger\":%s,"
        "\"stuck_events\":%zu,"
        "\"corrupt_rejects\":%llu,\"duplicate_rejects\":%llu,"
        "\"malformed_rejects\":%llu,"
        "\"peers_expired\":%llu,\"zcr_expiries\":%llu,"
        "\"max_tracked_groups\":%zu,\"max_live_groups\":%zu,"
        "\"max_tracked_peers\":%zu,"
        "\"drops_epoch_kill\":%llu,\"drops_queue_full\":%llu,"
        "\"events\":%llu,\"nacks\":%llu,\"repairs\":%llu,"
        "\"preemptive\":%llu,\"budget_ok\":%s,"
        "\"repairs_deferred\":%llu,\"repairs_coalesced\":%llu,"
        "\"ok\":%s,\"metrics\":%s}\n",
        i, static_cast<unsigned long long>(plan_seed),
        static_cast<unsigned long long>(r.applied),
        static_cast<unsigned long long>(r.skipped),
        r.complete ? "true" : "false", r.drained ? "true" : "false",
        r.bounded ? "true" : "false", r.ledger ? "true" : "false",
        r.stuck_events, static_cast<unsigned long long>(r.corrupt_rejects),
        static_cast<unsigned long long>(r.duplicate_rejects),
        static_cast<unsigned long long>(r.malformed_rejects),
        static_cast<unsigned long long>(r.peers_expired),
        static_cast<unsigned long long>(r.zcr_expiries), r.max_tracked_groups,
        r.max_live_groups, r.max_tracked_peers,
        static_cast<unsigned long long>(r.drops_epoch_kill),
        static_cast<unsigned long long>(r.drops_queue_full),
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.nacks),
        static_cast<unsigned long long>(r.repairs),
        static_cast<unsigned long long>(r.preemptive),
        r.budget_ok ? "true" : "false",
        static_cast<unsigned long long>(r.repairs_deferred),
        static_cast<unsigned long long>(r.repairs_coalesced),
        r.ok() ? "true" : "false", r.metrics_json.c_str());
  }
  std::printf("{\"plans\":%d,\"failed\":%d,\"ok\":%s}\n", o.plans, failed,
              failed == 0 ? "true" : "false");
  if (prof) {
    prof->set_memory(census);
    prof->set_env("tool", "chaos_sim");
    prof->set_env("plans", std::to_string(o.plans));
    prof->set_env("threads", std::to_string(o.threads));
    stats::Profiler::set_active(nullptr);
    prof->write_file(o.profile);
  }
  return failed == 0 ? 0 : 1;
}
