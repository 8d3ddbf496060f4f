// Overload-robustness tests: the per-node repair caps and their graceful
// degradation policies (docs/ROBUSTNESS.md). The contract under test is
// that each cap is deterministic — high waters never exceed it — and that
// shedding degrades recovery without ever breaking delivery: transfers
// still complete, duplicates still reject exactly once, and same-seed runs
// stay byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sharqfec/transfer.hpp"
#include "sim/simulator.hpp"
#include "stats/journal.hpp"
#include "stats/journal_reader.hpp"
#include "stats/metrics.hpp"
#include "topo/shapes.hpp"

namespace sharq::sfq {
namespace {

// ---------------------------------------------------------------------------
// The transfer engine's repair-rate pacer.

TEST(RepairPacer, EnforcesMinimumSpacing) {
  sim::Simulator simu(1);
  RepairPacer pacer(/*rate_per_s=*/100.0);  // min spacing 10 ms

  EXPECT_TRUE(pacer.due(simu.now()));
  EXPECT_DOUBLE_EQ(pacer.wait(simu.now()), 0.0);
  pacer.note_sent(simu.now());  // t = 0
  EXPECT_FALSE(pacer.due(simu.now()));
  EXPECT_NEAR(pacer.wait(simu.now()), 0.010, 1e-12);
  // Only one send so far: the spacing probe is still unset.
  EXPECT_EQ(pacer.min_spacing(), sim::kTimeNever);

  bool sent_at_10ms = false;
  simu.at(0.010, [&] {
    EXPECT_TRUE(pacer.due(simu.now()));
    pacer.note_sent(simu.now());
    sent_at_10ms = true;
  }, "test.budget");
  simu.at(0.012, [&] {
    // 2 ms after a send: paced out again.
    EXPECT_FALSE(pacer.due(simu.now()));
    EXPECT_NEAR(pacer.wait(simu.now()), 0.008, 1e-12);
  }, "test.budget");
  simu.run_until(1.0);
  EXPECT_TRUE(sent_at_10ms);
  EXPECT_NEAR(pacer.min_spacing(), 0.010, 1e-12);
}

// ---------------------------------------------------------------------------
// End-to-end fixtures: a small lossy/duplicating tree with budgets on.

struct TreeFixture {
  sim::Simulator simu;
  net::Network net;
  topo::BalancedTree tree;
  std::vector<net::NodeId> receivers;

  explicit TreeFixture(std::uint64_t seed, double loss, int depth = 2,
                       int fanout = 3)
      : simu(seed), net(simu) {
    net::LinkConfig link;
    link.loss_rate = loss;
    tree = topo::make_balanced_tree(net, depth, fanout, link);
    receivers.assign(tree.all.begin() + 1, tree.all.end());
    auto& z = net.zones();
    const net::ZoneId root = z.add_root();
    z.assign(tree.root, root);
    for (std::size_t i = 0; i < tree.levels[1].size(); ++i) {
      const net::ZoneId sub = z.add_zone(root);
      z.assign(tree.levels[1][i], sub);
      for (int leaf = 0; leaf < fanout; ++leaf) {
        z.assign(tree.levels[2][i * fanout + leaf], sub);
      }
    }
  }
};

/// Replays deliveries to one receiver straight into its agent. With
/// `lag` = 0 each packet comes back right after its original (inside the
/// dedup ring); otherwise once the receiver has taken `lag` fresh
/// deliveries since, so the ring has turned over and only the protocol
/// layers stand between the copy and a second delivery.
class ReplaySink final : public net::TrafficSink {
 public:
  ReplaySink(sim::Simulator& simu, net::NodeId target, std::uint64_t lag,
             std::uint64_t max_replays)
      : simu_(simu), target_(target), lag_(lag), max_replays_(max_replays) {}

  void bind(net::Agent* agent) { agent_ = agent; }
  std::uint64_t replays() const { return replays_; }

  void on_deliver(sim::Time, net::NodeId at, const net::Packet& p) override {
    if (at != target_ || replays_ + held_.size() >= max_replays_) return;
    ++seen_;
    if (p.cls == net::TrafficClass::kData ||
        p.cls == net::TrafficClass::kRepair) {
      held_.emplace_back(p, seen_);
    }
    while (!held_.empty() && seen_ - held_.front().second >= lag_) {
      const net::Packet copy = held_.front().first;
      held_.pop_front();
      ++replays_;
      // After the original's own delivery, which runs once this returns.
      simu_.after(0.0, [this, copy] { agent_->on_receive(copy); });
    }
  }

 private:
  sim::Simulator& simu_;
  net::NodeId target_;
  std::uint64_t lag_;
  std::uint64_t max_replays_;
  net::Agent* agent_ = nullptr;
  std::uint64_t seen_ = 0;  ///< deliveries to target_ so far
  std::uint64_t replays_ = 0;
  std::deque<std::pair<net::Packet, std::uint64_t>> held_;
};

Agent& agent_at(const Session& s, net::NodeId node) {
  for (const auto& a : s.agents()) {
    if (a->node() == node) return *a;
  }
  ADD_FAILURE() << "no agent on node " << node;
  return *s.agents().front();
}

/// A data or repair shard replayed after the dedup ring has turned over
/// gets past the ring, and must still not produce a second delivery: the
/// group/shard state machine is the layer that stays idempotent.
TEST(BudgetDedup, AgedOutEntriesCannotResurrectDuplicateDelivery) {
  TreeFixture f(913, /*loss=*/0.03);
  std::ostringstream jos;
  stats::Journal journal(jos);
  rm::DeliveryLog log;
  Config cfg;
  cfg.scoping = true;
  cfg.journal = &journal;
  const net::NodeId target = f.receivers.back();
  ReplaySink sink(f.simu, target, /*lag=*/Agent::kDedupRingSlots + 1,
                  /*max_replays=*/~std::uint64_t{0});
  f.net.set_sink(&sink);
  Session s(f.net, f.tree.root, f.receivers, cfg, &log);
  sink.bind(&agent_at(s, target));
  s.start();
  const std::uint32_t kGroups = 6;
  s.send_stream(kGroups, 6.0);
  f.simu.run_until(120.0);

  // Every data shard at least was replayed, and none was caught by the
  // ring: the copies all reached the protocol layers.
  EXPECT_GE(sink.replays(),
            kGroups * static_cast<std::uint32_t>(cfg.group_size));
  EXPECT_EQ(agent_at(s, target).duplicate_rejects(), 0u);
  for (net::NodeId r : f.receivers) {
    EXPECT_TRUE(log.complete(r, kGroups)) << "receiver " << r;
  }
  std::istringstream jis(jos.str());
  std::string error;
  const auto events = stats::read_journal(jis, &error);
  ASSERT_TRUE(events.has_value()) << error;
  std::map<std::int64_t, int> completions;
  for (const auto& ev : *events) {
    if (ev.ev == "group.complete" && ev.node == target) ++completions[ev.group];
  }
  ASSERT_EQ(completions.size(), kGroups);
  for (const auto& [group, count] : completions) {
    EXPECT_EQ(count, 1) << "group " << group << " delivered more than once";
  }
}

/// A copy that arrives while its uid is still in the ring is rejected
/// before any handler sees it, and counted in the accessor, the metric and
/// the journal alike.
TEST(DedupRing, InWindowDuplicateIsRejectedAndCounted) {
  TreeFixture f(913, /*loss=*/0.03);
  std::ostringstream jos;
  stats::Journal journal(jos);
  stats::Metrics metrics;
  Config cfg;
  cfg.scoping = true;
  cfg.journal = &journal;
  cfg.metrics = &metrics;
  const net::NodeId target = f.receivers.back();
  ReplaySink sink(f.simu, target, /*lag=*/0, /*max_replays=*/40);
  f.net.set_sink(&sink);
  Session s(f.net, f.tree.root, f.receivers, cfg);
  const Agent& agent = agent_at(s, target);
  sink.bind(&agent_at(s, target));
  s.start();
  s.send_stream(4, 6.0);
  f.simu.run_until(60.0);

  ASSERT_EQ(sink.replays(), 40u);
  EXPECT_EQ(agent.duplicate_rejects(), 40u);
  s.export_metrics(metrics);
  EXPECT_EQ(metrics
                .counter("sharqfec.duplicate_rejects",
                         {{"node", std::to_string(target)}})
                .value(),
            40u);
  std::istringstream jis(jos.str());
  std::string error;
  const auto events = stats::read_journal(jis, &error);
  ASSERT_TRUE(events.has_value()) << error;
  int journaled = 0;
  for (const auto& ev : *events) {
    if (ev.ev == "pkt.rejected" && ev.node == target &&
        ev.attrs.at("reason") == "duplicate") {
      ++journaled;
    }
  }
  EXPECT_EQ(journaled, 40);
}

/// For every node, how many distinct uids it was delivered between a
/// uid's first copy and each later copy: the reach an agent's ring of
/// accepted uids needs to reject that copy.
class DedupSpreadSink final : public net::TrafficSink {
 public:
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t max_spread() const { return max_spread_; }

  void on_deliver(sim::Time, net::NodeId at, const net::Packet& p) override {
    Node& n = nodes_[at];
    const auto [it, first] = n.index.try_emplace(p.uid, n.distinct);
    if (first) {
      ++n.distinct;
      return;
    }
    ++duplicates_;
    max_spread_ = std::max(max_spread_, n.distinct - it->second - 1);
  }

 private:
  struct Node {
    std::map<std::uint64_t, std::uint64_t> index;  ///< uid -> arrival rank
    std::uint64_t distinct = 0;
  };
  std::map<net::NodeId, Node> nodes_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t max_spread_ = 0;
};

/// Runs the budget tree with duplication and reorder jitter on the
/// root's links: the chaos campaign's largest draws (src/fault/
/// random_plan.cpp: 10% duplication, 20% reorder up to 50 ms). On the
/// links down to the hubs only, or up to the root as well. Returns the
/// widest spread and checks what holds either way: duplicates occurred,
/// the ring rejected every one of them, and every receiver completed.
std::uint64_t max_dedup_spread(bool uplinks_too) {
  TreeFixture f(913, /*loss=*/0.03);
  for (net::NodeId hub : f.tree.levels[1]) {
    std::vector<net::LinkId> links{f.net.find_link(f.tree.root, hub)};
    if (uplinks_too) links.push_back(f.net.find_link(hub, f.tree.root));
    for (net::LinkId l : links) {
      f.net.conditioner(l).set_duplicate(0.10, 1);
      f.net.conditioner(l).set_reorder(0.20, 0.050);
    }
  }
  DedupSpreadSink sink;
  f.net.set_sink(&sink);
  rm::DeliveryLog log;
  Config cfg;
  cfg.scoping = true;
  Session s(f.net, f.tree.root, f.receivers, cfg, &log);
  s.start();
  const std::uint32_t kGroups = 6;
  s.send_stream(kGroups, 6.0);
  f.simu.run_until(120.0);

  EXPECT_GT(sink.duplicates(), 0u);
  std::uint64_t rejected = 0;
  for (const auto& a : s.agents()) rejected += a->duplicate_rejects();
  EXPECT_EQ(rejected, sink.duplicates());
  for (net::NodeId r : f.receivers) {
    EXPECT_TRUE(log.complete(r, kGroups)) << "receiver " << r;
  }
  return sink.max_spread();
}

/// Agent::kDedupRingSlots is sized from the measured spread between a
/// packet and its duplicate. A conditioner's copies share one delivery
/// time and stay adjacent through every downstream FIFO queue, so with
/// one faulty link on each path every copy arrives within a quarter of
/// the ring of its original.
TEST(DedupRing, DuplicateSpreadStaysWithinAQuarterOfTheRing) {
  EXPECT_LT(max_dedup_spread(/*uplinks_too=*/false),
            Agent::kDedupRingSlots / 4);
}

/// With faults on the uplinks as well, a packet from one hub's subtree
/// crosses two faulty links on its way to another hub, and the second
/// link jitters each copy independently, so other packets slip between
/// them. The spread grows (8 on this seed, 11 on seed 2, against 0 and 1
/// with the downlinks alone) but stays inside the ring.
TEST(DedupRing, ChainedFaultyLinksStayInsideTheRing) {
  EXPECT_LT(max_dedup_spread(/*uplinks_too=*/true), Agent::kDedupRingSlots);
}

/// Repair-queue depth and send rate stay bounded under loss: deficits
/// beyond the cap coalesce, paced-out sends defer, and transfers still
/// complete.
TEST(BudgetRepairs, QueueDepthAndRateStayBounded) {
  TreeFixture f(308, /*loss=*/0.12);
  rm::DeliveryLog log;
  Config cfg;
  cfg.scoping = true;
  cfg.budget.repair_queue_depth = 2;
  cfg.budget.repair_rate_per_s = 80.0;
  Session s(f.net, f.tree.root, f.receivers, cfg, &log);
  s.start();
  const std::uint32_t kGroups = 10;
  s.send_stream(kGroups, 6.0);
  f.simu.run_until(180.0);

  std::uint64_t deferred = 0, coalesced = 0;
  for (const auto& a : s.agents()) {
    EXPECT_LE(a->transfer().pending_high_water(), 2) << "node " << a->node();
    const sim::Time spacing = a->transfer().min_repair_spacing();
    if (spacing != sim::kTimeNever) {
      EXPECT_GE(spacing, 1.0 / 80.0 - 1e-9) << "node " << a->node();
    }
    deferred += a->transfer().repairs_deferred();
    coalesced += a->transfer().repairs_coalesced();
  }
  EXPECT_GT(deferred + coalesced, 0u);
  for (net::NodeId r : f.receivers) {
    EXPECT_TRUE(log.complete(r, kGroups)) << "receiver " << r;
  }
}

/// Same seed, both repair caps finite, hostile wire: two runs must produce
/// byte-identical journals and metric exports. Shedding decisions are part
/// of the deterministic state machine, not a best-effort heuristic.
TEST(BudgetDeterminism, SameSeedRunsAreByteIdentical) {
  auto run = [] {
    TreeFixture f(777, /*loss=*/0.10);
    for (net::LinkId l = 0; l < f.net.link_count(); ++l) {
      f.net.conditioner(l).set_duplicate(0.5, 1);
    }
    std::ostringstream jos;
    stats::Journal journal(jos);
    stats::Metrics metrics;
    rm::DeliveryLog log;
    Config cfg;
    cfg.scoping = true;
    cfg.metrics = &metrics;
    cfg.journal = &journal;
    cfg.budget.repair_queue_depth = 2;
    cfg.budget.repair_rate_per_s = 100.0;
    Session s(f.net, f.tree.root, f.receivers, cfg, &log);
    s.start();
    s.send_stream(8, 6.0);
    f.simu.run_until(150.0);
    s.export_metrics(metrics);
    std::ostringstream mos;
    metrics.write_totals_json(mos);
    return jos.str() + "\n---\n" + mos.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"mode\":\"coalesce\""), std::string::npos)
      << "the queue cap never tripped";
  EXPECT_NE(a.find("\"mode\":\"defer\""), std::string::npos)
      << "the rate cap never tripped";
}

// ---------------------------------------------------------------------------
// Exhaustion-plan grammar.

TEST(FaultPlanGrammar, ExhaustionVerbsRoundTrip) {
  const std::string text =
      "plan exhaust\n"
      "at 1.5 nack-storm 7 16 0.005\n"
      "at 2 flash-crowd 29 33 0.01\n"
      "at 3 bandwidth 0 1 1000000\n"
      "at 4 queue-limit 1 8 4\n"
      "at 9 queue-limit 1 8 -1\n";
  std::string error;
  const auto plan = fault::FaultPlan::parse(text, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 5u);
  EXPECT_EQ(plan->events[0].kind, fault::EventKind::kNackStorm);
  EXPECT_EQ(plan->events[0].from, 7);
  EXPECT_EQ(plan->events[0].copies, 16);
  EXPECT_DOUBLE_EQ(plan->events[0].jitter, 0.005);
  EXPECT_EQ(plan->events[1].kind, fault::EventKind::kFlashCrowd);
  EXPECT_EQ(plan->events[1].from, 29);
  EXPECT_EQ(plan->events[1].to, 33);
  EXPECT_EQ(plan->events[2].kind, fault::EventKind::kBandwidth);
  EXPECT_DOUBLE_EQ(plan->events[2].rate, 1e6);
  EXPECT_EQ(plan->events[3].kind, fault::EventKind::kQueueLimit);
  EXPECT_EQ(plan->events[3].copies, 4);
  EXPECT_EQ(plan->events[4].copies, -1);  // -1 = remove the bound

  // to_spec round-trips exactly.
  const auto again = fault::FaultPlan::parse(plan->to_spec(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_spec(), plan->to_spec());
}

TEST(FaultPlanGrammar, RejectsMalformedExhaustionStatements) {
  std::string error;
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 nack-storm 7 0 0.005\n", &error));
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 nack-storm 7 4 -0.1\n", &error));
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 flash-crowd 9 5 0.01\n", &error));
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 bandwidth 0 1 0\n", &error));
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 bandwidth 0 1 -5\n", &error));
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 queue-limit 0 1 -2\n", &error));
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 nack-storm 7\n", &error));
  // The [0,1] probability check still guards the probabilistic verbs.
  EXPECT_FALSE(fault::FaultPlan::parse("at 1 loss 0 1 1.5\n", &error));
}

// ---------------------------------------------------------------------------
// Queue overflow observability: drops of *data* traffic journal too.

struct Probe final : net::MessageBase {};

/// Swallows deliveries so the queue-overflow fixture has a live endpoint.
class NullAgent final : public net::Agent {
 public:
  void on_receive(const net::Packet&) override {}
};

TEST(QueueOverflow, DataClassDropsAreJournaledAndCounted) {
  sim::Simulator simu(5);
  net::Network net(simu);
  std::ostringstream jos;
  stats::Journal journal(jos);
  net.set_journal(&journal);

  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig link;
  link.bandwidth_bps = 8e3;  // 1000 bytes -> 1 s serialization
  link.queue_limit_pkts = 2;
  net.add_duplex_link(a, b, link);
  const net::ChannelId ch = net.create_channel();
  NullAgent rx;
  net.attach(b, &rx);
  net.subscribe(ch, b);
  for (int i = 0; i < 10; ++i) {
    net.send(a, ch, net::TrafficClass::kData, 1000, std::make_shared<Probe>());
  }
  simu.run();

  stats::Metrics metrics;
  net.export_metrics(metrics);
  const double dropped =
      metrics.counter("net.drops", {{"reason", "queue-full"}}).value();
  EXPECT_GT(dropped, 0.0);
  std::istringstream jis(jos.str());
  std::string error;
  const auto events = stats::read_journal(jis, &error);
  ASSERT_TRUE(events.has_value()) << error;
  int journaled = 0;
  for (const auto& ev : *events) {
    if (ev.ev != "net.dropped") continue;
    EXPECT_EQ(ev.attrs.at("reason"), "queue-full");
    EXPECT_EQ(ev.attrs.at("class"), "data");
    ++journaled;
  }
  EXPECT_EQ(static_cast<double>(journaled), dropped);
}

}  // namespace
}  // namespace sharq::sfq
