#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "rm/delivery_log.hpp"
#include "sharqfec/ewma.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "topo/figure10.hpp"

namespace sharq::stats {
namespace {

// --- primitive semantics -----------------------------------------------------

TEST(MetricsCounter, StartsAtZeroAndAccumulates) {
  Metrics m;
  Counter& c = m.counter("x.count");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(m.counter_total("x.count"), 42u);
}

TEST(MetricsCounter, SameNameAndLabelsReturnTheSameChild) {
  Metrics m;
  Counter& a = m.counter("x.count", {{"node", "3"}});
  Counter& b = m.counter("x.count", {{"node", "3"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(m.counter_value("x.count", {{"node", "3"}}), 1u);
  EXPECT_EQ(m.counter_value("x.count", {{"node", "4"}}), 0u);
}

TEST(MetricsGauge, SetAndSetMax) {
  Metrics m;
  Gauge& g = m.gauge("x.level");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.set_max(0.5);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("x.level", {}), 7.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("absent", {}, -1.0), -1.0);
}

TEST(MetricsHistogram, Log2BucketingAndOverflow) {
  Metrics m;
  // Bounds: 1, 2, 4.
  Histogram& h = m.histogram("x.lat", {}, /*least_bound=*/1.0,
                             /*bucket_count=*/3);
  h.observe(-1.0);  // <= 0 lands in bucket 0
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(9.0);   // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), -1.0 + 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bound(2), 4.0);
}

TEST(MetricsRegistry, TypeMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Metrics m;
  m.counter("x");
  EXPECT_DEATH(m.gauge("x"), "re-registered");
}

// --- label keys and export ordering ------------------------------------------

TEST(MetricsRegistry, LabelKeyIsInsertionOrderIndependent) {
  Metrics m;
  // Labels is an ordered map, so these two spellings are one child.
  Counter& a = m.counter("x", Labels{{"zone", "2"}, {"node", "1"}});
  Counter& b = m.counter("x", Labels{{"node", "1"}, {"zone", "2"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(m.counter_value("x", {{"node", "1"}, {"zone", "2"}}), 1u);
}

TEST(MetricsRegistry, ExportOrderIgnoresRegistrationOrder) {
  // Register families and children in reverse lexicographic order; the
  // export must come out sorted anyway.
  Metrics m;
  m.counter("zz.second", {{"node", "9"}}).inc(9);
  m.counter("zz.second", {{"node", "10"}}).inc(10);
  m.counter("aa.first").inc();
  std::ostringstream os;
  m.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"sharqfec.metrics.v1\",\"metrics\":{"
            "\"aa.first\":{\"type\":\"counter\",\"values\":{\"\":1}},"
            "\"zz.second\":{\"type\":\"counter\",\"values\":"
            "{\"node=10\":10,\"node=9\":9}}}}");
}

TEST(MetricsRegistry, GoldenJsonAllThreeTypes) {
  Metrics m;
  m.counter("a.count", {{"node", "1"}}).inc(3);
  m.counter("a.count", {{"node", "2"}}).inc();
  m.gauge("b.level").set(0.5);
  Histogram& h = m.histogram("c.lat", {}, 1.0, 2);  // bounds: 1, 2
  h.observe(0.5);
  h.observe(3.0);  // past the last bound: overflow
  std::ostringstream os;
  m.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"sharqfec.metrics.v1\",\"metrics\":{"
            "\"a.count\":{\"type\":\"counter\",\"values\":"
            "{\"node=1\":3,\"node=2\":1}},"
            "\"b.level\":{\"type\":\"gauge\",\"values\":{\"\":0.5}},"
            "\"c.lat\":{\"type\":\"histogram\",\"values\":{\"\":"
            "{\"count\":2,\"sum\":3.5,\"least_bound\":1,"
            "\"buckets\":[1,0],\"overflow\":1}}}}}");
  std::ostringstream tos;
  m.write_totals_json(tos);
  EXPECT_EQ(tos.str(),
            "{\"a.count\":4,\"b.level\":0.5,"
            "\"c.lat\":{\"count\":2,\"sum\":3.5}}");
}

TEST(MetricsRegistry, JsonEscapesLabelValues) {
  Metrics m;
  m.counter("x", {{"k", "a\"b\\c"}}).inc();
  std::ostringstream os;
  m.write_json(os);
  EXPECT_NE(os.str().find("\"k=a\\\"b\\\\c\":1"), std::string::npos)
      << os.str();
}

// --- snapshot ----------------------------------------------------------------

TEST(MetricsSnapshot, SnapshotJsonMatchesLiveJson) {
  Metrics m;
  m.counter("c").inc(3);
  m.gauge("g").set(0.25);
  std::ostringstream live, snap;
  m.write_json(live);
  Metrics::write_json(snap, m.snapshot());
  EXPECT_EQ(live.str(), snap.str());
}

// --- event-queue instrumentation ---------------------------------------------

TEST(MetricsSim, EventTagCountersAndHighWater) {
  Metrics m;
  sim::Simulator simu;
  simu.set_metrics(&m);
  simu.after(1.0, [] {}, "tick");
  const sim::EventId id = simu.after(2.0, [] {}, "tick");
  simu.after(3.0, [] {});  // no tag: counted under "untagged"
  simu.cancel(id);
  simu.run();
  EXPECT_EQ(m.counter_value("sim.events_scheduled", {{"tag", "tick"}}), 2u);
  EXPECT_EQ(m.counter_value("sim.events_cancelled", {{"tag", "tick"}}), 1u);
  EXPECT_EQ(m.counter_value("sim.events_fired", {{"tag", "tick"}}), 1u);
  EXPECT_EQ(m.counter_value("sim.events_scheduled", {{"tag", "untagged"}}),
            1u);
  EXPECT_EQ(m.counter_value("sim.events_fired", {{"tag", "untagged"}}), 1u);
  // All three events were pending at once before anything fired.
  EXPECT_DOUBLE_EQ(m.gauge_value("sim.queue_high_water", {}), 3.0);
}

// --- end-to-end on the paper's Figure 10 topology ----------------------------

struct Fig10Run {
  std::string json;
  std::uint64_t nacks = 0, suppressed = 0, repairs = 0, preemptive = 0;
  std::uint64_t repairs_by_level_sum = 0;
  std::uint64_t events_scheduled = 0, events_fired = 0, events_cancelled = 0;
  std::uint64_t executed = 0;
  std::size_t levels = 0;
  bool complete = false;
  // Live agents' chain levels with and without a zone-loss measurement,
  // and nodes whose gauge children do not match what they measured.
  std::size_t zlc_measured = 0, zlc_unmeasured = 0;
  std::vector<std::string> gauge_mismatches;
};

/// Every agent the session ever ran: retired incarnations, then live ones.
std::vector<const sfq::Agent*> every_agent(const sfq::Session& s) {
  std::vector<const sfq::Agent*> all;
  for (const auto& a : s.retired()) all.push_back(a.get());
  for (const auto& a : s.agents()) all.push_back(a.get());
  return all;
}

/// A churned node's registry children against its two incarnations: the
/// counters sum both, the per-node gauge is the newest one's, and the
/// fleet-wide high waters are the maximum over every agent.
void expect_churned_node_exported(const Metrics& m, sfq::Session& s,
                                  net::NodeId victim) {
  ASSERT_EQ(s.retired().size(), 1u);
  const sfq::Agent& was = *s.retired().front();
  const sfq::Agent& now = s.agent_for(victim);
  ASSERT_EQ(was.node(), victim);
  // Both incarnations did real work, so a dropped one would show.
  EXPECT_GT(was.session().session_messages_sent(), 0u);
  EXPECT_GT(now.session().session_messages_sent(), 0u);

  const Labels node{{"node", std::to_string(victim)}};
  auto both = [&](auto count) { return count(was) + count(now); };
  using A = const sfq::Agent&;
  EXPECT_EQ(m.counter_value("sharqfec.nacks_sent", node),
            both([](A a) { return a.transfer().nacks_sent(); }));
  EXPECT_EQ(m.counter_value("sharqfec.nacks_suppressed", node),
            both([](A a) { return a.transfer().nacks_suppressed(); }));
  EXPECT_EQ(m.counter_value("sharqfec.nacks_deduped", node),
            both([](A a) { return a.transfer().nacks_deduped(); }));
  EXPECT_EQ(m.counter_value("sharqfec.malformed_rejects", node),
            both([](A a) { return a.transfer().malformed_rejects(); }));
  EXPECT_EQ(m.counter_value("sharqfec.duplicate_rejects", node),
            both([](A a) { return a.duplicate_rejects(); }));
  EXPECT_EQ(m.counter_value("sharqfec.corrupt_rejects", node),
            both([](A a) { return a.corrupt_rejects(); }));
  EXPECT_EQ(m.counter_value("sharqfec.rtt_samples", node),
            both([](A a) { return a.session().rtt_samples(); }));
  EXPECT_EQ(m.counter_value("sharqfec.zcr_challenges", node),
            both([](A a) { return a.session().challenges_sent(); }));
  EXPECT_EQ(m.counter_value("sharqfec.zcr_takeovers", node),
            both([](A a) { return a.session().takeovers_sent(); }));
  EXPECT_EQ(m.counter_value("sharqfec.zcr_expiries", node),
            both([](A a) { return a.session().zcr_expiries(); }));
  EXPECT_EQ(m.counter_value("sharqfec.peers_expired", node),
            both([](A a) { return a.session().peers_expired(); }));
  std::uint64_t session_msgs = 0, repairs = 0, preemptive = 0;
  for (std::size_t l = 0; l < now.session().chain().size(); ++l) {
    const Labels scope{{"node", node.at("node")}, {"scope", std::to_string(l)}};
    const Labels level{{"level", std::to_string(l)}, {"node", node.at("node")}};
    session_msgs += m.counter_value("sharqfec.session_msgs", scope);
    repairs += m.counter_value("sharqfec.repairs_sent", level);
    preemptive += m.counter_value("sharqfec.preemptive_repairs", level);
  }
  EXPECT_EQ(session_msgs,
            both([](A a) { return a.session().session_messages_sent(); }));
  EXPECT_EQ(repairs, both([](A a) { return a.transfer().repairs_sent(); }));
  EXPECT_EQ(preemptive,
            both([](A a) { return a.transfer().preemptive_repairs_sent(); }));

  // The restarted incarnation heard the rest of the stream, so its
  // estimate is the one that stands.
  ASSERT_GE(now.transfer().arrival_ewma(), 0.0);
  EXPECT_NE(now.transfer().arrival_ewma(), was.transfer().arrival_ewma());
  EXPECT_EQ(m.gauge_value("sharqfec.arrival_ewma", node, -1.0),
            now.transfer().arrival_ewma());

  std::int32_t pending_hw = 0;
  std::size_t peer_hw = 0;
  for (const sfq::Agent* a : every_agent(s)) {
    pending_hw = std::max(pending_hw, a->transfer().pending_high_water());
    peer_hw = std::max(peer_hw, a->session().peer_table_high_water());
  }
  EXPECT_GT(peer_hw, 0u);
  EXPECT_EQ(m.gauge_value("sharqfec.pending_repair_high_water", {}, -1.0),
            static_cast<double>(pending_hw));
  EXPECT_EQ(m.gauge_value("sharqfec.peer_table_high_water", {}, -1.0),
            static_cast<double>(peer_hw));
}

/// The Figure-10 stream with a registry attached. With `churn`, one leaf is
/// killed mid-stream and restarted, and its export is checked against both
/// of its incarnations.
Fig10Run run_fig10(std::uint64_t seed, bool churn = false) {
  Fig10Run out;
  Metrics m;
  sim::Simulator simu(seed);
  net::Network net(simu);
  simu.set_metrics(&m);
  const topo::Figure10 t = topo::make_figure10(net);
  sfq::Config cfg;
  cfg.metrics = &m;
  rm::DeliveryLog log;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(16, 6.0);
  const net::NodeId victim = t.leaves_of(0).back();
  if (churn) {
    simu.run_until(7.0);  // the 16 groups go out over 6.0-8.6 s
    s.remove_receiver(victim);
    simu.run_until(7.5);
    s.add_receiver(victim);
  }
  simu.run_until(45.0);
  net.export_metrics(m);
  s.export_metrics(m);

  std::uint64_t insp_nacks = 0, insp_repairs = 0, insp_preemptive = 0;
  for (const sfq::Agent* a : every_agent(s)) {
    insp_nacks += a->transfer().nacks_sent();
    insp_repairs += a->transfer().repairs_sent();
    insp_preemptive += a->transfer().preemptive_repairs_sent();
  }
  out.nacks = m.counter_total("sharqfec.nacks_sent");
  out.suppressed = m.counter_total("sharqfec.nacks_suppressed");
  out.repairs = m.counter_total("sharqfec.repairs_sent");
  out.preemptive = m.counter_total("sharqfec.preemptive_repairs");
  out.complete = s.all_complete(16);
  out.executed = simu.events_executed();
  out.events_scheduled = m.counter_total("sim.events_scheduled");
  out.events_fired = m.counter_total("sim.events_fired");
  out.events_cancelled = m.counter_total("sim.events_cancelled");

  // The export must carry the engines' own counts: a family it drops,
  // double-counts or files under the wrong node shows here.
  EXPECT_EQ(out.nacks, insp_nacks);
  EXPECT_EQ(out.repairs, insp_repairs);
  EXPECT_EQ(out.preemptive, insp_preemptive);

  // Per-level repair counters must partition the total. Chains differ per
  // agent (the source sits in the root zone only; leaves carry the full
  // root/mesh/leaf chain), so walk each agent's own chain. Live agents
  // name each node once; a node's children cover all its incarnations.
  for (const auto& a : s.agents()) {
    const std::size_t chain = a->session().chain().size();
    out.levels = std::max(out.levels, chain);
    for (std::size_t l = 0; l < chain; ++l) {
      out.repairs_by_level_sum += m.counter_value(
          "sharqfec.repairs_sent",
          {{"level", std::to_string(l)},
           {"node", std::to_string(a->session().node())}});
    }
  }

  // A gauge child exists exactly where its engine measured something: an
  // unmeasured level (or the source's arrival gap) would otherwise export
  // a 0 that no run observed.
  constexpr double kAbsent = -1.0;
  for (const auto& a : s.agents()) {
    if (churn && a->node() == victim) continue;  // its retiree measured too
    const std::string node = std::to_string(a->node());
    const sfq::TransferEngine& e = a->transfer();
    if ((m.gauge_value("sharqfec.arrival_ewma", {{"node", node}}, kAbsent) !=
         kAbsent) != sfq::ewma_seeded(e.arrival_ewma())) {
      out.gauge_mismatches.push_back("arrival_ewma node " + node);
    }
    for (std::size_t l = 0; l < a->session().chain().size(); ++l) {
      const Labels level{{"level", std::to_string(l)}, {"node", node}};
      const bool child =
          m.gauge_value("sharqfec.zlc_pred", level, kAbsent) != kAbsent;
      ++(e.zlc_measured(l) ? out.zlc_measured : out.zlc_unmeasured);
      if (child != e.zlc_measured(l)) {
        out.gauge_mismatches.push_back("zlc_pred node " + node + " level " +
                                       std::to_string(l));
      }
    }
  }

  if (churn) expect_churned_node_exported(m, s, victim);

  std::ostringstream os;
  m.write_json(os);
  out.json = os.str();
  return out;
}

TEST(MetricsE2E, Figure10KnownCountersAndConsistency) {
  const Fig10Run r = run_fig10(7);
  EXPECT_TRUE(r.complete);
  // The lossy Figure 10 tree always provokes recovery traffic, and the
  // zone-scoped timers always suppress some of it (paper LDP rule 6).
  EXPECT_GT(r.nacks, 0u);
  EXPECT_GT(r.suppressed, 0u);
  EXPECT_GT(r.repairs, 0u);
  EXPECT_GT(r.preemptive, 0u);
  EXPECT_EQ(r.repairs_by_level_sum, r.repairs);
  EXPECT_EQ(r.levels, 3u);  // root / mesh / leaf zone chain
  // Every fired event was scheduled; cancelled ones never fire.
  EXPECT_EQ(r.events_fired, r.executed);
  EXPECT_GE(r.events_scheduled, r.events_fired + r.events_cancelled);
}

TEST(MetricsE2E, Figure10UnmeasuredGaugesHaveNoChild) {
  const Fig10Run r = run_fig10(7);
  EXPECT_TRUE(r.gauge_mismatches.empty())
      << r.gauge_mismatches.size() << " mismatches, first: "
      << r.gauge_mismatches.front();
  // Both kinds of level occur, so neither direction passes vacuously.
  EXPECT_GT(r.zlc_measured, 0u);
  EXPECT_GT(r.zlc_unmeasured, 0u);
}

TEST(MetricsE2E, Figure10ChurnedNodeExportsBothIncarnations) {
  const Fig10Run r = run_fig10(7, /*churn=*/true);
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.nacks, 0u);
  EXPECT_EQ(r.repairs_by_level_sum, r.repairs);
}

TEST(MetricsE2E, Figure10SameSeedIsByteIdentical) {
  const Fig10Run a = run_fig10(12345);
  const Fig10Run b = run_fig10(12345);
  EXPECT_EQ(a.json, b.json);
}

TEST(MetricsE2E, Figure10DifferentSeedsDiverge) {
  // Sanity for the determinism test above: the export is sensitive to the
  // run, not a constant.
  const Fig10Run a = run_fig10(1);
  const Fig10Run b = run_fig10(2);
  EXPECT_NE(a.json, b.json);
}

}  // namespace
}  // namespace sharq::stats
