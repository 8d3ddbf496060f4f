// Journal tests: the causal flight recorder's wire format, the reader /
// analyzer library behind sharq_trace, the byte-identical same-seed
// contract on the paper's Figure 10 topology and under a chaos plan, and
// causal-chain completeness for a forced-loss recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "stats/journal.hpp"
#include "stats/journal_reader.hpp"
#include "stats/json.hpp"
#include "stats/traffic_recorder.hpp"
#include "topo/figure10.hpp"

namespace sharq::stats {
namespace {

// --- writer ------------------------------------------------------------------

TEST(Journal, GoldenLineFormat) {
  std::ostringstream os;
  Journal j(os);
  const EventId a = j.emit("group.first_arrival", 6.0, 2, 0, 0, {{"index", 3}});
  const EventId b =
      j.emit("nack.sent", 6.25, 2, 0, a, {{"level", 1}, {"llc", 2.5}});
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(j.events(), 2u);
  EXPECT_EQ(os.str(),
            "{\"id\":1,\"t\":6,\"node\":2,\"group\":0,"
            "\"ev\":\"group.first_arrival\",\"cause\":0,"
            "\"attrs\":{\"index\":3}}\n"
            "{\"id\":2,\"t\":6.25,\"node\":2,\"group\":0,"
            "\"ev\":\"nack.sent\",\"cause\":1,"
            "\"attrs\":{\"level\":1,\"llc\":2.5}}\n");
}

TEST(Journal, EscapesStringAttrs) {
  std::ostringstream os;
  Journal j(os);
  j.emit("x", 0.0, 0, -1, 0, {{"via", std::string("a\"b\nc")}});
  EXPECT_NE(os.str().find("\"via\":\"a\\\"b\\nc\""), std::string::npos)
      << os.str();
}

TEST(Journal, UidBindingResolvesCrossNodeCauses) {
  std::ostringstream os;
  Journal j(os);
  const EventId sent = j.emit("nack.sent", 1.0, 3, 7, 0);
  j.bind_uid(42, sent);
  j.bind_uid(0, sent);  // uid 0 means "send failed"; never bound
  EXPECT_EQ(j.uid_event(42), sent);
  EXPECT_EQ(j.uid_event(0), 0u);
  EXPECT_EQ(j.uid_event(99), 0u);
}

// --- reader ------------------------------------------------------------------

TEST(JournalReader, RoundTripsWriterOutput) {
  std::ostringstream os;
  Journal j(os);
  const EventId a = j.emit("group.first_arrival", 6.0, 2, 0, 0, {{"index", 3}});
  j.emit("repair.received", 6.5, 2, 0, a,
         {{"mode", "reactive"}, {"useful", 1}});
  std::istringstream is(os.str());
  std::string error;
  const auto events = read_journal(is, &error);
  ASSERT_TRUE(events.has_value()) << error;
  ASSERT_EQ(events->size(), 2u);
  const JournalEvent& first = (*events)[0];
  EXPECT_EQ(first.id, 1u);
  EXPECT_DOUBLE_EQ(first.t, 6.0);
  EXPECT_EQ(first.node, 2);
  EXPECT_EQ(first.group, 0);
  EXPECT_EQ(first.ev, "group.first_arrival");
  EXPECT_EQ(first.cause, 0u);
  EXPECT_DOUBLE_EQ(first.attr_num("index"), 3.0);
  const JournalEvent& second = (*events)[1];
  EXPECT_EQ(second.cause, 1u);
  ASSERT_NE(second.attr("mode"), nullptr);
  EXPECT_EQ(*second.attr("mode"), "reactive");
  EXPECT_DOUBLE_EQ(second.attr_num("useful"), 1.0);
  EXPECT_DOUBLE_EQ(second.attr_num("absent", -2.0), -2.0);
}

TEST(JournalReader, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(parse_journal_line("{", &error).has_value());
  EXPECT_FALSE(parse_journal_line("", &error).has_value());
  EXPECT_FALSE(parse_journal_line("{\"t\":1}", &error).has_value());  // no id
  EXPECT_FALSE(
      parse_journal_line("{\"id\":1,\"ev\":\"x\"} trailing", &error)
          .has_value());
  EXPECT_TRUE(
      parse_journal_line("{\"id\":1,\"ev\":\"x\"}", &error).has_value());
  // Unknown keys from a future writer are tolerated, not fatal.
  EXPECT_TRUE(parse_journal_line(
                  "{\"id\":1,\"ev\":\"x\",\"zone\":4,\"tag\":\"y\"}", &error)
                  .has_value());

  std::istringstream is("{\"id\":1,\"ev\":\"x\"}\nnot json\n");
  EXPECT_FALSE(read_journal(is, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Nesting: the line's object plus kMaxDepth - 1 arrays is the deepest
  // accepted; one more level, or a million, is an error, not a crash.
  auto nested = [](int arrays) {
    return "{\"id\":1,\"ev\":\"x\",\"deep\":" +
           std::string(static_cast<std::size_t>(arrays), '[') +
           std::string(static_cast<std::size_t>(arrays), ']') + "}";
  };
  EXPECT_TRUE(
      parse_journal_line(nested(json::kMaxDepth - 1), &error).has_value())
      << error;
  EXPECT_FALSE(parse_journal_line(nested(json::kMaxDepth), &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  EXPECT_FALSE(
      parse_journal_line(std::string(1000000, '['), &error).has_value());

  // A number token must read whole as one number.
  EXPECT_FALSE(parse_journal_line("{\"id\":1-2,\"ev\":\"x\"}", &error));
  EXPECT_NE(error.find("bad number"), std::string::npos) << error;

  // Unterminated strings, in a value and in a key.
  EXPECT_FALSE(parse_journal_line("{\"id\":1,\"ev\":\"x", &error));
  EXPECT_NE(error.find("unterminated"), std::string::npos) << error;
  EXPECT_FALSE(parse_journal_line("{\"id\":1,\"ev", &error));

  // \u escapes decode to UTF-8; a short or non-hex one is an error.
  const auto escaped = parse_journal_line(
      "{\"id\":1,\"ev\":\"x\",\"attrs\":{\"s\":\"\\u0041\\u0007\\u00e9\"}}",
      &error);
  ASSERT_TRUE(escaped.has_value()) << error;
  EXPECT_EQ(*escaped->attr("s"), "A\x07\xc3\xa9");
  EXPECT_FALSE(parse_journal_line(
      "{\"id\":1,\"ev\":\"x\",\"attrs\":{\"s\":\"\\u00g1\"}}", &error));
  EXPECT_FALSE(parse_journal_line("{\"id\":1,\"ev\":\"\\u00\"}", &error));

  // Ids and causes above 2^53 come from the token, not from a double.
  const auto big = parse_journal_line(
      "{\"id\":18446744073709551615,\"ev\":\"x\",\"cause\":9007199254740993}",
      &error);
  ASSERT_TRUE(big.has_value()) << error;
  EXPECT_EQ(big->id, UINT64_MAX);
  EXPECT_EQ(big->cause, 9007199254740993ULL);
}

// --- analyzer: handcrafted journals ------------------------------------------

JournalEvent make(std::uint64_t id, double t, int node, std::int64_t group,
                  std::string ev, std::uint64_t cause,
                  std::map<std::string, std::string> attrs = {}) {
  JournalEvent e;
  e.id = id;
  e.t = t;
  e.node = node;
  e.group = group;
  e.ev = std::move(ev);
  e.cause = cause;
  e.attrs = std::move(attrs);
  return e;
}

TEST(JournalAnalyzer, TimelineOrdersAndMeasuresEdges) {
  const std::vector<JournalEvent> events = {
      make(1, 1.0, 2, 0, "group.first_arrival", 0),
      make(2, 1.2, 2, 0, "loss.detected", 1),
      make(3, 1.3, 2, 5, "group.first_arrival", 0),  // other group
      make(4, 1.5, 2, 0, "nack.sent", 2),
      make(5, 1.6, 0, 0, "nack.heard", 4),  // cross-node edge
  };
  const auto rows = timeline(events, 0);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].event->id, 1u);
  EXPECT_EQ(rows[0].depth, 0);
  EXPECT_DOUBLE_EQ(rows[0].edge_latency, -1.0);
  EXPECT_EQ(rows[2].event->id, 4u);
  EXPECT_EQ(rows[2].depth, 2);
  EXPECT_NEAR(rows[2].edge_latency, 0.3, 1e-12);

  // Node filter keeps cross-node cause latency resolvable.
  const auto node0 = timeline(events, 0, 0);
  ASSERT_EQ(node0.size(), 1u);
  EXPECT_EQ(node0[0].event->id, 5u);
  EXPECT_NEAR(node0[0].edge_latency, 0.1, 1e-12);
  EXPECT_EQ(node0[0].depth, 3);
}

TEST(JournalAnalyzer, TimelineSpansEveryTrackAndFiltersByEvent) {
  const std::vector<JournalEvent> events = {
      make(1, 0.5, 3, -1, "zcr.takeover", 0),  // session track
      make(2, 1.0, 2, 0, "group.first_arrival", 0),
      make(3, 1.2, 2, 0, "nack.sent", 2),
      make(4, 1.3, 2, 5, "nack.sent", 0),
      make(5, 1.6, 4, -1, "zcr.takeover", 1),
  };
  // No group: every track, in id order.
  EXPECT_EQ(timeline(events, std::nullopt).size(), events.size());
  const auto takeovers = timeline(events, std::nullopt, -1, "zcr.takeover");
  ASSERT_EQ(takeovers.size(), 2u);
  EXPECT_EQ(takeovers[0].event->id, 1u);
  EXPECT_EQ(takeovers[1].event->id, 5u);
  EXPECT_EQ(takeovers[1].depth, 1);
  EXPECT_NEAR(takeovers[1].edge_latency, 1.1, 1e-12);
  // The name filter composes with the group and node filters.
  const auto nacks = timeline(events, 0, 2, "nack.sent");
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(nacks[0].event->id, 3u);
  EXPECT_TRUE(timeline(events, std::nullopt, -1, "no.such").empty());
}

TEST(JournalAnalyzer, BreakdownSplitsPhases) {
  const std::vector<JournalEvent> events = {
      make(1, 1.0, 2, 0, "group.first_arrival", 0),
      make(2, 1.2, 2, 0, "loss.detected", 1),
      make(3, 1.5, 2, 0, "nack.sent", 2, {{"level", "1"}}),
      make(4, 1.7, 2, 0, "repair.received", 3, {{"useful", "0"}}),
      make(5, 1.8, 2, 0, "repair.received", 3, {{"useful", "1"}}),
      make(6, 1.9, 2, 0, "group.complete", 5),
  };
  const auto spans = span_breakdowns(events);
  ASSERT_EQ(spans.size(), 1u);
  const SpanBreakdown& s = spans[0];
  EXPECT_EQ(s.node, 2);
  EXPECT_EQ(s.group, 0);
  EXPECT_EQ(s.level, 1);
  EXPECT_TRUE(s.complete);
  EXPECT_NEAR(s.detection, 0.2, 1e-12);
  EXPECT_NEAR(s.request, 0.3, 1e-12);
  EXPECT_NEAR(s.reply, 0.3, 1e-12);  // measured to the USEFUL repair
  EXPECT_NEAR(s.decode, 0.1, 1e-12);
  EXPECT_NEAR(s.total, 0.9, 1e-12);
}

TEST(JournalAnalyzer, BreakdownLossFreeSpan) {
  const auto spans = span_breakdowns({
      make(1, 1.0, 3, 4, "group.first_arrival", 0),
      make(2, 1.4, 3, 4, "group.complete", 1),
  });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].level, -1);
  EXPECT_DOUBLE_EQ(spans[0].detection, -1.0);
  EXPECT_DOUBLE_EQ(spans[0].request, -1.0);
  EXPECT_DOUBLE_EQ(spans[0].reply, -1.0);
  EXPECT_NEAR(spans[0].decode, 0.4, 1e-12);
  EXPECT_NEAR(spans[0].total, 0.4, 1e-12);
}

std::vector<Anomaly> only(const std::vector<Anomaly>& all,
                          const std::string& kind) {
  std::vector<Anomaly> out;
  for (const Anomaly& a : all) {
    if (a.kind == kind) out.push_back(a);
  }
  return out;
}

TEST(JournalAnalyzer, DetectsNackImplosion) {
  // Both fixtures leave the spans stuck (NACKs, no group.complete) —
  // only the burst must additionally read as an implosion.
  std::vector<JournalEvent> burst;
  std::vector<JournalEvent> spread;
  for (int i = 0; i < 10; ++i) {
    burst.push_back(make(static_cast<std::uint64_t>(i + 1), 2.0 + 0.01 * i,
                         i, 0, "nack.sent", 0));
    spread.push_back(make(static_cast<std::uint64_t>(i + 1), 2.0 + 1.0 * i,
                          i, 0, "nack.sent", 0));
  }
  const auto hit = only(detect_anomalies(burst), "nack-implosion");
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].group, 0);
  EXPECT_TRUE(only(detect_anomalies(spread), "nack-implosion").empty());
}

TEST(JournalAnalyzer, DetectsDuplicateRepair) {
  const auto dup = detect_anomalies({
      make(1, 1.0, 0, 3, "repair.sent", 0, {{"index", "5"}}),
      make(2, 1.2, 7, 3, "repair.sent", 0, {{"index", "5"}}),
      make(3, 1.3, 0, 3, "repair.sent", 0, {{"index", "6"}}),
  });
  ASSERT_EQ(dup.size(), 1u);
  EXPECT_EQ(dup[0].kind, "duplicate-repair");
  EXPECT_EQ(dup[0].group, 3);
  EXPECT_NE(dup[0].detail.find("index 5"), std::string::npos);
  EXPECT_TRUE(detect_anomalies({
                  make(1, 1.0, 0, 3, "repair.sent", 0, {{"index", "5"}}),
                  make(2, 1.2, 0, 3, "repair.sent", 0, {{"index", "6"}}),
              })
                  .empty());
  // Scoped repair: the same index from two *different* zones is by
  // design (nested zones cannot hear each other), not an overlap.
  EXPECT_TRUE(detect_anomalies({
                  make(1, 1.0, 0, 3, "repair.sent", 0,
                       {{"index", "5"}, {"zone", "1"}}),
                  make(2, 1.2, 7, 3, "repair.sent", 0,
                       {{"index", "5"}, {"zone", "2"}}),
              })
                  .empty());
}

TEST(JournalAnalyzer, DetectsScopeEscalationStorm) {
  std::vector<JournalEvent> three;
  for (int i = 0; i < 3; ++i) {
    three.push_back(make(static_cast<std::uint64_t>(i + 1), 1.0 + 0.5 * i, 4,
                         2, "scope.escalated", 0));
  }
  const auto storm = detect_anomalies(three);
  ASSERT_EQ(storm.size(), 1u);
  EXPECT_EQ(storm[0].kind, "scope-escalation-storm");
  EXPECT_EQ(storm[0].node, 4);
  three.pop_back();
  EXPECT_TRUE(detect_anomalies(three).empty());
}

TEST(JournalAnalyzer, DetectsStuckGroup) {
  const auto stuck = detect_anomalies({
      make(1, 1.0, 2, 0, "group.first_arrival", 0),
      make(2, 1.2, 2, 0, "loss.detected", 1),
  });
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0].kind, "stuck-group");
  EXPECT_EQ(stuck[0].node, 2);
  EXPECT_TRUE(detect_anomalies({
                  make(1, 1.0, 2, 0, "group.first_arrival", 0),
                  make(2, 1.2, 2, 0, "loss.detected", 1),
                  make(3, 1.9, 2, 0, "group.complete", 2),
              })
                  .empty());
}

TEST(JournalAnalyzer, PerfettoExportIsDeterministicAndCarriesFlows) {
  const std::vector<JournalEvent> events = {
      make(1, 1.0, 2, 0, "group.first_arrival", 0, {{"index", "3"}}),
      make(2, 1.5, 2, 0, "nack.sent", 1, {{"via", "timer"}}),
  };
  std::ostringstream a;
  std::ostringstream b;
  write_perfetto(a, events);
  write_perfetto(b, events);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(a.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.str().find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(a.str().find("\"ph\":\"f\""), std::string::npos);
  // Numeric attrs re-emit bare; string attrs re-emit quoted.
  EXPECT_NE(a.str().find("\"index\":3"), std::string::npos);
  EXPECT_NE(a.str().find("\"via\":\"timer\""), std::string::npos);
}

// --- series export -----------------------------------------------------------

TEST(TrafficSeries, WriteSeriesJsonGolden) {
  TrafficRecorder rec(2, 0.1);
  net::Packet data;
  data.cls = net::TrafficClass::kData;
  data.size_bytes = 100;
  net::Packet nack;
  nack.cls = net::TrafficClass::kNack;
  nack.size_bytes = 40;
  rec.on_deliver(0.05, 0, data);
  rec.on_deliver(0.15, 1, data);
  rec.on_deliver(0.0, 0, nack);
  std::ostringstream os;
  rec.write_series_json(os);
  EXPECT_EQ(os.str(),
            "{\"bin_width\":0.1,\"classes\":{\"control\":[],"
            "\"data\":[1,1],\"nack\":[1],\"repair\":[],\"session\":[]}}");
}

// --- end-to-end: Figure 10 ---------------------------------------------------

std::string run_fig10_journal(std::uint64_t seed) {
  std::ostringstream os;
  Journal journal(os);
  sim::Simulator simu(seed);
  net::Network net(simu);
  net.set_journal(&journal);
  const topo::Figure10 t = topo::make_figure10(net);
  sfq::Config cfg;
  cfg.journal = &journal;
  rm::DeliveryLog log;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(8, 6.0);
  simu.run_until(45.0);
  EXPECT_TRUE(s.all_complete(8));
  return os.str();
}

TEST(JournalE2E, Fig10SameSeedIsByteIdentical) {
  const std::string a = run_fig10_journal(7);
  const std::string b = run_fig10_journal(7);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Different seed, different story.
  EXPECT_NE(a, run_fig10_journal(8));
}

TEST(JournalE2E, Fig10CausalChainsAreComplete) {
  std::istringstream is(run_fig10_journal(7));
  std::string error;
  const auto parsed = read_journal(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const std::vector<JournalEvent>& events = *parsed;
  ASSERT_FALSE(events.empty());

  // The journal is append-only in causal order: ids strictly increase,
  // time never goes backwards, and every cause points at an id already
  // emitted.
  std::map<std::uint64_t, const JournalEvent*> by_id;
  std::uint64_t last_id = 0;
  double last_t = 0.0;
  for (const JournalEvent& ev : events) {
    EXPECT_GT(ev.id, last_id);
    EXPECT_GE(ev.t, last_t);
    last_id = ev.id;
    last_t = ev.t;
    if (ev.cause != 0) {
      EXPECT_TRUE(by_id.count(ev.cause))
          << "event " << ev.id << " (" << ev.ev << ") has dangling cause "
          << ev.cause;
      EXPECT_LT(ev.cause, ev.id);
    }
    by_id.emplace(ev.id, &ev);
  }

  // A lossy Figure-10 run must exercise the whole lifecycle.
  std::map<std::string, int> counts;
  for (const JournalEvent& ev : events) ++counts[ev.ev];
  for (const char* must :
       {"group.first_arrival", "loss.detected", "nack.sent", "nack.heard",
        "repair.sent", "repair.received", "group.complete"}) {
    EXPECT_GT(counts[must], 0) << must;
  }

  // Forced-loss chain completeness: at least one reactive recovery whose
  // ancestry walks repair.received -> ... -> nack.sent -> ... ->
  // loss.detected and bottoms out at the span root (group.first_arrival).
  bool found_full_chain = false;
  for (const JournalEvent& ev : events) {
    if (ev.ev != "repair.received" || found_full_chain) continue;
    std::set<std::string> ancestry;
    const JournalEvent* cur = &ev;
    int hops = 0;
    while (cur->cause != 0 && hops++ < 64) {
      const auto it = by_id.find(cur->cause);
      if (it == by_id.end()) break;
      cur = it->second;
      ancestry.insert(cur->ev);
    }
    if (cur->cause == 0 && cur->ev == "group.first_arrival" &&
        ancestry.count("nack.sent") && ancestry.count("loss.detected")) {
      found_full_chain = true;
    }
  }
  EXPECT_TRUE(found_full_chain)
      << "no repair.received traces back through nack.sent and "
         "loss.detected to its group.first_arrival root";
}

// --- end-to-end: chaos plan --------------------------------------------------

std::string run_chaos_journal(std::uint64_t seed) {
  std::ostringstream os;
  Journal journal(os);
  sim::Simulator simu(seed);
  net::Network net(simu);
  net.set_journal(&journal);

  // source -- hub -- {relay, a, b}; one zone around the hub's star.
  const net::NodeId source = net.add_node();
  const net::NodeId hub = net.add_node();
  const net::NodeId relay = net.add_node();
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig up;
  up.delay = 0.020;
  net.add_duplex_link(source, hub, up);
  net::LinkConfig down;
  down.delay = 0.010;
  for (const net::NodeId n : {relay, a, b}) net.add_duplex_link(hub, n, down);
  const net::ZoneId root = net.zones().add_root();
  const net::ZoneId zone = net.zones().add_zone(root);
  net.zones().assign(source, root);
  for (const net::NodeId n : {hub, relay, a, b}) net.zones().assign(n, zone);

  sfq::Config cfg;
  cfg.journal = &journal;
  cfg.static_zcrs[zone] = relay;
  rm::DeliveryLog log;
  sfq::Session s(net, source, {relay, a, b}, cfg, &log);
  s.start();

  std::string error;
  const auto plan = fault::FaultPlan::parse(
      "plan journal-soak\n"
      "at 6.05 loss " + std::to_string(hub) + " " + std::to_string(a) +
          " 0.6\n"
          "at 9 loss " + std::to_string(hub) + " " + std::to_string(a) +
          " 0\n",
      &error);
  EXPECT_TRUE(plan.has_value()) << error;
  fault::Injector inject(net, {});
  inject.schedule(*plan);

  s.send_stream(6, 6.0);
  simu.run_until(30.0);
  return os.str();
}

TEST(JournalE2E, ChaosPlanSameSeedIsByteIdentical) {
  const std::string a = run_chaos_journal(17);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, run_chaos_journal(17));
}

}  // namespace
}  // namespace sharq::stats
