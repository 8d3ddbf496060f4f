// sharq_trace: analyzer for the causal recovery journal written by
// sharqfec_sim --journal (stats::Journal JSONL).
//
//   sharq_trace timeline JOURNAL [--group G] [--node N] [--event NAME]
//       Causally ordered narrative: every event with its cause edge and
//       the latency along it, for one group (-1 = the session/election
//       track) or, without --group, for all of them; --node and --event
//       narrow it to one node and one event name.
//
//   sharq_trace breakdown JOURNAL
//       Recovery latency split per zone level: detection (first arrival
//       -> loss detected), request (-> NACK sent), reply (-> first
//       useful repair heard), decode (-> group complete), aggregated
//       over every {node, group} span.
//
//   sharq_trace anomalies JOURNAL [--nack-count K] [--nack-window W]
//                                 [--escalations N] [--dup-repairs N]
//       NACK implosions, duplicate repairs, scope-escalation storms and
//       stuck groups.
//
//   sharq_trace export JOURNAL --perfetto [-o FILE]
//       Chrome trace-event JSON (load in Perfetto / chrome://tracing);
//       pid = node, tid = group, flow arrows follow the cause edges.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats/journal_reader.hpp"
#include "stats/metrics.hpp"
#include "stats/report.hpp"
#include "stats/time_series.hpp"

using namespace sharq;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sharq_trace timeline JOURNAL [--group G] [--node N]\n"
               "                   [--event NAME]\n"
               "       sharq_trace breakdown JOURNAL\n"
               "       sharq_trace anomalies JOURNAL [--nack-count K]\n"
               "                   [--nack-window W] [--escalations N]\n"
               "                   [--dup-repairs N]\n"
               "       sharq_trace export JOURNAL --perfetto [-o FILE]\n");
  std::exit(2);
}

std::vector<stats::JournalEvent> load(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "sharq_trace: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::string error;
  auto events = stats::read_journal(is, &error);
  if (!events) {
    std::fprintf(stderr, "sharq_trace: %s: %s\n", path.c_str(), error.c_str());
    std::exit(2);
  }
  return std::move(*events);
}

std::string fmt(double v) { return stats::json_double(v); }

int cmd_timeline(const std::vector<stats::JournalEvent>& events,
                 std::optional<std::int64_t> group, int node,
                 const std::string& event) {
  const auto rows = stats::timeline(events, group, node, event);
  if (rows.empty()) {
    std::printf("no matching events\n");
    return 0;
  }
  for (const auto& row : rows) {
    const stats::JournalEvent& ev = *row.event;
    std::string line(static_cast<std::size_t>(2 * std::min(row.depth, 16)),
                     ' ');
    line += '#' + std::to_string(ev.id) + " t=" + fmt(ev.t) +
            " node=" + std::to_string(ev.node) + ' ' + ev.ev;
    if (ev.cause != 0) {
      line += "  <- #" + std::to_string(ev.cause);
      if (row.edge_latency >= 0) line += " (+" + fmt(row.edge_latency) + "s)";
    }
    for (const auto& [key, value] : ev.attrs) line += ' ' + key + '=' + value;
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int cmd_breakdown(const std::vector<stats::JournalEvent>& events) {
  const auto spans = stats::span_breakdowns(events);
  if (spans.empty()) {
    std::printf("no recovery spans in journal\n");
    return 0;
  }
  // Per-level sample sets for each phase; level -1 collects spans that
  // never sent a NACK (loss-free or repaired preemptively).
  struct Phase {
    const char* name;
    double stats::SpanBreakdown::*member;
  };
  static constexpr Phase kPhases[] = {
      {"detection", &stats::SpanBreakdown::detection},
      {"request", &stats::SpanBreakdown::request},
      {"reply", &stats::SpanBreakdown::reply},
      {"decode", &stats::SpanBreakdown::decode},
      {"total", &stats::SpanBreakdown::total},
  };
  std::map<int, std::vector<const stats::SpanBreakdown*>> by_level;
  int complete = 0;
  for (const auto& span : spans) {
    by_level[span.level].push_back(&span);
    if (span.complete) ++complete;
  }
  std::printf("%zu spans (%d complete, %zu incomplete)\n", spans.size(),
              complete, spans.size() - static_cast<std::size_t>(complete));
  stats::Table t({"level", "phase", "count", "mean", "p50", "p90", "p99",
                  "max"});
  for (const auto& [level, group_spans] : by_level) {
    std::string label = "no-nack";
    if (level >= 0) {
      label = "L";
      label += std::to_string(level);
    }
    for (const Phase& phase : kPhases) {
      std::vector<double> samples;
      for (const auto* span : group_spans) {
        const double v = span->*phase.member;
        if (v >= 0) samples.push_back(v);
      }
      if (samples.empty()) continue;
      const stats::Summary s = stats::summarize(std::move(samples));
      t.add_row({label, phase.name, std::to_string(s.count),
                 stats::Table::num(s.mean, 4), stats::Table::num(s.p50, 4),
                 stats::Table::num(s.p90, 4), stats::Table::num(s.p99, 4),
                 stats::Table::num(s.max, 4)});
    }
  }
  t.print();
  return 0;
}

int cmd_anomalies(const std::vector<stats::JournalEvent>& events,
                  const stats::AnomalyThresholds& th) {
  const auto anomalies = stats::detect_anomalies(events, th);
  if (anomalies.empty()) {
    std::printf("no anomalies\n");
    return 0;
  }
  for (const auto& a : anomalies) {
    std::string line = a.kind + " group=" + std::to_string(a.group);
    if (a.node >= 0) line += " node=" + std::to_string(a.node);
    line += " t=" + fmt(a.t) + ": " + a.detail;
    std::printf("%s\n", line.c_str());
  }
  std::printf("%zu anomalies\n", anomalies.size());
  return 0;
}

int cmd_export(const std::vector<stats::JournalEvent>& events,
               const std::string& out_file) {
  if (out_file.empty()) {
    stats::write_perfetto(std::cout, events);
    return 0;
  }
  std::ofstream os(out_file);
  if (!os) {
    std::fprintf(stderr, "sharq_trace: cannot open '%s'\n", out_file.c_str());
    return 2;
  }
  stats::write_perfetto(os, events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string cmd = argv[1];
  const std::string journal_file = argv[2];

  std::optional<std::int64_t> group;  // unset = every group and track
  int node = -1;
  std::string event;
  bool perfetto = false;
  std::string out_file;
  stats::AnomalyThresholds th;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--group") group = std::strtoll(need(i), nullptr, 10);
    else if (a == "--node") node = std::atoi(need(i));
    else if (a == "--event") event = need(i);
    else if (a == "--perfetto") perfetto = true;
    else if (a == "-o") out_file = need(i);
    else if (a == "--nack-count") th.implosion_nacks = std::atoi(need(i));
    else if (a == "--nack-window") th.implosion_window = std::atof(need(i));
    else if (a == "--escalations") th.escalation_storm = std::atoi(need(i));
    else if (a == "--dup-repairs") th.duplicate_repairs = std::atoi(need(i));
    else usage();
  }

  const auto events = load(journal_file);
  if (cmd == "timeline") return cmd_timeline(events, group, node, event);
  if (cmd == "breakdown") return cmd_breakdown(events);
  if (cmd == "anomalies") return cmd_anomalies(events, th);
  if (cmd == "export") {
    if (!perfetto) {
      std::fprintf(stderr, "sharq_trace: export needs --perfetto\n");
      return 2;
    }
    return cmd_export(events, out_file);
  }
  usage();
}
