#include "stats/journal_reader.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "stats/json.hpp"

namespace sharq::stats {

namespace {

bool fail(std::string* error, const char* msg) {
  if (error) *error = msg;
  return false;
}

/// `s` as a number if it reads entirely as one. Also drives the perfetto
/// export's re-emit decision for attrs (numbers stay bare, everything else
/// gets quoted); the writer's string attrs never look numeric.
std::optional<double> as_number(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

/// Map one parsed journal line onto `out`. The writer emits a flat object
/// with one nested "attrs" object; unknown keys from a newer writer are
/// skipped. Integers are read from the raw token, so 64-bit ids stay exact.
bool to_event(json::Value& doc, JournalEvent& out, std::string* error) {
  using Kind = json::Value::Kind;
  if (doc.kind != Kind::kObject) return fail(error, "expected an object");
  for (auto& [key, v] : doc.members) {
    const char* tok = v.text.c_str();
    if (key == "attrs") {
      if (v.kind != Kind::kObject) return fail(error, "expected attrs object");
      for (auto& [akey, aval] : v.members) {
        if (aval.kind != Kind::kString && aval.kind != Kind::kNumber) {
          return fail(error, "bad attr value");
        }
        out.attrs.emplace(akey, std::move(aval.text));
      }
    } else if (key == "ev") {
      if (v.kind != Kind::kString) return fail(error, "bad ev string");
      out.ev = std::move(v.text);
    } else if (v.kind != Kind::kNumber) {
      continue;
    } else if (key == "id") {
      out.id = std::strtoull(tok, nullptr, 10);
    } else if (key == "t") {
      out.t = v.number;
    } else if (key == "node") {
      out.node = static_cast<int>(std::strtol(tok, nullptr, 10));
    } else if (key == "group") {
      out.group = std::strtoll(tok, nullptr, 10);
    } else if (key == "cause") {
      out.cause = std::strtoull(tok, nullptr, 10);
    }
  }
  if (out.id == 0) return fail(error, "missing or zero id");
  if (out.ev.empty()) return fail(error, "missing ev");
  return true;
}

}  // namespace

const std::string* JournalEvent::attr(const std::string& key) const {
  const auto it = attrs.find(key);
  return it == attrs.end() ? nullptr : &it->second;
}

double JournalEvent::attr_num(const std::string& key, double fallback) const {
  const std::string* raw = attr(key);
  return raw ? as_number(*raw).value_or(fallback) : fallback;
}

std::optional<JournalEvent> parse_journal_line(const std::string& line,
                                               std::string* error) {
  std::optional<json::Value> doc = json::parse(line, error);
  JournalEvent ev;
  if (!doc || !to_event(*doc, ev, error)) return std::nullopt;
  return ev;
}

std::optional<std::vector<JournalEvent>> read_journal(std::istream& is,
                                                      std::string* error) {
  std::vector<JournalEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string why;
    std::optional<JournalEvent> ev = parse_journal_line(line, &why);
    if (!ev) {
      if (error) *error = "line " + std::to_string(lineno) + ": " + why;
      return std::nullopt;
    }
    events.push_back(std::move(*ev));
  }
  return events;
}

// --- timeline ----------------------------------------------------------------

std::vector<TimelineEntry> timeline(const std::vector<JournalEvent>& events,
                                    std::optional<std::int64_t> group,
                                    int node, const std::string& event) {
  // Lookup-only index over the full journal so filtered views still
  // resolve cause edges that live outside the slice.
  std::unordered_map<std::uint64_t, const JournalEvent*> by_id;
  by_id.reserve(events.size());
  std::unordered_map<std::uint64_t, int> depth;
  depth.reserve(events.size());
  for (const JournalEvent& ev : events) {
    by_id.emplace(ev.id, &ev);
    int d = 0;
    if (ev.cause != 0) {
      const auto it = depth.find(ev.cause);
      if (it != depth.end()) d = it->second + 1;
    }
    depth.emplace(ev.id, d);
  }
  std::vector<TimelineEntry> rows;
  for (const JournalEvent& ev : events) {
    if (group && ev.group != *group) continue;
    if (node != -1 && ev.node != node) continue;
    if (!event.empty() && ev.ev != event) continue;
    TimelineEntry row;
    row.event = &ev;
    const auto dit = depth.find(ev.id);
    row.depth = dit == depth.end() ? 0 : dit->second;
    if (ev.cause != 0) {
      const auto cit = by_id.find(ev.cause);
      if (cit != by_id.end()) row.edge_latency = ev.t - cit->second->t;
    }
    rows.push_back(row);
  }
  return rows;
}

// --- breakdown ---------------------------------------------------------------

std::vector<SpanBreakdown> span_breakdowns(
    const std::vector<JournalEvent>& events) {
  struct SpanAcc {
    double arrival = -1.0;
    double loss = -1.0;
    double nack = -1.0;
    double repair = -1.0;  // first USEFUL repair.received
    double complete = -1.0;
    int level = -1;
  };
  // Ordered: output rows come out sorted by (group, node).
  std::map<std::pair<std::int64_t, int>, SpanAcc> spans;
  for (const JournalEvent& ev : events) {
    if (ev.group < 0) continue;
    SpanAcc& acc = spans[{ev.group, ev.node}];
    if (ev.ev == "group.first_arrival") {
      if (acc.arrival < 0) acc.arrival = ev.t;
    } else if (ev.ev == "loss.detected") {
      if (acc.loss < 0) acc.loss = ev.t;
    } else if (ev.ev == "nack.sent") {
      if (acc.nack < 0) {
        acc.nack = ev.t;
        acc.level = static_cast<int>(ev.attr_num("level", -1.0));
      }
    } else if (ev.ev == "repair.received") {
      if (acc.repair < 0 && ev.attr_num("useful") > 0) acc.repair = ev.t;
    } else if (ev.ev == "group.complete") {
      if (acc.complete < 0) acc.complete = ev.t;
    }
  }
  std::vector<SpanBreakdown> rows;
  rows.reserve(spans.size());
  for (const auto& [key, acc] : spans) {
    SpanBreakdown row;
    row.group = key.first;
    row.node = key.second;
    row.level = acc.level;
    row.complete = acc.complete >= 0;
    if (acc.arrival >= 0 && acc.loss >= 0) {
      row.detection = acc.loss - acc.arrival;
    }
    if (acc.loss >= 0 && acc.nack >= 0) row.request = acc.nack - acc.loss;
    if (acc.nack >= 0 && acc.repair >= 0) row.reply = acc.repair - acc.nack;
    if (acc.complete >= 0) {
      // Decode is measured from the last phase boundary the span actually
      // crossed, so loss-free groups report 0-ish decode, not a gap.
      const double boundary = acc.repair >= 0   ? acc.repair
                              : acc.nack >= 0   ? acc.nack
                              : acc.loss >= 0   ? acc.loss
                                                : acc.arrival;
      if (boundary >= 0) row.decode = acc.complete - boundary;
      if (acc.arrival >= 0) row.total = acc.complete - acc.arrival;
    }
    rows.push_back(row);
  }
  return rows;
}

// --- anomaly detectors -------------------------------------------------------

std::vector<Anomaly> detect_anomalies(const std::vector<JournalEvent>& events,
                                      const AnomalyThresholds& th) {
  std::vector<Anomaly> out;

  // nack-implosion: sliding window over each group's nack.sent times
  // (journal order is time order). One report per group, at the moment
  // the window first overflows.
  {
    std::map<std::int64_t, std::vector<double>> nacks;
    for (const JournalEvent& ev : events) {
      if (ev.ev == "nack.sent" && ev.group >= 0) {
        nacks[ev.group].push_back(ev.t);
      }
    }
    for (const auto& [group, times] : nacks) {
      std::size_t lo = 0;
      for (std::size_t hi = 0; hi < times.size(); ++hi) {
        while (times[hi] - times[lo] > th.implosion_window) ++lo;
        const int in_window = static_cast<int>(hi - lo + 1);
        if (in_window > th.implosion_nacks) {
          Anomaly a;
          a.kind = "nack-implosion";
          a.group = group;
          a.t = times[hi];
          a.detail = std::to_string(in_window) + " NACKs within " +
                     json_double(th.implosion_window) +
                     "s; suppression is not converging";
          out.push_back(std::move(a));
          break;
        }
      }
    }
  }

  // duplicate-repair: the same (group, parity index) on the wire more
  // than once WITHIN one zone. Counted from repair.sent (repair.received
  // legitimately repeats once per listener), and keyed by zone because
  // scoped repair means distinct zones sending the same index is the
  // design, not an overlap.
  {
    struct DupAcc {
      int count = 0;
      double first_dup_t = 0.0;
    };
    std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, DupAcc>
        sent;
    for (const JournalEvent& ev : events) {
      if (ev.ev != "repair.sent" || ev.group < 0) continue;
      const auto index = static_cast<std::int64_t>(ev.attr_num("index", -1.0));
      const auto zone = static_cast<std::int64_t>(ev.attr_num("zone", -1.0));
      DupAcc& acc = sent[{ev.group, index, zone}];
      ++acc.count;
      if (acc.count == th.duplicate_repairs) acc.first_dup_t = ev.t;
    }
    for (const auto& [key, acc] : sent) {
      if (acc.count < th.duplicate_repairs) continue;
      Anomaly a;
      a.kind = "duplicate-repair";
      a.group = std::get<0>(key);
      a.t = acc.first_dup_t;
      a.detail = "parity index " + std::to_string(std::get<1>(key)) +
                 " transmitted " + std::to_string(acc.count) +
                 " times in zone " + std::to_string(std::get<2>(key)) +
                 "; slice coordination overlapped";
      out.push_back(std::move(a));
    }
  }

  // scope-escalation-storm: one span widening its request scope again
  // and again — the configured zone sizing is not containing the loss.
  {
    struct EscAcc {
      int count = 0;
      double storm_t = 0.0;
    };
    std::map<std::pair<std::int64_t, int>, EscAcc> esc;
    for (const JournalEvent& ev : events) {
      if (ev.ev != "scope.escalated" || ev.group < 0) continue;
      EscAcc& acc = esc[{ev.group, ev.node}];
      ++acc.count;
      if (acc.count == th.escalation_storm) acc.storm_t = ev.t;
    }
    for (const auto& [key, acc] : esc) {
      if (acc.count < th.escalation_storm) continue;
      Anomaly a;
      a.kind = "scope-escalation-storm";
      a.group = key.first;
      a.node = key.second;
      a.t = acc.storm_t;
      a.detail = "scope escalated " + std::to_string(acc.count) +
                 " times in one recovery span";
      out.push_back(std::move(a));
    }
  }

  // stuck-group: a span that detected loss or sent NACKs but never logged
  // group.complete before the journal ended.
  {
    struct StuckAcc {
      bool active = false;
      bool complete = false;
      double last_t = 0.0;
    };
    std::map<std::pair<std::int64_t, int>, StuckAcc> spans;
    for (const JournalEvent& ev : events) {
      if (ev.group < 0) continue;
      StuckAcc& acc = spans[{ev.group, ev.node}];
      acc.last_t = ev.t;
      if (ev.ev == "loss.detected" || ev.ev == "nack.sent") acc.active = true;
      if (ev.ev == "group.complete") acc.complete = true;
    }
    for (const auto& [key, acc] : spans) {
      if (!acc.active || acc.complete) continue;
      Anomaly a;
      a.kind = "stuck-group";
      a.group = key.first;
      a.node = key.second;
      a.t = acc.last_t;
      a.detail = "recovery started but no group.complete by end of journal";
      out.push_back(std::move(a));
    }
  }

  std::sort(out.begin(), out.end(), [](const Anomaly& a, const Anomaly& b) {
    return std::tie(a.kind, a.group, a.node, a.t) <
           std::tie(b.kind, b.group, b.node, b.t);
  });
  return out;
}

// --- perfetto export ---------------------------------------------------------

void write_perfetto(std::ostream& os, const std::vector<JournalEvent>& events) {
  // Lookup-only: resolves each cause edge to its source coordinates.
  std::unordered_map<std::uint64_t, const JournalEvent*> by_id;
  by_id.reserve(events.size());
  for (const JournalEvent& ev : events) by_id.emplace(ev.id, &ev);

  // Trace-event ts is in microseconds; the sim clock is seconds.
  auto place = [](const JournalEvent& e) {
    return ",\"ts\":" + json_double(e.t * 1e6) + ",\"pid\":" +
           std::to_string(e.node) + ",\"tid\":" + std::to_string(e.group);
  };
  os << "{\"traceEvents\":[";
  std::string buf;
  for (const JournalEvent& ev : events) {
    buf = &ev == events.data() ? "\n" : ",\n";
    buf += "{\"name\":" + json_quoted(ev.ev) + ",\"ph\":\"X\",\"ts\":" +
           json_double(ev.t * 1e6) + ",\"dur\":1,\"pid\":" +
           std::to_string(ev.node) + ",\"tid\":" + std::to_string(ev.group) +
           ",\"args\":{\"id\":" + std::to_string(ev.id);
    for (const auto& [key, value] : ev.attrs) {
      buf += ',' + json_quoted(key) + ':' +
             (as_number(value) ? value : json_quoted(value));
    }
    buf += "}}";
    const auto cit = ev.cause == 0 ? by_id.end() : by_id.find(ev.cause);
    if (cit != by_id.end()) {
      // One flow arrow per cause edge, keyed by the child's id (unique).
      const std::string id = std::to_string(ev.id);
      buf += ",\n{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"s\",\"id\":" +
             id + place(*cit->second) +
             "},\n{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"f\","
             "\"bp\":\"e\",\"id\":" +
             id + place(ev) + '}';
    }
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace sharq::stats
