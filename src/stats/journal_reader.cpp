#include "stats/journal_reader.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "stats/metrics.hpp"

namespace sharq::stats {

namespace {

/// Hand-rolled scanner for the journal's single-line JSON objects. The
/// writer emits a fixed shape (flat object, one nested "attrs" object,
/// no arrays), so a full JSON library would be dead weight; the scanner
/// still tolerates whitespace and unknown keys so hand-edited fixtures
/// parse too.
class Scanner {
 public:
  explicit Scanner(const std::string& s) : s_(s) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  /// Parse a quoted string at the cursor, unescaping into `out`.
  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The writer only \u-escapes control characters, so a single
          // byte always suffices; accept the general BMP range anyway.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  /// Capture a bare JSON number's raw characters.
  bool parse_number_token(std::string& out) {
    skip_ws();
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        out.push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    return !out.empty();
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

bool fail(std::string* error, const char* msg) {
  if (error) *error = msg;
  return false;
}

/// Does `s` read entirely as one JSON number? Drives the perfetto export's
/// re-emit decision for attrs (numbers stay bare, everything else gets
/// quoted); the writer's string attrs never look numeric.
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  const char* begin = s.c_str();
  char* end = nullptr;
  std::strtod(begin, &end);
  return end == begin + s.size();
}

/// Parse a journal line's fields into `out`; false (with message) on any
/// structural problem.
bool parse_line_into(const std::string& line, JournalEvent& out,
                     std::string* error) {
  Scanner sc(line);
  if (!sc.eat('{')) return fail(error, "expected '{'");
  bool saw_id = false;
  bool saw_ev = false;
  if (!sc.peek_is('}')) {
    do {
      std::string key;
      if (!sc.parse_string(key)) return fail(error, "expected key string");
      if (!sc.eat(':')) return fail(error, "expected ':'");
      if (key == "attrs") {
        if (!sc.eat('{')) return fail(error, "expected attrs object");
        if (!sc.peek_is('}')) {
          do {
            std::string akey;
            std::string aval;
            if (!sc.parse_string(akey)) {
              return fail(error, "expected attr key");
            }
            if (!sc.eat(':')) return fail(error, "expected ':' in attrs");
            if (sc.peek_is('"')) {
              if (!sc.parse_string(aval)) {
                return fail(error, "bad attr string");
              }
            } else if (!sc.parse_number_token(aval)) {
              return fail(error, "bad attr value");
            }
            out.attrs.emplace(std::move(akey), std::move(aval));
          } while (sc.eat(','));
        }
        if (!sc.eat('}')) return fail(error, "unterminated attrs");
        continue;
      }
      if (key == "ev") {
        if (!sc.parse_string(out.ev)) return fail(error, "bad ev string");
        saw_ev = true;
        continue;
      }
      std::string num;
      if (sc.peek_is('"')) {
        // Unknown string-valued key from a newer writer: skip it.
        if (!sc.parse_string(num)) return fail(error, "bad string value");
        continue;
      }
      if (!sc.parse_number_token(num)) return fail(error, "bad value");
      if (key == "id") {
        out.id = std::strtoull(num.c_str(), nullptr, 10);
        saw_id = true;
      } else if (key == "t") {
        out.t = std::strtod(num.c_str(), nullptr);
      } else if (key == "node") {
        out.node = static_cast<int>(std::strtol(num.c_str(), nullptr, 10));
      } else if (key == "group") {
        out.group = std::strtoll(num.c_str(), nullptr, 10);
      } else if (key == "cause") {
        out.cause = std::strtoull(num.c_str(), nullptr, 10);
      }
      // Unknown numeric keys are skipped.
    } while (sc.eat(','));
  }
  if (!sc.eat('}')) return fail(error, "unterminated object");
  if (!sc.at_end()) return fail(error, "trailing characters");
  if (!saw_id || out.id == 0) return fail(error, "missing or zero id");
  if (!saw_ev || out.ev.empty()) return fail(error, "missing ev");
  return true;
}

}  // namespace

const std::string* JournalEvent::attr(const std::string& key) const {
  const auto it = attrs.find(key);
  return it == attrs.end() ? nullptr : &it->second;
}

double JournalEvent::attr_num(const std::string& key, double fallback) const {
  const std::string* raw = attr(key);
  if (!raw || raw->empty()) return fallback;
  const char* begin = raw->c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  return end == begin + raw->size() ? v : fallback;
}

std::optional<JournalEvent> parse_journal_line(const std::string& line,
                                               std::string* error) {
  JournalEvent ev;
  if (!parse_line_into(line, ev, error)) return std::nullopt;
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
    JournalEvent ev;
    if (!parse_line_into(line, ev, &why)) {
      if (error) *error = "line " + std::to_string(lineno) + ": " + why;
      return std::nullopt;
    }
    events.push_back(std::move(ev));
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

  os << "{\"traceEvents\":[";
  bool first = true;
  std::string buf;
  for (const JournalEvent& ev : events) {
    // Trace-event ts is in microseconds; the sim clock is seconds.
    const std::string ts = json_double(ev.t * 1e6);
    buf.clear();
    if (!first) buf += ',';
    first = false;
    buf += "\n{\"name\":";
    buf += json_quoted(ev.ev);
    buf += ",\"ph\":\"X\",\"ts\":";
    buf += ts;
    buf += ",\"dur\":1,\"pid\":";
    buf += std::to_string(ev.node);
    buf += ",\"tid\":";
    buf += std::to_string(ev.group);
    buf += ",\"args\":{\"id\":";
    buf += std::to_string(ev.id);
    for (const auto& [key, value] : ev.attrs) {
      buf += ',';
      buf += json_quoted(key);
      buf += ':';
      buf += looks_numeric(value) ? value : json_quoted(value);
    }
    buf += "}}";
    os << buf;
    if (ev.cause == 0) continue;
    const auto cit = by_id.find(ev.cause);
    if (cit == by_id.end()) continue;
    const JournalEvent& src = *cit->second;
    // One flow arrow per cause edge, keyed by the child's id (unique).
    buf.clear();
    buf += ",\n{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"s\",\"id\":";
    buf += std::to_string(ev.id);
    buf += ",\"ts\":";
    buf += json_double(src.t * 1e6);
    buf += ",\"pid\":";
    buf += std::to_string(src.node);
    buf += ",\"tid\":";
    buf += std::to_string(src.group);
    buf += "},\n{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"f\",\"bp\":\"e\",\"id\":";
    buf += std::to_string(ev.id);
    buf += ",\"ts\":";
    buf += ts;
    buf += ",\"pid\":";
    buf += std::to_string(ev.node);
    buf += ",\"tid\":";
    buf += std::to_string(ev.group);
    buf += '}';
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace sharq::stats
