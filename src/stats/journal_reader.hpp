#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sharq::stats {

/// One parsed journal line (see Journal for the write side). Attribute
/// values are kept as their raw JSON text ("3", "0.25", "timer") — the
/// analyzer converts on demand, and round-tripping stays lossless.
struct JournalEvent {
  std::uint64_t id = 0;
  double t = 0.0;
  int node = -1;
  std::int64_t group = -1;
  std::string ev;
  std::uint64_t cause = 0;
  std::map<std::string, std::string> attrs;

  /// Attribute as text (nullptr if absent). String-valued attributes are
  /// returned unquoted/unescaped.
  const std::string* attr(const std::string& key) const;
  /// Attribute as a number (fallback if absent or not numeric).
  double attr_num(const std::string& key, double fallback = 0.0) const;
};

/// Parse a whole journal. Returns nullopt (message in *error if given) on
/// the first malformed line — a journal that half-parses would make every
/// analysis downstream lie.
std::optional<std::vector<JournalEvent>> read_journal(
    std::istream& is, std::string* error = nullptr);

/// Parse one journal line (exposed for tests).
std::optional<JournalEvent> parse_journal_line(const std::string& line,
                                               std::string* error = nullptr);

// --- timeline ----------------------------------------------------------------

/// One row of a causally ordered narrative. Events come out in id order,
/// which IS causal order (causes always point backwards), with the latency
/// of the cause edge attached.
struct TimelineEntry {
  const JournalEvent* event = nullptr;
  /// t(event) - t(cause); -1 when the event is a root or its cause was
  /// filtered out of the journal slice.
  double edge_latency = -1.0;
  /// Causal depth from the nearest root (0 = root).
  int depth = 0;
};

/// Narrative for one group, or for every group and track when `group` is
/// nullopt (-1 is the session/election track), optionally narrowed to one
/// node (-1 = all nodes) and to one event name (empty = all). Cause edges
/// are resolved against the FULL event list, so cross-node edges keep
/// their latency even when filtering.
std::vector<TimelineEntry> timeline(const std::vector<JournalEvent>& events,
                                    std::optional<std::int64_t> group,
                                    int node = -1,
                                    const std::string& event = {});

// --- breakdown ---------------------------------------------------------------

/// Recovery-latency split of one {node, group} span. Phases not exercised
/// (no loss, no NACK, ...) stay at -1.
struct SpanBreakdown {
  int node = -1;
  std::int64_t group = -1;
  int level = -1;          ///< zone level of the span's first nack.sent
  double detection = -1.0; ///< first arrival -> first loss.detected
  double request = -1.0;   ///< first loss.detected -> first nack.sent
  double reply = -1.0;     ///< first nack.sent -> first useful repair.received
  double decode = -1.0;    ///< last phase boundary -> group.complete
  double total = -1.0;     ///< first arrival -> group.complete
  bool complete = false;
};

/// Assemble per-span breakdowns from group-scoped events.
std::vector<SpanBreakdown> span_breakdowns(
    const std::vector<JournalEvent>& events);

// --- anomaly detectors -------------------------------------------------------

struct Anomaly {
  std::string kind;   ///< nack-implosion | duplicate-repair |
                      ///< scope-escalation-storm | stuck-group
  std::int64_t group = -1;
  int node = -1;      ///< -1 when the anomaly is group-wide
  double t = 0.0;     ///< when it was first observed
  std::string detail; ///< human-readable specifics
};

struct AnomalyThresholds {
  /// nack-implosion: more than this many nack.sent for one group, across
  /// all nodes, inside one sliding window — suppression failed.
  int implosion_nacks = 8;
  double implosion_window = 0.5;
  /// duplicate-repair: the same (group, parity index) transmitted this
  /// many times or more within one zone — slice coordination failed.
  /// Distinct zones repeating an index is scoped repair working as
  /// designed, so the detector keys on the repair's `zone` attribute.
  int duplicate_repairs = 2;
  /// scope-escalation-storm: one span escalating at least this many times.
  int escalation_storm = 3;
};

/// Run every detector over the journal. Deterministic output order
/// (by kind, then group/node/t).
std::vector<Anomaly> detect_anomalies(const std::vector<JournalEvent>& events,
                                      const AnomalyThresholds& th = {});

// --- perfetto export ---------------------------------------------------------

/// Chrome trace-event JSON ({"traceEvents":[...]}): one "X" slice per
/// event (pid = node, tid = group; election events land on tid -1) plus a
/// flow "s"/"f" pair per cause edge, so Perfetto draws the causal arrows.
/// Byte-deterministic for a given journal.
void write_perfetto(std::ostream& os, const std::vector<JournalEvent>& events);

}  // namespace sharq::stats
