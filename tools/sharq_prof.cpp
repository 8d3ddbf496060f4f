// sharq_prof: analyzer for the self-profiling runtime's profile JSON
// (sharqfec.profile.v1, written by --profile=FILE in macro_sim /
// chaos_sim / sharqfec_sim; see docs/OBSERVABILITY.md, "Profiles").
//
//   sharq_prof report PROFILE
//       Ranked wall-time and memory attribution per subsystem and shard:
//       self-time table with shard imbalance factors, barrier-wait
//       breakdown, memory census ranked by retained bytes with the
//       fraction of the run's RSS growth attributed to named categories,
//       and the deterministic counters.
//
//   sharq_prof export PROFILE --perfetto [-o FILE]
//       Chrome trace-event JSON (load in Perfetto / chrome://tracing):
//       one track per shard with the per-subsystem self-time laid out as
//       slices, plus counter tracks for the memory census.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/metrics.hpp"

using namespace sharq;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: sharq_prof report PROFILE\n"
      "       sharq_prof export PROFILE --perfetto [-o FILE]\n");
  std::exit(2);
}

// --- minimal JSON value + recursive-descent parser ---------------------------
// The profile writer emits a known shape, but the parser is general
// (objects, arrays, strings, numbers, bools, null) so hand-edited
// fixtures and future schema fields parse too.

struct JVal {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;  // insertion order kept

  const JVal* get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num_or(const std::string& key, double fallback) const {
    const JVal* v = get(key);
    return v != nullptr && v->kind == kNum ? v->num : fallback;
  }
};

class Parser {
 public:
  explicit Parser(std::string text) : s_(std::move(text)) {}

  bool parse(JVal& out) { return value(out) && at_end(); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string(std::string& out) {
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
          // The profile writer only \u-escapes control characters;
          // accept any BMP scalar and re-encode as UTF-8.
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
  bool value(JVal& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JVal::kObj;
      if (eat('}')) return true;
      for (;;) {
        std::string key;
        if (!string(key) || !eat(':')) return false;
        JVal v;
        if (!value(v)) return false;
        out.obj.emplace_back(std::move(key), std::move(v));
        if (eat(',')) continue;
        return eat('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JVal::kArr;
      if (eat(']')) return true;
      for (;;) {
        JVal v;
        if (!value(v)) return false;
        out.arr.push_back(std::move(v));
        if (eat(',')) continue;
        return eat(']');
      }
    }
    if (c == '"') {
      out.kind = JVal::kStr;
      return string(out.str);
    }
    if (c == 't') {
      out.kind = JVal::kBool;
      out.b = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JVal::kBool;
      out.b = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JVal::kNull;
      return literal("null");
    }
    // number
    std::string tok;
    while (pos_ < s_.size()) {
      const char d = s_[pos_];
      if ((d >= '0' && d <= '9') || d == '-' || d == '+' || d == '.' ||
          d == 'e' || d == 'E') {
        tok.push_back(d);
        ++pos_;
      } else {
        break;
      }
    }
    if (tok.empty()) return false;
    char* end = nullptr;
    out.kind = JVal::kNum;
    out.num = std::strtod(tok.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  std::string s_;
  std::size_t pos_ = 0;
};

JVal load(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "sharq_prof: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  JVal doc;
  if (!Parser(buf.str()).parse(doc) || doc.kind != JVal::kObj) {
    std::fprintf(stderr, "sharq_prof: '%s' is not valid JSON\n", path.c_str());
    std::exit(2);
  }
  const JVal* schema = doc.get("schema");
  if (schema == nullptr || schema->kind != JVal::kStr ||
      schema->str != "sharqfec.profile.v1") {
    std::fprintf(stderr, "sharq_prof: '%s' is not a sharqfec.profile.v1\n",
                 path.c_str());
    std::exit(2);
  }
  return doc;
}

// --- report ------------------------------------------------------------------

std::string human_bytes(double b) {
  const char* unit = "B";
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    b /= 1024.0 * 1024.0 * 1024.0;
    unit = "GiB";
  } else if (b >= 1024.0 * 1024.0) {
    b /= 1024.0 * 1024.0;
    unit = "MiB";
  } else if (b >= 1024.0) {
    b /= 1024.0;
    unit = "KiB";
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f %s", b, unit);
  return buf;
}

/// max(by_shard) / mean(by_shard) over nonzero shard count — 1.0 means
/// perfectly balanced, K means one shard did all the work.
double imbalance(const JVal& by_shard) {
  if (by_shard.kind != JVal::kArr || by_shard.arr.empty()) return 1.0;
  double sum = 0.0;
  double mx = 0.0;
  for (const JVal& v : by_shard.arr) {
    sum += v.num;  // sharq-lint: float-accum-ok (report math, not export)
    mx = std::max(mx, v.num);
  }
  if (sum <= 0.0) return 1.0;
  return mx / (sum / static_cast<double>(by_shard.arr.size()));
}

int cmd_report(const JVal& doc) {
  const JVal* det = doc.get("deterministic");
  const JVal* tim = doc.get("timing");
  if (det == nullptr || tim == nullptr) {
    std::fprintf(stderr, "sharq_prof: profile missing sections\n");
    return 2;
  }
  const double wall = tim->num_or("wall_s", 0.0);
  const double rss = tim->num_or("rss_delta_bytes", 0.0);
  std::string env_line;
  if (const JVal* env = tim->get("env")) {
    for (const auto& [k, v] : env->obj) {
      env_line += ' ' + k + '=' + (v.kind == JVal::kStr ? v.str : "");
    }
  }
  std::printf("profile: shards=%d wall=%.2fs rss_delta=%s%s\n",
              static_cast<int>(det->num_or("shards", 1)), wall,
              human_bytes(rss).c_str(), env_line.c_str());

  // Self time, ranked. Row: name, total_s, % of wall, imbalance. A scope
  // the run never entered (codec without real payload, shard_barrier in a
  // serial run) reads n/a: its 0 s is absence, not a measurement.
  if (const JVal* self = tim->get("self_time")) {
    struct Row {
      std::string name;
      double total;
      double imb;
      bool entered;
    };
    const JVal* scopes = det->get("scopes");
    std::vector<Row> rows;
    double attributed = 0.0;
    for (const auto& [name, entry] : self->obj) {
      const double total = entry.num_or("total_s", 0.0);
      const JVal* shards = entry.get("by_shard_s");
      const JVal* count = scopes ? scopes->get(name) : nullptr;
      const bool entered = count == nullptr || count->num_or("total", 0.0) > 0;
      rows.push_back(
          {name, total, shards ? imbalance(*shards) : 1.0, entered});
      attributed += total;  // sharq-lint: float-accum-ok (parser preserves the profile's insertion order)
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.total > b.total; });
    std::printf("\n%-16s %10s %7s %10s\n", "self time", "seconds", "%wall",
                "imbalance");
    for (const Row& r : rows) {
      if (!r.entered) {
        std::printf("%-16s %10s\n", r.name.c_str(), "n/a");
        continue;
      }
      std::printf("%-16s %10.3f %6.1f%% %9.2fx\n", r.name.c_str(), r.total,
                  wall > 0 ? 100.0 * r.total / wall : 0.0, r.imb);
    }
    if (wall > 0) {
      std::printf("%-16s %10.3f %6.1f%%\n", "(attributed)", attributed,
                  100.0 * attributed / wall);
    }
  }

  // Barrier wait per shard (the parallel-run diagnosis: who waits on whom).
  if (const JVal* waits = tim->get("barrier_wait_by_shard_s")) {
    std::printf("\nbarrier wait by shard:");
    for (std::size_t s = 0; s < waits->arr.size(); ++s) {
      std::printf(" [%zu]=%.3fs", s, waits->arr[s].num);
    }
    std::printf("\n");
  }

  // Memory census, ranked by peak; attribution fraction against RSS
  // growth is the acceptance figure for memory-win claims
  // (docs/PERFORMANCE.md, "Reading a profile").
  if (const JVal* mem = det->get("memory")) {
    struct MRow {
      std::string name;
      double live;
      double peak;
    };
    std::vector<MRow> rows;
    double peak_sum = 0.0;
    for (const auto& [name, entry] : mem->obj) {
      const double live = entry.num_or("live_bytes", 0.0);
      const double peak = entry.num_or("peak_bytes", 0.0);
      rows.push_back({name, live, peak});
      peak_sum += peak;  // sharq-lint: float-accum-ok (parser preserves the profile's insertion order)
    }
    std::sort(rows.begin(), rows.end(),
              [](const MRow& a, const MRow& b) { return a.peak > b.peak; });
    std::printf("\n%-16s %12s %12s %8s\n", "memory", "live", "peak",
                "%rss");
    for (const MRow& r : rows) {
      std::printf("%-16s %12s %12s %7.1f%%\n", r.name.c_str(),
                  human_bytes(r.live).c_str(), human_bytes(r.peak).c_str(),
                  rss > 0 ? 100.0 * r.peak / rss : 0.0);
    }
    if (rss > 0) {
      std::printf("%-16s %12s %12s %7.1f%%  <- attribution\n", "(total)", "",
                  human_bytes(peak_sum).c_str(), 100.0 * peak_sum / rss);
    }
  }

  // Deterministic counters and scope counts.
  if (const JVal* counters = det->get("counters")) {
    std::printf("\ncounters:\n");
    for (const auto& [name, entry] : counters->obj) {
      std::printf("  %-20s %15.0f\n", name.c_str(),
                  entry.num_or("total", 0.0));
    }
  }
  if (const JVal* scopes = det->get("scopes")) {
    std::printf("scope entries:\n");
    for (const auto& [name, entry] : scopes->obj) {
      std::printf("  %-20s %15.0f\n", name.c_str(),
                  entry.num_or("total", 0.0));
    }
  }
  const double trunc = tim->num_or("truncated_scopes", 0.0);
  if (trunc > 0) {
    std::printf("warning: %.0f scopes exceeded the frame-stack depth "
                "(untimed)\n",
                trunc);
  }
  return 0;
}

// --- perfetto export ---------------------------------------------------------

int cmd_export(const JVal& doc, std::ostream& os) {
  const JVal* det = doc.get("deterministic");
  const JVal* tim = doc.get("timing");
  if (det == nullptr || tim == nullptr) {
    std::fprintf(stderr, "sharq_prof: profile missing sections\n");
    return 2;
  }
  // Aggregate profile -> one track per shard: the per-subsystem self
  // times laid end to end as slices (the layout conveys proportions, not
  // sequence), plus one counter track per memory category. Same
  // {"traceEvents": [...]} envelope as sharq_trace's perfetto export.
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& json) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json;
  };
  const JVal* self = tim->get("self_time");
  const int shards = static_cast<int>(det->num_or("shards", 1));
  for (int s = 0; s < shards; ++s) {
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" +
         std::to_string(s) + ",\"args\":{\"name\":\"shard " +
         std::to_string(s) + "\"}}");
    double cursor_us = 0.0;
    if (self != nullptr) {
      for (const auto& [name, entry] : self->obj) {
        const JVal* by_shard = entry.get("by_shard_s");
        if (by_shard == nullptr ||
            s >= static_cast<int>(by_shard->arr.size())) {
          continue;
        }
        const double dur_us = by_shard->arr[static_cast<std::size_t>(s)].num * 1e6;
        if (dur_us <= 0.0) continue;
        emit("{\"ph\":\"X\",\"name\":" + stats::json_quoted(name) +
             ",\"cat\":\"self\",\"pid\":0,\"tid\":" + std::to_string(s) +
             ",\"ts\":" + stats::json_double(cursor_us) +
             ",\"dur\":" + stats::json_double(dur_us) + "}");
        cursor_us += dur_us;  // sharq-lint: float-accum-ok (lays slices end to end; order fixed by subsystem index)
      }
    }
    if (const JVal* waits = tim->get("barrier_wait_by_shard_s")) {
      if (s < static_cast<int>(waits->arr.size())) {
        const double dur_us = waits->arr[static_cast<std::size_t>(s)].num * 1e6;
        if (dur_us > 0.0) {
          emit("{\"ph\":\"X\",\"name\":\"barrier_wait\",\"cat\":\"wait\","
               "\"pid\":0,\"tid\":" +
               std::to_string(s) + ",\"ts\":" + stats::json_double(cursor_us) +
               ",\"dur\":" + stats::json_double(dur_us) + "}");
        }
      }
    }
  }
  if (const JVal* mem = det->get("memory")) {
    for (const auto& [name, entry] : mem->obj) {
      emit("{\"ph\":\"C\",\"name\":" + stats::json_quoted("mem:" + name) +
           ",\"pid\":0,\"ts\":0,\"args\":{\"peak_bytes\":" +
           stats::json_double(entry.num_or("peak_bytes", 0.0)) + "}}");
    }
  }
  os << "\n]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  if (cmd == "report") {
    if (args.size() != 1) usage();
    const JVal doc = load(args[0]);
    return cmd_report(doc);
  }
  if (cmd == "export") {
    bool perfetto = false;
    std::string out;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--perfetto") {
        perfetto = true;
      } else if (a == "-o") {
        if (i + 1 >= args.size()) usage();
        out = args[++i];
      } else if (!a.empty() && a[0] == '-') {
        usage();
      } else {
        files.push_back(a);
      }
    }
    if (files.size() != 1) usage();
    if (!perfetto) {
      std::fprintf(stderr, "sharq_prof: export needs --perfetto\n");
      return 2;
    }
    const JVal doc = load(files[0]);
    if (out.empty()) return cmd_export(doc, std::cout);
    std::ofstream os(out);
    if (!os) {
      std::fprintf(stderr, "sharq_prof: cannot write '%s'\n", out.c_str());
      return 2;
    }
    return cmd_export(doc, os);
  }
  usage();
}
