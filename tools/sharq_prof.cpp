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
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/json.hpp"

using namespace sharq;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: sharq_prof report PROFILE\n"
      "       sharq_prof export PROFILE --perfetto [-o FILE]\n");
  std::exit(2);
}

using stats::json::Value;
using Kind = Value::Kind;

Value load(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "sharq_prof: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string error;
  std::optional<Value> doc = stats::json::parse(buf.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "sharq_prof: '%s' is not valid JSON: %s\n",
                 path.c_str(), error.c_str());
    std::exit(2);
  }
  const Value* schema = doc->get("schema");
  if (schema == nullptr || schema->kind != Kind::kString ||
      schema->text != "sharqfec.profile.v1") {
    std::fprintf(stderr, "sharq_prof: '%s' is not a sharqfec.profile.v1\n",
                 path.c_str());
    std::exit(2);
  }
  if (doc->get("deterministic") == nullptr || doc->get("timing") == nullptr) {
    std::fprintf(stderr, "sharq_prof: profile missing sections\n");
    std::exit(2);
  }
  return std::move(*doc);
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
double imbalance(const Value& by_shard) {
  if (by_shard.kind != Kind::kArray || by_shard.items.empty()) return 1.0;
  double sum = 0.0;
  double mx = 0.0;
  for (const Value& v : by_shard.items) {
    sum += v.number;  // sharq-lint: float-accum-ok (report math, not export)
    mx = std::max(mx, v.number);
  }
  if (sum <= 0.0) return 1.0;
  return mx / (sum / static_cast<double>(by_shard.items.size()));
}

/// Worker threads the profiled run had: the driver's `threads` env entry,
/// at least 1 (serial drivers write 0 or leave it out). Self time is summed
/// over workers, so wall x workers is the time it can add up to.
int profile_workers(const Value& tim) {
  const Value* env = tim.get("env");
  const Value* threads = env ? env->get("threads") : nullptr;
  const int n = threads && threads->kind == Kind::kString
                    ? std::atoi(threads->text.c_str())
                    : 0;
  return std::max(n, 1);
}

int cmd_report(const Value& doc) {
  const Value& det = *doc.get("deterministic");
  const Value& tim = *doc.get("timing");
  const double wall = tim.num_or("wall_s", 0.0);
  const double rss = tim.num_or("rss_delta_bytes", 0.0);
  std::string env_line;
  if (const Value* env = tim.get("env")) {
    for (const auto& [k, v] : env->members) {
      env_line += ' ' + k + '=' + (v.kind == Kind::kString ? v.text : "");
    }
  }
  std::printf("profile: shards=%d wall=%.2fs rss_delta=%s%s\n",
              static_cast<int>(det.num_or("shards", 1)), wall,
              human_bytes(rss).c_str(), env_line.c_str());

  // Self time, ranked. Row: name, total_s, share of the time the run's
  // workers had (wall x workers; a serial run has one), imbalance. A scope
  // the run never entered (codec without real payload, shard_barrier in a
  // serial run) reads n/a: its 0 s is absence, not a measurement.
  if (const Value* self = tim.get("self_time")) {
    struct Row {
      std::string name;
      double total;
      double imb;
      bool entered;
    };
    const Value* scopes = det.get("scopes");
    std::vector<Row> rows;
    double attributed = 0.0;
    for (const auto& [name, entry] : self->members) {
      const double total = entry.num_or("total_s", 0.0);
      const Value* shards = entry.get("by_shard_s");
      const Value* count = scopes ? scopes->get(name) : nullptr;
      const bool entered = count == nullptr || count->num_or("total", 0.0) > 0;
      rows.push_back(
          {name, total, shards ? imbalance(*shards) : 1.0, entered});
      attributed += total;  // sharq-lint: float-accum-ok (parser preserves the profile's insertion order)
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.total > b.total; });
    const int workers = profile_workers(tim);
    const double budget = wall * workers;
    const std::string share =
        workers > 1 ? "%wall*" + std::to_string(workers) : "%wall";
    std::printf("\n%-16s %10s %7s %10s\n", "self time", "seconds",
                share.c_str(), "imbalance");
    for (const Row& r : rows) {
      if (!r.entered) {
        std::printf("%-16s %10s\n", r.name.c_str(), "n/a");
        continue;
      }
      std::printf("%-16s %10.3f %6.1f%% %9.2fx\n", r.name.c_str(), r.total,
                  budget > 0 ? 100.0 * r.total / budget : 0.0, r.imb);
    }
    if (budget > 0) {
      std::printf("%-16s %10.3f %6.1f%%\n", "(attributed)", attributed,
                  100.0 * attributed / budget);
    }
  }

  // Barrier wait per shard (the parallel-run diagnosis: who waits on whom).
  if (const Value* waits = tim.get("barrier_wait_by_shard_s")) {
    std::printf("\nbarrier wait by shard:");
    for (std::size_t s = 0; s < waits->items.size(); ++s) {
      std::printf(" [%zu]=%.3fs", s, waits->items[s].number);
    }
    std::printf("\n");
  }

  // Memory census, ranked by peak; attribution fraction against RSS
  // growth is the acceptance figure for memory-win claims
  // (docs/PERFORMANCE.md, "Reading a profile").
  if (const Value* mem = det.get("memory")) {
    struct MRow {
      std::string name;
      double live;
      double peak;
    };
    std::vector<MRow> rows;
    double peak_sum = 0.0;
    for (const auto& [name, entry] : mem->members) {
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
  if (const Value* counters = det.get("counters")) {
    std::printf("\ncounters:\n");
    for (const auto& [name, entry] : counters->members) {
      std::printf("  %-20s %15.0f\n", name.c_str(),
                  entry.num_or("total", 0.0));
    }
  }
  if (const Value* scopes = det.get("scopes")) {
    std::printf("scope entries:\n");
    for (const auto& [name, entry] : scopes->members) {
      std::printf("  %-20s %15.0f\n", name.c_str(),
                  entry.num_or("total", 0.0));
    }
  }
  const double trunc = tim.num_or("truncated_scopes", 0.0);
  if (trunc > 0) {
    std::printf("warning: %.0f scopes exceeded the frame-stack depth "
                "(untimed)\n",
                trunc);
  }
  return 0;
}

// --- perfetto export ---------------------------------------------------------

int cmd_export(const Value& doc, std::ostream& os) {
  const Value& det = *doc.get("deterministic");
  const Value& tim = *doc.get("timing");
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
  const Value* self = tim.get("self_time");
  const int shards = static_cast<int>(det.num_or("shards", 1));
  for (int s = 0; s < shards; ++s) {
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" +
         std::to_string(s) + ",\"args\":{\"name\":\"shard " +
         std::to_string(s) + "\"}}");
    double cursor_us = 0.0;
    if (self != nullptr) {
      for (const auto& [name, entry] : self->members) {
        const Value* by_shard = entry.get("by_shard_s");
        if (by_shard == nullptr ||
            s >= static_cast<int>(by_shard->items.size())) {
          continue;
        }
        const double dur_us = by_shard->items[static_cast<std::size_t>(s)].number * 1e6;
        if (dur_us <= 0.0) continue;
        emit("{\"ph\":\"X\",\"name\":" + stats::json_quoted(name) +
             ",\"cat\":\"self\",\"pid\":0,\"tid\":" + std::to_string(s) +
             ",\"ts\":" + stats::json_double(cursor_us) +
             ",\"dur\":" + stats::json_double(dur_us) + "}");
        cursor_us += dur_us;  // sharq-lint: float-accum-ok (lays slices end to end; order fixed by subsystem index)
      }
    }
    if (const Value* waits = tim.get("barrier_wait_by_shard_s")) {
      if (s < static_cast<int>(waits->items.size())) {
        const double dur_us = waits->items[static_cast<std::size_t>(s)].number * 1e6;
        if (dur_us > 0.0) {
          emit("{\"ph\":\"X\",\"name\":\"barrier_wait\",\"cat\":\"wait\","
               "\"pid\":0,\"tid\":" +
               std::to_string(s) + ",\"ts\":" + stats::json_double(cursor_us) +
               ",\"dur\":" + stats::json_double(dur_us) + "}");
        }
      }
    }
  }
  if (const Value* mem = det.get("memory")) {
    for (const auto& [name, entry] : mem->members) {
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
  if (cmd != "report" && cmd != "export") usage();
  std::string file;
  std::string out;
  bool perfetto = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (cmd == "export" && a == "--perfetto") {
      perfetto = true;
    } else if (cmd == "export" && a == "-o" && i + 1 < argc) {
      out = argv[++i];
    } else if (file.empty() && !a.empty() && a[0] != '-') {
      file = a;
    } else {
      usage();
    }
  }
  if (file.empty()) usage();
  if (cmd == "export" && !perfetto) {
    std::fprintf(stderr, "sharq_prof: export needs --perfetto\n");
    return 2;
  }
  const Value doc = load(file);
  if (cmd == "report") return cmd_report(doc);
  if (out.empty()) return cmd_export(doc, std::cout);
  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "sharq_prof: cannot write '%s'\n", out.c_str());
    return 2;
  }
  return cmd_export(doc, os);
}
