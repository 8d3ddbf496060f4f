// sharqfec_sim: command-line driver for the simulator and protocols.
//
// Lets a user run any protocol variant on a chosen topology and workload
// without writing C++:
//
//   sharqfec_sim --topo fig10 --protocol sharqfec --packets 1024
//                --rate 800000 --seed 7 --until 45 --series
//
//   sharqfec_sim --topo tree --depth 3 --fanout 3 --loss 0.05
//                --protocol srm --packets 256
//
// Prints a run summary (and optionally the 0.1 s traffic series) in the
// same format the bench binaries use.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fec/cpu_features.hpp"
#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "srm/session.hpp"
#include "stats/journal.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "stats/report.hpp"
#include "stats/trace_writer.hpp"
#include "stats/traffic_recorder.hpp"
#include "topo/figure10.hpp"
#include "topo/national.hpp"
#include "topo/shapes.hpp"

using namespace sharq;

namespace {

struct Options {
  std::string topo = "fig10";     // fig10 | tree | national
  std::string protocol = "sharqfec";  // sharqfec | ecsrm | srm | ns | ni | so
  int depth = 2;
  int fanout = 3;
  double loss = 0.05;
  std::uint32_t packets = 1024;
  int packet_size = 1000;
  double rate = 800e3;
  int group = 16;
  std::uint64_t seed = 1;
  double until = 45.0;
  double data_start = 6.0;
  bool series = false;
  bool adaptive = false;
  std::string trace_file;    // empty = no trace
  std::string metrics_file;  // empty = no metrics JSON
  std::string journal_file;  // empty = no event journal
  std::string profile_file;  // empty = no self-profile
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --topo fig10|tree|national   topology (default fig10)\n"
      "  --depth N --fanout N         tree shape (tree topo)\n"
      "  --loss P                     per-link loss for tree topo\n"
      "  --protocol sharqfec|ecsrm|srm|ns|ni|so\n"
      "  --packets N --packet-size B --rate BPS --group K\n"
      "  --seed S --until T --data-start T\n"
      "  --adaptive                   adaptive suppression timers\n"
      "  --series                     print the 0.1 s traffic series\n"
      "  --trace FILE                 write a nam-style event trace\n"
      "  --metrics-json FILE          write the metrics registry as JSON\n"
      "  --journal FILE               write the causal recovery journal\n"
      "                               (JSONL; analyze with sharq_trace)\n"
      "  --profile FILE               write a sharqfec.profile.v1 self-\n"
      "                               profile (analyze with sharq_prof;\n"
      "                               never byte-compared)\n",
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
    if (a == "--topo") o.topo = need(i);
    else if (a == "--protocol") o.protocol = need(i);
    else if (a == "--depth") o.depth = std::atoi(need(i));
    else if (a == "--fanout") o.fanout = std::atoi(need(i));
    else if (a == "--loss") o.loss = std::atof(need(i));
    else if (a == "--packets") o.packets = std::strtoul(need(i), nullptr, 10);
    else if (a == "--packet-size") o.packet_size = std::atoi(need(i));
    else if (a == "--rate") o.rate = std::atof(need(i));
    else if (a == "--group") o.group = std::atoi(need(i));
    else if (a == "--seed") o.seed = std::strtoull(need(i), nullptr, 10);
    else if (a == "--until") o.until = std::atof(need(i));
    else if (a == "--data-start") o.data_start = std::atof(need(i));
    else if (a == "--series") o.series = true;
    else if (a == "--trace") o.trace_file = need(i);
    else if (a == "--metrics-json") o.metrics_file = need(i);
    else if (a.rfind("--metrics-json=", 0) == 0)
      o.metrics_file = a.substr(std::strlen("--metrics-json="));
    else if (a == "--journal") o.journal_file = need(i);
    else if (a.rfind("--journal=", 0) == 0)
      o.journal_file = a.substr(std::strlen("--journal="));
    else if (a == "--profile") o.profile_file = need(i);
    else if (a.rfind("--profile=", 0) == 0)
      o.profile_file = a.substr(std::strlen("--profile="));
    else if (a == "--adaptive") o.adaptive = true;
    else usage(argv[0]);
  }
  return o;
}

struct Built {
  net::NodeId source = net::kNoNode;
  std::vector<net::NodeId> receivers;
};

Built build_topology(net::Network& net, const Options& o) {
  Built b;
  if (o.topo == "fig10") {
    topo::Figure10 t = topo::make_figure10(net);
    b.source = t.source;
    b.receivers = t.receivers;
  } else if (o.topo == "tree") {
    net::LinkConfig link;
    link.loss_rate = o.loss;
    topo::BalancedTree t = topo::make_balanced_tree(net, o.depth, o.fanout,
                                                    link);
    b.source = t.root;
    b.receivers.assign(t.all.begin() + 1, t.all.end());
    auto& z = net.zones();
    const net::ZoneId root = z.add_root();
    z.assign(t.root, root);
    // One zone per first-level subtree, everything deeper nested inside.
    for (std::size_t i = 0; i < t.levels[1].size(); ++i) {
      const net::ZoneId sub =
          t.levels.size() > 2 ? z.add_zone(root) : root;
      z.assign(t.levels[1][i], sub);
      if (t.levels.size() > 2) {
        // Assign this subtree's descendants level by level.
        std::vector<net::NodeId> frontier{t.levels[1][i]};
        for (std::size_t d = 2; d < t.levels.size(); ++d) {
          std::vector<net::NodeId> next;
          for (net::NodeId parent : frontier) {
            for (net::NodeId child : t.levels[d]) {
              if (net.path(parent, child).size() == 2) {
                z.assign(child, sub);
                next.push_back(child);
              }
            }
          }
          frontier = std::move(next);
        }
      }
    }
  } else if (o.topo == "national") {
    topo::NationalParams p;
    p.regions = 2;
    p.cities_per_region = 3;
    p.suburbs_per_city = 3;
    p.subscribers_per_suburb = 5;
    p.access_loss = o.loss;
    topo::National n = topo::make_national(net, p);
    b.source = n.source;
    for (auto v : {&n.region_caches, &n.city_caches, &n.suburb_hubs,
                   &n.subscribers}) {
      b.receivers.insert(b.receivers.end(), v->begin(), v->end());
    }
  } else {
    std::fprintf(stderr, "unknown topology '%s'\n", o.topo.c_str());
    std::exit(2);
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Installed before any protocol object exists; removed before export.
  // Probes cost one branch when absent, so --profile never changes the
  // simulated history (tests compare journal/metrics bytes both ways).
  std::unique_ptr<stats::Profiler> prof;
  stats::MemCensus census;
  if (!o.profile_file.empty()) {
    prof = std::make_unique<stats::Profiler>();
    stats::Profiler::set_active(prof.get());
  }
  sim::Simulator simu(o.seed);
  net::Network net(simu);
  stats::Metrics metrics;
  if (!o.metrics_file.empty()) {
    simu.set_metrics(&metrics);
  }
  const Built b = build_topology(net, o);
  std::ofstream journal_os;
  std::unique_ptr<stats::Journal> journal;
  if (!o.journal_file.empty()) {
    journal_os.open(o.journal_file);
    if (!journal_os) {
      std::fprintf(stderr, "cannot open journal file '%s'\n",
                   o.journal_file.c_str());
      return 2;
    }
    journal = std::make_unique<stats::Journal>(journal_os);
    net.set_journal(journal.get());
  }
  stats::TrafficRecorder rec(net.node_count(), 0.1);
  std::ofstream trace_os;
  std::unique_ptr<stats::TraceWriter> tracer;
  if (!o.trace_file.empty()) {
    trace_os.open(o.trace_file);
    tracer = std::make_unique<stats::TraceWriter>(trace_os, &net, &rec);
    net.set_sink(tracer.get());
  } else {
    net.set_sink(&rec);
  }
  rm::DeliveryLog log;

  std::uint64_t nacks = 0, repairs = 0, units = 0;
  if (o.protocol == "srm") {
    srm::Config cfg;
    cfg.packet_size_bytes = o.packet_size;
    cfg.data_rate_bps = o.rate;
    srm::Session s(net, b.source, b.receivers, cfg, &log);
    s.start();
    s.send_stream(o.packets, o.data_start);
    simu.run_until(o.until);
    for (auto& a : s.agents()) {
      nacks += a->requests_sent();
      repairs += a->repairs_sent();
    }
    units = o.packets;
  } else {
    sfq::Config cfg;
    cfg.shard_size_bytes = o.packet_size;
    cfg.data_rate_bps = o.rate;
    cfg.group_size = o.group;
    cfg.adaptive_timers = o.adaptive;
    if (!o.metrics_file.empty()) cfg.metrics = &metrics;
    cfg.journal = journal.get();
    if (o.protocol == "ecsrm") {
      cfg.scoping = false;
      cfg.injection = false;
      cfg.sender_only = true;
    } else if (o.protocol == "ns") {
      cfg.scoping = false;
    } else if (o.protocol == "ni") {
      cfg.injection = false;
    } else if (o.protocol == "so") {
      cfg.sender_only = true;
    } else if (o.protocol != "sharqfec") {
      std::fprintf(stderr, "unknown protocol '%s'\n", o.protocol.c_str());
      return 2;
    }
    sfq::Session s(net, b.source, b.receivers, cfg, &log);
    s.start();
    s.send_stream(o.packets / cfg.group_size, o.data_start);
    simu.run_until(o.until);
    for (auto& a : s.agents()) {
      nacks += a->transfer().nacks_sent();
      repairs += a->transfer().repairs_sent();
    }
    units = o.packets / cfg.group_size;
    if (!o.metrics_file.empty()) s.export_metrics(metrics);
    if (prof) s.memory_census(census);
  }

  int incomplete = 0;
  for (net::NodeId r : b.receivers) {
    if (!log.complete(r, units)) ++incomplete;
  }
  std::printf("fec kernel: %s\n",
              fec::cpu::kernel_name(fec::cpu::active_kernel()));
  stats::Table t({"protocol", "topo", "receivers", "nacks", "repairs",
                  "incomplete", "events", "drops"});
  t.add_row({o.protocol, o.topo, std::to_string(b.receivers.size()),
             std::to_string(nacks), std::to_string(repairs),
             std::to_string(incomplete),
             std::to_string(simu.events_executed()),
             std::to_string(rec.link_drops())});
  t.print();

  if (o.series) {
    auto series = rec.mean_over_nodes(
        b.receivers, {net::TrafficClass::kData, net::TrafficClass::kRepair});
    stats::print_series(std::cout, "data+repair pkts/receiver/0.1s", series,
                        0.1);
  }
  if (!o.metrics_file.empty()) {
    std::ofstream mos(o.metrics_file);
    if (!mos) {
      std::fprintf(stderr, "cannot open metrics file '%s'\n",
                   o.metrics_file.c_str());
      return 2;
    }
    net.export_metrics(metrics);
    // Combined export: the registry families plus the 0.1 s per-class
    // delivery series, under one sharqfec.metrics.v1 envelope.
    mos << "{\"schema\":\"sharqfec.metrics.v1\",\"metrics\":";
    stats::Metrics::write_families_json(mos, metrics.snapshot());
    mos << ",\"series\":";
    rec.write_series_json(mos);
    mos << "}\n";
  }
  if (prof) {
    net.memory_census(census);
    const std::uint64_t evq = simu.queue_memory_bytes();
    census.add("event_queue", evq, evq);
    prof->set_memory(census);
    prof->set_env("tool", "sharqfec_sim");
    prof->set_env("topo", o.topo);
    prof->set_env("protocol", o.protocol);
    stats::Profiler::set_active(nullptr);
    prof->write_file(o.profile_file);
  }
  return incomplete == 0 ? 0 : 1;
}
