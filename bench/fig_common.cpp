#include "fig_common.hpp"

#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "sharqfec/protocol.hpp"
#include "srm/session.hpp"
#include "stats/report.hpp"

namespace sharq::bench {

std::vector<double> RunResult::data_repair_series() const {
  return recorder->mean_over_nodes(
      receivers, {net::TrafficClass::kData, net::TrafficClass::kRepair});
}

std::vector<double> RunResult::nack_series() const {
  return recorder->mean_over_nodes(receivers, {net::TrafficClass::kNack});
}

std::vector<double> RunResult::source_data_repair_series() const {
  return recorder->mean_over_nodes(
      {source}, {net::TrafficClass::kData, net::TrafficClass::kRepair});
}

std::vector<double> RunResult::source_nack_series() const {
  return recorder->mean_over_nodes({source}, {net::TrafficClass::kNack});
}

namespace {
std::vector<double> combine(const stats::BinnedSeries& a,
                            const stats::BinnedSeries& b) {
  std::vector<double> out(std::max(a.bin_count(), b.bin_count()), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = a.bin(static_cast<int>(i)) + b.bin(static_cast<int>(i));
  }
  return out;
}
}  // namespace

std::vector<double> RunResult::backbone_data_repair_series() const {
  return combine(recorder->link_series(net::TrafficClass::kData),
                 recorder->link_series(net::TrafficClass::kRepair));
}

std::vector<double> RunResult::backbone_nack_series() const {
  std::vector<double> out;
  const auto& s = recorder->link_series(net::TrafficClass::kNack);
  for (int i = 0; i < s.bin_count(); ++i) out.push_back(s.bin(i));
  return out;
}

namespace {

void fill_latency(RunResult& r, const rm::DeliveryLog& log,
                  const std::vector<net::NodeId>& receivers,
                  std::uint64_t units, sim::Time data_start, double unit_time) {
  double sum = 0.0;
  std::size_t n = 0;
  r.incomplete_receivers = 0;
  for (net::NodeId rx : receivers) {
    if (!log.complete(rx, units)) ++r.incomplete_receivers;
    for (std::uint64_t u = 0; u < units; ++u) {
      const sim::Time t = log.completion_time(rx, u);
      if (t == sim::kTimeNever) continue;
      // Latency relative to the moment the unit finished transmitting.
      sum += t - (data_start + unit_time * static_cast<double>(u + 1));
      ++n;
    }
  }
  r.mean_recovery_latency = n ? sum / static_cast<double>(n) : 0.0;
}

/// Builds the Figure-10 topology on `net` and routes its traffic into a
/// fresh recorder on `r` that also watches the source's backbone links.
topo::Figure10 record_figure10(net::Network& net, RunResult& r) {
  topo::Figure10 topo = topo::make_figure10(net);
  r.receivers = topo.receivers;
  r.source = topo.source;
  r.recorder = std::make_unique<stats::TrafficRecorder>(net.node_count(), 0.1);
  std::unordered_set<net::LinkId> backbone;
  for (net::NodeId m : topo.mesh) {
    backbone.insert(net.find_link(topo.source, m));
    backbone.insert(net.find_link(m, topo.source));
  }
  r.recorder->watch_links(std::move(backbone));
  net.set_sink(r.recorder.get());
  return topo;
}

}  // namespace

RunResult run_sharqfec(const sfq::Config& cfg, const Workload& w,
                       const std::string& label) {
  RunResult r;
  r.label = label;
  sim::Simulator simu(w.seed);
  net::Network net(simu);
  const topo::Figure10 topo = record_figure10(net, r);

  sfq::Config cfg2 = cfg;
  cfg2.shard_size_bytes = w.packet_size;
  cfg2.data_rate_bps = w.rate_bps;
  rm::DeliveryLog log;
  sfq::Session session(net, topo.source, topo.receivers, cfg2, &log);
  session.start();
  const std::uint32_t groups = w.packets / cfg2.group_size;
  session.send_stream(groups, w.data_start);
  simu.run_until(w.run_until);

  for (auto& a : session.agents()) {
    r.nacks_sent += a->transfer().nacks_sent();
    r.repairs_sent += a->transfer().repairs_sent();
    r.session_msgs += a->session().session_messages_sent();
  }
  const double group_time = cfg2.group_size * w.packet_size * 8.0 / w.rate_bps;
  fill_latency(r, log, topo.receivers, groups, w.data_start, group_time);
  return r;
}

RunResult run_srm(const srm::Config& cfg, const Workload& w,
                  const std::string& label) {
  RunResult r;
  r.label = label;
  sim::Simulator simu(w.seed);
  net::Network net(simu);
  const topo::Figure10 topo = record_figure10(net, r);

  srm::Config cfg2 = cfg;
  cfg2.packet_size_bytes = w.packet_size;
  cfg2.data_rate_bps = w.rate_bps;
  rm::DeliveryLog log;
  srm::Session session(net, topo.source, topo.receivers, cfg2, &log);
  session.start();
  session.send_stream(w.packets, w.data_start);
  simu.run_until(w.run_until);

  for (auto& a : session.agents()) {
    r.nacks_sent += a->requests_sent();
    r.repairs_sent += a->repairs_sent();
  }
  const double pkt_time = w.packet_size * 8.0 / w.rate_bps;
  fill_latency(r, log, topo.receivers, w.packets, w.data_start, pkt_time);
  return r;
}

sfq::Config sharqfec_full() {
  sfq::Config cfg;
  return cfg;
}
sfq::Config sharqfec_ns() {
  sfq::Config cfg;
  cfg.scoping = false;
  return cfg;
}
sfq::Config sharqfec_ns_ni() {
  sfq::Config cfg;
  cfg.scoping = false;
  cfg.injection = false;
  return cfg;
}
sfq::Config sharqfec_ni() {
  sfq::Config cfg;
  cfg.injection = false;
  return cfg;
}
sfq::Config sharqfec_ns_ni_so() {
  sfq::Config cfg;
  cfg.scoping = false;
  cfg.injection = false;
  cfg.sender_only = true;
  return cfg;
}

void print_two_series(const std::string& ta, const std::vector<double>& a,
                      const std::string& tb, const std::vector<double>& b) {
  std::printf("# t  %s  %s\n", ta.c_str(), tb.c_str());
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double va = i < a.size() ? a[i] : 0.0;
    const double vb = i < b.size() ? b[i] : 0.0;
    if (va == 0.0 && vb == 0.0) continue;
    std::printf("%.1f  %.3f  %.3f\n", 0.1 * static_cast<double>(i), va, vb);
  }
}

void print_summary(const std::vector<const RunResult*>& runs) {
  stats::Table t({"variant", "nacks", "repairs", "incomplete-rx",
                  "mean-latency(s)", "peak-rx-pkts/0.1s", "total-rx-pkts"});
  for (const RunResult* r : runs) {
    const auto series = r->data_repair_series();
    double peak = 0.0, total = 0.0;
    for (double v : series) {
      peak = std::max(peak, v);
      total += v;
    }
    t.add_row({r->label, std::to_string(r->nacks_sent),
               std::to_string(r->repairs_sent),
               std::to_string(r->incomplete_receivers),
               stats::Table::num(r->mean_recovery_latency, 3),
               stats::Table::num(peak, 1), stats::Table::num(total, 0)});
  }
  t.print();
}

}  // namespace sharq::bench
