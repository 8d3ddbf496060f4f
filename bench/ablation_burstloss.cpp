// Ablation: sensitivity to loss burstiness. The paper's FEC sizing rests
// on the MBone observation that losses are independent across receivers
// and roughly so in time; this harness keeps each link's MEAN loss rate
// fixed while stretching burst length (Gilbert-Elliott), and reports how
// SHARQFEC's recovery degrades. Group-spanning bursts defeat per-group
// parity, so NACK traffic should rise with burstiness.
#include <cstdio>

#include "rm/delivery_log.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "stats/report.hpp"
#include "topo/figure10.hpp"

using namespace sharq;

namespace {

struct Row {
  double mean_burst;
  std::uint64_t nacks;
  std::uint64_t repairs;
  int incomplete;
};

Row run_with_burst(double p_bad_to_good) {
  sim::Simulator simu(606);
  net::Network net(simu);
  topo::Figure10 t = topo::make_figure10(net);
  // Replace each link's Bernoulli(p) with a Gilbert-Elliott process of the
  // same mean: bad-state loss 0.9, good-state 0; stationary bad fraction
  // pi = p / 0.9 gives p_gb = pi * p_bg / (1 - pi).
  for (net::LinkId l = 0; l < net.link_count(); ++l) {
    const double p = net.link_loss_rate(l);
    if (p <= 0.0) continue;
    const double pi = p / 0.9;
    const double p_gb = pi * p_bad_to_good / (1.0 - pi);
    net.conditioner(l).set_loss(
        net::LossModel(p_gb, p_bad_to_good, 0.0, 0.9));
  }
  rm::DeliveryLog log;
  sfq::Config cfg;
  sfq::Session s(net, t.source, t.receivers, cfg, &log);
  s.start();
  s.send_stream(64, 6.0);
  simu.run_until(60.0);
  Row r{};
  r.mean_burst = 1.0 / p_bad_to_good;
  for (auto& a : s.agents()) {
    r.nacks += a->transfer().nacks_sent();
    r.repairs += a->transfer().repairs_sent();
  }
  for (net::NodeId rx : t.receivers) {
    if (!log.complete(rx, 64)) ++r.incomplete;
  }
  return r;
}

}  // namespace

int main() {
  std::printf("Ablation: burst-loss sensitivity (fixed per-link mean loss)\n");
  std::printf("Gilbert-Elliott links, bad-state loss 0.9; burst length "
              "= 1/p(bad->good) packets\n\n");
  stats::Table t({"mean-burst-pkts", "nacks", "repairs", "incomplete-rx"});
  for (double p_bg : {1.0, 0.5, 0.25, 0.125, 0.0625}) {
    const Row r = run_with_burst(p_bg);
    t.add_row({stats::Table::num(r.mean_burst, 1), std::to_string(r.nacks),
               std::to_string(r.repairs), std::to_string(r.incomplete)});
  }
  t.print();
  std::printf(
      "\nShort bursts look Bernoulli and injection absorbs them; bursts\n"
      "approaching the group length (16 packets) overwhelm per-group\n"
      "parity and push recovery back onto ARQ rounds — quantifying how\n"
      "much the paper's independence assumption is doing.\n");
  return 0;
}
