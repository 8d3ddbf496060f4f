// Figure 18 reproduction: SHARQFEC(ni) vs SHARQFEC -- scoping on for both,
// preemptive ZCR injection toggled. Paper finding (confirming Rubenstein
// et al.): proactive FEC injection does not increase total bandwidth, and
// within the hierarchy it trades NACK round-trips for immediate parity.
//
// Extension (DESIGN.md ablation #1): sweep the ZLC EWMA gain to show the
// predictor's sensitivity.
#include <cstdio>

#include "fig_common.hpp"

using namespace sharq::bench;

int main() {
  Workload w;
  RunResult ni = run_sharqfec(sharqfec_ni(), w, "SHARQFEC(ni)");
  RunResult full = run_sharqfec(sharqfec_full(), w, "SHARQFEC");

  std::printf("Figure 18: mean data+repair packets per receiver per 0.1 s\n");
  print_two_series("ni", ni.data_repair_series(), "full",
                   full.data_repair_series());
  std::printf("\nSummary\n");
  print_summary({&ni, &full});

  std::printf("\nAblation: ZLC predictor EWMA gain (paper uses 0.25)\n");
  std::vector<RunResult> sweeps;
  for (double gain : {0.1, 0.25, 0.5, 0.9}) {
    sharq::sfq::Config cfg = sharqfec_full();
    cfg.zlc_ewma_gain = gain;
    char label[48];
    std::snprintf(label, sizeof(label), "SHARQFEC(ewma=%.2f)", gain);
    sweeps.push_back(run_sharqfec(cfg, w, label));
  }
  std::vector<const RunResult*> ptrs;
  for (const auto& r : sweeps) ptrs.push_back(&r);
  print_summary(ptrs);
  return 0;
}
