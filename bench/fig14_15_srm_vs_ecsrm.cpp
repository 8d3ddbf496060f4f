// Figures 14 & 15 reproduction: SRM (adaptive timers) vs
// SHARQFEC(ns,ni,so) -- the ECSRM-like hybrid with counts-based NACKs and
// sender-only FEC repairs -- on the Figure 10 topology with every link
// lossy. Figure 14 plots mean per-receiver data+repair packets per 0.1 s;
// Figure 15 plots the NACK traffic. Expected shape: the hybrid suppresses
// far better (fewer NACKs, much less repair traffic, no long repair tail).
#include <cstdio>

#include "fig_common.hpp"

using namespace sharq;
using namespace sharq::bench;

int main() {
  Workload w;
  srm::Config srm_cfg;  // adaptive timers, as the paper runs SRM
  RunResult srm_run = run_srm(srm_cfg, w, "SRM(adaptive)");
  RunResult ecsrm = run_sharqfec(sharqfec_ns_ni_so(), w,
                                 "SHARQFEC(ns,ni,so)/ECSRM");

  std::printf("Figure 14: mean data+repair packets per receiver per 0.1 s\n");
  print_two_series("SRM", srm_run.data_repair_series(), "ECSRM",
                   ecsrm.data_repair_series());
  std::printf("\nFigure 15: mean NACK packets per receiver per 0.1 s\n");
  print_two_series("SRM", srm_run.nack_series(), "ECSRM",
                   ecsrm.nack_series());
  std::printf("\nSummary\n");
  print_summary({&srm_run, &ecsrm});
  return 0;
}
