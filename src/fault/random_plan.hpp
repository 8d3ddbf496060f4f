#pragma once

#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/random.hpp"

namespace sharq::fault {

/// A duplex edge the generator may fault, with the loss rate to restore
/// when a loss window closes (fault plans must hand the topology back in
/// its configured state, not a pristine one).
struct FaultyEdge {
  net::NodeId a = net::kNoNode;
  net::NodeId b = net::kNoNode;
  double baseline_loss = 0.0;
  double baseline_bps = 0.0;  ///< restore target for bandwidth squeezes
};

/// Bounds for a generated plan. Every fault a random plan opens, it also
/// closes before `horizon` (partitions heal, crashed nodes restart, rates
/// return to baseline) so a soak can demand full delivery afterwards. The
/// peak rates, storm sizes and squeeze depths are fixed in random_plan.cpp.
struct PlanShape {
  sim::Time horizon = 60.0;  ///< all recovery events land before this
  int partitions = 1;        ///< paired partition/heal windows
  int degrade_windows = 2;   ///< loss/corrupt/duplicate/reorder windows
  int node_churns = 1;       ///< paired kill/restart windows
  std::vector<FaultyEdge> edges;      ///< candidate edges for link faults
  std::vector<net::NodeId> killable;  ///< candidate crash victims (no source)

  // --- Exhaustion campaign knobs (all default off, so legacy shapes draw
  // --- the same rng sequence and yield byte-identical plans).
  int nack_storms = 0;      ///< synthetic NACK bursts from `stormers`
  int bw_squeezes = 0;      ///< bandwidth clamp windows on `edges`
  int queue_squeezes = 0;   ///< queue-limit clamp windows on `edges`
  int flash_crowds = 0;     ///< late-join waves over `joinable`
  int baseline_queue_pkts = -1;  ///< restore target when a squeeze closes
  std::vector<net::NodeId> joinable;  ///< flash-crowd candidates (not yet
                                      ///< in the session)
  std::vector<net::NodeId> stormers;  ///< nack-storm candidates (receivers)
};

/// Generate a seeded random plan inside `shape`'s bounds. Deterministic:
/// the same rng state and shape always yield the same plan. Fault windows
/// open in the first ~60% of the horizon and always recover by ~90% of it.
FaultPlan make_random_plan(sim::Rng& rng, const PlanShape& shape,
                           const std::string& name = "random");

}  // namespace sharq::fault
