#pragma once

#include <cstddef>
#include <cstdint>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace sharq::sim {
class Simulator;
}  // namespace sharq::sim

namespace sharq::stats {
class Gauge;
class Journal;
class Metrics;
}  // namespace sharq::stats

namespace sharq::sfq {

/// Per-node resource budget (docs/ROBUSTNESS.md). Every limit is a
/// deterministic cap with an explicit graceful-degradation policy behind
/// it — tripping a budget sheds load (ages state, defers repairs, narrows
/// NACK scope); it never crashes, blocks, or silently drops a request.
/// A zero limit disables that dimension; the defaults reproduce the
/// pre-budget behaviour exactly, so existing traces stay byte-identical.
struct ResourceBudget {
  /// Soft target for accounted protocol state bytes (RTT tables, bridge
  /// tables). Exceeding it puts the node under state pressure: peer
  /// tables stop growing (oldest entries are replaced). 0 = unlimited.
  std::size_t state_bytes = 0;
  /// Hard cap on session peers tracked per zone level (RTT table plus
  /// bridge table, independently). At capacity the oldest entry by
  /// (last-heard time, node id) is aged out. 0 = unlimited.
  std::size_t peers_per_level = 0;
  /// Hard cap on the pending-repair queue depth per group and level.
  /// NACK deficits beyond it are coalesced down to the cap. 0 = unlimited.
  std::int32_t repair_queue_depth = 0;
  /// Maximum repair send rate per node (repairs/s). Sends that would
  /// exceed the minimum spacing 1/rate are deferred, not dropped.
  /// 0 = unlimited.
  double repair_rate_per_s = 0.0;
  /// How long one shed decision keeps the node "under pressure"; while
  /// under pressure, due scope escalations de-escalate instead.
  sim::Time pressure_window = 1.0;

  bool any_enabled() const {
    return state_bytes > 0 || peers_per_level > 0 || repair_queue_depth > 0 ||
           repair_rate_per_s > 0.0;
  }
};

/// Runtime budget state for one node: the accounted-state ledger, the
/// deterministic repair-rate pacer, and the pressure clock. One tracker
/// per Agent, shared by its SessionManager and TransferEngine so a shed
/// in one layer is visible to the others. All decisions depend only on
/// simulation time and configured limits — never on wall clock or host
/// state — so same-seed runs shed identically.
class BudgetTracker {
 public:
  BudgetTracker(const ResourceBudget& limits, net::NodeId node,
                sim::Simulator& simu, stats::Metrics* metrics,
                stats::Journal* journal);

  const ResourceBudget& limits() const { return limits_; }

  // --- accounted protocol state ---------------------------------------------
  void add_state(std::size_t bytes);
  void sub_state(std::size_t bytes);
  std::size_t state_bytes() const { return state_bytes_; }
  std::size_t state_high_water() const { return state_high_water_; }
  bool over_state() const {
    return limits_.state_bytes > 0 && state_bytes_ > limits_.state_bytes;
  }

  // --- repair-rate pacer ------------------------------------------------------
  /// True when a repair may be sent now without exceeding the rate cap.
  bool repair_due() const;
  /// Delay until the next repair is allowed (0 when due).
  sim::Time repair_wait() const;
  /// Record a repair send: advances the pacer and the observed-spacing
  /// probe (the exhaustion invariant checks min spacing >= 1/rate).
  void note_repair_sent();
  /// Smallest spacing observed between two repair sends; kTimeNever until
  /// two sends have happened.
  sim::Time min_repair_spacing() const { return min_spacing_; }

  // --- pressure ---------------------------------------------------------------
  /// Record one shed decision for `resource` ("peers", "repair"). Emits
  /// `budget.tripped` (journal) and counts `sharqfec.budget_trips` on the
  /// transition into pressure only.
  void note_shed(const char* resource);
  /// True within `pressure_window` of the last shed.
  bool under_pressure() const;
  std::uint64_t sheds() const { return sheds_; }

 private:
  ResourceBudget limits_;
  net::NodeId node_;
  sim::Simulator& simu_;
  stats::Metrics* metrics_;
  stats::Journal* journal_;
  stats::Gauge* m_state_bytes_ = nullptr;
  /// Fleet-wide high-water mirror of state_high_water_ (unlabeled,
  /// set_max across every node — one registry child at any scale).
  stats::Gauge* m_state_hw_ = nullptr;

  std::size_t state_bytes_ = 0;
  std::size_t state_high_water_ = 0;
  sim::Time next_repair_ok_ = 0.0;
  sim::Time last_repair_sent_ = 0.0;
  bool any_repair_sent_ = false;
  sim::Time min_spacing_;
  sim::Time last_shed_ = 0.0;
  bool ever_shed_ = false;
  std::uint64_t sheds_ = 0;
};

}  // namespace sharq::sfq
