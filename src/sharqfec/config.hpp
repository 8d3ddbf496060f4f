#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/types.hpp"
#include "rm/timers.hpp"
#include "sim/time.hpp"

namespace sharq::stats {
class Journal;
class Metrics;
}  // namespace sharq::stats

namespace sharq::sfq {

/// Per-node caps on repair traffic (docs/ROBUSTNESS.md). Each is a
/// deterministic limit with a graceful-degradation policy behind it:
/// tripping one coalesces or defers repairs, never drops a request. A
/// zero limit disables that cap; the defaults disable both, so
/// default-configured runs behave and trace exactly as without them.
/// Protocol state needs no budget of its own: the zone hierarchy already
/// bounds every peer table (Hierarchy::session_peer_bound).
struct ResourceBudget {
  /// Hard cap on the pending-repair queue depth per group and level.
  /// NACK deficits beyond it are coalesced down to the cap. 0 = unlimited.
  std::int32_t repair_queue_depth = 0;
  /// Maximum repair send rate per node (repairs/s). Reactive sends that
  /// would beat the minimum spacing 1/rate are deferred, not dropped;
  /// preemptive ones are skipped. 0 = unlimited.
  double repair_rate_per_s = 0.0;

  bool any_enabled() const {
    return repair_queue_depth > 0 || repair_rate_per_s > 0.0;
  }
};

// --- protocol constants -----------------------------------------------------
// Fixed by the paper or by this implementation's tuning; no run varies them.

// The request/reply windows, their adaptive bounds, the session stagger
// and the default distance are shared with the SRM baseline and live in
// rm/timers.hpp.

/// Repair pacing: successive repairs from one repairer are spaced at
/// this fraction of the data inter-packet interval (paper: one half).
inline constexpr double kRepairSpacingFactor = 0.5;
/// Non-dedicated repairers (complete receivers that are neither the
/// source nor a ZCR) stretch their reply-suppression delay by this
/// factor, and re-randomize it between successive repairs instead of
/// using the dedicated pacing above. They exist for robustness when the
/// dedicated repairers are dead; without the deferral, one large-scope
/// NACK recruits every complete receiver faster than the first repair
/// can propagate and suppress them (~100x repair amplification under
/// churn).
inline constexpr double kFallbackReplyDefer = 3.0;
/// NACK attempts at one scope before escalating to the parent zone
/// (paper: "after two attempts at each zone").
inline constexpr int kAttemptsPerScope = 2;
/// A ZCR measures the group's true ZLC after waiting this multiple of
/// the RTT to its most distant known receiver (paper: 2.5).
inline constexpr double kZlcMeasureRttFactor = 2.5;
inline constexpr double kRttGain = 0.25;  ///< EWMA gain for RTT estimates
/// ZCR re-challenge cadence.
inline constexpr sim::Time kZcrChallengePeriod = 4.0;
/// Silence before usurping.
inline constexpr sim::Time kZcrWatchdogPeriod = 10.0;
/// Session peers silent for this long are expired from the RTT tables
/// (their measurements would otherwise pollute distance estimates
/// forever after a crash).
inline constexpr sim::Time kPeerExpiry = 30.0;
/// First watchdog window: elections must settle within the paper's 5 s
/// session warm-up, so the bootstrap challenge fires early.
inline constexpr sim::Time kZcrBootstrapDelay = 1.0;
/// Challenge->response delay.
inline constexpr sim::Time kZcrProcessingDelay = 0.001;
/// Takeover suppression: candidates delay proportionally to their
/// distance so the closest receiver announces first.
inline constexpr double kTakeoverDelayFactor = 2.0;

/// SHARQFEC tunables. Defaults are the values the paper simulates with;
/// the three feature flags reproduce the ablated variants of §6.2:
///
///   scoping=false                    -> SHARQFEC(ns)
///   injection=false                  -> SHARQFEC(ni)
///   sender_only=true                 -> SHARQFEC(so)
///   all three off/on as labelled     -> SHARQFEC(ns,ni,so) == ECSRM-like
struct Config {
  // --- ablation flags (paper §6.2) ---------------------------------------
  bool scoping = true;      ///< use the administrative zone hierarchy
  bool injection = true;    ///< ZCRs preemptively inject FEC repairs
  bool sender_only = false; ///< only the source may send repairs

  // --- transfer ------------------------------------------------------------
  int group_size = 16;            ///< k original packets per group (paper)
  int shard_size_bytes = 1000;    ///< wire size of data/repair packets
  double data_rate_bps = 800e3;   ///< CBR source rate (paper)
  int max_parity = 128;           ///< parity shards available per group
  bool real_payload = false;      ///< carry & FEC-decode actual bytes
  /// Late-join policy (paper §7 / Kermode's thesis): a receiver joining
  /// mid-stream either recovers the full history through its zone's
  /// repair channels (true) or starts from the first group it hears
  /// live (false).
  bool late_join_full_history = true;

  // --- timers (paper: fixed timers, rm::kPaperTimers) ----------------------
  /// Paper §7 future work, implemented here as an option: adapt the
  /// request window per receiver from observed duplicate NACKs (grow it)
  /// and recovery delay (shrink it), bounded by rm::kAdaptiveMin/Max.
  bool adaptive_timers = false;
  /// Backoff stage cap for request timers.
  int max_backoff_stage = 10;

  // --- ZLC prediction (paper: EWMA 0.75 / 0.25) ----------------------------
  /// Weight of a new ZLC measurement; the old prediction keeps 1 - gain.
  double zlc_ewma_gain = 0.25;

  // --- session management ----------------------------------------------------
  /// Statically configured ZCRs (paper §5.2: "a cache is placed next to
  /// the zone's Border Gateway Router"): zone -> node. Members start with
  /// these as the known ZCRs — no bootstrap election churn — but the
  /// challenge machinery still runs, so a dead static ZCR is replaced
  /// ("the challenge phase will only be necessary should one wish to
  /// provide robustness in the event that the dedicated receiver ceases
  /// to function").
  std::unordered_map<net::ZoneId, net::NodeId> static_zcrs;

  // --- resource budget (docs/ROBUSTNESS.md) ----------------------------------
  /// Per-node repair-traffic caps. The defaults keep both disabled;
  /// overload campaigns enable finite limits.
  ResourceBudget budget;

  // --- observability ---------------------------------------------------------
  /// Optional metrics registry (not owned; must outlive the protocol
  /// objects). Engines observe sharqfec.group_completion_seconds here as
  /// groups complete; every other sharqfec.* family is counted by the
  /// engines themselves and written by Session::export_metrics after the
  /// run. Null disables the histogram at the cost of a pointer test.
  stats::Metrics* metrics = nullptr;
  /// Optional recovery-lifecycle flight recorder (not owned; must outlive
  /// the protocol objects). Engines journal causally linked lifecycle
  /// events here (docs/OBSERVABILITY.md catalog); null disables the
  /// recorder the same way.
  stats::Journal* journal = nullptr;
};

}  // namespace sharq::sfq
