#include "fault/random_plan.hpp"

namespace sharq::fault {

namespace {

// Peak rates inside a degrade window.
constexpr double kMaxLoss = 0.30;
constexpr double kMaxCorrupt = 0.05;
constexpr double kMaxDuplicate = 0.10;
constexpr double kMaxReorder = 0.20;
constexpr sim::Time kMaxReorderJitter = 0.050;
// NACK storms: peak NACKs per storm and the spacing between them.
constexpr int kMaxStormNacks = 32;
constexpr sim::Time kMinStormSpacing = 0.002, kMaxStormSpacing = 0.020;
// Squeezes: the bandwidth floor as a fraction of the edge baseline, and
// the queue-limit clamp range in packets.
constexpr double kMinSqueezeFraction = 0.05;
constexpr int kMinSqueezePkts = 2, kMaxSqueezePkts = 16;

/// A [start, end) window that opens early enough to bite and always closes
/// with margin before the horizon.
std::pair<sim::Time, sim::Time> draw_window(sim::Rng& rng, sim::Time horizon) {
  const sim::Time start = rng.uniform(0.05 * horizon, 0.60 * horizon);
  const sim::Time end = rng.uniform(start + 0.02 * horizon, 0.90 * horizon);
  return {start, end};
}

}  // namespace

FaultPlan make_random_plan(sim::Rng& rng, const PlanShape& shape,
                           const std::string& name) {
  FaultPlan plan;
  plan.name = name;

  auto pick_edge = [&]() -> const FaultyEdge& {
    return shape.edges[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(shape.edges.size()) - 1))];
  };

  if (!shape.edges.empty()) {
    for (int i = 0; i < shape.partitions; ++i) {
      const FaultyEdge& e = pick_edge();
      const auto [t0, t1] = draw_window(rng, shape.horizon);
      plan.events.push_back(
          {t0, EventKind::kPartition, e.a, e.b, 0.0, 0.0, 1});
      plan.events.push_back({t1, EventKind::kHeal, e.a, e.b, 0.0, 0.0, 1});
    }
    for (int i = 0; i < shape.degrade_windows; ++i) {
      const FaultyEdge& e = pick_edge();
      const auto [t0, t1] = draw_window(rng, shape.horizon);
      // Degrade the a->b simplex direction (callers order edges so that is
      // the data-bearing downstream direction).
      switch (rng.uniform_int(0, 3)) {
        case 0:
          plan.events.push_back({t0, EventKind::kLossRate, e.a, e.b,
                                 rng.uniform(0.05, kMaxLoss), 0.0, 1});
          plan.events.push_back({t1, EventKind::kLossRate, e.a, e.b,
                                 e.baseline_loss, 0.0, 1});
          break;
        case 1:
          plan.events.push_back({t0, EventKind::kCorruptRate, e.a, e.b,
                                 rng.uniform(0.005, kMaxCorrupt), 0.0,
                                 1});
          plan.events.push_back(
              {t1, EventKind::kCorruptRate, e.a, e.b, 0.0, 0.0, 1});
          break;
        case 2:
          plan.events.push_back(
              {t0, EventKind::kDuplicateRate, e.a, e.b,
               rng.uniform(0.01, kMaxDuplicate), 0.0,
               static_cast<int>(rng.uniform_int(1, 2))});
          plan.events.push_back(
              {t1, EventKind::kDuplicateRate, e.a, e.b, 0.0, 0.0, 1});
          break;
        default:
          plan.events.push_back(
              {t0, EventKind::kReorderRate, e.a, e.b,
               rng.uniform(0.02, kMaxReorder),
               rng.uniform(0.001, kMaxReorderJitter), 1});
          plan.events.push_back(
              {t1, EventKind::kReorderRate, e.a, e.b, 0.0, 0.0, 1});
          break;
      }
    }
  }

  // Exhaustion pressure: every draw below is gated on its count, so legacy
  // shapes (all counts zero) consume the exact same rng sequence as before
  // and stay byte-identical.
  if (!shape.edges.empty()) {
    for (int i = 0; i < shape.bw_squeezes; ++i) {
      const FaultyEdge& e = pick_edge();
      const auto [t0, t1] = draw_window(rng, shape.horizon);
      const double fraction = rng.uniform(kMinSqueezeFraction, 0.5);
      if (e.baseline_bps <= 0.0) continue;  // no restore target: skip edge
      plan.events.push_back({t0, EventKind::kBandwidth, e.a, e.b,
                             fraction * e.baseline_bps, 0.0, 1});
      plan.events.push_back(
          {t1, EventKind::kBandwidth, e.a, e.b, e.baseline_bps, 0.0, 1});
    }
    for (int i = 0; i < shape.queue_squeezes; ++i) {
      const FaultyEdge& e = pick_edge();
      const auto [t0, t1] = draw_window(rng, shape.horizon);
      const int pkts = static_cast<int>(
          rng.uniform_int(kMinSqueezePkts, kMaxSqueezePkts));
      plan.events.push_back(
          {t0, EventKind::kQueueLimit, e.a, e.b, 0.0, 0.0, pkts});
      plan.events.push_back({t1, EventKind::kQueueLimit, e.a, e.b, 0.0, 0.0,
                             shape.baseline_queue_pkts});
    }
  }

  if (!shape.stormers.empty()) {
    for (int i = 0; i < shape.nack_storms; ++i) {
      const net::NodeId from = shape.stormers[static_cast<std::size_t>(
          rng.uniform_int(0,
                          static_cast<std::int64_t>(shape.stormers.size()) - 1))];
      const sim::Time t0 = rng.uniform(0.05 * shape.horizon,
                                       0.60 * shape.horizon);
      const int count = static_cast<int>(
          rng.uniform_int(kMaxStormNacks / 2, kMaxStormNacks));
      const sim::Time spacing = rng.uniform(kMinStormSpacing, kMaxStormSpacing);
      plan.events.push_back(
          {t0, EventKind::kNackStorm, from, net::kNoNode, 0.0, spacing, count});
    }
  }

  if (!shape.joinable.empty()) {
    for (int i = 0; i < shape.flash_crowds; ++i) {
      // Per-node events (from == to): joinable ids need not be contiguous.
      const sim::Time t0 = rng.uniform(0.05 * shape.horizon,
                                       0.50 * shape.horizon);
      const sim::Time spacing = rng.uniform(0.001, 0.010);
      int idx = 0;
      for (const net::NodeId n : shape.joinable) {
        plan.events.push_back({t0 + static_cast<sim::Time>(idx) * spacing,
                               EventKind::kFlashCrowd, n, n, 0.0, 0.0, 1});
        ++idx;
      }
    }
  }

  if (!shape.killable.empty()) {
    for (int i = 0; i < shape.node_churns; ++i) {
      const net::NodeId victim = shape.killable[static_cast<std::size_t>(
          rng.uniform_int(0,
                          static_cast<std::int64_t>(shape.killable.size()) - 1))];
      const auto [t0, t1] = draw_window(rng, shape.horizon);
      plan.events.push_back(
          {t0, EventKind::kNodeKill, victim, net::kNoNode, 0.0, 0.0, 1});
      plan.events.push_back(
          {t1, EventKind::kNodeRestart, victim, net::kNoNode, 0.0, 0.0, 1});
    }
  }

  plan.sort();
  return plan;
}

}  // namespace sharq::fault
