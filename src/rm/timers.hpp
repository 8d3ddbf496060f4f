#pragma once

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace sharq::rm {

/// SRM-style suppression timer windows (Floyd et al. '95), shared by the
/// SRM baseline and SHARQFEC. The defaults are the paper's fixed windows,
/// kPaperTimers; SRM's adaptive timers and SHARQFEC's optional adaptive
/// request window move the factors inside [kAdaptiveMin, kAdaptiveMax].
struct TimerPolicy {
  double c1 = 2.0;  ///< request window start multiplier
  double c2 = 2.0;  ///< request window width multiplier
  double d1 = 1.0;  ///< reply window start multiplier
  double d2 = 1.0;  ///< reply window width multiplier

  /// The window a request delay was drawn from, for observability: the
  /// flight recorder journals the sampled window alongside the draw so a
  /// trace shows *why* a NACK waited as long as it did.
  struct RequestDraw {
    double lo = 0.0;     ///< window start, 2^i * c1 * d
    double hi = 0.0;     ///< window end, 2^i * (c1+c2) * d
    double scale = 1.0;  ///< the 2^i backoff factor
  };

  /// Request delay: uniform on 2^i * [c1*d, (c1+c2)*d], where d is the
  /// one-way distance estimate to the source and i the backoff stage.
  /// When `draw` is non-null the sampled window is reported through it.
  sim::Time request_delay(sim::Rng& rng, sim::Time d, int backoff_stage,
                          RequestDraw* draw = nullptr) const {
    const double scale = static_cast<double>(
        1u << clamp_stage(backoff_stage));  // sharq-lint: unchecked-shift-ok (clamp_stage bounds to [0,16])
    if (draw) {
      draw->lo = scale * c1 * d;
      draw->hi = scale * (c1 + c2) * d;
      draw->scale = scale;
    }
    return scale * rng.uniform(c1 * d, (c1 + c2) * d);
  }

  /// Reply delay: uniform on [d1*d, (d1+d2)*d], where d is the one-way
  /// distance estimate to the requester. No backoff (paper: the SRM repair
  /// back-off is omitted for SHARQFEC; SRM applies its own suppression).
  sim::Time reply_delay(sim::Rng& rng, sim::Time d) const {
    return rng.uniform(d1 * d, (d1 + d2) * d);
  }

 private:
  static int clamp_stage(int i) { return i < 0 ? 0 : (i > 16 ? 16 : i); }
};

/// The paper's fixed windows: C1 = C2 = 2, D1 = D2 = 1.
inline constexpr TimerPolicy kPaperTimers{};
/// Bounds adaptive timers clamp each factor to.
inline constexpr TimerPolicy kAdaptiveMin{0.5, 1.0, 0.5, 1.0};
inline constexpr TimerPolicy kAdaptiveMax{8.0, 16.0, 8.0, 16.0};

/// One-way distance assumed before session messages converge an estimate.
inline constexpr sim::Time kDefaultDist = 0.050;

/// Session-message stagger (paper §5): the first kStartupSessionMsgs
/// messages wait uniform [0.05, 0.25] s to speed up convergence, later
/// ones uniform [0.9, 1.1] s.
inline constexpr int kStartupSessionMsgs = 3;
inline constexpr double kStartupStaggerLo = 0.05, kStartupStaggerHi = 0.25;
inline constexpr double kSteadyStaggerLo = 0.9, kSteadyStaggerHi = 1.1;

/// The delay before a member's next session message, given how many it
/// has sent so far.
inline sim::Time session_stagger(sim::Rng& rng, int messages_sent_so_far) {
  if (messages_sent_so_far < kStartupSessionMsgs) {
    return rng.uniform(kStartupStaggerLo, kStartupStaggerHi);
  }
  return rng.uniform(kSteadyStaggerLo, kSteadyStaggerHi);
}

}  // namespace sharq::rm
