#pragma once

#include "sim/random.hpp"

namespace sharq::net {

/// Per-link packet loss process: a two-state Gilbert-Elliott chain, held
/// inline in its link and consulted once per packet in transmission order,
/// so burst state sees a faithful packet sequence.
///
/// In the Good state packets drop with probability `good_loss`, in the Bad
/// state with `bad_loss`; transitions Good->Bad and Bad->Good happen per
/// packet with probabilities `p_gb` and `p_bg`. Independent (Bernoulli)
/// loss — the model the paper's simulations use, justified there by MBone
/// measurements of uncorrelated loss — is the one-state chain p_gb = 0,
/// good_loss = p; a lossless link is all zeros. Burst loss is an extension
/// beyond the paper, to probe sensitivity to loss correlation in time.
///
/// Draw contract: each packet draws the transition from the current
/// state, then the loss at the new state's rate. `Rng::bernoulli` draws
/// nothing at p <= 0 or p >= 1, so a packet costs one draw per step whose
/// probability lies strictly between 0 and 1: none on a lossless link or
/// at rate 1, one for Bernoulli(0 < p < 1), up to two for a burst chain.
class LossModel {
 public:
  /// Lossless.
  LossModel() = default;

  LossModel(double p_good_to_bad, double p_bad_to_good, double good_loss,
            double bad_loss)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        good_loss_(good_loss),
        bad_loss_(bad_loss) {}

  /// Independent loss at `rate`.
  static LossModel bernoulli(double rate) { return {0.0, 0.0, rate, 0.0}; }

  /// Decide the fate of the next packet. True = packet is dropped.
  bool drop_next(sim::Rng& rng) {
    // State transition first, so a burst's first packet already sees the
    // Bad state's rate.
    if (rng.bernoulli(bad_ ? p_bg_ : p_gb_)) bad_ = !bad_;
    return rng.bernoulli(bad_ ? bad_loss_ : good_loss_);
  }

  /// Long-run average drop probability (routing analytics and tests).
  double mean_loss_rate() const {
    const double denom = p_gb_ + p_bg_;
    if (denom <= 0.0) return good_loss_;
    const double pi_bad = p_gb_ / denom;
    return (1.0 - pi_bad) * good_loss_ + pi_bad * bad_loss_;
  }

 private:
  double p_gb_ = 0.0;
  double p_bg_ = 0.0;
  double good_loss_ = 0.0;
  double bad_loss_ = 0.0;
  bool bad_ = false;
};

}  // namespace sharq::net
