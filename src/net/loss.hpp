#pragma once

#include <cstddef>
#include <memory>

#include "sim/random.hpp"

namespace sharq::net {

/// Per-link packet loss process.
///
/// Each simplex link owns one model instance and consults it once per
/// packet, in transmission order, so stateful (bursty) models see a
/// faithful packet sequence.
class LossModel {
 public:
  virtual ~LossModel() = default;

  /// Decide the fate of the next packet. True = packet is dropped.
  virtual bool drop_next(sim::Rng& rng) = 0;

  /// Long-run average drop probability (for analytic helpers and tests).
  virtual double mean_loss_rate() const = 0;

  /// Deep copy (links are cloned when topologies are duplicated).
  virtual std::unique_ptr<LossModel> clone() const = 0;

  /// Size of the whole object, one heap block (memory-census probe).
  virtual std::size_t object_bytes() const = 0;
};

/// Independent (Bernoulli) loss at a fixed rate — the model the paper's
/// simulations use, justified there by MBone measurements of uncorrelated
/// loss across receivers.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double rate) : rate_(rate) {}

  bool drop_next(sim::Rng& rng) override { return rng.bernoulli(rate_); }
  double mean_loss_rate() const override { return rate_; }
  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<BernoulliLoss>(rate_);
  }
  std::size_t object_bytes() const override { return sizeof(*this); }

  double rate() const { return rate_; }

 private:
  double rate_;
};

/// Two-state Gilbert-Elliott burst-loss model (extension beyond the paper:
/// lets the benchmarks probe sensitivity to loss correlation in time).
///
/// In the Good state packets drop with probability `good_loss`; in the Bad
/// state with `bad_loss`. Transitions g->b and b->g happen per packet with
/// the given probabilities.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good,
                     double good_loss, double bad_loss)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        good_loss_(good_loss),
        bad_loss_(bad_loss) {}

  bool drop_next(sim::Rng& rng) override;
  double mean_loss_rate() const override;
  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<GilbertElliottLoss>(p_gb_, p_bg_, good_loss_,
                                                bad_loss_);
  }
  std::size_t object_bytes() const override { return sizeof(*this); }

  bool in_bad_state() const { return bad_; }

 private:
  double p_gb_;
  double p_bg_;
  double good_loss_;
  double bad_loss_;
  bool bad_ = false;
};

/// A link that never drops anything.
class NoLoss final : public LossModel {
 public:
  bool drop_next(sim::Rng&) override { return false; }
  double mean_loss_rate() const override { return 0.0; }
  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<NoLoss>();
  }
  std::size_t object_bytes() const override { return sizeof(*this); }
};

}  // namespace sharq::net
