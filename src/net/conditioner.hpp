#pragma once

#include "net/loss.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace sharq::net {

/// The fate a link's conditioner pipeline assigns one packet at the moment
/// its serialization completes (wire order).
struct PacketFate {
  bool drop = false;        ///< packet is discarded by the link
  bool corrupt = false;     ///< payload bytes arrive damaged (checksum fails)
  int duplicates = 0;       ///< extra copies delivered beyond the original
  sim::Time extra_delay = 0.0;  ///< jitter added to propagation (reordering)
};

/// Adversarial link conditioning: the generalization of the per-link loss
/// model into a pipeline that can also corrupt payload bytes (delivered
/// with `Packet::corrupted` set — the simulator's model of a failed
/// checksum over bit-flipped bytes), duplicate packets, and add delay
/// jitter so packets resequence in flight.
///
/// The stages run in a fixed order — loss, corrupt, duplicate, reorder.
/// All fault rates default to zero and, because `Rng::bernoulli` consumes no
/// randomness for p <= 0, a default-constructed conditioner is
/// byte-identical in behaviour (and RNG stream) to the bare loss model it
/// holds.
///
/// Loss honours `Packet::lossless` (the paper exempts session messages and
/// NACKs from loss, §6.2); corruption, duplication, and reordering apply to
/// every packet — they model pathologies, not policy.
class LinkConditioner {
 public:
  /// Decide the fate of the next packet, in transmission order.
  PacketFate next(sim::Rng& rng, const Packet& packet);

  // --- stages ---------------------------------------------------------------

  /// Replace the loss process (a default LossModel disables loss). The
  /// new chain starts in its Good state.
  void set_loss(const LossModel& model) { loss_ = model; }

  /// Probability a packet's payload is corrupted in flight.
  void set_corrupt_rate(double rate) { corrupt_rate_ = rate; }

  /// Probability a packet is duplicated (`copies` extras when it fires).
  void set_duplicate(double rate, int copies = 1);

  /// Probability a packet picks up extra delay, uniform in [0, max_jitter]
  /// — packets behind it can overtake, i.e. delay-jitter resequencing.
  void set_reorder(double rate, sim::Time max_jitter);

  // --- analytics ------------------------------------------------------------

  /// Long-run probability a (loss-eligible) packet is discarded on the
  /// wire: the loss model's mean rate (`Network::path_loss` compounds it).
  double mean_drop_rate() const { return loss_.mean_loss_rate(); }

 private:
  LossModel loss_;
  double corrupt_rate_ = 0.0;
  double dup_rate_ = 0.0;
  int dup_copies_ = 1;
  double reorder_rate_ = 0.0;
  sim::Time reorder_jitter_ = 0.0;
};

}  // namespace sharq::net
