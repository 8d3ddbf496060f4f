#include "net/conditioner.hpp"

namespace sharq::net {

PacketFate LinkConditioner::next(sim::Rng& rng, const Packet& packet) {
  PacketFate fate;
  // Stage order is fixed so a given seed produces the same draw sequence
  // regardless of which stages are armed (zero-rate stages draw nothing).
  if (!packet.lossless && loss_.drop_next(rng)) fate.drop = true;
  if (rng.bernoulli(corrupt_rate_)) fate.corrupt = true;
  if (rng.bernoulli(dup_rate_)) fate.duplicates += dup_copies_;
  if (rng.bernoulli(reorder_rate_)) {
    fate.extra_delay += rng.uniform(0.0, reorder_jitter_);
  }
  return fate;
}

void LinkConditioner::set_duplicate(double rate, int copies) {
  dup_rate_ = rate;
  dup_copies_ = copies < 1 ? 1 : copies;
}

void LinkConditioner::set_reorder(double rate, sim::Time max_jitter) {
  reorder_rate_ = rate;
  reorder_jitter_ = max_jitter < 0.0 ? 0.0 : max_jitter;
}

}  // namespace sharq::net
