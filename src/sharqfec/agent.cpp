#include "sharqfec/agent.hpp"

#include <string>

#include "stats/profiler.hpp"

namespace sharq::sfq {

Agent::Agent(net::Network& net, Hierarchy& hier,
             std::shared_ptr<const Config> cfg,
             std::shared_ptr<const fec::ReedSolomon> codec,
             fec::ShardStore& store, net::NodeId node, bool is_source,
             rm::DeliveryLog* log)
    : is_source_(is_source) {
  recent_uids_.fill(~std::uint64_t{0});
  net.attach(node, this);
  journal_ = cfg->journal;
  session_ =
      std::make_unique<SessionManager>(net, hier, cfg, node, is_source);
  transfer_ = std::make_unique<TransferEngine>(
      net, hier, *session_, std::move(cfg), std::move(codec), store, node,
      is_source, log);
  session_->set_progress_provider([this] {
    return std::make_pair(transfer_->max_group_seen(),
                          transfer_->seen_any_data());
  });
  session_->set_progress_listener(
      [this](std::uint32_t g) { transfer_->note_remote_progress(g); });
}

void Agent::export_metrics(stats::Metrics& m) const {
  const stats::Labels by_node{{"node", std::to_string(node())}};
  m.counter("sharqfec.corrupt_rejects", by_node).inc(corrupt_rejects_);
  m.counter("sharqfec.duplicate_rejects", by_node).inc(duplicate_rejects_);
  session_->export_metrics(m);
  transfer_->export_metrics(m);
}

bool Agent::first_sighting(std::uint64_t uid) {
  // A branch-free scan of the whole ring: 1 KiB of contiguous compares,
  // cheaper than hashing into (and evicting from) a node-based set.
  bool seen = false;
  for (std::uint64_t u : recent_uids_) seen |= u == uid;
  if (seen) return false;
  recent_uids_[ring_next_] = uid;
  ring_next_ = (ring_next_ + 1) % kDedupRingSlots;
  return true;
}

bool Agent::admit(const net::Packet& packet) {
  SHARQ_PROF_SCOPE(agent_rx);
  // Hostile-wire hardening, in checksum order: a corrupt packet's payload
  // is untrustworthy (reject before any field is read), and a duplicated
  // uid has already been processed (idempotence without asking every
  // handler to re-check).
  const char* reason = nullptr;
  if (packet.corrupted) {
    ++corrupt_rejects_;
    reason = "corrupt";
  } else if (!first_sighting(packet.uid)) {
    ++duplicate_rejects_;
    reason = "duplicate";
  } else {
    return true;
  }
  if (journal_) {
    journal_->emit("pkt.rejected", network().simulator_for(node()).now(), node(),
                   /*group=*/-1, journal_->uid_event(packet.uid),
                   {{"class", net::to_string(packet.cls)}, {"reason", reason}});
  }
  return false;
}

void Agent::on_receive(const net::Packet& packet) {
  // Each handler opens its own profiler scope only for its own message
  // types.
  if (!admit(packet)) return;
  if (transfer_->handle(packet)) return;
  session_->handle(packet);
}

}  // namespace sharq::sfq
