#include "srm/agent.hpp"

#include <algorithm>
#include <cassert>

namespace sharq::srm {

namespace {

/// After sending or hearing a repair, ignore further requests for that
/// seq for this multiple of the distance to the source.
constexpr double kHolddownFactor = 3.0;
/// EWMA gain for distance estimates from session messages.
constexpr double kDistGain = 0.5;
/// Request backoff cap: 2^6 * [C1 d, (C1+C2) d] is already tens of
/// seconds; growing further turns a suppressed receiver into a stalled
/// one when its repairs keep getting lost.
constexpr int kMaxBackoffStage = 6;

}  // namespace

Agent::Agent(net::Network& net, net::ChannelId channel, net::NodeId node,
             Config config, rm::DeliveryLog* log)
    : net_(net),
      simu_(net.simulator_for(node)),
      channel_(channel),
      cfg_(config),
      log_(log),
      rng_(simu_.rng().fork()),
      session_timer_(simu_) {
  net_.attach(node, this);
  net_.subscribe(channel_, node);
}

void Agent::start() { schedule_session(); }

void Agent::schedule_session() {
  const sim::Time delay = rm::session_stagger(rng_, session_msgs_sent_);
  session_timer_.arm(delay, [this] {
    send_session_message();
    schedule_session();
  });
}

void Agent::send_session_message() {
  auto msg = std::make_shared<SessionMsg>();
  msg->sender = node();
  msg->ts = simu_.now();
  msg->max_seq_seen = max_seq_;
  msg->seen_any_data = seen_data_;
  msg->echoes.reserve(peer_clocks_.size());
  for (const auto& [peer, clock] : peer_clocks_) {
    if (!clock.valid) continue;
    msg->echoes.push_back(SessionMsg::Echo{
        peer, clock.last_ts, simu_.now() - clock.heard_at});
  }
  ++session_msgs_sent_;
  net_.send(node(), channel_, net::TrafficClass::kSession,
            session_msg_size(msg->echoes.size()), msg, /*lossless=*/true);
}

void Agent::send_stream(std::uint32_t count, sim::Time start_at) {
  is_source_ = true;
  source_ = node();
  const sim::Time interval =
      static_cast<double>(cfg_.packet_size_bytes) * 8.0 / cfg_.data_rate_bps;
  for (std::uint32_t s = 0; s < count; ++s) {
    simu_.at(
        start_at + interval * s,
        [this, s, count] {
      // Session messages advertise progress only once packets are truly
      // on the wire, otherwise receivers would chase phantom losses.
      seen_data_ = true;
      max_seq_ = std::max(max_seq_, s);
      mark_received(s, nullptr);
          auto msg = std::make_shared<DataMsg>();
          msg->seq = s;
          msg->last = (s + 1 == count);
          net_.send(node(), channel_, net::TrafficClass::kData,
                    cfg_.packet_size_bytes, msg);
        },
        "srm.source.send");
  }
}

sim::Time Agent::distance_to(net::NodeId peer) const {
  auto it = dist_.find(peer);
  return it == dist_.end() ? rm::kDefaultDist : it->second;
}

sim::Time Agent::dist_to_source() const {
  return source_ == net::kNoNode ? rm::kDefaultDist : distance_to(source_);
}

bool Agent::has(std::uint32_t seq) const {
  return seq < have_.size() && have_[seq];
}

void Agent::mark_received(
    std::uint32_t seq,
    const std::shared_ptr<const std::vector<std::uint8_t>>& bytes) {
  if (seq >= have_.size()) {
    have_.resize(seq + 1, false);
    payloads_.resize(seq + 1);
  }
  if (have_[seq]) return;
  have_[seq] = true;
  payloads_[seq] = bytes;
  ++held_;
  if (log_) log_->record(node(), seq, simu_.now());
}

void Agent::on_receive(const net::Packet& packet) {
  if (packet.channel != channel_) return;
  if (const auto* data = packet.as<DataMsg>()) {
    if (source_ == net::kNoNode) source_ = packet.origin;
    on_data(data->seq, data->bytes, net::TrafficClass::kData);
  } else if (const auto* repair = packet.as<RepairMsg>()) {
    handle_repair_heard(repair->seq);
    on_data(repair->seq, repair->bytes, net::TrafficClass::kRepair);
  } else if (const auto* req = packet.as<RequestMsg>()) {
    handle_request(*req);
  } else if (const auto* sess = packet.as<SessionMsg>()) {
    // Record the peer's clock for our next session message.
    PeerClock& clock =
        peer_clocks_.try_emplace(sess->sender, PeerClock{}).first->second;
    clock.last_ts = sess->ts;
    clock.heard_at = simu_.now();
    clock.valid = true;
    // If the peer echoed us, derive the RTT: now - our_ts - peer_hold.
    for (const SessionMsg::Echo& e : sess->echoes) {
      if (e.peer != node()) continue;
      const sim::Time rtt = simu_.now() - e.peer_ts - e.delay;
      if (rtt <= 0.0) break;
      const sim::Time d = rtt / 2.0;
      auto it = dist_.find(sess->sender);
      if (it == dist_.end()) {
        dist_[sess->sender] = d;
      } else {
        it->second = (1.0 - kDistGain) * it->second + kDistGain * d;
      }
      break;
    }
    // Tail-loss detection: the session message advertises the sender's
    // highest sequence; if it exceeds ours we have missed packets we could
    // not detect from gaps alone.
    if (sess->seen_any_data && !is_source_) {
      if (!seen_data_) {
        seen_data_ = true;
        max_seq_ = 0;
        if (!has(0)) start_request(0);
      }
      if (sess->max_seq_seen > max_seq_) {
        note_gap_up_to(sess->max_seq_seen);
        if (!has(sess->max_seq_seen)) start_request(sess->max_seq_seen);
        max_seq_ = sess->max_seq_seen;
      }
    }
  }
}

void Agent::on_data(
    std::uint32_t seq,
    const std::shared_ptr<const std::vector<std::uint8_t>>& bytes,
    net::TrafficClass) {
  if (!seen_data_) {
    seen_data_ = true;
    // Everything before the first packet we ever saw is also missing.
    for (std::uint32_t q = 0; q < seq; ++q) {
      if (!has(q)) start_request(q);
    }
    max_seq_ = seq;
  } else if (seq > max_seq_) {
    note_gap_up_to(seq);
    max_seq_ = seq;
  }
  const bool was_new = !has(seq);
  mark_received(seq, bytes);
  if (was_new) {
    auto it = requests_.find(seq);
    if (it != requests_.end()) {
      adapt_request_timers(it->second, simu_.now());
      requests_.erase(it);
    }
  }
}

void Agent::note_gap_up_to(std::uint32_t new_max) {
  // Packets (max_seq_, new_max) exclusive are now known missing.
  const std::uint32_t from = seen_data_ ? max_seq_ + 1 : 0;
  for (std::uint32_t q = from; q < new_max; ++q) {
    if (!has(q)) start_request(q);
  }
}

void Agent::start_request(std::uint32_t seq) {
  if (is_source_ || has(seq)) return;
  if (requests_.contains(seq)) return;
  auto it = requests_.try_emplace(seq, simu_).first;
  it->second.detected_at = simu_.now();
  const sim::Time delay =
      timers_.request_delay(rng_, dist_to_source(), it->second.backoff);
  it->second.timer.arm(delay, [this, seq] { fire_request(seq); });
}

void Agent::fire_request(std::uint32_t seq) {
  auto it = requests_.find(seq);
  if (it == requests_.end() || has(seq)) return;
  auto msg = std::make_shared<RequestMsg>();
  msg->seq = seq;
  msg->requester = node();
  ++requests_sent_;
  it->second.requested_once = true;
  net_.send(node(), channel_, net::TrafficClass::kNack, kRequestSize, msg,
            /*lossless=*/true);
  // Back off and wait for the repair; if none arrives the timer refires.
  it->second.backoff = std::min(it->second.backoff + 1, kMaxBackoffStage);
  const sim::Time delay =
      timers_.request_delay(rng_, dist_to_source(), it->second.backoff);
  it->second.timer.arm(delay, [this, seq] { fire_request(seq); });
}

void Agent::handle_request(const RequestMsg& req) {
  const std::uint32_t seq = req.seq;
  if (has(seq)) {
    // We can repair. Suppress if a reply is already pending or we are in
    // the post-repair holddown for this sequence.
    auto hd = holddown_until_.find(seq);
    if (hd != holddown_until_.end() && simu_.now() < hd->second) return;
    if (replies_.contains(seq)) return;
    auto it = replies_.try_emplace(seq, simu_).first;
    it->second.requester = req.requester;
    const sim::Time delay =
        timers_.reply_delay(rng_, distance_to(req.requester));
    it->second.timer.arm(delay, [this, seq] {
      auto jt = replies_.find(seq);
      if (jt == replies_.end()) return;
      auto msg = std::make_shared<RepairMsg>();
      msg->seq = seq;
      msg->repairer = node();
      msg->bytes = seq < payloads_.size() ? payloads_[seq] : nullptr;
      ++repairs_sent_;
      net_.send(node(), channel_, net::TrafficClass::kRepair,
                cfg_.packet_size_bytes, msg);
      holddown_until_[seq] = simu_.now() + kHolddownFactor * dist_to_source();
      replies_.erase(jt);
      adapt_reply_timers(/*was_duplicate=*/false);
    });
    return;
  }
  // We are missing it too: suppression. Hearing another host's request
  // makes us back off our own pending request (SRM exponential backoff).
  if (seen_data_ && seq > max_seq_) {
    note_gap_up_to(seq);
    max_seq_ = std::max(max_seq_, seq);
  }
  auto it = requests_.find(seq);
  if (it == requests_.end()) {
    // We had not detected this loss yet.
    start_request(seq);
    return;
  }
  PendingRequest& pr = it->second;
  if (pr.requested_once) ++pr.dup_requests;
  pr.backoff = std::min(pr.backoff + 1, kMaxBackoffStage);
  const sim::Time delay =
      timers_.request_delay(rng_, dist_to_source(), pr.backoff);
  pr.timer.arm(delay, [this, seq] { fire_request(seq); });
}

void Agent::handle_repair_heard(std::uint32_t seq) {
  // A repair suppresses our own pending reply for the same data.
  auto it = replies_.find(seq);
  if (it != replies_.end()) {
    replies_.erase(it);
    adapt_reply_timers(/*was_duplicate=*/true);
  }
  if (has(seq)) {
    holddown_until_[seq] =
        simu_.now() + kHolddownFactor * dist_to_source();
  }
}

void Agent::adapt_reply_timers(bool was_duplicate) {
  // Mirror of the request adaptation (Floyd et al. '95): widen the reply
  // window when our replies keep colliding with other repairers'; shrink
  // it slowly while we answer without duplication.
  ave_dup_rep_ = 0.75 * ave_dup_rep_ + 0.25 * (was_duplicate ? 1.0 : 0.0);
  if (ave_dup_rep_ >= 0.5) {
    timers_.d1 += 0.05;
    timers_.d2 += 0.25;
  } else if (ave_dup_rep_ < 0.2) {
    timers_.d1 -= 0.025;
    timers_.d2 -= 0.05;
  }
  timers_.d1 = std::clamp(timers_.d1, rm::kAdaptiveMin.d1, rm::kAdaptiveMax.d1);
  timers_.d2 = std::clamp(timers_.d2, rm::kAdaptiveMin.d2, rm::kAdaptiveMax.d2);
}

void Agent::adapt_request_timers(const PendingRequest& done, sim::Time now) {
  if (!done.requested_once && done.dup_requests == 0) {
    // Recovered purely by someone else's request/repair: counts as zero
    // duplicates and does not update the delay average.
    ave_dup_req_ = 0.75 * ave_dup_req_;
    return;
  }
  const double d = std::max(dist_to_source(), 1e-6);
  const double delay_units = (now - done.detected_at) / d;
  ave_dup_req_ = 0.75 * ave_dup_req_ + 0.25 * done.dup_requests;
  ave_req_delay_ = 0.75 * ave_req_delay_ + 0.25 * delay_units;
  // Floyd et al. '95: grow the window when duplicates are common; shrink
  // it (bounded) when duplicates are rare but recovery is slow.
  if (ave_dup_req_ >= 1.0) {
    timers_.c1 += 0.1;
    timers_.c2 += 0.5;
  } else if (ave_dup_req_ < 0.9) {
    if (ave_req_delay_ > 2.0 * (timers_.c1 + timers_.c2)) timers_.c2 -= 0.1;
    timers_.c1 -= 0.05;
  }
  timers_.c1 = std::clamp(timers_.c1, rm::kAdaptiveMin.c1, rm::kAdaptiveMax.c1);
  timers_.c2 = std::clamp(timers_.c2, rm::kAdaptiveMin.c2, rm::kAdaptiveMax.c2);
}

}  // namespace sharq::srm
