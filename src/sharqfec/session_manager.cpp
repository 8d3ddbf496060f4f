#include "sharqfec/session_manager.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "sharqfec/ewma.hpp"
#include "stats/profiler.hpp"

namespace sharq::sfq {

namespace {
constexpr double kDistEps = 1e-4;  // exact-tie margin for suppression

/// Election hysteresis: challenge-derived distances carry ~1 ms of noise
/// (serialization of session messages inflates some measured components
/// and not others), so a claim must beat the incumbent by a real margin
/// or the election would churn between near-equal receivers forever.
double election_margin(double a, double b) {
  return std::max(0.002, 0.05 * std::max(a, b));
}
}

SessionManager::SessionManager(net::Network& net, Hierarchy& hier,
                               std::shared_ptr<const Config> cfg,
                               net::NodeId node, bool is_source)
    : net_(net),
      simu_(net.simulator_for(node)),
      hier_(hier),
      cfg_(std::move(cfg)),
      node_(node),
      is_source_(is_source),
      rng_(net.simulator_for(node).rng().fork()),
      chain_(hier.chain(node)),
      session_timer_(net.simulator_for(node)),
      next_challenge_id_(static_cast<std::uint64_t>(node) << 32 | 1u) {
  session_timer_.set_tag("session.beacon");
  levels_.reserve(chain_.size());
  for (net::ZoneId z : chain_) levels_.emplace_back(z, simu_);
  // The source is the static ZCR of the root zone (the paper's "top ZCR").
  if (is_source_) {
    Level& root = levels_.back();
    root.zcr = node_;
    root.zcr_parent_dist = 0.0;
  }
  journal_ = cfg_->journal;
  // Provider-configured static ZCRs (paper §5.2): seed the election state
  // so zones converge instantly; the challenge machinery stays armed for
  // failover.
  for (Level& lv : levels_) {
    auto it = cfg_->static_zcrs.find(lv.zone);
    if (it == cfg_->static_zcrs.end()) continue;
    lv.zcr = it->second;
    lv.zcr_last_heard = 0.0;
  }
}

void SessionManager::export_metrics(stats::Metrics& m) const {
  const std::string node = std::to_string(node_);
  const stats::Labels by_node{{"node", node}};
  m.counter("sharqfec.rtt_samples", by_node).inc(rtt_samples_);
  m.counter("sharqfec.zcr_challenges", by_node).inc(challenges_sent_);
  m.counter("sharqfec.zcr_takeovers", by_node).inc(takeovers_sent_);
  m.counter("sharqfec.zcr_expiries", by_node).inc(zcr_expiries_);
  m.counter("sharqfec.peers_expired", by_node).inc(peers_expired_);
  // Fleet-wide (unlabeled): one registry child regardless of receiver
  // count.
  m.gauge("sharqfec.peer_table_high_water")
      .set_max(static_cast<double>(peer_table_hw_));
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const stats::Labels by_scope{{"node", node}, {"scope", std::to_string(l)}};
    m.counter("sharqfec.session_msgs", by_scope).inc(levels_[l].session_msgs);
  }
}

std::uint64_t SessionManager::session_messages_sent() const {
  std::uint64_t n = 0;
  for (const Level& lv : levels_) n += lv.session_msgs;
  return n;
}

void SessionManager::memory_census(stats::MemCensus& census) const {
  // Each table is one heap block of `capacity` entries; vectors never
  // shrink, so the block is both the live and the retained figure.
  std::uint64_t tables = 0;
  for (const Level& lv : levels_) {
    tables += stats::vector_block_bytes(lv.peers) +
              stats::vector_block_bytes(lv.bridge_rtt);
  }
  census.add("peer_tables", tables, tables);
  census.add("rng_streams", sizeof(rng_), sizeof(rng_));
  // The object itself and its per-level state, election timers included
  // (held inline). The tables inside the levels are counted above.
  const std::uint64_t self =
      stats::heap_block_bytes(sizeof(SessionManager)) - sizeof(rng_) +
      stats::vector_block_bytes(levels_) +
      challenges_.size() *
          stats::heap_block_bytes(stats::kTreeNodeHeader +
                                  sizeof(decltype(challenges_)::value_type));
  census.add("agent_objects", self, self);
}

stats::EventId SessionManager::jnl(const char* ev, stats::EventId cause,
                                   const stats::Attrs& attrs) {
  if (!journal_) return 0;
  return journal_->emit(ev, simu_.now(), node_, /*group=*/-1, cause, attrs);
}

void SessionManager::start() {
  schedule_session();
  // Election: the root has a static ZCR; every other level arms its
  // watchdog (members) and, if we ever become ZCR, a challenge timer.
  for (int l = 0; l + 1 < static_cast<int>(levels_.size()); ++l) {
    schedule_watchdog(l);
    // A statically configured ZCR (including us) skips the election, so
    // nothing has armed its challenge rounds yet. Without them it never
    // measures its distance to the parent ZCR, and with no measured claim
    // it cannot reassert against a usurper after a partition heals.
    if (levels_[l].zcr == node_) schedule_challenge(l);
  }
}

void SessionManager::stop() {
  session_timer_.cancel();
  for (Level& lv : levels_) {
    lv.challenge_timer.cancel();
    lv.watchdog.cancel();
    lv.takeover_timer.cancel();
  }
}

int SessionManager::level_index(net::ZoneId z) const {
  for (std::size_t l = 0; l < chain_.size(); ++l) {
    if (chain_[l] == z) return static_cast<int>(l);
  }
  return -1;
}

net::NodeId SessionManager::expected_bridge(int level) const {
  if (level == 0) return levels_[0].zcr;
  return levels_[level - 1].zcr;
}

bool SessionManager::participates_at(int level) const {
  if (level == 0) return true;
  // Paper: the ZCR for a zone participates in RTT determination for that
  // zone *and* its parent zone. A node can be ZCR of a zone that is not
  // its smallest (e.g. a leaf elected for the whole subtree at bootstrap),
  // so both directions must be checked.
  return levels_[level - 1].zcr == node_ || levels_[level].zcr == node_;
}

bool SessionManager::is_zcr(net::ZoneId z) const {
  const int l = level_index(z);
  return l >= 0 && levels_[l].zcr == node_;
}

net::NodeId SessionManager::zcr_of(net::ZoneId z) const {
  const int l = level_index(z);
  return l < 0 ? net::kNoNode : levels_[l].zcr;
}

double SessionManager::direct_rtt(net::ZoneId z, net::NodeId peer) const {
  const int l = level_index(z);
  if (l < 0) return -1.0;
  auto it = levels_[l].peers.find(peer);
  return it == levels_[l].peers.end() ? -1.0 : it->second.rtt;
}

double SessionManager::max_rtt_in_zone(net::ZoneId z) const {
  const int l = level_index(z);
  double best = -1.0;
  if (l >= 0) {
    for (const auto& [peer, p] : levels_[l].peers) {
      best = std::max(best, p.rtt);
    }
  }
  return best > 0.0 ? best : 2.0 * rm::kDefaultDist;
}

double SessionManager::dist_to_zcr_at(int level) const {
  if (level < 0 || level >= static_cast<int>(levels_.size())) return -1.0;
  // Highest level at or below `level` where we ourselves are the ZCR:
  // distance accumulates from there upward via ZCR->parent-ZCR segments.
  int start = -1;
  for (int l = level; l >= 0; --l) {
    if (levels_[l].zcr == node_) {
      start = l;
      break;
    }
  }
  double d = 0.0;
  if (start < 0) {
    const Level& l0 = levels_[0];
    if (l0.zcr == net::kNoNode) return -1.0;
    auto it = l0.peers.find(l0.zcr);
    if (it == l0.peers.end() || it->second.rtt < 0.0) return -1.0;
    d = it->second.rtt / 2.0;
    start = 0;
  }
  for (int l = start; l < level; ++l) {
    if (levels_[l].zcr_parent_dist < 0.0) return -1.0;
    d += levels_[l].zcr_parent_dist;
  }
  return d;
}

std::vector<RttHint> SessionManager::make_hints() const {
  std::vector<RttHint> hints;
  hints.reserve(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Level& lv = levels_[l];
    if (lv.zcr == net::kNoNode) continue;
    const double d = dist_to_zcr_at(static_cast<int>(l));
    if (d < 0.0) continue;
    hints.push_back(RttHint{lv.zone, lv.zcr, d});
  }
  return hints;
}

double SessionManager::estimate_dist(net::NodeId peer,
                                     const std::vector<RttHint>& hints) const {
  if (peer == node_) return 0.0;
  // Direct measurement at any level we participate in wins.
  for (const Level& lv : levels_) {
    auto it = lv.peers.find(peer);
    if (it != lv.peers.end() && it->second.rtt >= 0.0) {
      return it->second.rtt / 2.0;
    }
  }
  const net::ZoneId common = hier_.common_zone(node_, peer);
  if (common == net::kNoZone) return rm::kDefaultDist;
  const int lc = level_index(common);
  if (lc < 0) return rm::kDefaultDist;

  const net::NodeId bridge = expected_bridge(lc);
  if (bridge == net::kNoNode) return rm::kDefaultDist;
  const double base = dist_to_zcr_at(lc == 0 ? 0 : lc - 1);
  if (base < 0.0) return rm::kDefaultDist;
  if (peer == bridge) return base;

  const Level& lv = levels_[lc];
  // Peer participates directly in the common zone?
  auto direct = lv.bridge_rtt.find(peer);
  if (direct != lv.bridge_rtt.end() && direct->second >= 0.0) {
    return base + direct->second / 2.0;
  }
  // Peer sits behind a sibling zone: find its hint for the child-of-common
  // zone and bridge through that zone's ZCR.
  for (const RttHint& h : hints) {
    if (h.zone == common || hier_.zone_contains(h.zone, node_)) continue;
    // h.zone must be a child of the common zone on the peer's side.
    // (The hierarchy is shared configuration, so parent() is available.)
    if (!hier_.scoping()) break;
    if (hier_.parent(h.zone) != common) continue;
    if (h.zcr == bridge) return base + h.dist;
    auto sib = lv.bridge_rtt.find(h.zcr);
    if (sib != lv.bridge_rtt.end() && sib->second >= 0.0) {
      return base + sib->second / 2.0 + h.dist;
    }
  }
  return rm::kDefaultDist;
}

void SessionManager::ewma_rtt(double& slot, double sample) const {
  // Shared sentinel convention with the transfer engine's inter-arrival
  // estimator (sharqfec/ewma.hpp): unset slots are negative, the first
  // accepted sample seeds directly.
  ewma_update(slot, sample, kRttGain);
}

// --- session messages -------------------------------------------------------

void SessionManager::schedule_session() {
  const sim::Time delay = rm::session_stagger(rng_, session_rounds_);
  session_timer_.arm(delay, [this] {
    SHARQ_PROF_SCOPE(session);
    send_session_messages();
    ++session_rounds_;
    // Prune challenge timings that never saw a response.
    for (auto it = challenges_.begin(); it != challenges_.end();) {
      if (simu_.now() - it->second.heard_at > 5.0) {
        it = challenges_.erase(it);
      } else {
        ++it;
      }
    }
    expire_silent_peers();
    schedule_session();
  });
}

void SessionManager::expire_silent_peers() {
  for (Level& lv : levels_) {
    for (auto it = lv.peers.begin(); it != lv.peers.end();) {
      if (simu_.now() - it->second.heard_at > kPeerExpiry) {
        // Crashed (or partitioned-away) peer: its RTT samples and bridge
        // entries would otherwise feed stale distances into repair timers
        // forever. Re-arrival simply re-measures from scratch.
        lv.bridge_rtt.erase(it->first);
        it = lv.peers.erase(it);
        ++peers_expired_;
      } else {
        ++it;
      }
    }
  }
}

std::size_t SessionManager::peer_table_size(int level) const {
  // Sized once, on first use, when every member has joined. A member
  // never hears itself, so its own zone holds one fewer peer. Tables only
  // outgrow this while an election turns over or a dead ZCR awaits expiry.
  std::size_t n = hier_.session_peer_bound(levels_[level].zone);
  if (level == 0 && n > 0) --n;
  return std::max<std::size_t>(n, 1);
}

std::size_t SessionManager::tracked_peer_count() const {
  std::size_t n = 0;
  for (const Level& lv : levels_) n += lv.peers.size() + lv.bridge_rtt.size();
  return n;
}

void SessionManager::send_session_messages() {
  for (int l = 0; l < static_cast<int>(levels_.size()); ++l) {
    if (participates_at(l)) send_session_for_level(l);
  }
}

void SessionManager::send_session_for_level(int level) {
  Level& lv = levels_[level];
  auto msg = std::make_shared<SessionMsg>();
  msg->sender = node_;
  msg->zone = lv.zone;
  msg->ts = simu_.now();
  msg->zcr = lv.zcr;
  msg->zcr_parent_dist = lv.zcr_parent_dist;
  if (progress_) {
    auto [mg, any] = progress_();
    msg->max_group_seen = mg;
    msg->seen_any_data = any;
  }
  msg->entries.reserve(lv.peers.size());
  for (const auto& [peer, p] : lv.peers) {
    SessionMsg::Entry e;
    e.peer = peer;
    e.peer_ts = p.last_ts;
    e.delay = simu_.now() - p.heard_at;
    e.rtt_est = p.rtt;
    msg->entries.push_back(e);
  }
  ++lv.session_msgs;
  net_.send(node_, hier_.session_channel(lv.zone), net::TrafficClass::kSession,
            session_size(msg->entries.size()), msg, /*lossless=*/true);
}

void SessionManager::handle_session(const SessionMsg& msg, int level) {
  Level& lv = levels_[level];
  // Learn/refresh the zone's ZCR.
  if (msg.zcr != net::kNoNode) {
    if (lv.zcr == net::kNoNode) {
      adopt_zcr(level, msg.zcr, msg.zcr_parent_dist);
    } else if (msg.sender == msg.zcr && msg.zcr == lv.zcr &&
               msg.zcr_parent_dist >= 0.0) {
      lv.zcr_parent_dist = msg.zcr_parent_dist;
    } else if (msg.sender == lv.zcr && msg.zcr != msg.sender &&
               msg.sender != node_) {
      // The node we believed to be ZCR disclaims the role: adopt its view
      // so a zone whose takeovers crossed in flight re-converges.
      adopt_zcr(level, msg.zcr, msg.zcr_parent_dist);
    } else if (msg.zcr != lv.zcr && msg.sender == msg.zcr &&
               msg.zcr_parent_dist >= 0.0) {
      // Rival claimant: a ZCR that was partitioned away misses the
      // zone's re-election (takeovers are one-shot), so after the heal
      // both old and new ZCR advertise the role in their session
      // messages forever. Resolve the split deterministically with the
      // same ordering elections use: adopt the better claim, and if we
      // hold the role with the better claim, reassert it to the rival.
      if (claim_beats(msg.zcr_parent_dist, msg.zcr, lv.zcr_parent_dist,
                      lv.zcr)) {
        adopt_zcr(level, msg.zcr, msg.zcr_parent_dist);
      } else if (lv.zcr == node_ && lv.zcr_parent_dist >= 0.0) {
        become_zcr(level, lv.zcr_parent_dist);
      }
    }
  }
  if (msg.sender == lv.zcr) lv.zcr_last_heard = simu_.now();

  // Clock bookkeeping + RTT measurement for channels we participate in.
  auto pit = lv.peers.find(msg.sender);
  if (pit == lv.peers.end()) {
    if (lv.peers.capacity() == 0) lv.peers.reserve(peer_table_size(level));
    pit = lv.peers.try_emplace(msg.sender, Peer{}).first;
    peer_table_hw_ = std::max(peer_table_hw_, lv.peers.size());
  }
  Peer& peer = pit->second;
  peer.last_ts = msg.ts;
  peer.heard_at = simu_.now();
  for (const SessionMsg::Entry& e : msg.entries) {
    if (e.peer == node_ && e.peer_ts > 0.0) {
      const double rtt = simu_.now() - e.peer_ts - e.delay;
      if (rtt > 0.0) {
        ewma_rtt(peer.rtt, rtt);
        ++rtt_samples_;
      }
      break;
    }
  }
  // Bridge-table learning: announcements from the bridge ZCR expose its
  // RTTs to the peers of this zone.
  if (msg.sender == expected_bridge(level)) {
    for (const SessionMsg::Entry& e : msg.entries) {
      if (e.rtt_est < 0.0) continue;
      auto slot = lv.bridge_rtt.find(e.peer);
      if (slot == lv.bridge_rtt.end()) {
        if (lv.bridge_rtt.capacity() == 0) {
          lv.bridge_rtt.reserve(peer_table_size(level));
        }
        slot = lv.bridge_rtt.try_emplace(e.peer, -1.0).first;
      }
      ewma_rtt(slot->second, e.rtt_est);
    }
  }
  if (on_progress_ && msg.seen_any_data) on_progress_(msg.max_group_seen);
}

// --- ZCR election -----------------------------------------------------------

void SessionManager::schedule_challenge(int level) {
  Level& lv = levels_[level];
  if (lv.zcr != node_) return;
  if (level + 1 >= static_cast<int>(levels_.size())) return;  // root
  const sim::Time period =
      kZcrChallengePeriod * rng_.uniform(0.8, 1.2);
  lv.challenge_timer.arm(period, [this, level] {
    SHARQ_PROF_SCOPE(session);
    if (levels_[level].zcr == node_) {
      issue_challenge(level);
      schedule_challenge(level);
    }
  });
}

void SessionManager::schedule_watchdog(int level) {
  Level& lv = levels_[level];
  // The first firing comes quickly (bootstrap election inside the session
  // warm-up window); steady-state monitoring is much lazier.
  const bool bootstrap = lv.zcr == net::kNoNode;
  const sim::Time period =
      bootstrap ? kZcrBootstrapDelay * rng_.uniform(1.0, 2.0)
                : kZcrWatchdogPeriod * rng_.uniform(1.0, 1.5);
  lv.watchdog.arm(period, [this, level] {
    SHARQ_PROF_SCOPE(session);
    Level& l = levels_[level];
    const bool parent_known =
        level + 1 < static_cast<int>(levels_.size()) &&
        levels_[level + 1].zcr != net::kNoNode;
    const bool zcr_silent =
        l.zcr == net::kNoNode ||
        (l.zcr != node_ && (l.zcr_last_heard == sim::kTimeNever ||
                            simu_.now() - l.zcr_last_heard >
                                kZcrWatchdogPeriod));
    // Top-down rule: children back off until the parent zone has a ZCR.
    if (parent_known && zcr_silent && l.zcr != node_) {
      // A silent ZCR is presumed dead: drop its (possibly better) claim
      // so the surviving receivers can elect among themselves.
      if (l.zcr != net::kNoNode) {
        if (journal_) {
          jnl("zcr.expired", 0, {{"old_zcr", l.zcr}, {"zone", l.zone}});
        }
        l.zcr = net::kNoNode;
        l.zcr_parent_dist = -1.0;
        ++zcr_expiries_;
      }
      issue_challenge(level);
    }
    schedule_watchdog(level);
  });
}

void SessionManager::issue_challenge(int level) {
  if (level + 1 >= static_cast<int>(levels_.size())) return;
  const net::ZoneId parent_zone = chain_[level + 1];
  auto msg = std::make_shared<ZcrChallengeMsg>();
  msg->challenger = node_;
  msg->zone = chain_[level];
  msg->challenge_id = next_challenge_id_++;
  challenges_[msg->challenge_id] =
      PendingChallenge{msg->zone, node_, simu_.now(), true};
  ++challenges_sent_;
  const std::uint64_t uid =
      net_.send(node_, hier_.session_channel(parent_zone),
                net::TrafficClass::kControl, kChallengeSize, msg,
                /*lossless=*/true);
  if (journal_) {
    // Challenges start rounds (periodic or watchdog-driven): cause 0.
    journal_->bind_uid(
        uid, jnl("zcr.challenge", 0,
                 {{"challenge_id", msg->challenge_id}, {"zone", msg->zone}}));
  }
}

void SessionManager::handle_challenge(const ZcrChallengeMsg& msg) {
  const int l = level_index(msg.zone);
  if (l >= 0 && msg.challenger != node_) {
    // We are a member of the challenged zone: time the exchange.
    challenges_[msg.challenge_id] =
        PendingChallenge{msg.zone, msg.challenger, simu_.now(), false};
  }
  // If we are the ZCR of the challenged zone's parent, respond (the
  // challenge may come from a sibling zone not on our chain).
  const net::ZoneId parent_zone = hier_.parent(msg.zone);
  if (parent_zone == net::kNoZone) return;
  const int pl = level_index(parent_zone);
  if (pl < 0 || levels_[pl].zcr != node_) return;
  auto resp = std::make_shared<ZcrResponseMsg>();
  resp->responder = node_;
  resp->zone = msg.zone;
  resp->challenge_id = msg.challenge_id;
  resp->processing_delay = kZcrProcessingDelay;
  simu_.after(
      kZcrProcessingDelay,
      [this, resp, parent_zone, cause = cause_in_] {
        const std::uint64_t uid =
            net_.send(node_, hier_.session_channel(parent_zone),
                      net::TrafficClass::kControl, kResponseSize, resp,
                      /*lossless=*/true);
        if (journal_) {
          journal_->bind_uid(
              uid, jnl("zcr.response", cause,
                       {{"challenge_id", resp->challenge_id},
                        {"zone", resp->zone}}));
        }
      },
      "session.response");
}

void SessionManager::handle_response(const ZcrResponseMsg& msg) {
  auto it = challenges_.find(msg.challenge_id);
  if (it == challenges_.end()) return;
  const PendingChallenge pc = it->second;
  challenges_.erase(it);
  const int l = level_index(pc.zone);
  if (l < 0) return;
  Level& lv = levels_[l];

  double my_dist = -1.0;
  if (pc.mine) {
    // Round trip we initiated: exact distance to the parent ZCR.
    my_dist =
        (simu_.now() - pc.heard_at - msg.processing_delay) / 2.0;
  } else {
    // Paper's formula: dist_to_parentZCR = dist_to_localZCR +
    // (t_reply - t_challenge) - dist(localZCR -> parentZCR).
    const double to_local = dist_to_zcr_at(l);
    if (to_local < 0.0 || lv.zcr_parent_dist < 0.0) return;
    my_dist = to_local + (simu_.now() - pc.heard_at - msg.processing_delay) -
              lv.zcr_parent_dist;
  }
  if (my_dist < 0.0) my_dist = 0.0;

  if (lv.zcr == node_) {
    // Refresh our own advertised distance — but only from rounds we
    // initiated. The observed-challenge formula is relative to the local
    // ZCR, i.e. ourselves, so it degenerates to (elapsed - zcr_parent_dist)
    // and shrinks our claim a little every observed round; a usurper
    // refreshing from it becomes unbeatable by the legitimate ZCR (found
    // by the chaos soak: post-partition re-election never converged back).
    if (pc.mine) lv.zcr_parent_dist = my_dist;
    return;
  }
  consider_takeover(l, my_dist);
}

void SessionManager::consider_takeover(int level, double my_dist) {
  Level& lv = levels_[level];
  if (!claim_beats(my_dist, node_, lv.zcr_parent_dist, lv.zcr)) return;
  if (lv.takeover_timer.pending() && lv.candidate_dist <= my_dist) return;
  lv.candidate_dist = my_dist;
  lv.takeover_cause = cause_in_;  // the response that revealed a better claim
  const sim::Time delay =
      kTakeoverDelayFactor * my_dist + rng_.uniform(0.0, 0.01);
  lv.takeover_timer.arm(delay, [this, level] {
    Level& l = levels_[level];
    if (l.zcr == node_) return;
    if (!claim_beats(l.candidate_dist, node_, l.zcr_parent_dist, l.zcr)) {
      return;  // someone better announced meanwhile
    }
    become_zcr(level, l.candidate_dist);
  });
}

void SessionManager::become_zcr(int level, double dist_to_parent) {
  Level& lv = levels_[level];
  lv.zcr = node_;
  lv.zcr_parent_dist = dist_to_parent;
  lv.zcr_last_heard = simu_.now();
  stats::EventId takeover_ev = 0;
  if (journal_) {
    takeover_ev = jnl("zcr.takeover", lv.takeover_cause,
                      {{"dist", dist_to_parent}, {"zone", lv.zone}});
    lv.takeover_cause = 0;
  }
  auto announce = [&](net::ZoneId zone) {
    auto msg = std::make_shared<ZcrTakeoverMsg>();
    msg->new_zcr = node_;
    msg->zone = lv.zone;
    msg->dist_to_parent = dist_to_parent;
    ++takeovers_sent_;
    const std::uint64_t uid =
        net_.send(node_, hier_.session_channel(zone),
                  net::TrafficClass::kControl, kTakeoverSize, msg,
                  /*lossless=*/true);
    if (journal_) journal_->bind_uid(uid, takeover_ev);
  };
  announce(lv.zone);
  if (level + 1 < static_cast<int>(levels_.size())) {
    announce(chain_[level + 1]);
  }
  schedule_challenge(level);
}

void SessionManager::adopt_zcr(int level, net::NodeId who, double dist) {
  Level& lv = levels_[level];
  lv.zcr = who;
  if (dist >= 0.0) lv.zcr_parent_dist = dist;
  lv.zcr_last_heard = simu_.now();
  if (who == node_) schedule_challenge(level);
}

/// Deterministic claim ordering so concurrent takeovers converge on every
/// node regardless of arrival order: smaller distance wins, node id breaks
/// near-ties.
bool SessionManager::claim_beats(double dist_a, net::NodeId a, double dist_b,
                                 net::NodeId b) {
  if (b == net::kNoNode || dist_b < 0.0) return true;
  const double margin = election_margin(dist_a, dist_b);
  if (dist_a + margin < dist_b) return true;                 // clearly closer
  if (dist_a < dist_b + margin && a < b) return true;        // near-tie: id
  return false;
}

void SessionManager::handle_takeover(const ZcrTakeoverMsg& msg) {
  const int l = level_index(msg.zone);
  if (l < 0) return;  // a sibling zone's affair
  Level& lv = levels_[l];
  if (lv.zcr == node_ && msg.new_zcr != node_) {
    // Reassert if we are in fact the better claimant (paper: the true ZCR
    // "reasserts its superiority as soon as the usurper attempts to issue
    // a takeover message").
    if (lv.zcr_parent_dist >= 0.0 &&
        claim_beats(lv.zcr_parent_dist, node_, msg.dist_to_parent,
                    msg.new_zcr)) {
      lv.takeover_cause = cause_in_;  // reassertion answers the usurper
      become_zcr(l, lv.zcr_parent_dist);
      return;
    }
  }
  // Adopt only a strictly better claim than the incumbent's; stale or
  // worse claims are ignored so crossing takeovers cannot split the zone.
  if (msg.new_zcr != lv.zcr &&
      !claim_beats(msg.dist_to_parent, msg.new_zcr, lv.zcr_parent_dist,
                   lv.zcr)) {
    return;
  }
  if (lv.takeover_timer.pending() &&
      !claim_beats(lv.candidate_dist, node_, msg.dist_to_parent,
                   msg.new_zcr)) {
    lv.takeover_timer.cancel();
  }
  adopt_zcr(l, msg.new_zcr, msg.dist_to_parent);
}

// --- dispatch ----------------------------------------------------------------

bool SessionManager::handle(const net::Packet& packet) {
  const auto* s = packet.as<SessionMsg>();
  const auto* c = s ? nullptr : packet.as<ZcrChallengeMsg>();
  const auto* r = s || c ? nullptr : packet.as<ZcrResponseMsg>();
  const auto* t = s || c || r ? nullptr : packet.as<ZcrTakeoverMsg>();
  if (!s && !c && !r && !t) return false;
  SHARQ_PROF_SCOPE(session);
  // Cross-node causality: whatever this packet triggers is caused by the
  // event that sent it (bound to the uid on the sender's side).
  cause_in_ = journal_ ? journal_->uid_event(packet.uid) : 0;
  if (s) {
    const int l = level_index(s->zone);
    if (l >= 0) handle_session(*s, l);
  } else if (c) {
    handle_challenge(*c);
  } else if (r) {
    handle_response(*r);
  } else {
    handle_takeover(*t);
  }
  return true;
}

}  // namespace sharq::sfq
