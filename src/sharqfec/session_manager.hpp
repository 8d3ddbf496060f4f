#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "rm/flat_table.hpp"
#include "sharqfec/config.hpp"
#include "sharqfec/hierarchy.hpp"
#include "sharqfec/messages.hpp"
#include "sim/simulator.hpp"
#include "stats/journal.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"

namespace sharq::sfq {

/// Scoped session management for one SHARQFEC member (paper §5):
///
///  - sends session messages only within the member's smallest zone
///    (plus the parent zone for each zone it is the ZCR of);
///  - measures direct RTTs to the peers of each channel it participates
///    in via timestamp echoes;
///  - learns, per ancestor level, the RTT table of its "bridge" ZCR,
///    enabling indirect RTT estimation to arbitrary senders from the
///    distance hints those senders attach to NACKs/repairs;
///  - runs the ZCR challenge/response/takeover election so every zone
///    converges on its receiver closest to the parent ZCR.
///
/// The class is owned by an Agent, which forwards it the session-channel
/// packets.
class SessionManager {
 public:
  SessionManager(net::Network& net, Hierarchy& hier,
                 std::shared_ptr<const Config> cfg, net::NodeId node,
                 bool is_source);

  /// Begin session messaging and election timers.
  void start();

  /// Cease all activity (models the member dying or leaving the session):
  /// cancels the session timer and every election timer. The object stays
  /// queryable but will never transmit again.
  void stop();

  /// Offer a packet; returns true if it was a session/election message
  /// this manager consumed.
  bool handle(const net::Packet& packet);

  // --- queries used by the transfer engine ---------------------------------

  /// One-way distance estimate to an arbitrary peer, using direct
  /// measurements when available and the scoped indirect scheme otherwise.
  double estimate_dist(net::NodeId peer,
                       const std::vector<RttHint>& hints = {}) const;

  /// Distance hints to attach to outgoing NACKs/repairs.
  std::vector<RttHint> make_hints() const;

  /// Am I currently the ZCR of zone `z`?
  bool is_zcr(net::ZoneId z) const;

  /// Current ZCR of `z` as this member believes (kNoNode if unknown).
  net::NodeId zcr_of(net::ZoneId z) const;

  /// Largest direct RTT measured to any peer in `z`'s session channel
  /// (used by ZCRs to time their ZLC measurement; falls back to twice the
  /// default distance when nothing is measured yet).
  double max_rtt_in_zone(net::ZoneId z) const;

  /// Direct RTT measured to `peer` on `z`'s channel (<0 if none).
  double direct_rtt(net::ZoneId z, net::NodeId peer) const;

  /// Cumulative one-way distance to the ZCR at chain index `level`.
  /// (<0 when not yet derivable.)
  double dist_to_zcr_at(int level) const;

  net::NodeId node() const { return node_; }
  std::span<const net::ZoneId> chain() const { return chain_; }
  /// Index of zone `z` in chain(), or -1 if `z` is not on this member's
  /// chain.
  int level_index(net::ZoneId z) const;

  /// Transfer engine hook: supplies (max_group_seen, seen_any_data) for
  /// inclusion in session messages, enabling tail-loss detection.
  void set_progress_provider(std::function<std::pair<std::uint32_t, bool>()> f) {
    progress_ = std::move(f);
  }
  /// Transfer engine hook: called when a session message advertises a
  /// higher max group than we have seen.
  void set_progress_listener(std::function<void(std::uint32_t)> f) {
    on_progress_ = std::move(f);
  }

  std::uint64_t session_messages_sent() const;
  std::uint64_t takeovers_sent() const { return takeovers_sent_; }
  std::uint64_t challenges_sent() const { return challenges_sent_; }
  /// Silent peers garbage-collected from the RTT tables (kPeerExpiry).
  std::uint64_t peers_expired() const { return peers_expired_; }
  /// Times the watchdog declared a silent ZCR dead and cleared it.
  std::uint64_t zcr_expiries() const { return zcr_expiries_; }
  /// RTT samples folded into the peer tables.
  std::uint64_t rtt_samples() const { return rtt_samples_; }
  /// Most peers one level's RTT table ever held.
  std::size_t peer_table_high_water() const { return peer_table_hw_; }
  /// Live peers currently tracked across all levels (state-growth probe).
  std::size_t tracked_peer_count() const;

  /// Add this manager's sharqfec.* counts to `m` (docs/OBSERVABILITY.md):
  /// counters add, the fleet-wide peer-table high water keeps the maximum.
  void export_metrics(stats::Metrics& m) const;

  /// Contribute this manager's retained bytes to the profiler's memory
  /// census: RTT/bridge tables under "peer_tables" (each table's heap
  /// block), its random stream under "rng_streams", the object and its
  /// per-level state under "agent_objects".
  void memory_census(stats::MemCensus& census) const;

 private:
  struct Peer {
    double rtt = -1.0;           // measured RTT to this peer (EWMA)
    sim::Time last_ts = 0.0;     // peer clock for echoing
    sim::Time heard_at = 0.0;
  };
  struct Level {
    Level(net::ZoneId z, sim::Simulator& simu)
        : zone(z), challenge_timer(simu), watchdog(simu), takeover_timer(simu) {
      challenge_timer.set_tag("session.challenge");
      watchdog.set_tag("session.watchdog");
      takeover_timer.set_tag("session.takeover");
    }
    net::ZoneId zone = net::kNoZone;
    // Ordered: iterated into session-message entries (wire order), peer
    // expiry, and max-RTT scans — hash order here would make beacon
    // contents and timer sequencing depend on the standard library.
    rm::FlatTable<net::NodeId, Peer> peers;
    net::NodeId zcr = net::kNoNode;
    double zcr_parent_dist = -1.0;  // dist(zcr(zone) -> zcr(parent))
    sim::Time zcr_last_heard = sim::kTimeNever;
    // rtt(bridge, peer) learned from the bridge ZCR's announcements on
    // this zone's channel; bridge = zcr(chain[l-1]) for l>0, zcr(chain[0])
    // for l==0.
    rm::FlatTable<net::NodeId, double> bridge_rtt;
    // election plumbing
    sim::Timer challenge_timer;
    sim::Timer watchdog;
    sim::Timer takeover_timer;
    double candidate_dist = -1.0;
    sim::Time last_reassert = sim::kTimeNever;
    /// Journal cause of a pending takeover: the zcr.response (or heard
    /// zcr.takeover) that started the consideration.
    stats::EventId takeover_cause = 0;
    std::uint64_t session_msgs = 0;  ///< session messages sent at this scope
  };
  struct PendingChallenge {
    net::ZoneId zone = net::kNoZone;
    net::NodeId challenger = net::kNoNode;
    sim::Time heard_at = sim::kTimeNever;
    bool mine = false;
  };

  net::NodeId expected_bridge(int level) const;  // kNoNode if unknown
  bool participates_at(int level) const;
  void send_session_messages();
  void send_session_for_level(int level);
  void schedule_session();
  void expire_silent_peers();
  /// Entries reserved for `level`'s RTT and bridge tables.
  std::size_t peer_table_size(int level) const;
  void schedule_challenge(int level);
  void schedule_watchdog(int level);
  void issue_challenge(int level);
  void handle_session(const SessionMsg& msg, int level);
  void handle_challenge(const ZcrChallengeMsg& msg);
  void handle_response(const ZcrResponseMsg& msg);
  void handle_takeover(const ZcrTakeoverMsg& msg);
  void consider_takeover(int level, double my_dist);
  static bool claim_beats(double dist_a, net::NodeId a, double dist_b,
                          net::NodeId b);
  void become_zcr(int level, double dist_to_parent);
  void adopt_zcr(int level, net::NodeId who, double dist);
  void ewma_rtt(double& slot, double sample) const;
  /// Append one election event (group -1; no-op returning 0 when the
  /// journal is detached). Call sites guard with `if (journal_)`.
  stats::EventId jnl(const char* ev, stats::EventId cause,
                     const stats::Attrs& attrs = {});

  net::Network& net_;
  sim::Simulator& simu_;
  Hierarchy& hier_;
  // Shared, immutable: one Config serves every agent in the session. At
  // macro scale the per-agent copy dominated memory — static_zcrs alone
  // is tens of KB on deep hierarchies, and it was duplicated twice per
  // receiver (session manager + transfer engine).
  std::shared_ptr<const Config> cfg_;
  net::NodeId node_;
  bool is_source_;
  stats::Journal* journal_ = nullptr;  ///< cfg_.journal, cached
  /// Event bound to the packet currently being handled (0 outside
  /// handle()): the cross-node cause of whatever the packet triggers.
  stats::EventId cause_in_ = 0;
  sim::Rng rng_;
  std::span<const net::ZoneId> chain_;  // into the hierarchy's table
  std::vector<Level> levels_;
  sim::Timer session_timer_;
  int session_rounds_ = 0;
  // Ordered: the prune walk erases by timeout, and erase order decides
  // nothing today — but keeping it deterministic is free at this size.
  std::map<std::uint64_t, PendingChallenge> challenges_;
  std::uint64_t next_challenge_id_;
  std::function<std::pair<std::uint32_t, bool>()> progress_;
  std::function<void(std::uint32_t)> on_progress_;
  std::uint64_t takeovers_sent_ = 0;
  std::uint64_t challenges_sent_ = 0;
  std::uint64_t peers_expired_ = 0;
  std::uint64_t zcr_expiries_ = 0;
  std::uint64_t rtt_samples_ = 0;
  std::size_t peer_table_hw_ = 0;
};

}  // namespace sharq::sfq
