#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fec/group_codec.hpp"
#include "net/network.hpp"
#include "rm/delivery_log.hpp"
#include "sharqfec/config.hpp"
#include "sharqfec/hierarchy.hpp"
#include "sharqfec/messages.hpp"
#include "sharqfec/session_manager.hpp"
#include "sim/simulator.hpp"
#include "stats/journal.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"

namespace sharq::sfq {

/// The SHARQFEC data/repair engine for one member (paper §4).
///
/// Implements the two-phase group delivery: the Loss Detection Phase
/// (LLC/ZLC accounting, SRM-style request timers with 2^i backoff, NACK
/// suppression) and the Repair Phase (speculative repair queues, reply
/// timers, repair-id coordination, preemptive ZCR injection driven by an
/// EWMA of past Zone Loss Counts).
class TransferEngine {
 public:
  /// `budget` (optional, not owned) is the node's shared budget tracker:
  /// when set, repair sends are paced to ResourceBudget::repair_rate_per_s,
  /// pending-repair queues clamp to repair_queue_depth, and due scope
  /// escalations de-escalate while the node is under pressure
  /// (docs/ROBUSTNESS.md). `codec` is the session's one Reed–Solomon
  /// codec for (cfg.group_size, cfg.max_parity), shared by every agent.
  TransferEngine(net::Network& net, Hierarchy& hier, SessionManager& session,
                 std::shared_ptr<const Config> cfg,
                 std::shared_ptr<const fec::ReedSolomon> codec,
                 net::NodeId node, bool is_source, rm::DeliveryLog* log,
                 BudgetTracker* budget = nullptr);

  /// Source API: stream `group_count` groups of k shards each, starting at
  /// `start_at`. With real_payload set, `payload` supplies the bytes
  /// (zero-padded to whole groups), split here once into the shard buffers
  /// that every holder shares; otherwise sizes alone are simulated.
  void send_stream(std::uint32_t group_count, sim::Time start_at,
                   const std::vector<std::uint8_t>& payload = {});

  /// Offer a packet; returns true if it was a transfer message.
  bool handle(const net::Packet& packet);

  /// Cease all activity (models the member dying): cancels every per-group
  /// timer and turns the remaining entry points into no-ops, so a killed
  /// member neither transmits nor keeps events pending. Irreversible;
  /// restart is modelled by a fresh engine.
  void stop();
  bool stopped() const { return stopped_; }

  // --- inspection ------------------------------------------------------------
  std::uint32_t groups_completed() const;
  bool group_complete(std::uint32_t g) const;
  std::uint32_t max_group_seen() const { return max_group_seen_; }
  bool seen_any_data() const { return seen_any_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  std::uint64_t repairs_sent() const { return repairs_sent_; }
  std::uint64_t preemptive_repairs_sent() const { return preemptive_sent_; }
  /// Transfer messages rejected as malformed (out-of-range shard indices,
  /// absurd group jumps, inconsistent counts). Hostile input must bump
  /// this counter, never distort protocol state.
  std::uint64_t malformed_rejects() const { return malformed_rejects_; }
  /// Number of groups currently tracked (state-growth probe).
  std::size_t tracked_group_count() const { return groups_.size(); }
  double predicted_zlc(net::ZoneId z) const;
  /// Reconstructed application bytes for a completed group (real_payload
  /// mode only; empty otherwise).
  std::vector<std::uint8_t> reconstructed(std::uint32_t g) const;
  /// Group `g`'s shard store, or null while the group is untracked.
  const fec::GroupDecoder* decoder(std::uint32_t g) const;
  /// Group `g`'s repair encoder, or null until this member first sends
  /// one of its shards with real payload bytes.
  const fec::GroupEncoder* encoder(std::uint32_t g) const;
  /// Called by the session manager's progress listener.
  void note_remote_progress(std::uint32_t remote_max_group);
  /// Application hook: invoked once per group, on completion.
  void set_completion_callback(std::function<void(std::uint32_t)> cb) {
    on_complete_ = std::move(cb);
  }
  /// First group this receiver is responsible for (>0 after a late join
  /// without full-history recovery).
  std::uint32_t first_tracked_group() const { return skip_before_; }
  /// Raw inter-arrival EWMA slot (kEwmaUnset until the first sample).
  double arrival_ewma() const { return arrival_ewma_; }

  /// Overload-testing hook (chaos exhaustion campaigns): send `count`
  /// root-scope NACKs for the lowest incomplete group, spaced `spacing`
  /// apart, bypassing suppression — the worst-case feedback implosion the
  /// budget layer must absorb. No-op on the source or a stopped engine.
  void nack_storm(int count, sim::Time spacing);

  /// Repair sends pushed later by the rate budget (shed decisions).
  std::uint64_t repairs_deferred() const { return repairs_deferred_; }
  /// NACK deficits clamped down to the repair-queue budget.
  std::uint64_t repairs_coalesced() const { return repairs_coalesced_; }
  /// Due scope escalations converted to de-escalations under pressure.
  std::uint64_t scope_sheds() const { return scope_sheds_; }
  /// Largest pending-repair queue ever held at one (group, level)
  /// (exhaustion invariant: never exceeds repair_queue_depth when set).
  std::int32_t pending_high_water() const { return pending_high_water_; }

  /// Contribute this engine's retained bytes to the profiler's memory
  /// census: per-group state (decoders, encoders, level arenas) and the
  /// shard buffers this engine allocated under "transfer_groups", its
  /// random stream under "rng_streams", the object itself under
  /// "agent_objects". A shared shard buffer is counted once, by the engine
  /// that allocated it: the source's data and the parity an encoder
  /// produced. A repairer encodes from the shards its decoder holds, so
  /// it allocates no original; every other holder counts only its handle.
  void memory_census(stats::MemCensus& census) const;

 private:
  /// Per chain-level state, indexed like the session manager's chain.
  /// Packed in the engine's `chain_arena_` (one stride per group) so a
  /// mostly-idle group carries no per-level heap allocations.
  struct ChainLevel {
    std::int32_t zlc = 0;      ///< highest loss count heard for this zone
    std::int32_t pending = 0;  ///< speculative repair queue size
    bool nacked = false;       ///< we announced our LLC at this level
    bool injected = false;     ///< preemptive injection done at this level
  };
  /// Parity-index coordination state, one entry per *global* hierarchy
  /// level (packed in `slice_arena_`): the parity space is partitioned
  /// into one slice per level so repairers in nested zones never emit the
  /// same shard; within a slice, repairs heard advance the cursor (the
  /// paper's max-identifier announcements).
  struct SliceLevel {
    std::int32_t next = 0;  ///< next parity index to emit in this slice
    std::int32_t seen = 0;  ///< repair shards heard that originated here
  };

  /// Per-group receiver/repairer state. Constructed in place inside
  /// `groups_` (never moved): the four timers are direct members whose
  /// armed callbacks capture only the engine and a group id.
  struct Group {
    std::uint32_t id = 0;
    fec::GroupDecoder decoder;
    int initial_shards = 0;      ///< k + h announced by the source
    int last_initial_seen = -1;  ///< highest initial-tranche index received
    int max_id_seen = -1;        ///< highest shard id seen or announced
    int llc = 0;                 ///< local loss count (missing originals)
    int repair_coverage = 0;     ///< repair shards seen for this group
    bool ldp_done = false;
    bool complete = false;
    bool repairer_active = false;
    sim::Time first_arrival = sim::kTimeNever;
    /// Stride index into the engine's level arenas (chain_lv()/slice_lv()).
    std::uint32_t arena_slot = 0;
    int backoff_i = 1;                  ///< paper: i starts at 1
    int scope_level = 0;                ///< current NACK escalation level
    int attempts_at_scope = 0;
    sim::Timer ldp_timer;
    sim::Timer request_timer;
    sim::Timer reply_timer;
    sim::Timer measure_timer;
    int reply_level = -1;               ///< level the reply timer serves
    bool measured = false;
    int last_fire_distinct = -1;        ///< progress marker for stall NACKs
    // Flight-recorder causal anchors (all 0 when the journal is detached):
    // the most recent event of each kind, used as the `cause` of whatever
    // it triggers next (docs/OBSERVABILITY.md).
    stats::EventId root_ev = 0;          ///< group.first_arrival (span root)
    stats::EventId ldp_armed_ev = 0;
    stats::EventId ldp_fired_ev = 0;
    stats::EventId last_loss_ev = 0;
    stats::EventId last_nack_ev = 0;     ///< our own nack.sent
    stats::EventId repair_sched_ev = 0;
    stats::EventId inject_ev = 0;
    stats::EventId last_repair_recv_ev = 0;
    stats::EventId complete_ev = 0;
    // Sender-side extras
    /// Real-payload repair source: the source's k originals, or a
    /// repairer's k held shards once the group is complete.
    std::unique_ptr<fec::GroupEncoder> encoder;
    Group(std::shared_ptr<const fec::ReedSolomon> codec, sim::Simulator& simu)
        : decoder(std::move(codec)),
          ldp_timer(simu),
          request_timer(simu),
          reply_timer(simu),
          measure_timer(simu) {
      ldp_timer.set_tag("transfer.ldp");
      request_timer.set_tag("transfer.request");
      reply_timer.set_tag("transfer.reply");
      measure_timer.set_tag("transfer.measure");
    }
  };

  /// A group's per-chain-level stride in the packed arena. The pointer is
  /// invalidated by ensure_group() (arena growth): re-fetch after any call
  /// that may create a group — including user completion callbacks.
  ChainLevel* chain_lv(const Group& grp) {
    return chain_arena_.data() +
           static_cast<std::size_t>(grp.arena_slot) * chain_levels_;
  }
  const ChainLevel* chain_lv(const Group& grp) const {
    return chain_arena_.data() +
           static_cast<std::size_t>(grp.arena_slot) * chain_levels_;
  }
  /// Same for the per-global-level parity-slice stride.
  SliceLevel* slice_lv(const Group& grp) {
    return slice_arena_.data() +
           static_cast<std::size_t>(grp.arena_slot) * slice_levels_;
  }

  Group& ensure_group(std::uint32_t g);
  bool sane_group_id(std::uint32_t g) const;
  void fix_join_point(std::uint32_t first_heard_group, bool at_group_start);
  void source_send_next();
  void on_data(const DataMsg& msg, net::TrafficClass cls);
  void on_repair(const RepairMsg& msg);
  void on_nack(const NackMsg& msg);
  void add_shard(Group& grp, int index, const fec::ShardBuffer& bytes);
  void note_initial_progress(Group& grp, int index);
  void raise_llc(Group& grp, int newly_missing, stats::EventId cause = 0);
  void finish_ldp(Group& grp, const char* via = "advance");
  void maybe_request(Group& grp);
  void arm_request_timer(Group& grp, stats::EventId cause = 0);
  void adapt_request_window(bool heard_duplicate);
  void fire_request(std::uint32_t g);
  void on_group_complete(Group& grp);
  void arm_reply_timer(Group& grp, int level, double dist_to_requester);
  void fire_reply(std::uint32_t g);
  void send_storm_nack();
  void send_one_repair(Group& grp, int level, bool preemptive);
  void schedule_injection(Group& grp);
  void schedule_zlc_measurement(Group& grp);
  bool eligible_repairer(const Group& grp) const;
  int base_scope_level() const;
  int nack_level(const Group& grp) const;
  bool covered_by_zlc(const Group& grp) const;
  sim::Time packet_interval() const;
  sim::Time inter_arrival_estimate() const;
  sim::Time dist_to_source() const;
  int deficit(const Group& grp) const;
  fec::ShardBuffer shard_bytes(Group& grp, int index);
  int slice_width() const;
  int slice_start(int global_level) const;
  void note_parity_seen(Group& grp, int index);
  int next_parity_index(Group& grp, net::ZoneId zone);
  /// Append one journal event for `group` (no-op returning 0 when
  /// detached). Call sites still guard with `if (journal_)` so a detached
  /// run never constructs the Attrs map.
  stats::EventId jnl(const char* ev, std::uint32_t group, stats::EventId cause,
                     const stats::Attrs& attrs = {});
  /// Default cause for span-internal events: the latest loss, else the
  /// span root (0 when neither was journaled).
  static stats::EventId span_cause(const Group& grp) {
    return grp.last_loss_ev ? grp.last_loss_ev : grp.root_ev;
  }

  net::Network& net_;
  sim::Simulator& simu_;
  Hierarchy& hier_;
  SessionManager& session_;
  // Shared with every other agent in the session (see SessionManager).
  std::shared_ptr<const Config> cfg_;
  net::NodeId node_;
  bool is_source_;
  rm::DeliveryLog* log_;
  stats::Journal* journal_ = nullptr;  ///< cfg_.journal, cached
  /// Event bound to the packet currently being handled (0 outside
  /// handle()): the cross-node cause of whatever the packet triggers.
  stats::EventId cause_in_ = 0;
  sim::Rng rng_;
  std::shared_ptr<const fec::ReedSolomon> codec_;  ///< the session's, shared

  std::map<std::uint32_t, Group> groups_;
  // Packed per-level state for every tracked group (SoA arenas, one
  // fixed-size stride per group, appended by ensure_group and never
  // freed — groups_ never erases). Strides are sized on first use.
  std::vector<ChainLevel> chain_arena_;
  std::vector<SliceLevel> slice_arena_;
  std::size_t chain_levels_ = 0;  ///< session chain length (arena stride)
  std::size_t slice_levels_ = 0;  ///< hierarchy depth (arena stride)
  std::uint32_t max_group_seen_ = 0;
  bool seen_any_ = false;
  /// Groups below this id are outside our delivery contract (late join
  /// with full-history recovery disabled).
  std::uint32_t skip_before_ = 0;
  bool join_point_fixed_ = false;
  std::uint32_t groups_total_ = 0;  ///< 0 while unknown
  net::NodeId source_node_ = net::kNoNode;
  std::function<void(std::uint32_t)> on_complete_;

  // Predicted ZLC per chain level (EWMA state), and the predicted repair
  // coverage arriving from larger scopes (so ZCR injection is incremental:
  // each zone tops up only the loss its parent's coverage leaves exposed).
  std::vector<double> zlc_pred_;
  std::vector<double> cov_pred_;
  std::uint32_t send_group_ = 0;
  int send_index_ = 0;
  std::uint32_t send_total_groups_ = 0;
  /// The source's payload, one buffer per data shard (group-major), built
  /// once by send_stream and shared by encoders, messages and decoders.
  std::vector<fec::ShardBuffer> source_shards_;
  double arrival_ewma_ = -1.0;
  sim::Time last_arrival_ = sim::kTimeNever;

  std::uint64_t nacks_sent_ = 0;
  std::uint64_t repairs_sent_ = 0;
  std::uint64_t preemptive_sent_ = 0;
  std::uint64_t malformed_rejects_ = 0;
  bool stopped_ = false;
  BudgetTracker* budget_ = nullptr;  ///< shared per-node tracker, not owned
  std::uint64_t repairs_deferred_ = 0;
  std::uint64_t repairs_coalesced_ = 0;
  std::uint64_t scope_sheds_ = 0;
  std::int32_t pending_high_water_ = 0;

  // Metrics registry children, cached at construction (all null when
  // cfg_.metrics is null). Indexed like the session chain where per-level.
  void register_metrics();
  stats::Counter* m_nacks_sent_ = nullptr;
  stats::Counter* m_nacks_suppressed_ = nullptr;
  stats::Counter* m_nacks_deduped_ = nullptr;
  stats::Counter* m_malformed_ = nullptr;
  std::vector<stats::Counter*> m_repairs_by_level_;
  std::vector<stats::Counter*> m_preemptive_by_level_;
  std::vector<stats::Gauge*> m_zlc_pred_;
  stats::Gauge* m_arrival_ewma_ = nullptr;
  /// Fleet-wide (unlabeled, set_max across every engine) mirror of
  /// pending_high_water_: the deepest per-level repair backlog any node
  /// saw. One registry child total, so macro-scale runs pay nothing.
  stats::Gauge* m_pending_hw_ = nullptr;
  stats::Histogram* m_completion_ = nullptr;
  stats::Counter* m_repairs_deferred_ = nullptr;
  stats::Counter* m_repairs_coalesced_ = nullptr;
  stats::Counter* m_scope_sheds_ = nullptr;

  // Adaptive request-window state (Config::adaptive_timers).
  double c1_adapt_;
  double c2_adapt_;
  double ave_dup_nack_ = 0.0;

 public:
  double adapted_c1() const { return c1_adapt_; }
  double adapted_c2() const { return c2_adapt_; }
};

}  // namespace sharq::sfq
