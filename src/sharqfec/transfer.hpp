#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// Deterministic repair-rate pacer (ResourceBudget::repair_rate_per_s):
/// hands out send slots at least 1/rate apart, in event order, and records
/// the smallest spacing actually observed between two sends (the
/// exhaustion invariant checks it against 1/rate). A rate of 0 never
/// paces but still records the spacing.
class RepairPacer {
 public:
  explicit RepairPacer(double rate_per_s) : rate_(rate_per_s) {}
  /// Delay until the next repair may be sent (0 when due).
  sim::Time wait(sim::Time now) const {
    return next_ok_ > now ? next_ok_ - now : 0.0;
  }
  bool due(sim::Time now) const { return wait(now) <= 0.0; }
  /// Record a repair send at `now`.
  void note_sent(sim::Time now);
  /// Smallest spacing observed between two sends; kTimeNever until two
  /// sends have happened.
  sim::Time min_spacing() const { return min_spacing_; }

 private:
  double rate_;
  sim::Time next_ok_ = 0.0;
  sim::Time last_sent_ = sim::kTimeNever;
  sim::Time min_spacing_ = sim::kTimeNever;
};

/// The SHARQFEC data/repair engine for one member (paper §4).
///
/// Implements the two-phase group delivery: the Loss Detection Phase
/// (LLC/ZLC accounting, SRM-style request timers with 2^i backoff, NACK
/// suppression) and the Repair Phase (speculative repair queues, reply
/// timers, repair-id coordination, preemptive ZCR injection driven by an
/// EWMA of past Zone Loss Counts).
class TransferEngine {
 public:
  /// Repair sends are paced to cfg.budget.repair_rate_per_s and
  /// pending-repair queues clamp to cfg.budget.repair_queue_depth
  /// (docs/ROBUSTNESS.md). `codec` is the session's one Reed–Solomon
  /// codec for (cfg.group_size, cfg.max_parity), shared by every agent;
  /// `store` is the shard store of the node's execution lane, which every
  /// shard buffer this engine holds lives in.
  TransferEngine(net::Network& net, Hierarchy& hier, SessionManager& session,
                 std::shared_ptr<const Config> cfg,
                 std::shared_ptr<const fec::ReedSolomon> codec,
                 fec::ShardStore& store, net::NodeId node, bool is_source,
                 rm::DeliveryLog* log);

  /// Source API: stream `group_count` groups of k shards each, starting at
  /// `start_at`. With real_payload set, `payload` supplies the bytes
  /// (zero-padded to whole groups), split here once into the shard buffers
  /// that every holder shares (held in the lane store for as long as the
  /// source lives); otherwise sizes alone are simulated.
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
  /// Request-timer firings that sent nothing because a heard NACK already
  /// announced our loss (paper LDP rule 6).
  std::uint64_t nacks_suppressed() const { return nacks_suppressed_; }
  /// Pending requests backed off by a heard NACK (LDP rules 5/6).
  std::uint64_t nacks_deduped() const { return nacks_deduped_; }
  std::uint64_t repairs_sent() const;
  /// Preemptive repairs sent, the source's initial parity included.
  std::uint64_t preemptive_repairs_sent() const;
  /// Transfer messages rejected as malformed (out-of-range shard indices,
  /// absurd group jumps, inconsistent counts). Hostile input must bump
  /// this counter, never distort protocol state.
  std::uint64_t malformed_rejects() const { return malformed_rejects_; }
  /// Number of groups currently tracked (state-growth probe): every group
  /// this engine ever took on, live or settled.
  std::size_t tracked_group_count() const { return tracked_count_; }
  /// Number of tracked groups holding live state (timers, backoff, journal
  /// anchors, encoder) right now; the rest have settled into their record.
  std::size_t live_group_count() const {
    return slots_.size() - free_slots_.size();
  }
  /// Most groups ever live at once: the size of the live-state pool.
  std::size_t live_group_high_water() const { return slots_.size(); }
  double predicted_zlc(net::ZoneId z) const;
  /// True once chain level `l` holds a zone-loss measurement.
  bool zlc_measured(std::size_t l) const { return scopes_[l].zlc_measured; }
  /// Reconstructed application bytes for a completed group (real_payload
  /// mode only; empty otherwise).
  std::vector<std::uint8_t> reconstructed(std::uint32_t g) const;
  /// Read-only view of group `g`'s decoder, or nullopt while the group is
  /// untracked.
  std::optional<const fec::GroupDecoder> decoder(std::uint32_t g) const;
  /// Group `g`'s repair encoder, or null unless the group is live and, since
  /// it last took a slot, this member has sent (with real payload bytes) a
  /// shard its lane's store did not hold.
  const fec::GroupEncoder* encoder(std::uint32_t g) const;
  /// The shard store of this member's execution lane.
  const fec::ShardStore& store() const { return *store_; }
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
  /// repair caps must absorb. No-op on the source or a stopped engine.
  void nack_storm(int count, sim::Time spacing);

  /// Repair sends pushed later (or preemptive ones skipped) by the rate
  /// cap.
  std::uint64_t repairs_deferred() const { return repairs_deferred_; }
  /// NACK deficits clamped down to the repair-queue cap.
  std::uint64_t repairs_coalesced() const { return repairs_coalesced_; }
  /// Smallest spacing between two of this engine's repair sends
  /// (kTimeNever until two were sent); never below 1/repair_rate_per_s
  /// when the rate cap is set.
  sim::Time min_repair_spacing() const { return pacer_.min_spacing(); }
  /// Largest pending-repair queue ever held at one (group, level)
  /// (exhaustion invariant: never exceeds repair_queue_depth when set).
  std::int32_t pending_high_water() const { return pending_high_water_; }

  /// Add this engine's sharqfec.* counts to `m` (docs/OBSERVABILITY.md):
  /// counters add, a per-node gauge is set only once this engine has
  /// measured it, and the fleet-wide high water keeps the maximum.
  void export_metrics(stats::Metrics& m) const;

  /// Look up this node's sharqfec.group_completion_seconds child in
  /// cfg.metrics (nothing when it is unset). A registry insert, so the
  /// session calls it serially, in agent order, outside parallel set-up.
  void register_metrics();

  /// Contribute this engine's retained bytes to the profiler's memory
  /// census: per-group state (records, held indices, level arenas, the
  /// live-state pool and its encoders' own arrays) under
  /// "transfer_groups", its random stream under "rng_streams", the object
  /// itself under "agent_objects". Shard buffers live in the lane stores,
  /// which the Session counts.
  void memory_census(stats::MemCensus& census) const;

 private:
  /// Per chain-level state, indexed like the session manager's chain.
  /// Packed in the engine's `chain_arena_` (one stride per group) so a
  /// mostly-idle group carries no per-level heap allocations.
  /// Counts fit in narrow fields: every count a NACK carries is
  /// validated <= max_shards <= 255.
  struct ChainLevel {
    std::int16_t zlc = 0;      ///< highest loss count heard for this zone
    std::uint8_t pending = 0;  ///< speculative repair queue size
    bool nacked = false;       ///< we announced our LLC at this level
    bool injected = false;     ///< preemptive injection done at this level
  };
  /// Parity-index coordination state, one entry per *global* hierarchy
  /// level (packed in `slice_arena_`): the parity space is partitioned
  /// into one slice per level so repairers in nested zones never emit the
  /// same shard; within a slice, repairs heard advance the cursor (the
  /// paper's max-identifier announcements).
  struct SliceLevel {
    /// Next parity index to emit in this slice, kept below max_shards plus
    /// the slice width (see next_parity_index).
    std::int16_t next = 0;
    std::int16_t seen = 0;  ///< repair shards heard that originated here
  };

  /// Per chain-level state that outlives any one group, indexed like the
  /// session manager's chain.
  struct Scope {
    /// Predicted ZLC (EWMA state), and the predicted repair coverage
    /// arriving from larger scopes (so ZCR injection is incremental: each
    /// zone tops up only the loss its parent's coverage leaves exposed).
    double zlc_pred = 0.0;
    double cov_pred = 0.0;
    std::uint64_t repairs = 0;  ///< repairs sent into this zone
    /// Preemptive repairs sent into this zone, the source's initial parity
    /// included (which `repairs` does not count).
    std::uint64_t preemptive = 0;
    bool zlc_measured = false;  ///< zlc_pred holds a measurement
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// What a tracked group keeps for as long as the engine lives: what
  /// later data, repair and NACK handling can still ask of a delivered
  /// group. One per group id in `records_` (dense, untracked ids in gaps);
  /// the group's decoder block (k held shard indices, their bytes in the
  /// lane store, then the bits of the indices seen) sits at a fixed stride
  /// in `dec_blocks_`, its level state in the two arenas.
  struct Record {
    std::uint32_t slot = kNoSlot;     ///< live state in slots_, if held
    std::int16_t last_initial_seen = -1;  ///< highest initial-tranche index
    std::int16_t max_id_seen = -1;    ///< highest shard id seen or announced
    std::int16_t llc = 0;             ///< local loss count (missing originals)
    fec::DecoderState dec;
    std::uint8_t initial_shards = 0;  ///< k + h announced by the source
    bool tracked : 1 = false;
    bool ldp_done : 1 = false;
    bool complete : 1 = false;
    bool measured : 1 = false;
    bool arrived : 1 = false;  ///< a data shard of the group has arrived
  };
  /// Span anchors later events of a delivered group can still cite, one
  /// per group id in `anchors_` (journal attached only).
  struct SpanAnchors {
    stats::EventId root = 0;       ///< group.first_arrival (span root)
    stats::EventId last_loss = 0;  ///< latest loss.detected
  };
  static_assert(sizeof(Record) <= 16 && sizeof(ChainLevel) <= 6 &&
                    sizeof(SliceLevel) <= 4,
                "per-group state is sized for streams of thousands of groups");

  /// The resettable part of a group's live state: request backoff and
  /// scope, journal anchors, the repair encoder.
  struct LiveState {
    sim::Time first_arrival = sim::kTimeNever;
    /// Real-payload repair source: the source's k originals, or a
    /// repairer's k held shards once the group is complete. It holds its
    /// basis and every shard it encoded in the lane store. Dropped when
    /// the group settles and rebuilt on demand: the code is MDS, so any k
    /// held shards give the same parity bytes.
    std::unique_ptr<fec::GroupEncoder> encoder;
    // Flight-recorder causal anchors (all 0 when the journal is detached):
    // the most recent event of each kind, used as the `cause` of whatever
    // it triggers next (docs/OBSERVABILITY.md). Once a group has settled
    // none of these is read before it is rewritten; the two anchors that
    // can be (span root, latest loss) live in `anchors_`.
    stats::EventId ldp_armed_ev = 0;
    stats::EventId ldp_fired_ev = 0;
    stats::EventId last_nack_ev = 0;  ///< our own nack.sent
    stats::EventId repair_sched_ev = 0;
    stats::EventId inject_ev = 0;
    stats::EventId last_repair_recv_ev = 0;
    stats::EventId complete_ev = 0;
    int repair_coverage = 0;      ///< repair shards seen before completion
    int backoff_i = 1;            ///< paper: i starts at 1
    int scope_level = 0;          ///< current NACK escalation level
    int attempts_at_scope = 0;
    int reply_level = -1;         ///< level the reply timer serves
    int last_fire_distinct = -1;  ///< progress marker for stall NACKs
    int injections = 0;           ///< preemptive repairs still scheduled
  };

  /// A group's state while it can still act on its own. Held in a reusable
  /// slot from the group's creation until it settles: delivered (fully
  /// sent, at the source), timers idle, no injection outstanding and no
  /// repair pending at any level. A later data, repair or NACK that needs
  /// it takes a slot again, with LiveState's defaults: every field but the
  /// Record's is either dead once a group completes or rewritten before it
  /// is read. Slots never move, so armed timers stay valid; their
  /// callbacks capture only the engine and a group id.
  struct Live : LiveState {
    explicit Live(sim::Simulator& simu)
        : ldp_timer(simu),
          request_timer(simu),
          reply_timer(simu),
          measure_timer(simu) {
      ldp_timer.set_tag("transfer.ldp");
      request_timer.set_tag("transfer.request");
      reply_timer.set_tag("transfer.reply");
      measure_timer.set_tag("transfer.measure");
    }
    sim::Timer ldp_timer;
    sim::Timer request_timer;
    sim::Timer reply_timer;
    sim::Timer measure_timer;
  };

  Record& rec(std::uint32_t g) { return records_[g]; }
  const Record& rec(std::uint32_t g) const { return records_[g]; }
  /// Group `g`'s live state, taking a slot first if it has settled.
  Live& live(std::uint32_t g);
  /// The live state if `g` holds a slot, else null (nothing is pending).
  Live* live_if(std::uint32_t g) {
    const std::uint32_t s = records_[g].slot;
    return s == kNoSlot ? nullptr : slots_[s].get();
  }
  const Live* live_if(std::uint32_t g) const {
    const std::uint32_t s = records_[g].slot;
    return s == kNoSlot ? nullptr : slots_[s].get();
  }
  /// Return `g`'s slot to the pool if the group has settled. Called at the
  /// end of each entry point, never while a caller still uses the slot.
  void maybe_settle(std::uint32_t g);
  fec::GroupDecoder decoder_of(std::uint32_t g) {
    return fec::GroupDecoder(*codec_, records_[g].dec,
                             dec_blocks_.data() + g * dec_block_, *store_, g);
  }
  /// Release the lane-store holds of `l`'s encoder and drop it.
  void drop_encoder(std::uint32_t g, LiveState& l);
  bool tracked(std::uint32_t g) const {
    return g < records_.size() && records_[g].tracked;
  }
  /// A group's per-chain-level stride in the packed arena. The pointer,
  /// like any Record reference, is invalidated by ensure_group() (growth):
  /// re-fetch after any call that may create a group — including user
  /// completion callbacks.
  ChainLevel* chain_lv(std::uint32_t g) {
    return chain_arena_.data() + static_cast<std::size_t>(g) * chain_levels_;
  }
  const ChainLevel* chain_lv(std::uint32_t g) const {
    return chain_arena_.data() + static_cast<std::size_t>(g) * chain_levels_;
  }
  /// Same for the per-global-level parity-slice stride.
  SliceLevel* slice_lv(std::uint32_t g) {
    return slice_arena_.data() + static_cast<std::size_t>(g) * slice_levels_;
  }
  /// Lowest chain level still owed a repair for `g`, or -1 if none is.
  int lowest_pending_level(std::uint32_t g) const;

  /// Track group `g` (creating its record and live slot) if it is not yet.
  void ensure_group(std::uint32_t g);
  bool sane_group_id(std::uint32_t g) const;
  void fix_join_point(std::uint32_t first_heard_group, bool at_group_start);
  /// First group the backfill loops need visit: ldp_floor_, raised past
  /// every group that has finished its loss-detection phase.
  std::uint32_t backfill_start();
  void source_send_next();
  void on_data(const DataMsg& msg, net::TrafficClass cls);
  void on_repair(const RepairMsg& msg);
  void on_nack(const NackMsg& msg);
  void add_shard(std::uint32_t g, int index, const fec::ShardBuffer& bytes);
  void note_initial_progress(std::uint32_t g, int index);
  /// Originals (index < k) in [from, to) that `g`'s decoder does not hold.
  int missing_originals(std::uint32_t g, int from, int to);
  void raise_llc(std::uint32_t g, int newly_missing, stats::EventId cause = 0);
  void finish_ldp(std::uint32_t g, const char* via = "advance");
  void maybe_request(std::uint32_t g);
  void arm_request_timer(std::uint32_t g, stats::EventId cause = 0);
  void adapt_request_window(bool heard_duplicate);
  /// One more step up the 2^i request back-off ladder, then re-arm.
  void back_off_request(std::uint32_t g, stats::EventId cause);
  void fire_request(std::uint32_t g);
  /// Send (and journal) a NACK for `g` into chain level `level`'s zone;
  /// returns its nack.sent event (0 when the journal is detached).
  stats::EventId send_nack(std::uint32_t g, int level, int llc, int needed,
                           bool storm);
  void on_group_complete(std::uint32_t g);
  /// Start serving `level`'s repair queue: at once (paced) if this member
  /// is a dedicated repairer there, else after a reply timer drawn against
  /// `fallback_dist`.
  void start_reply(std::uint32_t g, int level, double fallback_dist);
  /// (Re)arm `g`'s reply timer to fire_reply after `delay`.
  void arm_reply(std::uint32_t g, sim::Time delay);
  void fire_reply(std::uint32_t g);
  void send_storm_nack();
  void send_one_repair(std::uint32_t g, int level, bool preemptive);
  void schedule_injection(std::uint32_t g);
  void schedule_zlc_measurement(std::uint32_t g);
  /// May this member send repairs for `g` at all: it holds the group
  /// (the source once its tranche is out), and the sender-only ablation
  /// does not rule receivers out.
  bool eligible_repairer(std::uint32_t g) const;
  /// Source, or ZCR of chain level `level`'s zone.
  bool dedicated_repairer(int level) const;
  int base_scope_level() const;
  int nack_level(std::uint32_t g) const;
  bool covered_by_zlc(std::uint32_t g) const;
  sim::Time packet_interval() const;
  sim::Time inter_arrival_estimate() const;
  sim::Time dist_to_source() const;
  int deficit(std::uint32_t g) const;
  fec::ShardBuffer shard_bytes(std::uint32_t g, int index);
  int slice_width() const;
  int slice_start(int global_level) const;
  void note_parity_seen(std::uint32_t g, int index);
  int next_parity_index(std::uint32_t g, net::ZoneId zone);
  /// Append one journal event for `group` (no-op returning 0 when
  /// detached). Call sites still guard with `if (journal_)` so a detached
  /// run never constructs the Attrs map.
  stats::EventId jnl(const char* ev, std::uint32_t group, stats::EventId cause,
                     const stats::Attrs& attrs = {});
  /// Group `g`'s span root (0 when the journal is detached).
  stats::EventId span_root(std::uint32_t g) const {
    return journal_ ? anchors_[g].root : 0;
  }
  /// Default cause for span-internal events: the latest loss, else the
  /// span root (0 when neither was journaled).
  stats::EventId span_cause(std::uint32_t g) const {
    if (!journal_) return 0;
    const SpanAnchors& a = anchors_[g];
    return a.last_loss ? a.last_loss : a.root;
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
  fec::ShardStore* store_;  ///< the node's lane store, owned by the Session

  // Per-group storage indexed by group id, grown by ensure_group and never
  // shrunk (a delivered group can still be asked for its shards): the
  // records, the decoder blocks, the span anchors (journal only) and the
  // per-level arenas (SoA, one fixed-size stride per group, sized on first
  // use).
  std::vector<Record> records_;
  std::size_t dec_block_;  ///< GroupDecoder::block_bytes of the codec
  std::vector<std::uint8_t> dec_blocks_;
  std::vector<SpanAnchors> anchors_;
  std::vector<ChainLevel> chain_arena_;
  std::vector<SliceLevel> slice_arena_;
  std::size_t chain_levels_ = 0;  ///< session chain length (arena stride)
  std::size_t slice_levels_ = 0;  ///< hierarchy depth (arena stride)
  std::size_t tracked_count_ = 0;
  /// The live-state pool: grows only when every slot is held, so its size
  /// is the high water of simultaneously live groups.
  std::vector<std::unique_ptr<Live>> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Every tracked group in [skip_before_, ldp_floor_) has finished its
  /// loss-detection phase, so the backfill loops start here.
  std::uint32_t ldp_floor_ = 0;
  std::uint32_t max_group_seen_ = 0;
  bool seen_any_ = false;
  /// Groups below this id are outside our delivery contract (late join
  /// with full-history recovery disabled).
  std::uint32_t skip_before_ = 0;
  bool join_point_fixed_ = false;
  std::uint32_t groups_total_ = 0;  ///< 0 while unknown
  net::NodeId source_node_ = net::kNoNode;
  std::function<void(std::uint32_t)> on_complete_;

  std::vector<Scope> scopes_;
  std::uint32_t send_group_ = 0;
  int send_index_ = 0;
  std::uint32_t send_total_groups_ = 0;
  double arrival_ewma_ = -1.0;
  sim::Time last_arrival_ = sim::kTimeNever;

  std::uint64_t nacks_sent_ = 0;
  std::uint64_t nacks_suppressed_ = 0;
  std::uint64_t nacks_deduped_ = 0;
  std::uint64_t malformed_rejects_ = 0;
  bool stopped_ = false;
  RepairPacer pacer_;
  std::uint64_t repairs_deferred_ = 0;
  std::uint64_t repairs_coalesced_ = 0;
  std::int32_t pending_high_water_ = 0;
  /// sharqfec.group_completion_seconds child for this node (null when
  /// cfg_.metrics is): a distribution, so it is observed as groups
  /// complete rather than read from the engine at export.
  stats::Histogram* completion_ = nullptr;

  // Adaptive request-window state (Config::adaptive_timers).
  double c1_adapt_ = rm::kPaperTimers.c1;
  double c2_adapt_ = rm::kPaperTimers.c2;
  double ave_dup_nack_ = 0.0;

 public:
  double adapted_c1() const { return c1_adapt_; }
  double adapted_c2() const { return c2_adapt_; }
};

}  // namespace sharq::sfq
