#include "sharqfec/transfer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "sharqfec/ewma.hpp"
#include "stats/profiler.hpp"

namespace sharq::sfq {

namespace {
/// Sanity bound on how far ahead of the locally observed stream head a
/// message may reference a group. Legitimate senders are at most a few
/// groups ahead (plus session-advertised catch-up); a forged id beyond
/// this would otherwise make the backfill loops materialize state for
/// billions of phantom groups.
constexpr std::uint32_t kMaxGroupJump = 4096;
}  // namespace

void RepairPacer::note_sent(sim::Time now) {
  if (last_sent_ != sim::kTimeNever) {
    const sim::Time spacing = now - last_sent_;
    if (min_spacing_ == sim::kTimeNever || spacing < min_spacing_) {
      min_spacing_ = spacing;
    }
  }
  last_sent_ = now;
  if (rate_ > 0.0) next_ok_ = std::max(next_ok_, now) + 1.0 / rate_;
}

TransferEngine::TransferEngine(net::Network& net, Hierarchy& hier,
                               SessionManager& session,
                               std::shared_ptr<const Config> cfg,
                               std::shared_ptr<const fec::ReedSolomon> codec,
                               fec::ShardStore& store, net::NodeId node,
                               bool is_source, rm::DeliveryLog* log)
    : net_(net),
      simu_(net.simulator_for(node)),
      hier_(hier),
      session_(session),
      cfg_(std::move(cfg)),
      node_(node),
      is_source_(is_source),
      log_(log),
      rng_(net.simulator_for(node).rng().fork()),
      codec_(std::move(codec)),
      store_(&store),
      dec_block_(fec::GroupDecoder::block_bytes(*codec_)),
      pacer_(cfg_->budget.repair_rate_per_s) {
  scopes_.resize(session_.chain().size());
  if (is_source_) source_node_ = node_;
  journal_ = cfg_->journal;
}

void TransferEngine::register_metrics() {
  if (cfg_->metrics) {
    completion_ = &cfg_->metrics->histogram("sharqfec.group_completion_seconds",
                                            {{"node", std::to_string(node_)}});
  }
}

stats::EventId TransferEngine::jnl(const char* ev, std::uint32_t group,
                                   stats::EventId cause,
                                   const stats::Attrs& attrs) {
  if (!journal_) return 0;
  return journal_->emit(ev, simu_.now(), node_,
                        static_cast<std::int64_t>(group), cause, attrs);
}

void TransferEngine::export_metrics(stats::Metrics& m) const {
  const std::string node = std::to_string(node_);
  const stats::Labels by_node{{"node", node}};
  m.counter("sharqfec.nacks_sent", by_node).inc(nacks_sent_);
  m.counter("sharqfec.nacks_suppressed", by_node).inc(nacks_suppressed_);
  m.counter("sharqfec.nacks_deduped", by_node).inc(nacks_deduped_);
  m.counter("sharqfec.malformed_rejects", by_node).inc(malformed_rejects_);
  // Gauges get a child only once measured: an unmeasured one would read 0.
  if (ewma_seeded(arrival_ewma_)) {
    m.gauge("sharqfec.arrival_ewma", by_node).set(arrival_ewma_);
  }
  // Fleet-wide (unlabeled): the deepest per-level repair backlog any node
  // saw, one registry child however many receivers there are.
  m.gauge("sharqfec.pending_repair_high_water").set_max(pending_high_water_);
  if (cfg_->budget.any_enabled()) {
    m.counter("sharqfec.repairs_deferred", by_node).inc(repairs_deferred_);
    m.counter("sharqfec.repairs_coalesced", by_node).inc(repairs_coalesced_);
  }
  for (std::size_t l = 0; l < scopes_.size(); ++l) {
    const stats::Labels by_level{{"level", std::to_string(l)}, {"node", node}};
    const Scope& sc = scopes_[l];
    m.counter("sharqfec.repairs_sent", by_level).inc(sc.repairs);
    m.counter("sharqfec.preemptive_repairs", by_level).inc(sc.preemptive);
    if (sc.zlc_measured) {
      m.gauge("sharqfec.zlc_pred", by_level).set(sc.zlc_pred);
    }
  }
}

std::uint64_t TransferEngine::repairs_sent() const {
  std::uint64_t n = 0;
  for (const Scope& sc : scopes_) n += sc.repairs;
  return n;
}

std::uint64_t TransferEngine::preemptive_repairs_sent() const {
  std::uint64_t n = 0;
  for (const Scope& sc : scopes_) n += sc.preemptive;
  return n;
}

sim::Time TransferEngine::packet_interval() const {
  return static_cast<double>(cfg_->shard_size_bytes) * 8.0 / cfg_->data_rate_bps;
}

sim::Time TransferEngine::inter_arrival_estimate() const {
  // Same predicate as the update path (ewma_update seeds on sample >= 0):
  // the old `> 0.0` read ignored a slot legitimately seeded with 0.0.
  return ewma_seeded(arrival_ewma_) ? arrival_ewma_ : packet_interval();
}

sim::Time TransferEngine::dist_to_source() const {
  // Before the first data packet reveals the source (e.g. a late joiner
  // recovering pure history through its zone), the distance estimate has
  // nothing to converge on; rm::kDefaultDist keeps the request window at a
  // plausible network scale instead of collapsing to the floor and burning
  // through every NACK scope before the zone can answer once.
  if (source_node_ == net::kNoNode) return rm::kDefaultDist;
  return std::max(1e-3, session_.estimate_dist(source_node_));
}

int TransferEngine::deficit(std::uint32_t g) const {
  return std::max(0, cfg_->group_size - int{rec(g).dec.distinct});
}

int TransferEngine::slice_width() const {
  return std::max(1, cfg_->max_parity / hier_.depth());
}

int TransferEngine::slice_start(int global_level) const {
  return cfg_->group_size + global_level * slice_width();
}

void TransferEngine::note_parity_seen(std::uint32_t g, int index) {
  if (index < cfg_->group_size) return;
  const int level = std::min((index - cfg_->group_size) / slice_width(),
                             hier_.depth() - 1);
  SliceLevel& sl = slice_lv(g)[level];
  sl.next = static_cast<std::int16_t>(std::max<int>(sl.next, index + 1));
}

int TransferEngine::next_parity_index(std::uint32_t g, net::ZoneId zone) {
  const int level = hier_.level(zone);
  const int lo = slice_start(level);
  const int hi = std::min(lo + slice_width(), codec_->max_shards());
  const int raw = std::max<int>(slice_lv(g)[level].next, lo);
  // Slice exhausted: cycle through the slice again rather than pinning the
  // last index. A receiver that missed the whole first pass (crash,
  // partition) needs *distinct* shards; resending one duplicate forever
  // livelocks the NACK/repair exchange (found by the chaos soak).
  const int span = hi - lo;
  const int idx = raw < hi ? raw : (span > 0 ? lo + (raw - lo) % span : hi - 1);
  // Once the cursor is past max_shards, no shard heard (note_parity_seen)
  // can raise it, and stepping it back a whole span emits the same index:
  // so it stays in [max_shards, max_shards + span) and fits its 16 bits.
  const int step = std::max(span, 1);
  int next = raw + 1;
  if (next >= codec_->max_shards() + step) next -= step;
  slice_lv(g)[level].next = static_cast<std::int16_t>(next);
  return idx;
}

void TransferEngine::ensure_group(std::uint32_t g) {
  if (tracked(g)) return;
  // Arena strides are fixed at first use (chain and hierarchy shapes are
  // static once the session is up).
  if (chain_levels_ == 0) {
    chain_levels_ = session_.chain().size();
    slice_levels_ = static_cast<std::size_t>(std::max(1, hier_.depth()));
  }
  if (g >= records_.size()) {
    const std::size_t n = static_cast<std::size_t>(g) + 1;
    records_.resize(n);
    dec_blocks_.resize(n * dec_block_);
    if (journal_) anchors_.resize(n);
    chain_arena_.resize(n * chain_levels_);
    slice_arena_.resize(n * slice_levels_);
  }
  Record& r = rec(g);
  r.tracked = true;
  // Lower bound until announced.
  r.initial_shards = static_cast<std::uint8_t>(cfg_->group_size);
  ++tracked_count_;
  live(g);  // incomplete, so live until it settles
}

TransferEngine::Live& TransferEngine::live(std::uint32_t g) {
  Record& r = rec(g);
  if (r.slot == kNoSlot) {
    if (free_slots_.empty()) {
      r.slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::make_unique<Live>(simu_));
      if (journal_) live_anchors_.emplace_back();
    } else {
      r.slot = free_slots_.back();
      free_slots_.pop_back();
    }
  }
  return *slots_[r.slot];
}

int TransferEngine::lowest_pending_level(std::uint32_t g) const {
  const ChainLevel* lv = chain_lv(g);
  for (std::size_t l = 0; l < chain_levels_; ++l) {
    if (lv[l].pending > 0) return static_cast<int>(l);
  }
  return -1;
}

void TransferEngine::maybe_settle(std::uint32_t g) {
  if (!tracked(g)) return;
  Record& r = rec(g);
  if (r.slot == kNoSlot || !r.complete) return;
  if (is_source_ && g >= send_group_) return;  // still being sent
  Live& l = *slots_[r.slot];
  if (l.injections > 0 || l.ldp_timer.pending() ||
      l.request_timer.pending() || l.reply_timer.pending() ||
      l.measure_timer.pending() || lowest_pending_level(g) >= 0) {
    return;
  }
  drop_encoder(g, l);
  // What a delivered group can still be asked for is repair parity, which
  // any k shards give alike (the code is MDS): the decoder moves onto the
  // k originals, the ones its lane holds or, where it lacks one, decoded
  // here once, and the parity it held is released.
  fec::GroupDecoder dec = decoder_of(g);
  if (cfg_->real_payload && dec.holds_parity()) {
    SHARQ_PROF_SCOPE(codec);
    dec.hold_originals();
  } else {
    dec.hold_originals();  // size-only, it renumbers the held slots
  }
  static_cast<LiveState&>(l) = LiveState{};
  if (journal_) live_anchors_[r.slot] = LiveAnchors{};
  free_slots_.push_back(r.slot);
  r.slot = kNoSlot;
}

bool TransferEngine::sane_group_id(std::uint32_t g) const {
  if (groups_total_ > 0 && g < groups_total_) return true;
  return g <= max_group_seen_ + kMaxGroupJump;
}

void TransferEngine::stop() {
  stopped_ = true;
  for (std::uint32_t g = 0; g < records_.size(); ++g) {
    Live* l = live_if(g);
    if (!l) continue;
    l->ldp_timer.cancel();
    l->request_timer.cancel();
    l->reply_timer.cancel();
    l->measure_timer.cancel();
  }
}

void TransferEngine::memory_census(stats::MemCensus& census) const {
  census.add("rng_streams", sizeof(rng_), sizeof(rng_));
  // The object itself is held inline in its Agent's heap block.
  const std::uint64_t self =
      sizeof(TransferEngine) - sizeof(rng_) +
      stats::vector_block_bytes(scopes_);
  census.add("agent_objects", self, self);

  // Per-group storage: records, decoder blocks, span anchors and level
  // arenas only grow, so live == retained here; plus the live-state pool
  // and its encoders' own arrays (the buffers they share live in the lane
  // store).
  std::uint64_t grp_bytes =
      stats::vector_block_bytes(records_) +
      stats::vector_block_bytes(dec_blocks_) +
      stats::vector_block_bytes(anchors_) +
      stats::vector_block_bytes(chain_arena_) +
      stats::vector_block_bytes(slice_arena_) +
      stats::vector_block_bytes(slots_) +
      stats::vector_block_bytes(live_anchors_) +
      stats::vector_block_bytes(free_slots_) +
      slots_.size() * stats::heap_block_bytes(sizeof(Live));
  for (const auto& slot : slots_) {
    if (!slot->encoder) continue;
    const fec::GroupEncoder& enc = *slot->encoder;
    std::uint64_t stored = 0;
    for (const auto& s : enc.encoded()) stored += fec::buffer_bytes(s.bytes);
    grp_bytes += sizeof(fec::GroupEncoder) + enc.memory_bytes() - stored;
  }
  census.add("transfer_groups", grp_bytes, grp_bytes);
}

std::uint32_t TransferEngine::groups_completed() const {
  std::uint32_t n = 0;
  for (const Record& r : records_) n += r.tracked && r.complete ? 1 : 0;
  return n;
}

bool TransferEngine::group_complete(std::uint32_t g) const {
  return tracked(g) && rec(g).complete;
}

double TransferEngine::predicted_zlc(net::ZoneId z) const {
  const int l = session_.level_index(z);
  return l < 0 ? 0.0 : scopes_[l].zlc_pred;
}

std::vector<std::uint8_t> TransferEngine::reconstructed(std::uint32_t g) const {
  if (!group_complete(g) || !cfg_->real_payload) return {};
  SHARQ_PROF_SCOPE(codec);
  return decoder(g)->reconstruct();
}

std::optional<const fec::GroupDecoder> TransferEngine::decoder(
    std::uint32_t g) const {
  if (!tracked(g)) return std::nullopt;
  // Handed out const, so nothing can add through the view.
  return const_cast<TransferEngine*>(this)->decoder_of(g);
}

const fec::GroupEncoder* TransferEngine::encoder(std::uint32_t g) const {
  if (!tracked(g)) return nullptr;
  const Live* l = live_if(g);
  return l ? l->encoder.get() : nullptr;
}

// --- sender ------------------------------------------------------------------

void TransferEngine::send_stream(std::uint32_t group_count, sim::Time start_at,
                                 const std::vector<std::uint8_t>& payload) {
  assert(is_source_);
  send_total_groups_ = group_count;
  groups_total_ = group_count;
  if (cfg_->real_payload) {
    const auto size = static_cast<std::size_t>(cfg_->shard_size_bytes);
    std::size_t at = 0;
    for (std::uint32_t g = 0; g < group_count; ++g) {
      for (int d = 0; d < cfg_->group_size; ++d, at += size) {
        auto shard = std::make_shared<std::vector<std::uint8_t>>(size, 0);
        if (at < payload.size()) {
          std::copy_n(payload.data() + at,
                      std::min(size, payload.size() - at), shard->data());
        }
        store_->hold(g, d, std::move(shard));
      }
    }
  }
  // seen_any_ flips when the first packet actually leaves: advertising
  // progress before then would make receivers chase phantom losses.
  simu_.at(start_at, [this] { source_send_next(); }, "transfer.source_pace");
}

fec::ShardBuffer TransferEngine::shard_bytes(std::uint32_t g, int index) {
  if (!cfg_->real_payload) return nullptr;
  // Every shard of one (group, index) has the same bytes, whoever made it
  // (the code is MDS): one the lane already holds is sent as it is.
  if (const fec::ShardBuffer* held = store_->find(g, index)) return *held;
  SHARQ_PROF_SCOPE(codec);
  Live& l = live(g);
  if (!l.encoder) {
    std::vector<fec::IndexedShard> basis;
    if (is_source_ && g < send_total_groups_) {
      for (int d = 0; d < cfg_->group_size; ++d) {
        basis.push_back(fec::IndexedShard{d, *store_->find(g, d)});
      }
    } else if (rec(g).complete) {
      // The k shards this member holds span the code: parity comes
      // straight from them, and no missing original is rebuilt.
      basis = decoder_of(g).held_shards();
    } else {
      return nullptr;
    }
    for (const fec::IndexedShard& s : basis) store_->hold(g, s.index, s.bytes);
    l.encoder = std::make_unique<fec::GroupEncoder>(codec_, std::move(basis));
  }
  // Not in the store, so not in the encoder's basis or encoded shards
  // either: encoded here, once, straight into the buffer every message and
  // decoder in the lane will share.
  return store_->hold(g, index, l.encoder->shard_shared(index));
}

void TransferEngine::drop_encoder(std::uint32_t g, LiveState& l) {
  if (!l.encoder) return;
  for (const auto* shards : {&l.encoder->basis(), &l.encoder->encoded()}) {
    for (const fec::IndexedShard& s : *shards) store_->release(g, s.index);
  }
  l.encoder.reset();
}

void TransferEngine::source_send_next() {
  SHARQ_PROF_SCOPE(transfer);
  if (stopped_ || send_group_ >= send_total_groups_) return;
  const std::uint32_t g = send_group_;
  ensure_group(g);
  Live& l = live(g);
  if (send_index_ == 0) {
    // Decide this group's proactive redundancy h from the EWMA-predicted
    // ZLC of the largest zone (zero when injection is disabled).
    int h = 0;
    if (cfg_->injection) {
      // Size up ("sufficient redundancy to guarantee delivery", §3.2):
      // fractional predicted loss still means some receiver usually needs
      // that shard, and an unneeded proactive shard merely suppresses.
      h = static_cast<int>(std::ceil(scopes_.back().zlc_pred - 0.05));
      // Initial parity lives in the root zone's slice of the parity space.
      h = std::clamp(h, 0, slice_width() - 1);
    }
    rec(g).initial_shards = static_cast<std::uint8_t>(cfg_->group_size + h);
    max_group_seen_ = std::max(max_group_seen_, g);
    seen_any_ = true;
  }
  auto msg = std::make_shared<DataMsg>();
  msg->group = g;
  msg->index = send_index_;
  msg->k = cfg_->group_size;
  msg->initial_shards = rec(g).initial_shards;
  msg->groups_total = groups_total_;
  msg->bytes = shard_bytes(g, send_index_);
  const bool is_parity = send_index_ >= cfg_->group_size;
  net_.send(node_, hier_.data_channel(),
            is_parity ? net::TrafficClass::kRepair : net::TrafficClass::kData,
            cfg_->shard_size_bytes, msg);
  // Initial parity is injected at root scope (the whole session).
  if (is_parity) ++scopes_.back().preemptive;
  // The source trivially "has" every shard it emits.
  add_shard(g, send_index_, msg->bytes);
  Record& r = rec(g);
  r.last_initial_seen = static_cast<std::int16_t>(send_index_);
  r.max_id_seen = std::max<std::int16_t>(r.max_id_seen, r.last_initial_seen);

  ++send_index_;
  if (send_index_ >= r.initial_shards) {
    // Group fully transmitted: the sender enters the repair phase for it
    // immediately (paper RP rule 1) and flushes any queued repairs.
    r.ldp_done = true;
    if (!l.reply_timer.pending()) {
      const int level = lowest_pending_level(g);
      if (level >= 0) {
        l.reply_level = level;
        fire_reply(g);
      }
    }
    schedule_zlc_measurement(g);
    send_index_ = 0;
    ++send_group_;
    maybe_settle(g);
  }
  simu_.after(packet_interval(), [this] { source_send_next(); },
              "transfer.source_pace");
}

// --- receive path -------------------------------------------------------------

bool TransferEngine::handle(const net::Packet& packet) {
  const auto* d = packet.as<DataMsg>();
  const auto* r = d ? nullptr : packet.as<RepairMsg>();
  const auto* n = d || r ? nullptr : packet.as<NackMsg>();
  if (!d && !r && !n) return false;
  SHARQ_PROF_SCOPE(transfer);
  // Cross-node causality: whatever this packet triggers is caused by the
  // event that sent it (bound to the uid on the sender's side).
  cause_in_ = journal_ ? journal_->uid_event(packet.uid) : 0;
  if (stopped_) return true;
  // A shard's bytes must be a whole shard in a real-payload run and absent
  // in a size-only one: decoders hold every shard's bytes in the lane store
  // or none, and the first buffer held for a (group, index) is the one the
  // whole lane decodes and repairs from.
  auto bad_bytes = [this](const fec::ShardBuffer& bytes) {
    return cfg_->real_payload
               ? !bytes || bytes->size() !=
                               static_cast<std::size_t>(cfg_->shard_size_bytes)
               : bytes != nullptr;
  };
  if (d) {
    // Field validation before any state is touched: a hostile or decoder-
    // mangled message must bump the reject counter, not hang the backfill
    // loops or inflate per-group bookkeeping.
    if (d->index < 0 || d->index >= codec_->max_shards() ||
        d->k != cfg_->group_size || d->initial_shards > codec_->max_shards() ||
        !sane_group_id(d->group) || bad_bytes(d->bytes)) {
      ++malformed_rejects_;
      return true;
    }
    if (source_node_ == net::kNoNode) source_node_ = packet.origin;
    if (!is_source_) {
      on_data(*d, packet.cls);
      maybe_settle(d->group);
    }
    return true;
  }
  if (r) {
    if (r->index < 0 || r->index >= codec_->max_shards() ||
        r->new_max_id < 0 || r->new_max_id >= codec_->max_shards() ||
        !sane_group_id(r->group) || bad_bytes(r->bytes)) {
      ++malformed_rejects_;
      return true;
    }
    on_repair(*r);
    maybe_settle(r->group);
    return true;
  }
  if (n->llc < 0 || n->llc > codec_->max_shards() || n->needed < 0 ||
      n->needed > codec_->max_shards() || n->max_id_seen < -1 ||
      n->max_id_seen >= codec_->max_shards() || !sane_group_id(n->group)) {
    ++malformed_rejects_;
    return true;
  }
  on_nack(*n);
  maybe_settle(n->group);
  return true;
}

void TransferEngine::fix_join_point(std::uint32_t first_heard_group,
                                    bool at_group_start) {
  if (join_point_fixed_ || is_source_) return;
  join_point_fixed_ = true;
  if (cfg_->late_join_full_history) return;  // contract covers everything
  // Live-only contract: skip all earlier groups, and the partially-heard
  // one unless we caught its very first shard.
  skip_before_ = at_group_start ? first_heard_group : first_heard_group + 1;
}

std::uint32_t TransferEngine::backfill_start() {
  // Groups only ever finish their LDP, so the floor only rises.
  ldp_floor_ = std::max(ldp_floor_, skip_before_);
  while (tracked(ldp_floor_) && records_[ldp_floor_].ldp_done) ++ldp_floor_;
  return ldp_floor_;
}

void TransferEngine::note_remote_progress(std::uint32_t remote_max_group) {
  if (stopped_ || is_source_) return;
  // Clamp rather than reject: a genuinely far-ahead stream still makes
  // incremental progress across successive advertisements, while a forged
  // value cannot commandeer unbounded group state in one step.
  remote_max_group =
      std::min(remote_max_group, max_group_seen_ + kMaxGroupJump);
  fix_join_point(remote_max_group + 1, /*at_group_start=*/true);
  if (!seen_any_) {
    // We have heard nothing at all yet; the stream exists, so group 0 and
    // everything up to the advertised max is missing.
    seen_any_ = true;
  }
  for (std::uint32_t g = backfill_start(); g <= remote_max_group; ++g) {
    ensure_group(g);
    // A group short of its LDP is incomplete, so live: no slot is taken.
    if (rec(g).ldp_done || live(g).ldp_timer.pending()) continue;
    if (g < remote_max_group) {
      // Groups below the advertised max have certainly finished at the
      // source.
      finish_ldp(g);
    } else if (!rec(g).arrived) {
      // The advertised max group itself may still be in flight toward us
      // (the advertisement can race the tranche). Give it one tranche
      // duration plus slack; a live arrival re-arms this timer, a late
      // joiner's silence finalizes it and starts recovery.
      const sim::Time grace =
          std::max(0.5, 2.0 * cfg_->group_size * inter_arrival_estimate());
      Live& lv = live(g);
      lv.ldp_timer.arm(grace, [this, g] {
        if (!rec(g).ldp_done) finish_ldp(g, "timer");
      }, "transfer.ldp");
      if (journal_ && ev(g).ldp_armed == 0) {
        ev(g).ldp_armed = jnl("ldp.armed", g, span_root(g), {{"eta", grace}});
      }
    }
  }
  max_group_seen_ = std::max(max_group_seen_, remote_max_group);
}

void TransferEngine::on_data(const DataMsg& msg, net::TrafficClass) {
  fix_join_point(msg.group, /*at_group_start=*/msg.index == 0);
  seen_any_ = true;
  if (msg.group < skip_before_) return;  // outside our delivery contract
  // Inter-arrival estimate refinement (paper: group-by-group).
  if (last_arrival_ != sim::kTimeNever) {
    const double gap = simu_.now() - last_arrival_;
    if (gap > 0.0 && gap < 10.0 * packet_interval()) {
      ewma_update(arrival_ewma_, gap, 0.1);
    }
  }
  last_arrival_ = simu_.now();

  // Groups before this one that we never completed detection on have
  // finished their initial tranche at the source.
  if (msg.group > max_group_seen_ || !seen_any_) {
    for (std::uint32_t g = backfill_start(); g < msg.group; ++g) {
      ensure_group(g);
      if (!rec(g).ldp_done && !live(g).ldp_timer.pending()) finish_ldp(g);
    }
    max_group_seen_ = std::max(max_group_seen_, msg.group);
  }
  if (msg.groups_total > 0) {
    // Trust an announced stream length only as far as the jump bound
    // reaches: a forged total would otherwise widen sane_group_id's
    // window to any group id, letting one later message resize the
    // per-group arrays to billions of entries.
    groups_total_ =
        std::min(msg.groups_total, max_group_seen_ + kMaxGroupJump + 1);
  }

  const std::uint32_t g = msg.group;
  ensure_group(g);
  Record& r = rec(g);
  r.initial_shards = static_cast<std::uint8_t>(
      std::max<int>(r.initial_shards, msg.initial_shards));
  if (!r.arrived) {
    r.arrived = true;
    if (!r.complete) live(g).first_arrival = simu_.now();
    if (journal_) {
      // Span root: data sends are not journaled (volume), so the first
      // arrival starts this {node, group} recovery lifecycle from nothing.
      anchors_[g].root =
          jnl("group.first_arrival", g, 0, {{"index", msg.index}});
    }
  }
  note_initial_progress(g, msg.index);
  add_shard(g, msg.index, msg.bytes);
  if (rec(g).complete || rec(g).ldp_done) return;
  // (Re)arm the LDP timer: expect the rest of the initial tranche at the
  // estimated inter-packet pace, with slack for jitter.
  const int remaining = rec(g).initial_shards - 1 - rec(g).last_initial_seen;
  const sim::Time eta =
      (static_cast<double>(std::max(remaining, 0)) * 1.5 + 2.0) *
      inter_arrival_estimate();
  Live& l = live(g);
  l.ldp_timer.arm(eta, [this, g] {
    if (!rec(g).ldp_done) finish_ldp(g, "timer");
  }, "transfer.ldp");
  // Journaled once per group (the timer re-arms on every packet; a line
  // per packet would drown the journal in the common no-loss case).
  if (journal_ && ev(g).ldp_armed == 0) {
    ev(g).ldp_armed = jnl("ldp.armed", g, span_root(g), {{"eta", eta}});
  }
}

int TransferEngine::missing_originals(std::uint32_t g, int from, int to) {
  const fec::GroupDecoder dec = decoder_of(g);
  int n = 0;
  for (int j = from; j < std::min(to, cfg_->group_size); ++j) {
    if (!dec.has(j)) ++n;
  }
  return n;
}

void TransferEngine::note_initial_progress(std::uint32_t g, int index) {
  // Initial-tranche shards arrive in index order over a FIFO tree; a jump
  // means the skipped shards were lost on our path.
  Record& r = rec(g);
  if (index <= r.last_initial_seen) return;
  const int newly_missing_originals =
      missing_originals(g, r.last_initial_seen + 1, index);
  r.last_initial_seen = static_cast<std::int16_t>(index);
  r.max_id_seen = std::max<std::int16_t>(r.max_id_seen, r.last_initial_seen);
  if (newly_missing_originals > 0) {
    // An index jump is observed on a data arrival, so the span root (the
    // group's first arrival) is the closest recorded trigger.
    raise_llc(g, newly_missing_originals, span_root(g));
  }
}

void TransferEngine::raise_llc(std::uint32_t g, int newly_missing,
                               stats::EventId cause) {
  Record& r = rec(g);
  r.llc = static_cast<std::int16_t>(r.llc + newly_missing);
  if (journal_) {
    anchors_[g].last_loss =
        jnl("loss.detected", g, cause ? cause : span_root(g),
            {{"llc", r.llc}, {"newly_missing", newly_missing}});
  }
  maybe_request(g);
}

void TransferEngine::finish_ldp(std::uint32_t g, const char* via) {
  Record& r = rec(g);
  if (r.ldp_done) return;
  r.ldp_done = true;
  Live& l = live(g);
  l.ldp_timer.cancel();
  // Shards of the initial tranche we never saw are lost.
  const int missing =
      missing_originals(g, r.last_initial_seen + 1, r.initial_shards);
  r.last_initial_seen = static_cast<std::int16_t>(r.initial_shards - 1);
  r.max_id_seen = std::max<std::int16_t>(r.max_id_seen, r.last_initial_seen);
  stats::EventId fired_ev = 0;
  if (journal_) {
    const stats::EventId armed = ev(g).ldp_armed;
    fired_ev = jnl("ldp.fired", g, armed ? armed : span_root(g),
                   {{"missing", missing}, {"via", via}});
  }
  if (missing > 0) {
    raise_llc(g, missing, fired_ev);
  } else {
    maybe_request(g);
  }
  if (rec(g).complete) return;
  schedule_zlc_measurement(g);
}

void TransferEngine::add_shard(std::uint32_t g, int index,
                               const fec::ShardBuffer& bytes) {
  note_parity_seen(g, index);
  if (!decoder_of(g).add(index, bytes)) return;
  if (index >= cfg_->group_size) {
    // Parity actually received, attributed to the level that emitted it
    // (used to size incremental injection from below).
    const int gl = std::min((index - cfg_->group_size) / slice_width(),
                            hier_.depth() - 1);
    ++slice_lv(g)[gl].seen;
  }
  Record& r = rec(g);
  r.max_id_seen = std::max<std::int16_t>(r.max_id_seen,
                                         static_cast<std::int16_t>(index));
  if (!r.complete && decoder_of(g).complete()) on_group_complete(g);
}

// --- request side ---------------------------------------------------------------

int TransferEngine::base_scope_level() const {
  const auto& chain = session_.chain();
  // A zone's ZCR represents its zone upward: its own unrecovered losses
  // are, by construction, losses the whole zone shares (they happened
  // upstream of the zone boundary), so its NACKs start at the parent
  // scope where a repairer can actually exist. This is what lets the
  // source learn the per-zone loss it must cover with initial redundancy
  // ("the source need only add sufficient redundancy to guarantee
  // delivery of each group to receiver Y", §3.2).
  int base = 0;
  while (base + 1 < static_cast<int>(chain.size()) &&
         session_.is_zcr(chain[base])) {
    ++base;
  }
  return base;
}

int TransferEngine::nack_level(std::uint32_t g) const {
  const auto& chain = session_.chain();
  const int base = base_scope_level();
  int level = std::min<int>(base + live_if(g)->scope_level, chain.size() - 1);
  // Paper: if the source is a member of the target partition, use the
  // largest scope instead (its repairs serve everyone anyway).
  if (source_node_ != net::kNoNode &&
      hier_.zone_contains(chain[level], source_node_)) {
    level = static_cast<int>(chain.size()) - 1;
  }
  return level;
}

bool TransferEngine::covered_by_zlc(std::uint32_t g) const {
  // A NACK at ANY scope containing us whose announced loss count reaches
  // ours means repairs covering our deficit are on their way (repairs at
  // larger scopes reach nested zones too).
  const ChainLevel* lv = chain_lv(g);
  int best = 0;
  for (std::size_t l = 0; l < chain_levels_; ++l) {
    best = std::max<int>(best, lv[l].zlc);
  }
  return rec(g).llc <= best;
}

void TransferEngine::maybe_request(std::uint32_t g) {
  if (is_source_ || rec(g).complete) return;
  if (deficit(g) <= 0) return;
  // Whether covered by someone else's NACK or not, the request timer must
  // run: if covered, it acts as a stall probe; if not, it races to be the
  // zone's NACKer. Suppression proper happens at fire time.
  if (!live(g).request_timer.pending()) arm_request_timer(g);
}

void TransferEngine::arm_request_timer(std::uint32_t g, stats::EventId cause) {
  const double d = dist_to_source();
  rm::TimerPolicy policy = rm::kPaperTimers;
  if (cfg_->adaptive_timers) {
    policy.c1 = c1_adapt_;
    policy.c2 = c2_adapt_;
  }
  rm::TimerPolicy::RequestDraw draw;
  Live& l = live(g);
  const sim::Time delay = policy.request_delay(
      rng_, d, std::min(l.backoff_i, cfg_->max_backoff_stage),
      journal_ ? &draw : nullptr);
  l.request_timer.arm(delay, [this, g] { fire_request(g); },
                      "transfer.request");
  if (journal_) {
    // The sampled suppression window rides along so a trace shows why
    // this receiver's NACK waited as long as it did.
    jnl("request.armed", g, cause ? cause : span_cause(g),
        {{"delay", delay},
         {"hi", draw.hi},
         {"lo", draw.lo},
         {"scale", draw.scale}});
  }
}

void TransferEngine::adapt_request_window(bool heard_duplicate) {
  if (!cfg_->adaptive_timers) return;
  ave_dup_nack_ =
      0.75 * ave_dup_nack_ + 0.25 * (heard_duplicate ? 1.0 : 0.0);
  if (ave_dup_nack_ >= 0.5) {
    c1_adapt_ += 0.1;
    c2_adapt_ += 0.5;
  } else if (ave_dup_nack_ < 0.2) {
    c1_adapt_ -= 0.05;
    c2_adapt_ -= 0.1;
  }
  c1_adapt_ = std::clamp(c1_adapt_, rm::kAdaptiveMin.c1, rm::kAdaptiveMax.c1);
  c2_adapt_ = std::clamp(c2_adapt_, rm::kAdaptiveMin.c2, rm::kAdaptiveMax.c2);
}

void TransferEngine::fire_request(std::uint32_t g) {
  SHARQ_PROF_SCOPE(transfer);
  if (stopped_) return;
  Record& r = rec(g);
  if (r.complete || deficit(g) <= 0) return;
  Live& l = live(g);
  if (!r.ldp_done) {
    // The initial tranche is still arriving: a NACK now would count
    // in-flight shards as losses and demand repairs nobody needs. Wait
    // out the rest of the loss-detection phase first.
    const int remaining = r.initial_shards - 1 - r.last_initial_seen;
    const sim::Time eta = (static_cast<double>(std::max(remaining, 1)) * 1.2 +
                           1.0) *
                          inter_arrival_estimate();
    l.request_timer.arm(eta, [this, g] { fire_request(g); },
                        "transfer.request");
    return;
  }
  const int level = nack_level(g);
  // Suppression re-check at fire time (paper LDP rule 6): somebody in
  // this zone already announced at least our loss count, so their repairs
  // cover us — unless recovery has stalled (no new shard since our last
  // probe), in which case the repairs were evidently lost and we NACK
  // anyway (paper RP rule: repairees detect lost repairs and re-request).
  const bool covered = covered_by_zlc(g);
  const int distinct = r.dec.distinct;
  const bool progressing = distinct != l.last_fire_distinct;
  l.last_fire_distinct = distinct;
  if (covered && progressing) {
    ++nacks_suppressed_;
    stats::EventId suppressed_ev = 0;
    if (journal_) {
      suppressed_ev = jnl("nack.suppressed", g, span_cause(g),
                          {{"level", level}, {"llc", r.llc}});
    }
    back_off_request(g, suppressed_ev);
    return;
  }
  const stats::EventId nack_ev =
      send_nack(g, level, r.llc, deficit(g), /*storm=*/false);
  ChainLevel& lv = chain_lv(g)[level];
  lv.nacked = true;
  lv.zlc = std::max(lv.zlc, r.llc);

  // Escalate to the parent scope after the configured number of attempts;
  // a fresh scope starts with a fresh backoff stage (the paper resets i on
  // repair arrival; without a reset here, escalation to a scope that can
  // actually repair would inherit minutes of accumulated backoff).
  ++l.attempts_at_scope;
  const bool escalation_due =
      l.attempts_at_scope >= kAttemptsPerScope &&
      level + 1 < static_cast<int>(session_.chain().size());
  if (!escalation_due) {
    back_off_request(g, nack_ev);
    return;
  }
  ++l.scope_level;
  l.attempts_at_scope = 0;
  l.backoff_i = 1;
  if (journal_) {
    jnl("scope.escalated", g, nack_ev, {{"scope_level", l.scope_level}});
  }
  arm_request_timer(g, nack_ev);
}

void TransferEngine::back_off_request(std::uint32_t g, stats::EventId cause) {
  Live& l = live(g);
  l.backoff_i = std::min(l.backoff_i + 1, cfg_->max_backoff_stage);
  arm_request_timer(g, cause);
}

stats::EventId TransferEngine::send_nack(std::uint32_t g, int level, int llc,
                                         int needed, bool storm) {
  const net::ZoneId zone = session_.chain()[level];
  auto msg = std::make_shared<NackMsg>();
  msg->group = g;
  msg->zone = zone;
  msg->llc = llc;
  msg->needed = needed;
  msg->max_id_seen = rec(g).max_id_seen;
  msg->sender = node_;
  msg->hints = session_.make_hints();
  ++nacks_sent_;
  const std::uint64_t uid =
      net_.send(node_, hier_.repair_channel(zone), net::TrafficClass::kNack,
                nack_size(msg->hints.size()), msg, /*lossless=*/true);
  if (!journal_) return 0;
  stats::Attrs attrs{
      {"level", level}, {"llc", llc}, {"needed", needed}, {"zone", zone}};
  if (storm) attrs.emplace("storm", 1);
  const stats::EventId sent_ev = jnl("nack.sent", g, span_cause(g), attrs);
  journal_->bind_uid(uid, sent_ev);
  return sent_ev;
}

// --- NACK handling (suppression + repairer bookkeeping) ------------------------

void TransferEngine::on_nack(const NackMsg& msg) {
  if (join_point_fixed_ && msg.group < skip_before_ && !is_source_) {
    // Outside our contract — but we may still hold the shards from before
    // we narrowed it; otherwise ignore.
    if (!tracked(msg.group)) return;
  }
  const std::uint32_t g = msg.group;
  ensure_group(g);
  const int level = session_.level_index(msg.zone);
  if (level < 0) return;  // scoping prevents this in practice

  stats::EventId heard_ev = 0;
  if (journal_) {
    // Cross-node edge: cause is the sender's nack.sent, via the packet uid.
    heard_ev = jnl("nack.heard", g, cause_in_,
                   {{"level", level},
                    {"llc", msg.llc},
                    {"needed", msg.needed},
                    {"sender", msg.sender}});
  }

  // No group-creating call happens below, so the stride and record
  // references stay valid for the rest of the handler.
  Record& r = rec(g);
  ChainLevel& lv = chain_lv(g)[level];
  const bool increased = msg.llc > lv.zlc;
  lv.zlc = static_cast<std::int16_t>(std::max<int>(lv.zlc, msg.llc));

  // The NACK's max-id may reveal shards we never saw (paper LDP rule 7).
  if (msg.max_id_seen > r.max_id_seen) {
    const int missing =
        missing_originals(g, r.max_id_seen + 1, msg.max_id_seen + 1);
    if (r.last_initial_seen < msg.max_id_seen &&
        msg.max_id_seen < r.initial_shards) {
      r.last_initial_seen = static_cast<std::int16_t>(msg.max_id_seen);
    }
    r.max_id_seen = static_cast<std::int16_t>(msg.max_id_seen);
    if (missing > 0 && !is_source_) raise_llc(g, missing, heard_ev);
  }

  if (!is_source_ && !r.complete) {
    // Suppression (paper LDP rules 5/6): a NACK that covers our losses, or
    // one that does not raise the ZLC, backs our own request off.
    Live& l = live(g);
    if (l.request_timer.pending() && (!increased || r.llc <= lv.zlc)) {
      ++nacks_deduped_;
      stats::EventId dedup_ev = 0;
      if (journal_) {
        dedup_ev = jnl("nack.deduped", g, heard_ev,
                       {{"level", level}, {"llc", r.llc}});
      }
      back_off_request(g, dedup_ev);
      // A NACK that didn't raise the ZLC while ours announced the same
      // losses is a duplicate in the adaptive-timer sense.
      if (lv.nacked && !increased) adapt_request_window(true);
    }
  }

  // Repairer bookkeeping: speculative repair queue for that zone. New
  // NACKs raise the queue to the worst outstanding deficit; increases do
  // not reset a pending reply timer (paper LDP rule 8).
  int want = std::max<int>(lv.pending, msg.needed);
  const std::int32_t qcap = cfg_->budget.repair_queue_depth;
  if (qcap > 0 && want > qcap) {
    // Queue budget: coalesce the deficit down to the cap. The capped
    // queue still answers the worst deficit up to the budget; requesters
    // still short after the burst re-NACK and are served next round.
    want = qcap;
    ++repairs_coalesced_;
    if (journal_) {
      jnl("shed.repair", g, heard_ev,
          {{"mode", "coalesce"},
           {"level", level},
           {"needed", msg.needed},
           {"queued", qcap}});
    }
  }
  lv.pending = static_cast<std::uint8_t>(want);
  if (lv.pending > pending_high_water_) pending_high_water_ = lv.pending;
  if (!eligible_repairer(g)) return;
  Live& l = live(g);
  if (l.reply_timer.pending()) {
    l.reply_level = std::max(l.reply_level, level);
    return;
  }
  const double d =
      std::max(1e-3, session_.estimate_dist(msg.sender, msg.hints));
  if (journal_) {
    const char* via = dedicated_repairer(level) ? "immediate" : "deferred";
    ev(g).repair_sched = jnl("repair.scheduled", g, heard_ev,
                             {{"level", level}, {"via", via}});
  }
  start_reply(g, level, d * kFallbackReplyDefer);
}

bool TransferEngine::eligible_repairer(std::uint32_t g) const {
  if (cfg_->sender_only && !is_source_) return false;
  const Record& r = rec(g);
  return r.complete || (is_source_ && r.ldp_done);
}

bool TransferEngine::dedicated_repairer(int level) const {
  return is_source_ || session_.is_zcr(session_.chain()[level]);
}

void TransferEngine::start_reply(std::uint32_t g, int level,
                                 double fallback_dist) {
  live(g).reply_level = level;
  if (dedicated_repairer(level)) {
    fire_reply(g);  // sender and responsible ZCRs answer at once (paced)
  } else {
    arm_reply(g, rm::kPaperTimers.reply_delay(rng_, fallback_dist));
  }
}

void TransferEngine::arm_reply(std::uint32_t g, sim::Time delay) {
  live(g).reply_timer.arm(delay, [this, g] {
    fire_reply(g);
    maybe_settle(g);
  }, "transfer.reply");
}

void TransferEngine::fire_reply(std::uint32_t g) {
  SHARQ_PROF_SCOPE(transfer);
  if (stopped_ || !eligible_repairer(g)) return;
  Live& l = live(g);
  if (l.reply_level < 0) return;
  if (chain_lv(g)[l.reply_level].pending <= 0) {
    // This zone is served; check smaller zones we may also owe.
    const int owed = lowest_pending_level(g);
    if (owed < 0) return;
    l.reply_level = owed;
  }
  const int level = l.reply_level;
  if (const sim::Time wait = pacer_.wait(simu_.now()); wait > 0.0) {
    // Rate cap: defer, never drop — re-arm for the pacer's next free
    // slot. The pacer hands out slots in event order, so concurrent
    // deferrals across groups serialize deterministically.
    ++repairs_deferred_;
    if (journal_) {
      jnl("shed.repair", g, ev(g).repair_sched,
          {{"mode", "defer"}, {"level", level}, {"wait", wait}});
    }
    arm_reply(g, wait);
    return;
  }
  send_one_repair(g, level, /*preemptive=*/false);
  // Re-fetch the stride: send_one_repair can complete the group, and the
  // completion callback may create groups (arena growth moves the data).
  ChainLevel* lv = chain_lv(g);
  if (lv[level].pending > 0) --lv[level].pending;
  if (lowest_pending_level(g) < 0) return;
  if (dedicated_repairer(level)) {
    // Dedicated repairers pace the rest of the burst at half the data
    // inter-packet interval (paper RP rule 1).
    arm_reply(g, kRepairSpacingFactor * packet_interval());
  } else {
    // Fallback repairers re-randomize a suppression-sized delay between
    // repairs so a dedicated repairer's burst (or another fallback's)
    // can drain the queue first.
    arm_reply(g, rm::kPaperTimers.reply_delay(
                     rng_, rm::kDefaultDist * kFallbackReplyDefer));
  }
}

void TransferEngine::send_one_repair(std::uint32_t g, int level,
                                     bool preemptive) {
  if (stopped_) return;
  live(g);  // the slot whose anchors the journal reads below
  if (preemptive && !pacer_.due(simu_.now())) {
    // Preemptive injection is speculative redundancy: when the rate
    // cap has no slot, skipping the shard is the graceful choice —
    // anyone who actually needed it will NACK and be served through the
    // (deferring, never-dropping) reactive path.
    ++repairs_deferred_;
    if (journal_) {
      jnl("shed.repair", g, ev(g).inject,
          {{"mode", "skip_preemptive"}, {"level", level}});
    }
    return;
  }
  const net::ZoneId zone = session_.chain()[level];
  const int index = next_parity_index(g, zone);
  Record& r = rec(g);
  r.max_id_seen = std::max<std::int16_t>(r.max_id_seen,
                                         static_cast<std::int16_t>(index));

  auto msg = std::make_shared<RepairMsg>();
  msg->group = g;
  msg->index = index;
  msg->k = cfg_->group_size;
  msg->new_max_id = index;
  msg->repairer = node_;
  msg->zone = zone;
  msg->preemptive = preemptive;
  msg->hints = session_.make_hints();
  msg->bytes = shard_bytes(g, index);
  // Logical bytes of the repair sent, whether or not this send encoded
  // them: counted in both payload modes so the profile's FEC figures
  // survive the (fast) shard-count configuration.
  stats::Profiler::count(stats::ProfCounter::fec_bytes_encoded,
                         static_cast<std::uint64_t>(cfg_->shard_size_bytes));
  Scope& sc = scopes_[static_cast<std::size_t>(level)];
  ++sc.repairs;
  if (preemptive) ++sc.preemptive;
  const std::uint64_t uid =
      net_.send(node_, hier_.repair_channel(zone), net::TrafficClass::kRepair,
                cfg_->shard_size_bytes, msg);
  pacer_.note_sent(simu_.now());
  if (journal_) {
    const stats::EventId cause =
        preemptive ? ev(g).inject : ev(g).repair_sched;
    const stats::EventId sent_ev =
        jnl("repair.sent", g, cause ? cause : span_cause(g),
            {{"index", index},
             {"level", level},
             {"mode", preemptive ? "preemptive" : "reactive"},
             {"zone", zone}});
    journal_->bind_uid(uid, sent_ev);
  }
  // Our own shard store should know the shard exists (dedup/coordination).
  add_shard(g, index, msg->bytes);
}

// --- repair handling -----------------------------------------------------------

void TransferEngine::on_repair(const RepairMsg& msg) {
  seen_any_ = true;
  if (join_point_fixed_ && msg.group < skip_before_) return;
  const std::uint32_t g = msg.group;
  ensure_group(g);
  const int level = session_.level_index(msg.zone);
  Record& r = rec(g);
  r.max_id_seen = std::max<std::int16_t>(
      r.max_id_seen, static_cast<std::int16_t>(msg.new_max_id));
  note_parity_seen(g, msg.new_max_id);
  // A delivered group needs no live state here: its repair count and the
  // anchor below are read only up to completion, and its timers are idle.
  const bool was_complete = r.complete;
  if (!was_complete) ++live(g).repair_coverage;
  const bool useful = !decoder_of(g).has(msg.index);
  if (journal_) {
    const stats::EventId recv_ev =
        jnl("repair.received", g, cause_in_,
            {{"index", msg.index},
             {"level", level},
             {"mode", msg.preemptive ? "preemptive" : "reactive"},
             {"useful", useful ? 1 : 0}});
    if (!was_complete) ev(g).last_repair_recv = recv_ev;
  }
  add_shard(g, msg.index, msg.bytes);

  // A repair resets the request backoff (paper LDP rule: "any time a
  // repair arrives, i is reset to 1") — but only a repair that added
  // information. Resetting on duplicates lets a stream of useless repairs
  // hold a starved receiver at its fastest NACK cadence, which sustains a
  // session-wide NACK/repair storm (found by the chaos soak).
  if (useful && !rec(g).complete) {
    Live& l = live(g);
    l.backoff_i = 1;
    // De-escalate to the scope that actually served us: that zone has a
    // live repairer with the shards, so wider NACKs are pure amplification
    // (a root-scope NACK recruits ~every complete receiver). Without this,
    // an outage parks the scope at the root forever — ~100x repair
    // amplification after heal, found by the chaos soak. Scopes below the
    // serving level stay ruled out: they already failed to answer, which
    // is how we escalated past them in the first place.
    const int serving =
        std::max(level - base_scope_level(), 0);
    if (l.scope_level > serving) {
      l.scope_level = serving;
      l.attempts_at_scope = 0;
      if (journal_) {
        jnl("scope.deescalated", g, ev(g).last_repair_recv,
            {{"scope_level", serving}});
      }
    }
    if (l.request_timer.pending() && deficit(g) > 0) {
      arm_request_timer(g, journal_ ? ev(g).last_repair_recv : 0);
    }
  }

  // Dequeue speculative repairs for the repair's zone and every smaller
  // zone on our chain (paper LDP rule 9). Fetched after add_shard: the
  // completion callback it can trigger may grow the arena.
  if (level >= 0) {
    ChainLevel* lv = chain_lv(g);
    for (int l = 0; l <= level; ++l) {
      if (lv[l].pending > 0) --lv[l].pending;
    }
    Live* l = live_if(g);
    if (l && l->reply_timer.pending() && lowest_pending_level(g) < 0) {
      l->reply_timer.cancel();
    }
  }
}

// --- completion, injection, ZLC measurement -------------------------------------

void TransferEngine::on_group_complete(std::uint32_t g) {
  Record& r = rec(g);
  r.complete = true;
  r.ldp_done = true;
  Live& l = live(g);
  l.ldp_timer.cancel();
  l.request_timer.cancel();
  // Originals never heard directly are what the decode rebuilt (logical
  // bytes, mode-independent — same rationale as fec_bytes_encoded).
  const fec::GroupDecoder dec = decoder_of(g);
  int rebuilt = 0;
  for (int j = 0; j < cfg_->group_size; ++j) {
    if (!dec.has(j)) ++rebuilt;
  }
  if (rebuilt > 0) {
    stats::Profiler::count(
        stats::ProfCounter::fec_bytes_decoded,
        static_cast<std::uint64_t>(rebuilt) *
            static_cast<std::uint64_t>(cfg_->shard_size_bytes));
  }
  if (completion_ && l.first_arrival != sim::kTimeNever) {
    completion_->observe(simu_.now() - l.first_arrival);
  }
  if (journal_) {
    // The parity decode is instantaneous in shard-count mode, so start and
    // complete land at the same t; they are separate events because real
    // decoders are not, and the analyzer's latency split wants the edge.
    const stats::EventId recv_ev = ev(g).last_repair_recv;
    const stats::EventId cause = recv_ev ? recv_ev : span_cause(g);
    const stats::EventId start_ev =
        jnl("decode.start", g, cause,
            {{"distinct", dec.distinct()}, {"llc", r.llc}});
    const stats::EventId done_ev =
        jnl("decode.complete", g, start_ev, {});
    ev(g).complete =
        jnl("group.complete", g, done_ev,
            {{"elapsed", l.first_arrival != sim::kTimeNever
                             ? simu_.now() - l.first_arrival
                             : 0.0},
             {"repairs_heard", l.repair_coverage}});
  }
  // Successful recovery without duplicate NACKs nudges the adaptive
  // request window back down.
  if (r.llc > 0) adapt_request_window(false);
  if (log_) log_->record(node_, g, simu_.now());
  if (on_complete_) on_complete_(g);
  // Becoming a repairer: serve any speculative queue (paper RP rules 2/3).
  // Stride fetched after the completion callback above (it may create
  // groups and grow the arena).
  const int level = eligible_repairer(g) ? lowest_pending_level(g) : -1;
  if (level >= 0 && !l.reply_timer.pending()) {
    if (journal_) {
      ev(g).repair_sched = jnl("repair.scheduled", g, ev(g).complete,
                               {{"level", level}, {"via", "completion"}});
    }
    start_reply(g, level, rm::kDefaultDist);
  }
  schedule_injection(g);
  schedule_zlc_measurement(g);
}

void TransferEngine::schedule_injection(std::uint32_t g) {
  if (!cfg_->injection || !eligible_repairer(g)) return;
  const auto& chain = session_.chain();
  // The source's root-level proactive FEC is the initial tranche; ZCRs of
  // smaller zones top up their zone to the predicted ZLC.
  ChainLevel* lv = chain_lv(g);
  for (std::size_t l = 0; l + 1 < chain.size(); ++l) {
    if (!session_.is_zcr(chain[l]) || lv[l].injected) continue;
    lv[l].injected = true;
    // Incremental redundancy: predicted zone loss minus the coverage the
    // larger scopes are predicted to deliver into this zone (paper §3.2:
    // each zone compensates only for its own incremental loss; "should
    // too much redundancy be injected at one level, receivers in
    // subservient zones will add less").
    const int want = static_cast<int>(
        std::ceil(scopes_[l].zlc_pred - scopes_[l].cov_pred - 0.05));
    const int extra = std::clamp(want, 0, slice_width() - 1);
    if (extra <= 0) continue;
    const int level = static_cast<int>(l);
    Live& lg = live(g);
    if (journal_) {
      ev(g).inject = jnl("inject.scheduled", g, ev(g).complete,
                         {{"count", extra}, {"level", level}});
    }
    // Paced burst of preemptive repairs into this zone (paper RP rule 2:
    // the ZCR transmits without waiting for NACKs). The group stays live
    // until the last one has gone.
    lg.injections += extra;
    for (int i = 0; i < extra; ++i) {
      simu_.after(
          kRepairSpacingFactor * packet_interval() * i,
          [this, g, level] {
            --live(g).injections;
            send_one_repair(g, level, /*preemptive=*/true);
            maybe_settle(g);
          },
          "transfer.inject");
    }
  }
}

void TransferEngine::schedule_zlc_measurement(std::uint32_t g) {
  Live& l = live(g);
  if (rec(g).measured || l.measure_timer.pending()) return;
  bool responsible = is_source_;
  double max_rtt = 0.0;
  const auto& chain = session_.chain();
  for (std::size_t lvl = 0; lvl < chain.size(); ++lvl) {
    if (!dedicated_repairer(static_cast<int>(lvl))) continue;
    responsible = true;
    max_rtt = std::max(max_rtt, session_.max_rtt_in_zone(chain[lvl]));
  }
  if (!responsible) return;
  // The paper's 2.5x window assumes NACKs are delayed at most one zone
  // RTT plus the suppression timer; our request timers (like the paper's)
  // are drawn from 2^i [C1 d_S, (C1+C2) d_S] against the distance to the
  // SOURCE, so the window must cover that too or the measurement will
  // consistently run before any NACK can fire.
  // The relevant distance is the larger of our distance to the source and
  // the zone's farthest member's (approximated by half the max in-zone
  // RTT): that member's request timer is the last NACK we must wait for.
  const double d_src = std::max(dist_to_source(), max_rtt / 2.0);
  const double nack_window =
      2.0 * (rm::kPaperTimers.c1 + rm::kPaperTimers.c2) * std::max(d_src, 1e-3);
  const sim::Time wait =
      kZlcMeasureRttFactor * std::max(max_rtt, nack_window);
  l.measure_timer.arm(wait, [this, g] {
    rec(g).measured = true;
    const auto& ch = session_.chain();
    const ChainLevel* lv = chain_lv(g);
    const SliceLevel* sl = slice_lv(g);
    const double gain = cfg_->zlc_ewma_gain, keep = 1.0 - gain;
    for (std::size_t lvl = 0; lvl < ch.size(); ++lvl) {
      const bool mine =
          (is_source_ && lvl + 1 == ch.size()) || session_.is_zcr(ch[lvl]);
      if (!mine) continue;
      // True ZLC if NACKs announced it; otherwise our own LLC stands in
      // (paper: "the EWMA filter will use the receiver's LLC in cases
      // where no NACKs are received").
      const int measured = std::max<int>(lv[lvl].zlc, rec(g).llc);
      Scope& sc = scopes_[lvl];
      sc.zlc_pred = keep * sc.zlc_pred + gain * measured;
      sc.zlc_measured = true;
      // Coverage from larger scopes observed for this group: parity whose
      // originating level is strictly above this zone's level.
      const int my_glevel = hier_.level(ch[lvl]);
      int from_above = 0;
      for (int gl = 0; gl < my_glevel && gl < hier_.depth(); ++gl) {
        from_above += sl[gl].seen;
      }
      sc.cov_pred = keep * sc.cov_pred + gain * from_above;
    }
    maybe_settle(g);
  }, "transfer.measure");
}

// --- overload-testing hooks ---------------------------------------------------

void TransferEngine::nack_storm(int count, sim::Time spacing) {
  if (stopped_ || is_source_ || count <= 0) return;
  for (int i = 0; i < count; ++i) {
    simu_.after(
        spacing * static_cast<double>(i), [this] { send_storm_nack(); },
        "transfer.storm");
  }
}

void TransferEngine::send_storm_nack() {
  if (stopped_) return;
  // Lowest incomplete tracked group, else the stream head: the storm must
  // reference a real group so repairers actually queue encodes for it.
  std::uint32_t g = max_group_seen_;
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    if (records_[i].tracked && !records_[i].complete) {
      g = i;
      break;
    }
  }
  ensure_group(g);
  const auto& chain = session_.chain();
  if (chain.empty()) return;
  // Root scope on purpose: a root NACK recruits every repairer in the
  // session — the worst-case feedback implosion the budgets must absorb.
  const Record& r = rec(g);
  send_nack(g, static_cast<int>(chain.size()) - 1, std::max<int>(r.llc, 1),
            std::max(deficit(g), 1), /*storm=*/true);
}

}  // namespace sharq::sfq
