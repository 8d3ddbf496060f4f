#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/network.hpp"
#include "rm/delivery_log.hpp"
#include "sharqfec/config.hpp"
#include "sharqfec/hierarchy.hpp"
#include "sharqfec/session_manager.hpp"
#include "sharqfec/transfer.hpp"

namespace sharq::sfq {

/// A complete SHARQFEC endpoint: the scoped session manager plus the
/// two-phase transfer engine, attached to one node, which has joined every
/// channel of its zone chain.
class Agent final : public net::Agent {
 public:
  /// The Config and the Reed–Solomon codec are shared, not copied: every
  /// agent in a session aliases one immutable instance of each, so
  /// per-agent cost stays flat no matter how large static_zcrs (etc.) or
  /// the codec's generator matrix grows. `store` is the shard store of the
  /// node's execution lane (see TransferEngine). The node must already
  /// have joined `hier`, and the constructor touches only the node's own
  /// shard, so Session builds each shard's agents on that shard's worker.
  Agent(net::Network& net, Hierarchy& hier, std::shared_ptr<const Config> cfg,
        std::shared_ptr<const fec::ReedSolomon> codec, fec::ShardStore& store,
        net::NodeId node, bool is_source, rm::DeliveryLog* log = nullptr);

  // The network, the session manager's progress hooks and the transfer
  // engine (which holds session_ by reference) all keep this address.
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Begin session messaging and ZCR election.
  void start() { session_.start(); }

  /// Model this member dying: stop transmitting session/election traffic
  /// AND cancel the transfer engine's timers, so a killed member leaves no
  /// events pending and never transmits again. Pair with
  /// Network::detach() to also stop it receiving.
  void stop() {
    session_.stop();
    transfer_.stop();
  }

  /// Source API: stream groups starting at `start_at`.
  void send_stream(std::uint32_t group_count, sim::Time start_at,
                   const std::vector<std::uint8_t>& payload = {}) {
    transfer_.send_stream(group_count, start_at, payload);
  }

  void on_receive(const net::Packet& packet) override;

  SessionManager& session() { return session_; }
  const SessionManager& session() const { return session_; }
  TransferEngine& transfer() { return transfer_; }
  const TransferEngine& transfer() const { return transfer_; }
  bool is_source() const { return is_source_; }

  /// Packets rejected because they arrived corrupted (the modelled wire
  /// checksum failed). Decode never sees a corrupt packet's payload.
  std::uint64_t corrupt_rejects() const { return corrupt_rejects_; }
  /// Packets rejected as duplicates of an already-processed uid (link
  /// duplication; the multicast tree itself delivers each uid once).
  std::uint64_t duplicate_rejects() const { return duplicate_rejects_; }

  /// Slots in the uid dedup ring. A conditioner's copies of one packet
  /// share one delivery time and stay adjacent in every downstream FIFO
  /// link queue, so a node meets a duplicate within a few fresh uids of
  /// its original: over 283 chaos plans with duplication and jitter on,
  /// the widest spread was 7 accepted uids. 32 slots are four times that,
  /// at 256 B per agent. Two chained faulty links jitter each copy apart
  /// and widen the spread (11 at the chaos campaign's largest rates).
  /// tests/test_budget.cpp's DedupRing tests pin both cases. A copy that
  /// still outlives the ring is a no-op in the group decoder (BudgetDedup,
  /// same file).
  static constexpr std::size_t kDedupRingSlots = 32;

  /// Add this endpoint's sharqfec.* counts to `m`: its own rejects, then
  /// the session manager's and transfer engine's. Session::export_metrics
  /// calls it once per agent, after the run.
  void export_metrics(stats::Metrics& m) const;

  /// Contribute this endpoint's retained bytes to the profiler's memory
  /// census: the uid dedup ring under "dedup_windows", the rest of this
  /// object's heap block under "agent_objects", then the session manager's
  /// and transfer engine's categories (each counts its own inline bytes).
  void memory_census(stats::MemCensus& census) const {
    census.add("dedup_windows", sizeof(recent_uids_), sizeof(recent_uids_));
    const std::uint64_t self = stats::heap_block_bytes(sizeof(Agent)) -
                               sizeof(recent_uids_) - sizeof(session_) -
                               sizeof(transfer_);
    census.add("agent_objects", self, self);
    session_.memory_census(census);
    transfer_.memory_census(census);
  }

 private:
  /// False when `uid` is among the last kDedupRingSlots uids this agent
  /// accepted (a duplicated delivery); otherwise records it and returns
  /// true.
  bool first_sighting(std::uint64_t uid);
  /// The receive path's wire checks: false (and counted) for a corrupt or
  /// duplicated packet, which no handler sees.
  bool admit(const net::Packet& packet);

  bool is_source_;
  // Held inline, so an agent is one heap block. Constructed in this
  // order: each forks its random stream from the node's simulator, the
  // session manager first.
  SessionManager session_;
  TransferEngine transfer_;
  /// FIFO ring of recently accepted uids; ~0 marks an empty slot (the
  /// network numbers uids from 1 and never reaches it).
  std::array<std::uint64_t, kDedupRingSlots> recent_uids_;
  std::size_t ring_next_ = 0;  ///< slot the next accepted uid overwrites
  std::uint64_t corrupt_rejects_ = 0;
  std::uint64_t duplicate_rejects_ = 0;
  stats::Journal* journal_ = nullptr;  ///< cfg.journal, cached
};

}  // namespace sharq::sfq
