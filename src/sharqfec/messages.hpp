#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace sharq::sfq {

/// Distance hint carried on NACKs and repairs: the sender's cumulative
/// one-way distance to its ZCR at one scope level. Receivers combine these
/// with their own ZCR tables to estimate the RTT to the sender without
/// ever having exchanged session messages with it (paper §5.1).
struct RttHint {
  net::ZoneId zone = net::kNoZone;  ///< the sender's zone at this level
  net::NodeId zcr = net::kNoNode;   ///< ZCR of that zone, as the sender knows it
  double dist = 0.0;                ///< sender's one-way distance to that ZCR
};

/// One shard of the source's initial transmission for a group: original
/// data for index < k, proactive parity for k <= index < initial_shards.
struct DataMsg final : net::MessageBase {
  std::uint32_t group = 0;
  int index = 0;
  int k = 16;
  int initial_shards = 16;      ///< k + h announced for this group
  std::uint32_t groups_total = 0;  ///< 0 while unknown
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
};

/// A repair shard sent on a zone's repair channel.
struct RepairMsg final : net::MessageBase {
  std::uint32_t group = 0;
  int index = 0;            ///< shard id; parity ids grow monotonically
  int k = 16;
  int new_max_id = 0;       ///< highest shard id after this repairer's burst
  net::NodeId repairer = net::kNoNode;
  net::ZoneId zone = net::kNoZone;  ///< scope it was injected into
  bool preemptive = false;  ///< ZCR injection rather than NACK response
  std::vector<RttHint> hints;
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
};

/// A NACK: "I am missing `needed` shards of `group`" — counts, not packet
/// identities (the FEC property makes any fresh shard useful).
struct NackMsg final : net::MessageBase {
  std::uint32_t group = 0;
  net::ZoneId zone = net::kNoZone;  ///< scope zone this NACK targets
  int llc = 0;        ///< sender's local loss count (candidate new ZLC)
  int needed = 0;     ///< repair shards required to complete the group
  int max_id_seen = -1;  ///< greatest shard id the sender has seen
  net::NodeId sender = net::kNoNode;
  std::vector<RttHint> hints;
};

/// Scoped session message (paper §5). Sent on one zone's session channel;
/// lists clock echoes and RTT estimates for the peers heard on that
/// channel, plus the sender's view of the zone's ZCR.
struct SessionMsg final : net::MessageBase {
  net::NodeId sender = net::kNoNode;
  net::ZoneId zone = net::kNoZone;   ///< channel's zone
  sim::Time ts = 0.0;                ///< sender clock
  net::NodeId zcr = net::kNoNode;    ///< ZCR of `zone`, as the sender knows it
  double zcr_parent_dist = -1.0;     ///< dist(zone ZCR -> parent zone ZCR)
  std::uint32_t max_group_seen = 0;  ///< tail-loss detection aid
  bool seen_any_data = false;
  struct Entry {
    net::NodeId peer = net::kNoNode;
    sim::Time peer_ts = 0.0;  ///< last clock heard from peer
    sim::Time delay = 0.0;    ///< elapsed since hearing it
    double rtt_est = -1.0;    ///< sender's RTT estimate to peer (<0 unknown)
  };
  std::vector<Entry> entries;
};

/// ZCR election: challenge sent toward the parent zone's ZCR (heard by
/// the child zone's members too, who time the exchange).
struct ZcrChallengeMsg final : net::MessageBase {
  net::NodeId challenger = net::kNoNode;
  net::ZoneId zone = net::kNoZone;  ///< child zone whose ZCR is in question
  std::uint64_t challenge_id = 0;
};

/// ZCR election: the parent ZCR's response to a challenge.
struct ZcrResponseMsg final : net::MessageBase {
  net::NodeId responder = net::kNoNode;
  net::ZoneId zone = net::kNoZone;
  std::uint64_t challenge_id = 0;
  double processing_delay = 0.0;  ///< time the responder held the challenge
};

/// ZCR election: a closer receiver takes over as ZCR (sent to both the
/// child zone and its parent).
struct ZcrTakeoverMsg final : net::MessageBase {
  net::NodeId new_zcr = net::kNoNode;
  net::ZoneId zone = net::kNoZone;
  double dist_to_parent = 0.0;  ///< claimant's distance to the parent ZCR
};

/// Simulated sizes (bytes) of the control messages: the one size model
/// the network charges (the wire codec's encodings differ).
inline int nack_size(std::size_t hints) {
  return 48 + static_cast<int>(hints) * 16;
}
inline int session_size(std::size_t entries) {
  return 32 + static_cast<int>(entries) * 20;
}
inline constexpr int kChallengeSize = 40;
inline constexpr int kResponseSize = 40;
inline constexpr int kTakeoverSize = 32;

}  // namespace sharq::sfq
