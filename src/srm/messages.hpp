#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace sharq::srm {

/// One original data packet of the SRM stream.
struct DataMsg final : net::MessageBase {
  std::uint32_t seq = 0;
  bool last = false;  ///< final packet of the stream
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;  ///< optional payload
};

/// A repair request ("NACK") for one sequence number.
struct RequestMsg final : net::MessageBase {
  std::uint32_t seq = 0;
  net::NodeId requester = net::kNoNode;
};

/// A retransmission of one sequence number.
struct RepairMsg final : net::MessageBase {
  std::uint32_t seq = 0;
  net::NodeId repairer = net::kNoNode;
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
};

/// Periodic session message. SRM session messages let every member
/// estimate its RTT to every other member: each message carries the
/// sender's clock plus, per peer, the last timestamp heard from that peer
/// and how long ago it arrived. This is the O(n^2) traffic SHARQFEC's
/// scoped session management replaces.
struct SessionMsg final : net::MessageBase {
  net::NodeId sender = net::kNoNode;
  sim::Time ts = 0.0;  ///< sender clock at transmission
  std::uint32_t max_seq_seen = 0;
  bool seen_any_data = false;
  struct Echo {
    net::NodeId peer = net::kNoNode;
    sim::Time peer_ts = 0.0;  ///< last timestamp heard from peer
    sim::Time delay = 0.0;    ///< time elapsed since hearing it
  };
  std::vector<Echo> echoes;
};

/// Wire size of a session message with n echoes (sender+ts+maxseq plus
/// 16 bytes per echo) — what makes non-scoped session traffic O(n^2).
inline int session_msg_size(std::size_t echoes) {
  return 16 + static_cast<int>(echoes) * 16;
}

/// Wire size of a repair request.
inline constexpr int kRequestSize = 32;

}  // namespace sharq::srm
