#pragma once

#include <cstdint>
#include <memory>

#include "net/types.hpp"

namespace sharq::net {

/// Coarse classification of a packet for accounting and loss policy.
///
/// The paper's simulations subject data and repair packets to link loss but
/// exempt session messages and NACKs (§6.2); the link layer uses this class
/// together with Packet::lossless to apply that policy.
enum class TrafficClass : std::uint8_t {
  kData,     ///< original application data
  kRepair,   ///< FEC parity / ARQ retransmission
  kNack,     ///< repair requests
  kSession,  ///< session / RTT-estimation messages
  kControl,  ///< ZCR election and other control traffic
};

/// Number of TrafficClass values (for dense per-class arrays and for
/// bound-checking class-indexed bit masks).
inline constexpr int kTrafficClassCount = 5;

/// Human-readable name for a TrafficClass.
const char* to_string(TrafficClass cls);

/// Base class for protocol message bodies carried inside packets.
///
/// The network layer treats message bodies as opaque; protocol agents
/// downcast to their concrete message types on receive. Bodies are
/// immutable and shared between the copies a multicast fan-out creates.
struct MessageBase {
  virtual ~MessageBase() = default;
};

/// One packet in flight.
///
/// Copies of a Packet made during multicast forwarding share the message
/// body; the struct itself is tiny and copied by value per hop.
struct Packet {
  std::uint64_t uid = 0;      ///< unique per original send, kept across hops
  NodeId origin = kNoNode;    ///< node that performed the send
  ChannelId channel = kNoChannel;  ///< multicast channel it travels on
  std::int32_t size_bytes = 0;     ///< wire size used for serialization time
  TrafficClass cls = TrafficClass::kData;
  bool lossless = false;           ///< exempt from link loss (session/NACK)
  bool corrupted = false;          ///< payload damaged in flight (bit flips);
                                   ///< a checksum over the wire bytes fails,
                                   ///< so hardened receivers must reject it
  std::shared_ptr<const MessageBase> msg;  ///< protocol payload

  /// Downcast helper: the body as T, or nullptr if it is another type.
  template <typename T>
  const T* as() const {
    return dynamic_cast<const T*>(msg.get());
  }
};
// Copied by value into every hop's transmit closure (sim::Callback holds
// 56 bytes); the one-byte fields share the word after size_bytes.
static_assert(sizeof(Packet) == 40, "net::Packet grew past 40 bytes");

}  // namespace sharq::net
