#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "rm/delivery_log.hpp"
#include "rm/flat_table.hpp"
#include "rm/timers.hpp"
#include "sim/simulator.hpp"
#include "srm/messages.hpp"

namespace sharq::srm {

/// Tunables for the SRM baseline. Its timers are always adaptive (Floyd
/// et al. '95, as the paper runs it), starting from rm::kPaperTimers; the
/// protocol's other constants are in agent.cpp.
struct Config {
  int packet_size_bytes = 1000;
  double data_rate_bps = 800e3;
};

/// One SRM endpoint (source or receiver). All SRM traffic — data,
/// requests, repairs, session messages — travels on a single global
/// multicast channel, exactly as in Floyd et al. '95.
class Agent final : public net::Agent {
 public:
  /// Attach an agent to `node`. The channel must be subscribed by every
  /// session member. `log` may be null; a sharded run must not share one
  /// log between shards. Timers and the RNG bind the node's shard
  /// simulator.
  Agent(net::Network& net, net::ChannelId channel, net::NodeId node,
        Config config, rm::DeliveryLog* log);

  /// Begin session messaging (call for every member before data starts).
  void start();

  /// Source API: emit `count` packets at the configured CBR rate starting
  /// at absolute time `start_at`.
  void send_stream(std::uint32_t count, sim::Time start_at);

  void on_receive(const net::Packet& packet) override;

  // --- inspection -----------------------------------------------------------
  bool has(std::uint32_t seq) const;
  std::uint32_t packets_held() const { return held_; }
  std::uint32_t max_seq_seen() const { return max_seq_; }
  bool seen_any_data() const { return seen_data_; }
  sim::Time distance_to(net::NodeId peer) const;
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t repairs_sent() const { return repairs_sent_; }
  double adapted_c1() const { return timers_.c1; }
  double adapted_c2() const { return timers_.c2; }

 private:
  struct PendingRequest {
    explicit PendingRequest(sim::Simulator& simu) : timer(simu) {}
    sim::Timer timer;
    int backoff = 0;          // i in 2^i
    int dup_requests = 0;     // duplicates heard this recovery
    sim::Time detected_at = 0.0;
    bool requested_once = false;
  };
  struct PendingReply {
    explicit PendingReply(sim::Simulator& simu) : timer(simu) {}
    sim::Timer timer;
    net::NodeId requester = net::kNoNode;
  };

  void send_session_message();
  void schedule_session();
  void on_data(std::uint32_t seq,
               const std::shared_ptr<const std::vector<std::uint8_t>>& bytes,
               net::TrafficClass cls);
  void note_gap_up_to(std::uint32_t new_max);
  void start_request(std::uint32_t seq);
  void fire_request(std::uint32_t seq);
  void handle_request(const RequestMsg& req);
  void handle_repair_heard(std::uint32_t seq);
  void adapt_request_timers(const PendingRequest& done, sim::Time now);
  void adapt_reply_timers(bool was_duplicate);
  void mark_received(std::uint32_t seq,
                     const std::shared_ptr<const std::vector<std::uint8_t>>&
                         bytes);
  sim::Time dist_to_source() const;

  net::Network& net_;
  sim::Simulator& simu_;
  net::ChannelId channel_;
  Config cfg_;
  rm::DeliveryLog* log_;
  sim::Rng rng_;

  // data state
  std::vector<bool> have_;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> payloads_;
  std::uint32_t held_ = 0;
  std::uint32_t max_seq_ = 0;
  bool seen_data_ = false;
  net::NodeId source_ = net::kNoNode;
  bool is_source_ = false;

  // recovery state
  std::unordered_map<std::uint32_t, PendingRequest> requests_;
  std::unordered_map<std::uint32_t, PendingReply> replies_;
  std::unordered_map<std::uint32_t, sim::Time> holddown_until_;

  // session state
  sim::Timer session_timer_;
  int session_msgs_sent_ = 0;
  struct PeerClock {
    sim::Time last_ts = 0.0;
    sim::Time heard_at = 0.0;
    bool valid = false;
  };
  // Ordered: iterated into session-message echo entries, i.e. wire order.
  rm::FlatTable<net::NodeId, PeerClock> peer_clocks_;
  std::unordered_map<net::NodeId, sim::Time> dist_;  // lookups only

  // adaptive timer state (Floyd et al. '95 appendix, simplified: see
  // adapt_request_timers)
  rm::TimerPolicy timers_ = rm::kPaperTimers;
  double ave_dup_req_ = 0.0;
  double ave_req_delay_ = 0.0;
  double ave_dup_rep_ = 0.0;

  // counters
  std::uint64_t requests_sent_ = 0;
  std::uint64_t repairs_sent_ = 0;
};

}  // namespace sharq::srm
