#pragma once

#include <iosfwd>

#include "net/network.hpp"

namespace sharq::stats {

/// Writes a nam-inspired plain-text event trace, one line per event:
///
///   h <time> <from> <to> <class> <size> <uid>           hop (link transmit)
///   r <time> <node> - <class> <size> <uid>              receive (delivery)
///   d <time> <from> <to> <class> <size> <uid> <reason>  drop; reason is
///                                  loss | queue-full | epoch-kill
///
/// Useful for eyeballing protocol behaviour or feeding external plotting.
/// Can forward every event to another sink (e.g. a TrafficRecorder) so
/// tracing composes with metrics.
class TraceWriter final : public net::TrafficSink {
 public:
  /// `os` must outlive the writer. Pass the network to resolve link
  /// endpoints into from/to node ids (otherwise the raw link id is
  /// printed). `next` (optional) receives every event after writing.
  explicit TraceWriter(std::ostream& os, const net::Network* net = nullptr,
                       net::TrafficSink* next = nullptr);

  /// Only record events for traffic classes enabled here (default: all).
  void enable_class(net::TrafficClass cls, bool on);

  void on_deliver(sim::Time t, net::NodeId at, const net::Packet& p) override;
  void on_transmit(sim::Time t, net::LinkId link, const net::Packet& p) override;
  void on_hop(sim::Time t, net::LinkId link, const net::Packet& p) override;
  void on_drop(sim::Time t, net::LinkId link, const net::Packet& p,
               net::DropReason reason) override;

  std::uint64_t lines_written() const { return lines_; }

 private:
  bool enabled(net::TrafficClass cls) const {
    // Bound-check before shifting: a TrafficClass value >= 32 (future enum
    // growth or a forged byte off the wire) would be UB. Out-of-range
    // classes are never traced.
    const unsigned bit = static_cast<unsigned>(cls);
    // sharq-lint: unchecked-shift-ok (short-circuit bound check on the left)
    return bit < 32u && (mask_ & (1u << bit)) != 0;
  }
  /// `suffix`, when given, is appended as one extra space-separated
  /// field (the drop reason on 'd' lines).
  void line(char tag, sim::Time t, int a, int b, const net::Packet& p,
            const char* suffix = nullptr);

  std::ostream& os_;
  const net::Network* net_;
  net::TrafficSink* next_;
  unsigned mask_ = ~0u;
  std::uint64_t lines_ = 0;
};

}  // namespace sharq::stats
