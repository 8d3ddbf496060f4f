#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"
#include "stats/time_series.hpp"

namespace sharq::stats {

/// Records per-node, per-traffic-class delivery series — the measurement
/// the paper's Figures 14-21 are built from ("data and repair traffic
/// visible at each session member over 0.1 second intervals").
///
/// Install with `network.set_sink(&recorder)`. Recording is cheap enough
/// to leave on for every run.
class TrafficRecorder final : public net::TrafficSink {
 public:
  /// `node_count` sizes the per-node tables; `bin` is the interval width.
  explicit TrafficRecorder(int node_count, sim::Time bin = 0.1);

  void on_deliver(sim::Time t, net::NodeId at, const net::Packet& p) override;
  void on_transmit(sim::Time t, net::LinkId link, const net::Packet& p) override;
  void on_hop(sim::Time t, net::LinkId link, const net::Packet& p) override;
  void on_drop(sim::Time t, net::LinkId link, const net::Packet& p,
               net::DropReason reason) override;

  /// Restrict per-node recording to these nodes (empty = all nodes).
  /// Aggregate counters still cover everything.
  void watch_only(std::unordered_set<net::NodeId> watched);

  /// Additionally record per-class transmission series on these links
  /// (e.g. the backbone links adjacent to the source, for Figure 20).
  void watch_links(std::unordered_set<net::LinkId> watched);

  /// Transmissions of `cls` on watched links, binned.
  const BinnedSeries& link_series(net::TrafficClass cls) const {
    return link_series_[class_index(cls)];
  }

  static constexpr int kClassCount = 5;

  /// Deliveries of one class at one node, binned.
  const BinnedSeries& node_series(net::NodeId node, net::TrafficClass cls) const;

  /// Deliveries of `cls` summed over every node, binned.
  const BinnedSeries& total_series(net::TrafficClass cls) const;

  /// Total packets of `cls` delivered to `node`.
  double node_total(net::NodeId node, net::TrafficClass cls) const;

  /// Per-0.1s mean across a node set of (data + repair) deliveries —
  /// the y-axis of Figures 14/16/17/18. Index = bin.
  std::vector<double> mean_over_nodes(const std::vector<net::NodeId>& nodes,
                                      std::initializer_list<net::TrafficClass>
                                          classes) const;

  std::uint64_t link_transmissions() const { return transmissions_; }
  std::uint64_t link_hops() const { return hops_; }
  std::uint64_t link_drops() const { return drops_; }

  /// Drops broken down by cause.
  std::uint64_t drops(net::DropReason reason) const {
    return drops_by_reason_[static_cast<int>(reason)];
  }

  /// Total bytes delivered, all nodes and classes.
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// The aggregate per-class delivery series as one JSON object,
  /// {"bin_width":0.1,"classes":{"control":[..],"data":[..],...}} — the
  /// "series" section of the combined sharqfec.metrics.v1 export. Class
  /// keys are alphabetical and numbers use the shared deterministic
  /// formatter, so equal recordings serialize byte-identically.
  void write_series_json(std::ostream& os) const;

 private:
  static int class_index(net::TrafficClass cls) {
    return static_cast<int>(cls);
  }

  sim::Time bin_;
  std::vector<std::array<BinnedSeries, kClassCount>> per_node_;
  std::array<BinnedSeries, kClassCount> totals_;
  std::array<BinnedSeries, kClassCount> link_series_;
  std::unordered_set<net::NodeId> watch_;
  std::unordered_set<net::LinkId> watched_links_;
  bool watch_all_ = true;
  std::uint64_t transmissions_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t drops_ = 0;
  std::array<std::uint64_t, 4> drops_by_reason_{};
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace sharq::stats
