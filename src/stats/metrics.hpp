#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
// Registration (family/child map insertion) is the one concurrent path in
// the sharded runtime — hot paths bump cached references. A plain mutex
// there cannot perturb simulation order, so determinism is preserved.
// sharq-lint: thread-unsafe-ok file (lane-aware metrics registry backing
// the deterministic shard runtime; docs/ARCHITECTURE.md)
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/lane.hpp"

namespace sharq::stats {

// --- shared deterministic JSON helpers ---------------------------------------
// Every exporter in stats/ (metrics registry, journal, traffic series) must
// produce byte-identical output for identical values, so they share one
// formatting vocabulary: to_chars doubles (shortest round-trip, no locale)
// and one escaping rule.

/// Append `s` to `out` with JSON string escaping (", \, \n, \t, and other
/// control bytes as \uXXXX).
void json_escape(std::string& out, const std::string& s);

/// `s` escaped and wrapped in double quotes.
std::string json_quoted(const std::string& s);

/// Shortest round-trip formatting via std::to_chars; "0" on failure.
std::string json_double(double v);

/// Labels attached to one child of a metric family. Stored as an ordered
/// map so two registrations with the same pairs in different order land on
/// the same child, and so export order is stable.
using Labels = std::map<std::string, std::string>;

/// Monotonically increasing event count.
///
/// Lane-aware: each shard worker writes its own lane slot (no sharing, no
/// synchronization) and value() sums the lanes. Summation is
/// order-independent, so exports are byte-identical for any worker count.
/// Reading value() concurrently with a running shard window is a race by
/// contract — reads belong at barriers or after the run.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { lanes_[lane()] += n; }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (std::uint64_t v : lanes_) total += v;
    return total;
  }

 private:
  std::uint64_t lanes_[kMaxLanes] = {};
};

/// Point-in-time value (EWMA trajectories, queue depths, high-water marks).
///
/// Lane-aware like Counter: writes land in the caller's lane and value()
/// merges with max over *written* lanes — exact for high-water marks and
/// for per-entity gauges written from one lane (a node's gauge is only
/// ever set by the shard that owns the node). A serial run uses lane 0
/// only, so value() degenerates to the plain last-write semantics.
class Gauge {
 public:
  void set(double v) {
    lanes_[lane()] = v;
    written_[lane()] = true;
  }
  /// Keep the maximum ever seen (high-water marks).
  void set_max(double v) {
    written_[lane()] = true;
    if (v > lanes_[lane()]) lanes_[lane()] = v;
  }
  double value() const {
    double best = 0.0;
    bool any = false;
    for (int l = 0; l < kMaxLanes; ++l) {
      if (!written_[l]) continue;
      if (!any || lanes_[l] > best) best = lanes_[l];
      any = true;
    }
    return best;
  }

 private:
  double lanes_[kMaxLanes] = {};
  bool written_[kMaxLanes] = {};
};

/// Fixed-bucket log2 histogram: bucket i counts observations with
/// value <= least_bound * 2^i; anything larger lands in the overflow
/// bucket. Values <= 0 count in bucket 0. Bounds are fixed at
/// construction.
/// Lane-aware (see Counter): observations land in the caller's lane and
/// the accessors sum bucket-wise across lanes.
class Histogram {
 public:
  explicit Histogram(double least_bound = 1e-3, int bucket_count = 24);

  void observe(double v);

  std::uint64_t count() const { return sum_lanes(count_); }
  double sum() const {
    double total = 0.0;
    // sharq-lint: float-accum-ok (iteration order fixed: lane-indexed vector, lane count is seed-stable)
    for (double v : sum_) total += v;
    return total;
  }
  int bucket_count() const { return nbuckets_; }
  /// Inclusive upper bound of bucket i (least_bound * 2^i).
  double bound(int i) const;
  std::uint64_t bucket(int i) const {
    std::uint64_t total = 0;
    for (int l = 0; l < kMaxLanes; ++l) total += buckets_[slot(l, i)];
    return total;
  }
  std::uint64_t overflow() const { return sum_lanes(overflow_); }
  double least_bound() const { return least_bound_; }

 private:
  std::size_t slot(int lane, int bucket) const {
    return static_cast<std::size_t>(lane) * static_cast<std::size_t>(nbuckets_) +
           static_cast<std::size_t>(bucket);
  }
  static std::uint64_t sum_lanes(const std::uint64_t (&lanes)[kMaxLanes]) {
    std::uint64_t total = 0;
    for (std::uint64_t v : lanes) total += v;
    return total;
  }

  double least_bound_;
  int nbuckets_;
  std::vector<std::uint64_t> buckets_;  // [lane * nbuckets_ + bucket]
  std::uint64_t overflow_[kMaxLanes] = {};
  std::uint64_t count_[kMaxLanes] = {};
  double sum_[kMaxLanes] = {};
};

/// A deterministic registry of named counter/gauge/histogram families with
/// labelled children (per-node, per-zone-level, per-traffic-class, ...).
///
/// Contract:
///  - `counter(name, labels)` (etc.) returns a reference that stays valid
///    for the registry's lifetime. The event core and the network register
///    once and bump a cached pointer during the run. The protocol's
///    sharqfec.* families are filled at export instead: the engines keep
///    each count once, and Session::export_metrics writes them after the
///    run. Only the completion-latency histogram, a distribution no engine
///    holds, is observed live;
///  - a family's type is fixed by its first registration; re-registering
///    under another type is a programmer error and aborts;
///  - export order is stable: families by name, children by their
///    serialized label key — two identical runs write identical bytes.
class Metrics {
 public:
  enum class Type { kCounter, kGauge, kHistogram };

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       double least_bound = 1e-3, int bucket_count = 24);

  /// Sum of a counter family over all children (0 if absent). For tests
  /// and summary output.
  std::uint64_t counter_total(const std::string& name) const;
  /// One child's counter value (0 if absent).
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels) const;
  /// One child's gauge value (fallback if absent).
  double gauge_value(const std::string& name, const Labels& labels,
                     double fallback = 0.0) const;

  // --- snapshot --------------------------------------------------------------

  /// A deep copy of every value at one instant.
  struct Snapshot {
    struct Value {
      Labels labels;
      double scalar = 0.0;           // counter (integral) or gauge
      std::uint64_t count = 0;       // histogram
      double sum = 0.0;              // histogram
      double least_bound = 0.0;      // histogram
      std::vector<std::uint64_t> buckets;  // histogram (+overflow implicit)
      std::uint64_t overflow = 0;    // histogram
    };
    struct Family {
      Type type = Type::kCounter;
      std::map<std::string, Value> values;  // by serialized label key
    };
    std::map<std::string, Family> families;
  };

  Snapshot snapshot() const;

  // --- export ----------------------------------------------------------------

  /// Stable-ordered JSON: {"schema":"sharqfec.metrics.v1","metrics":{...}}.
  /// Byte-identical across runs that produced identical values.
  void write_json(std::ostream& os) const;
  static void write_json(std::ostream& os, const Snapshot& snap);

  /// Just the families object ({...} mapped name -> family), without the
  /// schema envelope — for embedding alongside sibling keys (the sim's
  /// combined metrics + "series" export).
  static void write_families_json(std::ostream& os, const Snapshot& snap);

  /// Compact one-level summary: {"name":<aggregate>,...} where counters
  /// sum over children, gauges take the max, histograms report
  /// {"count":..,"sum":..}. For embedding in other JSON lines (chaos_sim).
  void write_totals_json(std::ostream& os) const;

 private:
  struct Child {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Type type = Type::kCounter;
    std::map<std::string, Child> children;  // by serialized label key
  };

  Family& family_of(const std::string& name, Type type);
  const Family* find_family(const std::string& name) const;

  // Guards family/child map insertion only (cold path). Shard workers may
  // register a labelled child mid-window; returned references stay valid
  // (node-based maps), so hot-path bumps stay lock-free. Map insertion
  // order cannot leak into exports — they iterate in key order.
  mutable std::mutex reg_mu_;
  std::map<std::string, Family> families_;
};

}  // namespace sharq::stats
