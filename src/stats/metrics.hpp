#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
// Registration (family/child map insertion) is the one concurrent path in
// the sharded runtime — hot paths bump cached references. A plain mutex
// there cannot perturb simulation order, so determinism is preserved.
// sharq-lint: thread-unsafe-ok file (the metrics registry's registration
// lock under the deterministic shard runtime; docs/ARCHITECTURE.md)
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// json_escape, json_quoted and json_double: the exporters that include this
// header write through them.
#include "stats/json.hpp"

namespace sharq::stats {

/// Labels attached to one child of a metric family. Stored as an ordered
/// map so two registrations with the same pairs in different order land on
/// the same child, and so export order is stable.
using Labels = std::map<std::string, std::string>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value (EWMA trajectories, queue depths, high-water marks).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  /// Keep the maximum ever seen (high-water marks).
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket log2 histogram: bucket i counts observations with
/// value <= least_bound * 2^i; anything larger lands in the overflow
/// bucket. Values <= 0 count in bucket 0. Bounds are fixed at
/// construction.
class Histogram {
 public:
  explicit Histogram(double least_bound = 1e-3, int bucket_count = 24);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  int bucket_count() const { return static_cast<int>(buckets_.size()); }
  /// Inclusive upper bound of bucket i (least_bound * 2^i).
  double bound(int i) const;
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  std::uint64_t overflow() const { return overflow_; }
  double least_bound() const { return least_bound_; }

 private:
  double least_bound_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// A deterministic registry of named counter/gauge/histogram families with
/// labelled children (per-node, per-zone-level, per-traffic-class, ...).
///
/// Contract:
///  - `counter(name, labels)` (etc.) returns a reference that stays valid
///    for the registry's lifetime. The event core registers once and bumps
///    a cached pointer during the run. The network's net.* and the
///    protocol's sharqfec.* families are filled at export instead: each
///    count lives once, in the component that counts it, and
///    Network::export_metrics / Session::export_metrics write them after
///    the run. Only the completion-latency histogram, a distribution no
///    engine holds, is observed live;
///  - every child has one writer at a time: a plain number, no lane
///    slices and no synchronisation. Under the shard runtime a child is
///    written only by the shard that owns it (a node's histogram, a
///    shard's queue counters) or at a single-threaded barrier, and the
///    barriers order those writes. Reads belong at barriers or after the
///    run;
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
  // register a labelled child mid-window (an event queue's first use of a
  // tag); returned references stay valid (node-based maps), so hot-path
  // bumps stay lock-free. Map insertion
  // order cannot leak into exports — they iterate in key order.
  mutable std::mutex reg_mu_;
  std::map<std::string, Family> families_;
};

}  // namespace sharq::stats
