#include "stats/metrics.hpp"

// sharq-lint: thread-unsafe-ok file (registry registration is the one
// cross-shard rendezvous the shard runtime allows; see metrics.hpp)

#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace sharq::stats {

namespace {

// Serialized label key: "k1=v1,k2=v2" in map (lexicographic) order. Used
// both as the child map key and as the JSON object key, so export order
// is independent of registration order.
std::string label_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

[[noreturn]] void type_mismatch(const std::string& name) {
  std::fprintf(stderr, "metrics: family '%s' re-registered with a different type\n",
               name.c_str());
  std::abort();
}

const char* type_name(Metrics::Type t) {
  switch (t) {
    case Metrics::Type::kCounter: return "counter";
    case Metrics::Type::kGauge: return "gauge";
    case Metrics::Type::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(double least_bound, int bucket_count)
    : least_bound_(least_bound > 0.0 ? least_bound : 1e-3),
      buckets_(static_cast<std::size_t>(bucket_count > 0 ? bucket_count : 1),
               0) {}

double Histogram::bound(int i) const {
  double b = least_bound_;
  for (int k = 0; k < i; ++k) b *= 2.0;
  return b;
}

void Histogram::observe(double v) {
  ++count_;
  sum_ += v;
  double upper = least_bound_;
  for (std::uint64_t& b : buckets_) {
    if (v <= upper) {
      ++b;
      return;
    }
    upper *= 2.0;
  }
  ++overflow_;
}

// --- Metrics: registration ---------------------------------------------------

Metrics::Family& Metrics::family_of(const std::string& name, Type type) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
  } else if (it->second.type != type) {
    type_mismatch(name);
  }
  return it->second;
}

const Metrics::Family* Metrics::find_family(const std::string& name) const {
  auto it = families_.find(name);
  return it == families_.end() ? nullptr : &it->second;
}

Counter& Metrics::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  Family& fam = family_of(name, Type::kCounter);
  auto [it, inserted] = fam.children.try_emplace(label_key(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.counter = std::make_unique<Counter>();
  }
  return *it->second.counter;
}

Gauge& Metrics::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  Family& fam = family_of(name, Type::kGauge);
  auto [it, inserted] = fam.children.try_emplace(label_key(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.gauge = std::make_unique<Gauge>();
  }
  return *it->second.gauge;
}

Histogram& Metrics::histogram(const std::string& name, const Labels& labels,
                              double least_bound, int bucket_count) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  Family& fam = family_of(name, Type::kHistogram);
  auto [it, inserted] = fam.children.try_emplace(label_key(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.histogram = std::make_unique<Histogram>(least_bound, bucket_count);
  }
  return *it->second.histogram;
}

// --- Metrics: lookups --------------------------------------------------------

std::uint64_t Metrics::counter_total(const std::string& name) const {
  const Family* fam = find_family(name);
  if (!fam || fam->type != Type::kCounter) return 0;
  std::uint64_t total = 0;
  for (const auto& [key, child] : fam->children) total += child.counter->value();
  return total;
}

std::uint64_t Metrics::counter_value(const std::string& name,
                                     const Labels& labels) const {
  const Family* fam = find_family(name);
  if (!fam || fam->type != Type::kCounter) return 0;
  auto it = fam->children.find(label_key(labels));
  return it == fam->children.end() ? 0 : it->second.counter->value();
}

double Metrics::gauge_value(const std::string& name, const Labels& labels,
                            double fallback) const {
  const Family* fam = find_family(name);
  if (!fam || fam->type != Type::kGauge) return fallback;
  auto it = fam->children.find(label_key(labels));
  return it == fam->children.end() ? fallback : it->second.gauge->value();
}

// --- Metrics: snapshot -------------------------------------------------------

Metrics::Snapshot Metrics::snapshot() const {
  Snapshot snap;
  for (const auto& [name, fam] : families_) {
    Snapshot::Family& sf = snap.families[name];
    sf.type = fam.type;
    for (const auto& [key, child] : fam.children) {
      Snapshot::Value& val = sf.values[key];
      val.labels = child.labels;
      switch (fam.type) {
        case Type::kCounter:
          val.scalar = static_cast<double>(child.counter->value());
          break;
        case Type::kGauge:
          val.scalar = child.gauge->value();
          break;
        case Type::kHistogram: {
          const Histogram& h = *child.histogram;
          val.count = h.count();
          val.sum = h.sum();
          val.least_bound = h.least_bound();
          val.buckets.resize(static_cast<std::size_t>(h.bucket_count()));
          for (int i = 0; i < h.bucket_count(); ++i)
            val.buckets[static_cast<std::size_t>(i)] = h.bucket(i);
          val.overflow = h.overflow();
          break;
        }
      }
    }
  }
  return snap;
}

// --- Metrics: export ---------------------------------------------------------

namespace {

void write_value_json(std::ostream& os, Metrics::Type type,
                      const Metrics::Snapshot::Value& val) {
  switch (type) {
    case Metrics::Type::kCounter:
      os << static_cast<std::uint64_t>(val.scalar);
      break;
    case Metrics::Type::kGauge:
      os << json_double(val.scalar);
      break;
    case Metrics::Type::kHistogram: {
      os << "{\"count\":" << val.count << ",\"sum\":" << json_double(val.sum)
         << ",\"least_bound\":" << json_double(val.least_bound)
         << ",\"buckets\":[";
      for (std::size_t i = 0; i < val.buckets.size(); ++i) {
        if (i) os << ',';
        os << val.buckets[i];
      }
      os << "],\"overflow\":" << val.overflow << '}';
      break;
    }
  }
}

}  // namespace

void Metrics::write_json(std::ostream& os, const Snapshot& snap) {
  os << "{\"schema\":\"sharqfec.metrics.v1\",\"metrics\":";
  write_families_json(os, snap);
  os << '}';
}

void Metrics::write_families_json(std::ostream& os, const Snapshot& snap) {
  os << '{';
  bool first_fam = true;
  for (const auto& [name, fam] : snap.families) {
    if (!first_fam) os << ',';
    first_fam = false;
    os << json_quoted(name) << ":{\"type\":\"" << type_name(fam.type)
       << "\",\"values\":{";
    bool first_val = true;
    for (const auto& [key, val] : fam.values) {
      if (!first_val) os << ',';
      first_val = false;
      os << json_quoted(key) << ':';
      write_value_json(os, fam.type, val);
    }
    os << "}}";
  }
  os << '}';
}

void Metrics::write_json(std::ostream& os) const { write_json(os, snapshot()); }

void Metrics::write_totals_json(std::ostream& os) const {
  os << '{';
  bool first = true;
  for (const auto& [name, fam] : families_) {
    if (!first) os << ',';
    first = false;
    os << json_quoted(name) << ':';
    switch (fam.type) {
      case Type::kCounter: {
        std::uint64_t total = 0;
        for (const auto& [key, child] : fam.children)
          total += child.counter->value();
        os << total;
        break;
      }
      case Type::kGauge: {
        double mx = 0.0;
        bool any = false;
        for (const auto& [key, child] : fam.children) {
          double v = child.gauge->value();
          if (!any || v > mx) mx = v;
          any = true;
        }
        os << json_double(mx);
        break;
      }
      case Type::kHistogram: {
        std::uint64_t count = 0;
        double sum = 0.0;
        for (const auto& [key, child] : fam.children) {
          count += child.histogram->count();
          // sharq-lint: float-accum-ok (iteration order fixed: children is a std::map, label-key order)
          sum += child.histogram->sum();
        }
        os << "{\"count\":" << count << ",\"sum\":" << json_double(sum) << '}';
        break;
      }
    }
  }
  os << '}';
}

}  // namespace sharq::stats
