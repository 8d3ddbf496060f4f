#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "net/types.hpp"

namespace sharq::sfq {

/// Where one session level's entries sit in a PeerArena: `len` entries
/// sorted by peer id from entry `off`, room for `cap` (at most PeerArena::kMaxRun).
struct PeerRun {
  std::uint32_t off = 0;
  std::uint16_t len = 0;
  std::uint16_t cap = 0;
};

/// Every level's session peer state of one member in one heap block (paper
/// §5: O(levels·fanout) entries), structure-of-arrays: four double columns,
/// then the ids. A level is a run of entries sorted by peer id; an entry
/// holds one peer's RTT part (rtt, last_ts, heard_at) and bridge part (the
/// bridge ZCR's RTT to it), and a missing part's columns read kAbsent. A
/// full run moves to the end of the block with twice the room, leaving its
/// old space unused (docs/ROBUSTNESS.md).
class PeerArena {
 public:
  enum Col : std::size_t { kRtt, kLastTs, kHeardAt, kBridge, kCols };
  static constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();
  static constexpr std::size_t kEntryBytes =
      kCols * sizeof(double) + sizeof(net::NodeId);
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMaxRun = UINT16_MAX;  ///< entries per run
  static bool present(double v) { return !std::isnan(v); }

  /// Grow the block to hold at least `entries` entries.
  void reserve(std::size_t entries) {
    if (entries <= cap_) return;
    const std::unique_ptr<std::byte[]> old = std::move(block_);
    const std::size_t was = std::exchange(cap_, std::uint32_t(entries));
    block_ = std::make_unique_for_overwrite<std::byte[]>(cap_ * kEntryBytes);
    for (std::size_t c = 0; old && c <= kCols; ++c) {  // ids last
      std::memcpy(col(Col(c)), old.get() + c * was * sizeof(double),
                  end_ * (c < kCols ? sizeof(double) : sizeof(net::NodeId)));
    }
  }
  /// A new, empty run with room for `cap` entries at the end of the block.
  PeerRun add_run(std::size_t cap) {
    if (cap > kMaxRun) throw std::length_error("PeerArena: run too long");
    reserve(end_ + cap);
    end_ += std::uint32_t(cap);
    return PeerRun{end_ - std::uint32_t(cap), 0, std::uint16_t(cap)};
  }
  std::size_t block_bytes() const { return cap_ * kEntryBytes; }

  net::NodeId id(std::size_t i) const { return ids()[i]; }
  double& at(Col c, std::size_t i) { return col(c)[i]; }
  double at(Col c, std::size_t i) const { return col(c)[i]; }

  /// Entry of `peer` in `run`, or kNone.
  std::size_t find(const PeerRun& run, net::NodeId peer) const {
    const std::size_t i = lower_bound(run, peer);
    return i < run.off + run.len && ids()[i] == peer ? i : kNone;
  }
  /// Column `c` of `peer`'s entry, or -1 if it has no entry or no such part.
  double value(const PeerRun& run, net::NodeId peer, Col c) const {
    const std::size_t i = find(run, peer);
    return i == kNone || !present(at(c, i)) ? -1.0 : at(c, i);
  }
  /// Entry of `peer` in `run`, inserted with both parts absent if new.
  std::size_t insert(PeerRun& run, net::NodeId peer) {
    if (const std::size_t i = find(run, peer); i != kNone) return i;
    if (run.len == run.cap) {
      if (run.cap == kMaxRun) throw std::length_error("PeerArena: run full");
      const PeerRun moved =
          add_run(std::min<std::size_t>(std::max(2 * run.cap, 1), kMaxRun));
      shift(run.off, moved.off, run.len);
      run = PeerRun{moved.off, run.len, moved.cap};
    }
    const std::size_t i = lower_bound(run, peer);
    shift(i, i + 1, run.off + run.len - i);
    ++run.len;
    ids()[i] = peer;
    for (std::size_t c = 0; c < kCols; ++c) col(Col(c))[i] = kAbsent;
    return i;
  }
  /// Entries of `run` holding an RTT part (c = kRtt) or a bridge part
  /// (c = kBridge).
  std::size_t count(const PeerRun& run, Col c) const {
    const double* v = col(c) + run.off;
    return std::size_t(std::count_if(v, v + run.len, present));
  }
  /// Erase, in id order, every entry whose RTT part was last heard more
  /// than `max_age` before `now`, bridge part and all; bridge-only entries
  /// stay. Returns the number erased.
  std::size_t expire(PeerRun& run, double now, double max_age) {
    const std::size_t before = run.len;
    for (std::size_t i = run.off; i < run.off + run.len;) {
      if (now - at(kHeardAt, i) > max_age) {
        --run.len;
        shift(i + 1, i, run.off + run.len - i);
      } else {
        ++i;
      }
    }
    return before - run.len;
  }

 private:
  double* col(Col c) const {
    return reinterpret_cast<double*>(block_.get()) + c * cap_;
  }
  net::NodeId* ids() const {
    return reinterpret_cast<net::NodeId*>(col(kCols));
  }
  std::size_t lower_bound(const PeerRun& run, net::NodeId peer) const {
    const net::NodeId* b = ids() + run.off;
    return std::size_t(std::lower_bound(b, b + run.len, peer) - ids());
  }
  /// Move `n` entries, every column, from entry `from` to entry `to`.
  void shift(std::size_t from, std::size_t to, std::size_t n) {
    for (std::size_t c = 0; c < kCols; ++c) {
      std::memmove(col(Col(c)) + to, col(Col(c)) + from, n * sizeof(double));
    }
    std::memmove(ids() + to, ids() + from, n * sizeof(net::NodeId));
  }

  std::unique_ptr<std::byte[]> block_;
  std::uint32_t cap_ = 0;  ///< entries the block holds
  std::uint32_t end_ = 0;  ///< entries handed out to runs
};

}  // namespace sharq::sfq
