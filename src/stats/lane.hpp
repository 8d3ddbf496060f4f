#pragma once

// Execution-lane id for the sharded parallel runtime (docs/ARCHITECTURE.md,
// "Zone-sharded parallel simulation"). The journal, the profiler and the
// network keep per-lane storage so shard worker threads never contend on
// a shared slot; lane 0 is the serial default and the barrier-time lane.
//
// The lane id is the one piece of thread-local state in the library: it is
// set by the shard runtime around each window and read by those per-lane
// writers. Protocol code never touches it.

namespace sharq::stats {

/// Compile-time cap on shard lanes. The shard partitioner clamps its shard
/// count to this, so per-lane storage can be a fixed array.
inline constexpr int kMaxLanes = 8;

namespace detail {
inline int& lane_slot() {
  // sharq-lint: thread-unsafe-ok (the lane id IS the shard-runtime discipline)
  thread_local int lane = 0;
  return lane;
}
}  // namespace detail

/// Lane of the calling thread (0 unless a shard window is executing).
inline int lane() { return detail::lane_slot(); }

/// RAII lane setter used by the shard runtime around window execution.
class ScopedLane {
 public:
  explicit ScopedLane(int lane) : prev_(detail::lane_slot()) {
    detail::lane_slot() = lane;
  }
  ~ScopedLane() { detail::lane_slot() = prev_; }
  ScopedLane(const ScopedLane&) = delete;
  ScopedLane& operator=(const ScopedLane&) = delete;

 private:
  int prev_;
};

}  // namespace sharq::stats
