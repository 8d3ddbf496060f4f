#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sharq::sim {

/// Move-only callable with fixed inline storage — the event queue's
/// callback type.
///
/// Every simulated packet hop schedules two events, so the callback type
/// is on the hottest allocation path in the system. `std::function` heap-
/// allocates any capture larger than its ~16-byte small-buffer and that
/// malloc/free pair per event dominated large-topology runs. This type
/// stores the callable inline (kCapacity bytes) and refuses — at compile
/// time — captures that do not fit, so scheduling an event never touches
/// the allocator (docs/PERFORMANCE.md).
///
/// Capacity rationale: the largest closure anywhere is the link transmit
/// lambda in net/network.cpp (a 40-byte Packet by value plus this, link
/// and epoch, captured in that order so the two 4-byte ids share one
/// word): it compiles at 56 bytes and fails at 48. Timers need no
/// headroom of their own — sim::Timer::arm schedules the caller's
/// callable straight into the event slot, so timer closures are held to
/// the same bound as any other event. Each slot pays kCapacity + 8 bytes
/// of callback, so a larger capacity grows every event slot in the slab.
///
/// The 8 bytes are one pointer to a static per-type table of two
/// functions, invoke and relocate-or-destroy. Keeping them apart, rather
/// than one manager function switching on the operation, is a measured
/// choice: on perfbench `deep_stream` (4-vCPU x86-64, GCC 12) the
/// switching manager's best run CPU over 11 concurrent rounds was ~15%
/// above this table's.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 56;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= kCapacity,
                  "capture too large for sim::Callback inline storage; "
                  "capture big state via a shared_ptr instead");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "sim::Callback requires nothrow-movable callables");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  Callback(Callback&& other) noexcept { move_from(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  /// Type-erased operations on the stored callable of type D.
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* from, void* to);  // to == nullptr: destroy
  };
  template <typename D>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* from, void* to) {
        D* src = static_cast<D*>(from);
        if (to != nullptr) ::new (to) D(std::move(*src));
        src->~D();
      }};

  void reset() {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, nullptr);
      ops_ = nullptr;
    }
  }

  void move_from(Callback& other) {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.buf_, buf_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace sharq::sim
