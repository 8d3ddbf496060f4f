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
/// lambda in net/network.cpp (a Packet by value plus this/link/epoch):
/// it compiles at 72 bytes and fails at 64. Timers need no headroom of
/// their own — sim::Timer::arm schedules the caller's callable straight
/// into the event slot, so timer closures are held to the same bound as
/// any other event. Each slot pays kCapacity + 16 bytes of callback, so
/// a larger capacity grows every event slot in the slab.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 72;

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
    invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
    relocate_ = [](void* from, void* to) {
      D* src = static_cast<D*>(from);
      if (to != nullptr) ::new (to) D(std::move(*src));
      src->~D();
    };
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

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  void reset() {
    if (invoke_ != nullptr) {
      relocate_(buf_, nullptr);
      invoke_ = nullptr;
      relocate_ = nullptr;
    }
  }

  void move_from(Callback& other) {
    if (other.invoke_ != nullptr) {
      other.relocate_(other.buf_, buf_);
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void* from, void* to) = nullptr;  // to == nullptr: destroy
};

}  // namespace sharq::sim
