// Fixed/growable circular buffer — the zero-allocation replacement for the
// hot-path std::deques (delay-line channels, input-VC FIFOs, ARQ resend
// queues, NI packet queues).
//
// std::deque allocates a heap node roughly every few entries, which put an
// allocator round-trip on the per-cycle datapath of every router. RingBuffer
// keeps one flat power-of-two array: pushes and pops are an index mask and a
// move, and the only allocation ever performed is a capacity doubling (which
// stops once the buffer has seen its high-water mark, so a warmed-up
// simulation allocates nothing per cycle).
//
// Capacity policy: size to what the buffer holds. `reserve(n)` (and the
// sizing constructor) allocates exactly the next power of two >= n, with no
// floor, so a 4-deep VC FIFO holds 4 slots. An unreserved buffer starts at 2
// slots on its first push and doubles from there, which suits the delay
// lanes that mostly hold one or two entries. Capacity never changes
// behaviour: a full buffer grows on the next push either way.
//
// Single-copy contract: `append()` hands out the new back slot itself, and
// `push_back` forwards its argument into that slot, so a pushed value is
// copied (lvalue) or moved (rvalue) exactly once — no by-value parameter or
// temporary in between. Callers holding a large entry fill the slot in place.
//
// Requirements on T: default-constructible and move-assignable (the backing
// store is value-initialized up front and entries are moved in and out).
// Move-only types work. Popped slots are not destroyed until overwritten or
// the buffer dies; callers that care about eager resource release should
// std::move() out of front() before pop_front() — every hot-path user here
// does.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace rlftnoc {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  /// Preallocates room for at least `min_capacity` entries.
  explicit RingBuffer(std::size_t min_capacity) { reserve(min_capacity); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return buf_.size(); }

  /// Grows the backing store to the next power of two >= `min_capacity`
  /// (never shrinks).
  void reserve(std::size_t min_capacity) {
    if (min_capacity > buf_.size()) grow_to(round_up_pow2(min_capacity));
  }

  /// Claims a new back slot and returns it for the caller to fill in place
  /// (its old contents are unspecified: a default value or a popped entry).
  /// The slot is the only copy the buffer ever makes of a value, which is
  /// what lets producers build or move a large entry straight into place.
  T& append() {
    if (size_ == buf_.size()) grow_to(next_capacity());
    return buf_[wrap(head_ + size_++)];
  }

  /// Forwards `value` into a new back slot: an rvalue is moved, an lvalue
  /// copied, each exactly once. `value` may alias an entry of this buffer;
  /// a growing push copies it out before the entries move.
  template <typename U = T>
  void push_back(U&& value) {
    if (size_ == buf_.size()) {
      T held(std::forward<U>(value));
      append() = std::move(held);
      return;
    }
    append() = std::forward<U>(value);
  }

  /// O(1) prepend (the NI re-queues the packet it just dequeued when every
  /// local VC is credit-starved).
  void push_front(T value) {
    if (size_ == buf_.size()) grow_to(next_capacity());
    head_ = static_cast<std::uint32_t>(wrap(head_ + buf_.size() - 1));
    buf_[head_] = std::move(value);
    ++size_;
  }

  T& front() noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: front() on empty buffer");
    return buf_[head_];
  }
  const T& front() const noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: front() on empty buffer");
    return buf_[head_];
  }
  T& back() noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: back() on empty buffer");
    return buf_[wrap(head_ + size_ - 1)];
  }
  const T& back() const noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: back() on empty buffer");
    return buf_[wrap(head_ + size_ - 1)];
  }

  /// i-th entry counted from the front (0 = oldest).
  T& operator[](std::size_t i) noexcept {
    RLFTNOC_CHECK(i < size_, "RingBuffer: index %zu past size %zu", i,
                  static_cast<std::size_t>(size_));
    return buf_[wrap(head_ + i)];
  }
  const T& operator[](std::size_t i) const noexcept {
    RLFTNOC_CHECK(i < size_, "RingBuffer: index %zu past size %zu", i,
                  static_cast<std::size_t>(size_));
    return buf_[wrap(head_ + i)];
  }

  void pop_front() noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: pop_front() on empty buffer");
    head_ = static_cast<std::uint32_t>(wrap(head_ + 1));
    --size_;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Visits every entry oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(buf_[wrap(head_ + i)]);
  }

  /// True if any entry satisfies `pred`.
  template <typename Pred>
  bool any_of(Pred&& pred) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (pred(buf_[wrap(head_ + i)])) return true;
    }
    return false;
  }

  /// Removes every entry satisfying `pred`, keeping the relative order of
  /// survivors (stable, like std::erase_if on a deque). Returns the count.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& v = buf_[wrap(head_ + i)];
      if (pred(std::as_const(v))) continue;
      if (kept != i) buf_[wrap(head_ + kept)] = std::move(v);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    size_ = static_cast<std::uint32_t>(kept);
    return removed;
  }

 private:
  /// First allocation of an unreserved buffer; later growth doubles.
  static constexpr std::size_t kInitialCapacity = 2;
  /// 32-bit head/size keep a buffer at 32 bytes (a delay line, which also
  /// carries its occupancy-byte pointer, at 48); indices stay below 2^32.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 31;

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t cap = 1;
    while (cap < n) cap <<= 1;
    return cap;
  }

  std::size_t next_capacity() const noexcept {
    return buf_.empty() ? kInitialCapacity : buf_.size() * 2;
  }

  // Valid only while buf_ is non-empty (capacity is a power of two); every
  // caller either checked size_ > 0 or grew the buffer first.
  std::size_t wrap(std::size_t i) const noexcept { return i & (buf_.size() - 1); }

  void grow_to(std::size_t cap) {
    RLFTNOC_CHECK(cap <= kMaxCapacity, "RingBuffer: capacity %zu exceeds %zu", cap,
                  kMaxCapacity);
    std::vector<T> grown(cap);
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = std::move(buf_[wrap(head_ + i)]);
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace rlftnoc
