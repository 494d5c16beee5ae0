// Delay-line channels.
//
// Every inter-router signal (flits, credits, ACK/NACKs) travels through a
// fixed-latency delay line, which is what makes the cycle-driven update
// order-independent: producers push entries stamped `deliver_at = now +
// latency`, consumers only pop entries whose stamp has matured. Pushing and
// popping within the same simulated cycle therefore never race.
//
// A lane may be bound to an external occupancy byte (`bind`), which it then
// keeps equal to `!empty()` at every push, drop and clear — the Network packs
// these bytes per reading node so its idle-skip scan and the receive phase
// test lane occupancy without touching the lanes themselves.
//
// Single-copy contract: a value crosses a lane with one copy in and none out.
// `push` forwards its argument straight into a ring slot (RingBuffer::append),
// and consumers read the matured front in place with `peek(now)` and retire
// it with `drop_front()`, moving out only what they keep. `pop` is the
// by-value convenience wrapper over the same two calls.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/types.h"
#include "noc/flit.h"

namespace rlftnoc {

/// FIFO with per-entry maturity stamps.
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(Cycle latency = 1) noexcept : latency_(latency) {}

  Cycle latency() const noexcept { return latency_; }

  /// Enqueues `value` at time `now`; it becomes visible at `now + latency`.
  template <typename U = T>
  void push(Cycle now, U&& value) {
    push_delayed(now, std::forward<U>(value), 0);
  }

  /// Enqueues with `extra` additional cycles of delay (mode-3 relaxed-timing
  /// transfers). Callers keep the channel busy over the stretch, so stamps
  /// stay monotone and FIFO order is preserved. `value` is forwarded
  /// straight into the lane's new slot (copied once if an lvalue, moved once
  /// if an rvalue); it must not refer to an entry of this same lane.
  template <typename U = T>
  void push_delayed(Cycle now, U&& value, Cycle extra) {
    const Cycle at = now + latency_ + extra;
    // FIFO delivery order requires monotone maturity stamps; a violation
    // means a producer bypassed the channel-occupancy protocol.
    RLFTNOC_CHECK(entries_.empty() || entries_.back().deliver_at <= at,
                  "delay line stamp regressed: %llu after %llu",
                  static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(entries_.back().deliver_at));
    Entry& e = entries_.append();
    e.deliver_at = at;
    e.value = std::forward<U>(value);
    if (occ_ != nullptr) *occ_ = 1;
  }

  /// The oldest entry if it has matured by `now`, else null. The consumer
  /// works on the entry in place and then calls drop_front(); the pointer
  /// stays valid until that call or the next push.
  T* peek(Cycle now) noexcept {
    if (entries_.empty() || entries_.front().deliver_at > now) return nullptr;
    return &entries_.front().value;
  }

  /// Removes the oldest entry (which must exist — normally the one peek()
  /// just returned), clearing the occupancy byte when the lane empties.
  void drop_front() noexcept {
    entries_.pop_front();
    if (occ_ != nullptr && entries_.empty()) *occ_ = 0;
  }

  /// Pops the oldest entry if it has matured by `now` (peek + drop_front).
  std::optional<T> pop(Cycle now) {
    T* v = peek(now);
    if (v == nullptr) return std::nullopt;
    std::optional<T> out(std::move(*v));
    drop_front();
    return out;
  }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Discards everything in flight (hard-fault teardown of a dead link /
  /// router). Returns the number of entries dropped so the caller can keep
  /// conservation accounting honest.
  std::size_t clear() noexcept {
    const std::size_t n = entries_.size();
    entries_.clear();
    if (occ_ != nullptr) *occ_ = 0;
    return n;
  }

  /// Binds the lane's occupancy byte (null unbinds) and sets it from the
  /// lane's current state; from then on it tracks `!empty()` exactly.
  void bind(std::uint8_t* occ) noexcept {
    occ_ = occ;
    if (occ_ != nullptr) *occ_ = entries_.empty() ? 0 : 1;
  }

  /// Visits every queued value oldest-first (auditing / diagnostics only —
  /// the simulation itself must go through peek()/pop() to honour maturity).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    entries_.for_each([&fn](const Entry& e) { fn(e.value); });
  }

 private:
  struct Entry {
    Cycle deliver_at = 0;
    T value{};
  };
  Cycle latency_;
  RingBuffer<Entry> entries_;
  std::uint8_t* occ_ = nullptr;
};

/// Credit returned upstream when a flit vacates an input VC buffer slot.
struct Credit {
  VcId vc = kInvalidVc;
};

/// Link-level ACK/NACK for the ARQ+ECC protocol.
struct AckMsg {
  FlitId flit_id = 0;
  VcId vc = kInvalidVc;
  bool nack = false;
};

/// One direction of a physical channel between adjacent routers (or between
/// a router and its network interface): a flit lane plus the reverse credit
/// and ACK lanes.
struct ChannelPair {
  DelayLine<Flit> flits{1};
  DelayLine<Credit> credits{1};
  DelayLine<AckMsg> acks{1};
};

}  // namespace rlftnoc
