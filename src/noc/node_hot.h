// Packed per-node hot state for the phase-parallel stepper's flag scan and
// receive phase.
//
// Two arrays, both indexed by node:
//  * the hot byte (`Network::node_hot_`) caches the two node-internal halves
//    of the idle-skip predicate: router quiescence (Router::quiescent() walks
//    masks and every output's ARQ queues) and NI injection idleness;
//  * the lane-occupancy block (`Network::lane_occ_`, kLanesPerNode bytes)
//    holds one byte per delay-line lane the node *reads*, laid out below.
//    Each byte is kept equal to `!lane.empty()` by the DelayLine itself at
//    every push, pop and clear, so it is exact at all times.
//
// The flag scan is then the hot-byte test plus two 8-byte loads per node,
// and Router::receive / NetworkInterface::receive pop only lanes whose byte
// is set — no scattered DelayLine loads, no neighbour lookups.
//
// Why bytes, not bits: during the execute phase, producers in different
// shards push into the same neighbour's lanes concurrently. Distinct bytes
// are distinct memory locations, so those writes are race-free; bits packed
// into one word would be a data race (or need atomic read-modify-writes on
// the hottest path). Each node's 16-byte block is read only by the node's
// own shard; a byte written from another shard is read only in a later
// dispatch, and a byte written and read within one dispatch has its writer
// on the same node.
//
// Hot-byte freshness contract: a node's hot byte is refreshed (a) at
// construction / rebuild, (b) at the end of the execute dispatch for every
// node that was visited this cycle, and (c) from serial context whenever
// something other than the node's own visits mutates its router or NI —
// packet enqueue, e2e response delivery, hard-fault teardown. A *skipped*
// node's router and NI cannot change between refreshes (its visits are
// their only mutators), so a stale-looking byte is still exact. Lane bytes
// need no refresh. See DESIGN.md §5, "Parallel stepping & deterministic
// merge".
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace rlftnoc {

namespace node_hot {
/// Router holds no state that could produce work on its own
/// (Router::quiescent()).
inline constexpr std::uint8_t kRouterQuiescent = 1u << 0;
/// NI's injection side can produce nothing (NetworkInterface::injection_idle()).
inline constexpr std::uint8_t kNiInjectionIdle = 1u << 1;

/// Lane-occupancy bytes per node: one 16-byte block, two 8-byte words.
inline constexpr std::size_t kLanesPerNode = 16;
/// Byte offsets within a node's block. The mesh groups are indexed by
/// port_index (N, S, E, W).
/// Flits arriving on the mesh input port (the neighbour's outgoing lane).
inline constexpr std::size_t kInFlit = 0;
/// Credits returning on the node's own outgoing mesh channel.
inline constexpr std::size_t kOutCredit = 4;
/// ACK/NACKs returning on the node's own outgoing mesh channel.
inline constexpr std::size_t kOutAck = 8;
/// NI -> router injection flits.
inline constexpr std::size_t kInjFlit = 12;
/// NI -> router ejection credits.
inline constexpr std::size_t kEjCredit = 13;
/// Router -> NI ejection flits (read by the NI).
inline constexpr std::size_t kEjFlit = 14;
/// Router -> NI injection credits (read by the NI).
inline constexpr std::size_t kInjCredit = 15;

/// Masks over the block's second 8-byte word (bytes 8..15): the router reads
/// bytes 0..13, the NI bytes 14..15. Built from byte arrays so they hold on
/// any endianness.
inline constexpr std::uint64_t kRouterHiMask = std::bit_cast<std::uint64_t>(
    std::array<std::uint8_t, 8>{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0});
inline constexpr std::uint64_t kNiHiMask = ~kRouterHiMask;
}  // namespace node_hot

/// One node's lane-occupancy block, aligned so its two words never straddle
/// a cache line.
struct alignas(node_hot::kLanesPerNode) LaneOcc {
  std::array<std::uint8_t, node_hot::kLanesPerNode> b{};
};

}  // namespace rlftnoc
