// Flit and packet representations.
//
// Packets are segmented into flits (Table II: 4 flits of 128 bits). The
// payload is real data: the source NI fills it from a seeded RNG, computes a
// per-flit CRC-32, and the fault injector flips payload bits in flight, so
// end-to-end detection behaves exactly like the code it models.
//
// Header fields (src/dst/vc/sequence) ride as side-band metadata and are
// never corrupted; real routers protect the header with a dedicated stronger
// code, and the paper's error model targets the datapath (see DESIGN.md).
//
// A Flit is 64 bytes, one cache line. Only 22 of them would travel on a real
// wire: the 128-bit payload, the CRC-32 and the 16 SECDED check bits. The
// rest is simulator bookkeeping (identity, routing, timing, link protocol),
// narrowed to the bounds NocConfig enforces. Every VC slot, ARQ retention
// slot and delay-line entry holds a whole Flit, so its size is most of the
// simulator's per-node memory.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitvec.h"
#include "common/types.h"
#include "coding/secded.h"
#include "noc/noc_config.h"

namespace rlftnoc {

/// Position of a flit within its packet.
enum class FlitType : std::uint8_t {
  kHead = 0,
  kBody = 1,
  kTail = 2,
  kHeadTail = 3,  ///< single-flit packet
};

/// Globally unique flit identity: packet id in the high bits, sequence in
/// the low byte. Used by the per-hop ARQ to match ACK/NACKs and duplicates.
using FlitId = std::uint64_t;

constexpr FlitId make_flit_id(PacketId pkt, std::uint32_t seq) noexcept {
  return (pkt << 8) | (seq & 0xFFu);
}

/// The unit of link-level transfer.
///
/// Fields are ordered by alignment (the 8-byte words, then the 4-byte ids
/// and CRC, the 2-byte ECC, then the byte fields), so the only padding is 2
/// bytes at the end. `seq`, `packet_len` and `vc` are single bytes: packet
/// length is capped at kMaxFlitsPerPacket (make_packet, validate_workload)
/// and NocConfig caps vcs_per_port at kMaxVcsPerPort; the static_asserts
/// below tie the caps to the field widths.
struct Flit {
  BitVec128 payload;           ///< 128 data bits (mutable by faults)
  PacketId packet_id = 0;
  Cycle packet_inject_cycle = kInvalidCycle;  ///< when the packet entered the source NI queue

  /// Link sequence number, stamped per (router, output port) at first
  /// transmission. The link layer delivers in-order (go-back-N): a receiver
  /// NACKs any flit arriving ahead of the expected sequence and ACK-drops
  /// any duplicate behind it, so rejected flits can never be overtaken.
  std::uint64_t lsn = 0;

  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t crc = 0;       ///< flit CRC computed once at the source NI

  /// Per-hop ECC state: valid only while crossing an ECC-enabled link.
  FlitEcc ecc;

  FlitType type = FlitType::kHead;
  std::uint8_t seq = 0;        ///< flit index within the packet
  std::uint8_t packet_len = 1; ///< total flits in the packet
  std::int8_t vc = kInvalidVc; ///< VC at the *receiving* input port
  bool ecc_valid = false;
  bool hop_retransmission = false;  ///< this copy is a link-level re-send

  /// End-to-end injection generation. A hard fault that destroys part of a
  /// packet in flight triggers a source re-injection with a higher attempt;
  /// the destination NI uses the tag to drop stale stragglers of the old
  /// generation instead of mixing two generations into one reassembly.
  std::uint8_t attempt = 0;

  /// Dateline VC class for torus dimension-ordered routing (0 before the
  /// wrap link of the current dimension, 1 after). Stamped on head flits by
  /// the RC stage; unused (always 0) on a mesh.
  std::uint8_t vc_class = 0;

  FlitId id() const noexcept { return make_flit_id(packet_id, seq); }
  bool is_head() const noexcept {
    return type == FlitType::kHead || type == FlitType::kHeadTail;
  }
  bool is_tail() const noexcept {
    return type == FlitType::kTail || type == FlitType::kHeadTail;
  }
};

static_assert(sizeof(Flit) == 64, "Flit must stay one 64-byte cache line");
// A raised cap in NocConfig must fail here rather than truncate in a field.
static_assert(kMaxFlitsPerPacket - 1 <= std::numeric_limits<decltype(Flit::seq)>::max());
static_assert(kMaxFlitsPerPacket <= std::numeric_limits<decltype(Flit::packet_len)>::max());
static_assert(kMaxVcsPerPort - 1 <= std::numeric_limits<decltype(Flit::vc)>::max());
static_assert(kInvalidVc >= std::numeric_limits<decltype(Flit::vc)>::min());

/// Identity of a flit destroyed by hard-fault teardown. The network collects
/// these while killing links/routers and decides once per damaged packet
/// whether to request an end-to-end retransmission or abandon the packet.
struct LostFlit {
  PacketId packet = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
};

/// A packet awaiting injection (or retained at the source for possible
/// end-to-end retransmission).
struct Packet {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Cycle inject_cycle = kInvalidCycle;  ///< creation time at the source NI
  std::vector<Flit> flits;             ///< pristine flits (CRC already set)
};

}  // namespace rlftnoc
