// PARSEC-like application traffic.
//
// Substitution note (see DESIGN.md §3): we do not ship the proprietary
// gem5-captured PARSEC traces the paper replays. Instead each benchmark is a
// named stochastic traffic model whose knobs — mean injection rate, ON/OFF
// burstiness, spatial locality, control/data packet mix and total packet
// budget — are set from published PARSEC NoC traffic characterizations. The
// fault-tolerance machinery under test only observes the packet arrival
// process, so matching these first-order statistics preserves the relative
// behaviour of the policies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "traffic/traffic.h"

namespace rlftnoc {

/// Stochastic profile of one benchmark.
struct ParsecProfile {
  std::string name;
  double injection_rate = 0.05;  ///< mean flits/node/cycle
  double burst_on_rate_scale = 3.0;  ///< rate multiplier while a node bursts
  double p_enter_burst = 0.002;      ///< per-cycle OFF -> ON probability
  double p_exit_burst = 0.01;        ///< per-cycle ON -> OFF probability
  double locality = 0.4;             ///< fraction of packets to nearby nodes
  int locality_radius = 2;           ///< "nearby" = Manhattan distance <= r
  double short_packet_fraction = 0.5;///< 1-flit control packets (coherence)
  int data_packet_len = 4;           ///< Table II: 4-flit data packets
  std::uint64_t total_packets = 60000;  ///< defines full execution
  /// Fraction of non-local packets addressed to a memory-controller node.
  /// Real PARSEC NoC traffic concentrates on the MC / directory tiles; the
  /// resulting hot neighbourhoods are what drive the paper's 50-100 C
  /// temperature (and therefore error-level) heterogeneity.
  double mc_fraction = 0.45;
};

/// Default memory-controller placement: one per mesh quadrant.
std::vector<NodeId> default_mc_nodes(const Grid& grid);

/// The eight benchmark profiles used in the evaluation (Figs. 6-10).
const std::vector<ParsecProfile>& parsec_suite();

/// Looks up a profile by name; throws std::invalid_argument if unknown.
const ParsecProfile& parsec_profile(const std::string& name);

/// Markov-modulated packet source implementing a ParsecProfile.
class ParsecTraffic final : public TrafficGenerator {
 public:
  ParsecTraffic(const Grid& grid, ParsecProfile profile, std::uint64_t seed);

  void tick(Cycle now, std::vector<Packet>& out) override;
  bool exhausted() const override { return generated_ >= profile_.total_packets; }
  const std::string& name() const override { return profile_.name; }

  const ParsecProfile& profile() const noexcept { return profile_; }
  std::uint64_t generated() const noexcept { return generated_; }

 private:
  NodeId pick_destination(NodeId src);

  Grid grid_;
  ParsecProfile profile_;
  Rng rng_;
  std::vector<bool> bursting_;  ///< per-node ON/OFF state
  std::vector<NodeId> mc_nodes_;
  std::uint64_t generated_ = 0;
  PacketId next_id_ = 1;
};

}  // namespace rlftnoc
