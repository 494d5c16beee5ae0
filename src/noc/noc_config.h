// Structural parameters of the simulated NoC (Table II of the paper).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/config.h"
#include "common/types.h"

namespace rlftnoc {

/// Upper bound on a packet's length in flits (make_packet, workload `len`).
/// Flit::seq and Flit::packet_len are single bytes, and make_flit_id keeps
/// 8 bits of seq.
inline constexpr int kMaxFlitsPerPacket = 32;

/// Upper bound on NocConfig::vcs_per_port: kNumPorts (5) x 12 = 60 input VCs
/// fit one 64-bit occupancy word in the router's bitmask datapath, and a VC
/// index fits Flit::vc (a signed byte, so kInvalidVc = -1 still fits).
inline constexpr int kMaxVcsPerPort = 12;

/// Mesh / router / protocol parameters with Table II defaults.
struct NocConfig {
  int mesh_width = 8;        ///< 8x8 2D mesh
  /// Route computation algorithm (Table II: X-Y).
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  /// Network shape: the paper's open mesh, or a torus with wrap links.
  TopologyKind topology = TopologyKind::kMesh;
  int mesh_height = 8;
  int vcs_per_port = 4;      ///< 4 VCs per port
  int vc_depth = 4;          ///< flit slots per VC buffer
  int retention_depth = 8;   ///< output flit buffer entries per port (ARQ)
  int local_vc_depth = 16;   ///< deeper buffering at the ejection port
  int ni_queue_limit = 512;  ///< source NI injection queue capacity (packets)

  /// Extra cycles an end-to-end (CRC) retransmission request / ACK spends
  /// per hop of the return path, modelling the control message latency.
  int e2e_ack_cycles_per_hop = 2;
  int e2e_ack_fixed_cycles = 4;

  int num_nodes() const noexcept { return mesh_width * mesh_height; }

  /// True when dateline VC classes are in force: torus dimension-ordered
  /// routing splits each port's VCs into two halves so the cyclic channel
  /// dependency around each ring is broken (see noc/routing.h).
  bool dateline_vcs() const noexcept {
    return topology == TopologyKind::kTorus &&
           (routing == RoutingAlgorithm::kXY ||
            routing == RoutingAlgorithm::kYX);
  }

  /// Validates invariants; throws std::invalid_argument on nonsense.
  void validate() const {
    if (mesh_width <= 0 || mesh_height <= 0)
      throw std::invalid_argument(
          "NocConfig: noc.mesh_width/noc.mesh_height must be positive (got " +
          std::to_string(mesh_width) + "x" + std::to_string(mesh_height) + ")");
    if (mesh_width < 2 || mesh_height < 2)
      throw std::invalid_argument("NocConfig: mesh must be at least 2x2");
    if (topology == TopologyKind::kTorus &&
        routing == RoutingAlgorithm::kWestFirst)
      throw std::invalid_argument(
          "NocConfig: westfirst routing is mesh-only (its turn model is not "
          "deadlock-free across torus wrap links)");
    if (topology == TopologyKind::kTorus &&
        (routing == RoutingAlgorithm::kXY || routing == RoutingAlgorithm::kYX) &&
        vcs_per_port < 2)
      throw std::invalid_argument(
          "NocConfig: torus dimension-ordered routing needs vcs_per_port >= 2 "
          "(dateline VC classes)");
    if (vcs_per_port < 1 || vcs_per_port > kMaxVcsPerPort)
      throw std::invalid_argument("NocConfig: vcs_per_port out of range");
    if (vc_depth < 1) throw std::invalid_argument("NocConfig: vc_depth < 1");
    if (retention_depth < 2)
      throw std::invalid_argument("NocConfig: retention_depth < 2 cannot cover ACK RTT");
    if (local_vc_depth < vc_depth)
      throw std::invalid_argument("NocConfig: local_vc_depth < vc_depth");
  }

  /// Reads overrides from a flat Config (keys: noc.mesh_width, ...).
  static NocConfig from_config(const Config& cfg) {
    NocConfig c;
    c.mesh_width = static_cast<int>(cfg.get_int("noc.mesh_width", c.mesh_width));
    c.mesh_height = static_cast<int>(cfg.get_int("noc.mesh_height", c.mesh_height));
    c.vcs_per_port = static_cast<int>(cfg.get_int("noc.vcs_per_port", c.vcs_per_port));
    c.vc_depth = static_cast<int>(cfg.get_int("noc.vc_depth", c.vc_depth));
    c.retention_depth =
        static_cast<int>(cfg.get_int("noc.retention_depth", c.retention_depth));
    c.local_vc_depth =
        static_cast<int>(cfg.get_int("noc.local_vc_depth", c.local_vc_depth));
    c.ni_queue_limit =
        static_cast<int>(cfg.get_int("noc.ni_queue_limit", c.ni_queue_limit));
    c.e2e_ack_cycles_per_hop =
        static_cast<int>(cfg.get_int("noc.e2e_ack_cycles_per_hop", c.e2e_ack_cycles_per_hop));
    c.e2e_ack_fixed_cycles =
        static_cast<int>(cfg.get_int("noc.e2e_ack_fixed_cycles", c.e2e_ack_fixed_cycles));
    const std::string routing = cfg.get_string("noc.routing", "xy");
    if (routing == "xy") {
      c.routing = RoutingAlgorithm::kXY;
    } else if (routing == "yx") {
      c.routing = RoutingAlgorithm::kYX;
    } else if (routing == "westfirst") {
      c.routing = RoutingAlgorithm::kWestFirst;
    } else if (routing == "adaptive") {
      c.routing = RoutingAlgorithm::kAdaptive;
    } else {
      throw std::invalid_argument(
          "noc.routing must be xy|yx|westfirst|adaptive");
    }
    const std::string topology = cfg.get_string("noc.topology", "mesh");
    if (topology == "mesh") {
      c.topology = TopologyKind::kMesh;
    } else if (topology == "torus") {
      c.topology = TopologyKind::kTorus;
    } else {
      throw std::invalid_argument("noc.topology must be mesh|torus");
    }
    c.validate();
    return c;
  }
};

}  // namespace rlftnoc
