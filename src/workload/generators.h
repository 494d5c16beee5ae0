// Built-in dependency-aware workload generators.
//
// Three closed-loop scenario families the open-loop synthetic patterns
// cannot express (ISSUE: tt-npe-style transfer graphs):
//
//  * DNN — a layered dataflow graph: layer l+1 consumers read from layer l
//    producers, and a producer's outgoing transfers wait on its own inputs,
//    so congestion in one layer back-pressures the whole pipeline.
//  * RPC — request/response trees with configurable backend fan-out and a
//    closed loop per client (the next request waits for the previous
//    response), the classic datacenter-on-chip pattern.
//  * NACK storm — an adversary: attackers keep a fixed window of packets
//    outstanding against one victim, each wave released by the previous
//    wave's completions, sustaining worst-case many-to-one pressure that
//    adapts to whatever throughput the victim's links allow.
//
// All generators are pure functions of (grid, options, seed): the seed
// drives only the deterministic node-placement shuffle, so the same inputs
// always produce byte-identical workloads.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/types.h"
#include "noc/grid.h"
#include "workload/workload.h"

namespace rlftnoc {

struct DnnWorkloadOptions {
  int layers = 6;            ///< >= 2 (layer 0 feeds layer 1, ...)
  int nodes_per_layer = 8;   ///< clamped to the mesh size
  int fan_in = 2;            ///< producers feeding each consumer
  int packet_len = 4;        ///< flits per transfer
  Cycle layer_spacing = 64;  ///< earliest-cycle stagger between layers
};

struct RpcWorkloadOptions {
  int clients = 8;
  int servers = 8;
  int requests_per_client = 8;  ///< sequential, closed-loop per client
  int fanout = 2;               ///< backend sub-requests per request
  int request_len = 1;
  int response_len = 4;
  Cycle request_spacing = 32;  ///< earliest-cycle stagger between requests
};

struct NackStormWorkloadOptions {
  NodeId victim = kInvalidNode;  ///< default: mesh centre
  int attackers = 8;
  int waves = 16;                  ///< completion-chained bursts per attacker
  int packets_per_wave = 4;        ///< outstanding window per attacker
  int packet_len = 4;
};

Workload make_dnn_workload(const Grid& grid,
                           const DnnWorkloadOptions& opt, std::uint64_t seed);
Workload make_rpc_workload(const Grid& grid,
                           const RpcWorkloadOptions& opt, std::uint64_t seed);
Workload make_nack_storm_workload(const Grid& grid,
                                  const NackStormWorkloadOptions& opt,
                                  std::uint64_t seed);

/// Option parsing from a run config (keys `wl.*`; every field optional).
DnnWorkloadOptions dnn_workload_options_from_config(const Config& cfg);
RpcWorkloadOptions rpc_workload_options_from_config(const Config& cfg);
NackStormWorkloadOptions nack_storm_workload_options_from_config(
    const Config& cfg);

/// True when `name` names a built-in generator ("dnn", "rpc", "nackstorm").
bool is_builtin_workload(const std::string& name);

/// Builds the named generator's workload with options taken from `cfg`
/// (see *_options_from_config). Throws WorkloadError on unknown names.
Workload make_builtin_workload(const std::string& name,
                               const Grid& grid, const Config& cfg,
                               std::uint64_t seed);

}  // namespace rlftnoc
