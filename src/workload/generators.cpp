#include "workload/generators.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace rlftnoc {
namespace {

/// Deterministic seeded permutation of all node ids (Fisher-Yates driven by
/// the project Rng, so placement is identical across hosts and runs).
std::vector<NodeId> shuffled_nodes(const Grid& grid,
                                   std::uint64_t seed, const char* tag) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(grid.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Rng rng(seed, tag);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_u64() % i);
    std::swap(nodes[i - 1], nodes[j]);
  }
  return nodes;
}

int clamp_min(std::int64_t v, int lo) {
  return static_cast<int>(std::max<std::int64_t>(v, lo));
}

}  // namespace

Workload make_dnn_workload(const Grid& grid,
                           const DnnWorkloadOptions& opt, std::uint64_t seed) {
  const int n = grid.num_nodes();
  const int layers = std::max(opt.layers, 2);
  const int per_layer = std::max(1, std::min(opt.nodes_per_layer, n));
  const int fan_in = std::max(1, std::min(opt.fan_in, per_layer));
  const int len = std::max(opt.packet_len, 1);
  const std::vector<NodeId> perm = shuffled_nodes(grid, seed, "wl-dnn");

  const auto layer_node = [&](int layer, int j) {
    return perm[static_cast<std::size_t>(
        (static_cast<long long>(layer) * per_layer + j) %
        static_cast<long long>(n))];
  };

  Workload wl;
  wl.name = "dnn";
  // incoming[j] = ids of the previous edge-layer's transfers into producer
  // slot j — the dependencies of everything that producer sends onward.
  std::vector<std::vector<std::uint64_t>> incoming(
      static_cast<std::size_t>(per_layer));
  std::vector<std::vector<std::uint64_t>> next_incoming(
      static_cast<std::size_t>(per_layer));
  std::uint64_t next_id = 1;
  for (int l = 0; l + 1 < layers; ++l) {
    for (auto& v : next_incoming) v.clear();
    for (int j = 0; j < per_layer; ++j) {  // consumer slot in layer l+1
      const NodeId dst = layer_node(l + 1, j);
      for (int k = 0; k < fan_in; ++k) {
        const int pslot = (j + k) % per_layer;  // producer slot in layer l
        const NodeId src = layer_node(l, pslot);
        if (src == dst) continue;  // layer wrap landed on the same node
        WorkloadTransfer t;
        t.id = next_id++;
        t.src = src;
        t.dst = dst;
        t.len = len;
        t.earliest_cycle = static_cast<Cycle>(l) * opt.layer_spacing;
        t.deps = incoming[static_cast<std::size_t>(pslot)];
        wl.transfers.push_back(std::move(t));
        next_incoming[static_cast<std::size_t>(j)].push_back(next_id - 1);
      }
    }
    incoming.swap(next_incoming);
  }
  return wl;
}

Workload make_rpc_workload(const Grid& grid,
                           const RpcWorkloadOptions& opt, std::uint64_t seed) {
  const int n = grid.num_nodes();
  const std::vector<NodeId> perm = shuffled_nodes(grid, seed, "wl-rpc");
  const int clients = std::max(1, std::min(opt.clients, n - 1));
  const int servers = std::max(1, std::min(opt.servers, n - clients));
  const int requests = std::max(opt.requests_per_client, 1);
  const int fanout = std::max(opt.fanout, 0);
  const int req_len = std::max(opt.request_len, 1);
  const int resp_len = std::max(opt.response_len, 1);

  const auto client_node = [&](int c) {
    return perm[static_cast<std::size_t>(c)];
  };
  const auto server_node = [&](int s) {
    return perm[static_cast<std::size_t>(clients + s)];
  };

  Workload wl;
  wl.name = "rpc";
  std::uint64_t next_id = 1;
  const auto add = [&](NodeId src, NodeId dst, int len, Cycle earliest,
                       std::vector<std::uint64_t> deps) {
    WorkloadTransfer t;
    t.id = next_id++;
    t.src = src;
    t.dst = dst;
    t.len = len;
    t.earliest_cycle = earliest;
    t.deps = std::move(deps);
    wl.transfers.push_back(std::move(t));
    return next_id - 1;
  };

  for (int c = 0; c < clients; ++c) {
    std::uint64_t prev_response = 0;
    for (int k = 0; k < requests; ++k) {
      const NodeId cli = client_node(c);
      const int fe_slot = (c + k) % servers;
      const NodeId frontend = server_node(fe_slot);
      const Cycle earliest = static_cast<Cycle>(k) * opt.request_spacing;
      std::vector<std::uint64_t> req_deps;
      if (prev_response != 0) req_deps.push_back(prev_response);
      const std::uint64_t req =
          add(cli, frontend, req_len, earliest, std::move(req_deps));
      std::vector<std::uint64_t> resp_deps;
      for (int f = 0; f < fanout && servers > 1; ++f) {
        int be_slot = (fe_slot + 1 + f) % servers;
        if (be_slot == fe_slot) be_slot = (be_slot + 1) % servers;
        const NodeId backend = server_node(be_slot);
        const std::uint64_t sub =
            add(frontend, backend, req_len, earliest, {req});
        resp_deps.push_back(add(backend, frontend, resp_len, earliest, {sub}));
      }
      if (resp_deps.empty()) resp_deps.push_back(req);
      prev_response = add(frontend, cli, resp_len, earliest, std::move(resp_deps));
    }
  }
  return wl;
}

Workload make_nack_storm_workload(const Grid& grid,
                                  const NackStormWorkloadOptions& opt,
                                  std::uint64_t seed) {
  const int n = grid.num_nodes();
  NodeId victim = opt.victim;
  if (victim < 0 || victim >= n) {
    // Mesh centre: the node every attacker's minimal path converges on.
    victim = static_cast<NodeId>((grid.height() / 2) * grid.width() +
                                 grid.width() / 2);
  }
  const std::vector<NodeId> perm = shuffled_nodes(grid, seed, "wl-nackstorm");
  const int attackers = std::max(1, std::min(opt.attackers, n - 1));
  const int waves = std::max(opt.waves, 1);
  const int burst = std::max(opt.packets_per_wave, 1);
  const int len = std::max(opt.packet_len, 1);

  std::vector<NodeId> att;
  for (const NodeId node : perm) {
    if (node != victim) att.push_back(node);
    if (static_cast<int>(att.size()) == attackers) break;
  }

  Workload wl;
  wl.name = "nackstorm";
  std::uint64_t next_id = 1;
  // prev[a * burst + p]: the wave-(w-1) transfer this attacker/slot chains on.
  std::vector<std::uint64_t> prev(att.size() * static_cast<std::size_t>(burst),
                                  0);
  for (int w = 0; w < waves; ++w) {
    for (std::size_t a = 0; a < att.size(); ++a) {
      for (int p = 0; p < burst; ++p) {
        WorkloadTransfer t;
        t.id = next_id++;
        t.src = att[a];
        t.dst = victim;
        t.len = len;
        t.earliest_cycle = 0;  // release is completion-driven, not timed
        const std::size_t slot = a * static_cast<std::size_t>(burst) +
                                 static_cast<std::size_t>(p);
        if (prev[slot] != 0) t.deps.push_back(prev[slot]);
        prev[slot] = t.id;
        wl.transfers.push_back(std::move(t));
      }
    }
  }
  return wl;
}

DnnWorkloadOptions dnn_workload_options_from_config(const Config& cfg) {
  DnnWorkloadOptions o;
  o.layers = clamp_min(cfg.get_int("wl.layers", o.layers), 2);
  o.nodes_per_layer =
      clamp_min(cfg.get_int("wl.nodes_per_layer", o.nodes_per_layer), 1);
  o.fan_in = clamp_min(cfg.get_int("wl.fan_in", o.fan_in), 1);
  o.packet_len = clamp_min(cfg.get_int("wl.packet_len", o.packet_len), 1);
  o.layer_spacing = static_cast<Cycle>(clamp_min(
      cfg.get_int("wl.layer_spacing", static_cast<std::int64_t>(o.layer_spacing)),
      0));
  return o;
}

RpcWorkloadOptions rpc_workload_options_from_config(const Config& cfg) {
  RpcWorkloadOptions o;
  o.clients = clamp_min(cfg.get_int("wl.clients", o.clients), 1);
  o.servers = clamp_min(cfg.get_int("wl.servers", o.servers), 1);
  o.requests_per_client =
      clamp_min(cfg.get_int("wl.requests", o.requests_per_client), 1);
  o.fanout = clamp_min(cfg.get_int("wl.fanout", o.fanout), 0);
  o.request_len = clamp_min(cfg.get_int("wl.request_len", o.request_len), 1);
  o.response_len = clamp_min(cfg.get_int("wl.response_len", o.response_len), 1);
  o.request_spacing = static_cast<Cycle>(clamp_min(
      cfg.get_int("wl.spacing", static_cast<std::int64_t>(o.request_spacing)),
      0));
  return o;
}

NackStormWorkloadOptions nack_storm_workload_options_from_config(
    const Config& cfg) {
  NackStormWorkloadOptions o;
  o.victim = static_cast<NodeId>(
      cfg.get_int("wl.victim", static_cast<std::int64_t>(o.victim)));
  o.attackers = clamp_min(cfg.get_int("wl.attackers", o.attackers), 1);
  o.waves = clamp_min(cfg.get_int("wl.waves", o.waves), 1);
  o.packets_per_wave =
      clamp_min(cfg.get_int("wl.burst", o.packets_per_wave), 1);
  o.packet_len = clamp_min(cfg.get_int("wl.packet_len", o.packet_len), 1);
  return o;
}

bool is_builtin_workload(const std::string& name) {
  return name == "dnn" || name == "rpc" || name == "nackstorm";
}

Workload make_builtin_workload(const std::string& name,
                               const Grid& grid, const Config& cfg,
                               std::uint64_t seed) {
  if (name == "dnn") {
    return make_dnn_workload(grid, dnn_workload_options_from_config(cfg), seed);
  }
  if (name == "rpc") {
    return make_rpc_workload(grid, rpc_workload_options_from_config(cfg), seed);
  }
  if (name == "nackstorm") {
    return make_nack_storm_workload(
        grid, nack_storm_workload_options_from_config(cfg), seed);
  }
  throw WorkloadError("unknown built-in workload generator '" + name +
                      "' (have: dnn, rpc, nackstorm)");
}

}  // namespace rlftnoc
