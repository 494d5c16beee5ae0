// Route state: a Grid (noc/grid.h, geometry only) plus structural
// neighbours, per-link / per-router aliveness (hard faults) and the route
// tables of every routing policy (see noc/routing.h). Network builds the
// run's only Topology; it is move-only, so no route table is duplicated.
//
// Two shapes are supported: the paper's open-edged 2D mesh (Table II) and a
// 2D torus with wrap-around links in both dimensions. Structure and health
// are kept separate: `neighbor()` answers "is there a wire" (never changes),
// while `link_alive()` / `router_alive()` answer "does it still work" after
// `kill_link()` / `kill_router()`.
//
// Routes come from one of two sources. Fault-free dimension-ordered routing
// (xy, yx, west-first's deterministic fallback) picks its port from
// coordinates alone: a node -> (x, y) table plus one port table per
// dimension (W^2 and H^2 bytes, the torus ring direction resolved in them).
// Fault-adaptive up*/down*, and dimension-ordered routing once
// `rebuild_routes()` runs after a hard fault, need a per-pair table
// (N^2 bytes) that the routing policy fills from the alive subgraph. Either
// way steady-state route computation is a few loads, and routes change only
// at a rebuild.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "noc/grid.h"
#include "noc/noc_config.h"

namespace rlftnoc {

/// Grid + fault masks + route tables for a W x H mesh or torus. Move-only:
/// the route tables (up to N^2 bytes) have one owner.
class Topology : public Grid {
 public:
  /// Route sentinel for "no route" (dst unreachable from cur on the alive
  /// subgraph, or an endpoint router is dead).
  static constexpr std::uint8_t kUnreachable = 0xFF;

  /// Throws std::invalid_argument on dimensions Grid rejects.
  Topology(TopologyKind kind, int width, int height, RoutingAlgorithm routing);

  explicit Topology(const NocConfig& cfg)
      : Topology(cfg.topology, cfg.mesh_width, cfg.mesh_height, cfg.routing) {}

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  Topology(Topology&&) = default;
  Topology& operator=(Topology&&) = default;

  RoutingAlgorithm routing() const noexcept { return routing_; }

  /// Structural neighbour through port `p`: kInvalidNode at a mesh edge and
  /// for Local, the wrap neighbour at a torus edge. Ignores link health.
  NodeId neighbor(NodeId n, Port p) const noexcept {
    return nbr_[static_cast<std::size_t>(n) * kNumPorts + port_index(p)];
  }

  /// True when the structural link out of `n` through `p` exists and has not
  /// been killed. Always false for Local and at open mesh edges.
  bool link_alive(NodeId n, Port p) const noexcept {
    return link_alive_[static_cast<std::size_t>(n) * kNumPorts +
                       port_index(p)] != 0;
  }

  bool router_alive(NodeId n) const noexcept {
    return router_alive_[static_cast<std::size_t>(n)] != 0;
  }

  /// Marks the (bidirectional) link `n <-> neighbor(n, p)` dead. Returns
  /// true when the link existed and was alive. Does not change any route —
  /// call rebuild_routes() after a batch of kills.
  bool kill_link(NodeId n, Port p);

  /// Marks router `n` and all four of its links dead. Returns true when the
  /// router was alive. Does not change any route.
  bool kill_router(NodeId n);

  int num_dead_links() const noexcept { return dead_links_; }
  int num_dead_routers() const noexcept { return dead_routers_; }
  bool has_faults() const noexcept {
    return dead_links_ > 0 || dead_routers_ > 0;
  }

  /// Rebuilds the per-pair route table for the current alive subgraph
  /// using the routing policy selected at construction (see
  /// noc/routing.h). Fault-free dimension-ordered policies leave it empty
  /// and route from the per-dimension tables.
  void rebuild_routes();

  /// Dimension-ordered port_index from `cur` toward `dst` (x first or y
  /// first; kLocal when cur == dst) on the fault-free structure: two
  /// coordinate loads and one load per dimension table, no division.
  std::uint8_t dor_route(NodeId cur, NodeId dst, bool x_first) const noexcept {
    const Coord c = xy_[static_cast<std::size_t>(cur)];
    const Coord d = xy_[static_cast<std::size_t>(dst)];
    const std::uint8_t px =
        x_port_[static_cast<std::size_t>(c.x) * static_cast<std::size_t>(width()) +
                static_cast<std::size_t>(d.x)];
    const std::uint8_t py =
        y_port_[static_cast<std::size_t>(c.y) * static_cast<std::size_t>(height()) +
                static_cast<std::size_t>(d.y)];
    constexpr auto kLocalIdx = static_cast<std::uint8_t>(port_index(Port::kLocal));
    if (x_first) return px != kLocalIdx ? px : py;
    return py != kLocalIdx ? py : px;
  }

  /// Raw route: port_index of the next hop, or kUnreachable. Reads the
  /// per-pair table when one exists (adaptive, or dimension-ordered after a
  /// faulted rebuild), the per-dimension tables otherwise. The fast path for
  /// route computation and credit walks.
  std::uint8_t route_raw(NodeId cur, NodeId dst) const noexcept {
    if (!pair_route_.empty())
      return pair_route_[static_cast<std::size_t>(cur) *
                             static_cast<std::size_t>(num_nodes()) +
                         static_cast<std::size_t>(dst)];
    return dor_route(cur, dst, x_first_);
  }

  /// Next-hop port from `cur` toward `dst` (kLocal when cur == dst). Both
  /// ids must be valid and dst reachable from cur — a kInvalidNode (or any
  /// out-of-range id) here is a caller bug, not a routable state, and is
  /// rejected by RLFTNOC_CHECK instead of reading out of bounds.
  Port route(NodeId cur, NodeId dst) const noexcept {
    RLFTNOC_CHECK(valid(cur) && valid(dst));
    const std::uint8_t r = route_raw(cur, dst);
    RLFTNOC_CHECK(r != kUnreachable);
    return static_cast<Port>(r);
  }

  /// True when `dst` is reachable from `cur` on the alive subgraph under
  /// the active routing policy (cur == dst counts as reachable when the
  /// router is alive).
  bool reachable(NodeId cur, NodeId dst) const noexcept {
    RLFTNOC_CHECK(valid(cur) && valid(dst));
    return route_raw(cur, dst) != kUnreachable;
  }

 private:
  void build_structure();

  RoutingAlgorithm routing_;
  bool x_first_;  ///< dimension order of dor_route for routing_ (yx: false)
  int dead_links_ = 0;
  int dead_routers_ = 0;
  std::vector<NodeId> nbr_;              ///< [n * kNumPorts + p] structural
  std::vector<std::uint8_t> link_alive_; ///< [n * kNumPorts + p]
  std::vector<std::uint8_t> router_alive_;  ///< [n]
  std::vector<Coord> xy_;                ///< [n] -> (x, y)
  /// [cx * width + dx] -> port_index toward column dx (kLocal when equal);
  /// W^2 bytes, 4 KiB for a 64-wide mesh.
  std::vector<std::uint8_t> x_port_;
  /// [cy * height + dy] -> port_index toward row dy; H^2 bytes.
  std::vector<std::uint8_t> y_port_;
  /// [cur * num_nodes + dst] -> port_index or kUnreachable, 1 byte per pair
  /// (16 MiB for a 64x64 mesh). Empty for fault-free dimension-ordered
  /// routing; see rebuild_routes().
  std::vector<std::uint8_t> pair_route_;
};

}  // namespace rlftnoc
