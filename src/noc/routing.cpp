// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#include "noc/routing.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rlftnoc {
namespace {

constexpr int kInf = 1 << 29;

/// Fault-free: leaves `lut` empty, so the topology routes every pair from
/// its per-dimension tables. Faulted: fills `lut` with the same structural
/// dimension-ordered port, then invalidates every entry whose
/// (deterministic, single-path) route crosses a dead link or dead router.
/// Reachability of each node toward a fixed dst is memoized, so the
/// post-pass is O(nodes) per destination.
void build_dor_lut(const Topology& t, std::vector<std::uint8_t>& lut,
                   bool x_first) {
  if (!t.has_faults()) {
    lut.clear();
    return;
  }
  const int n = t.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  lut.resize(nn * nn);
  for (NodeId cur = 0; cur < n; ++cur) {
    std::uint8_t* row = lut.data() + static_cast<std::size_t>(cur) * nn;
    for (NodeId dst = 0; dst < n; ++dst)
      row[dst] = t.dor_route(cur, dst, x_first);
  }

  // 0 = unknown, 1 = route intact, 2 = route severed.
  std::vector<std::uint8_t> status(nn);
  std::vector<NodeId> path;
  for (NodeId dst = 0; dst < n; ++dst) {
    std::fill(status.begin(), status.end(), std::uint8_t{0});
    const bool dst_ok = t.router_alive(dst);
    status[static_cast<std::size_t>(dst)] = dst_ok ? 1 : 2;
    for (NodeId cur = 0; cur < n; ++cur) {
      if (status[static_cast<std::size_t>(cur)] != 0) continue;
      path.clear();
      NodeId u = cur;
      std::uint8_t verdict = 2;
      while (status[static_cast<std::size_t>(u)] == 0) {
        path.push_back(u);
        status[static_cast<std::size_t>(u)] = 2;  // breaks would-be cycles
        if (!t.router_alive(u)) break;
        const auto p = static_cast<Port>(
            lut[static_cast<std::size_t>(u) * nn + static_cast<std::size_t>(dst)]);
        if (!t.link_alive(u, p)) break;
        u = t.neighbor(u, p);
      }
      if (status[static_cast<std::size_t>(u)] == 1) verdict = 1;
      for (const NodeId v : path) status[static_cast<std::size_t>(v)] = verdict;
    }
    for (NodeId cur = 0; cur < n; ++cur) {
      if (status[static_cast<std::size_t>(cur)] != 1)
        lut[static_cast<std::size_t>(cur) * nn + static_cast<std::size_t>(dst)] =
            Topology::kUnreachable;
    }
  }
}

/// Fault-adaptive up*/down* (see the deadlock-freedom argument in the
/// header). Rank = (BFS level from the component's minimum-id alive router,
/// node id); an edge toward smaller rank is "up". Routes follow the
/// committed-down rule: a node with an intact all-down path to dst takes
/// its shortest one; otherwise it climbs the up edge that minimizes the
/// remaining legal (up* then down*) distance.
void build_updown_lut(const Topology& t, std::vector<std::uint8_t>& lut) {
  const int n = t.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  lut.assign(nn * nn, Topology::kUnreachable);

  // Components + BFS levels from each component's minimum alive id.
  std::vector<int> level(nn, -1);
  std::vector<int> comp(nn, -1);
  std::vector<NodeId> queue;
  queue.reserve(nn);
  int ncomp = 0;
  for (NodeId r = 0; r < n; ++r) {
    if (!t.router_alive(r) || comp[static_cast<std::size_t>(r)] != -1)
      continue;
    comp[static_cast<std::size_t>(r)] = ncomp;
    level[static_cast<std::size_t>(r)] = 0;
    queue.assign(1, r);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const Port p : kAllPorts) {
        if (p == Port::kLocal || !t.link_alive(u, p)) continue;
        const NodeId v = t.neighbor(u, p);
        if (comp[static_cast<std::size_t>(v)] != -1) continue;
        comp[static_cast<std::size_t>(v)] = ncomp;
        level[static_cast<std::size_t>(v)] =
            level[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
    ++ncomp;
  }

  // Edge u -> v is "down" when it moves away from the root in rank order.
  const auto is_down = [&](NodeId u, NodeId v) {
    const int lu = level[static_cast<std::size_t>(u)];
    const int lv = level[static_cast<std::size_t>(v)];
    return lv > lu || (lv == lu && v > u);
  };

  // Alive nodes in ascending rank: a topological order of the up-DAG
  // (every up edge points to an earlier entry).
  std::vector<NodeId> ranked;
  ranked.reserve(nn);
  for (NodeId u = 0; u < n; ++u)
    if (t.router_alive(u)) ranked.push_back(u);
  std::sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
    return std::make_pair(level[static_cast<std::size_t>(a)], a) <
           std::make_pair(level[static_cast<std::size_t>(b)], b);
  });

  std::vector<int> dd(nn);   // all-down distance to dst (kInf if none)
  std::vector<int> dup(nn);  // shortest legal up*-then-down* distance
  for (NodeId dst = 0; dst < n; ++dst) {
    if (!t.router_alive(dst)) continue;
    const int cdst = comp[static_cast<std::size_t>(dst)];

    // Reverse BFS over down edges: dd[u] counts the hops of u's shortest
    // all-down path to dst (unit weights, so BFS order is shortest).
    std::fill(dd.begin(), dd.end(), kInf);
    dd[static_cast<std::size_t>(dst)] = 0;
    queue.assign(1, dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (const Port p : kAllPorts) {
        if (p == Port::kLocal || !t.link_alive(v, p)) continue;
        const NodeId u = t.neighbor(v, p);
        if (dd[static_cast<std::size_t>(u)] != kInf || !is_down(u, v))
          continue;
        dd[static_cast<std::size_t>(u)] = dd[static_cast<std::size_t>(v)] + 1;
        queue.push_back(u);
      }
    }

    // DP in rank order: dup[u] = min(dd[u], 1 + dup[up-neighbor]); every
    // up edge leads to an already-finalized entry.
    std::fill(dup.begin(), dup.end(), kInf);
    for (const NodeId u : ranked) {
      if (comp[static_cast<std::size_t>(u)] != cdst) continue;
      int best = dd[static_cast<std::size_t>(u)];
      for (const Port p : kAllPorts) {
        if (p == Port::kLocal || !t.link_alive(u, p)) continue;
        const NodeId m = t.neighbor(u, p);
        if (is_down(u, m)) continue;
        const int via = dup[static_cast<std::size_t>(m)];
        if (via < kInf && via + 1 < best) best = via + 1;
      }
      dup[static_cast<std::size_t>(u)] = best;
    }

    for (NodeId cur = 0; cur < n; ++cur) {
      if (comp[static_cast<std::size_t>(cur)] != cdst) continue;
      std::uint8_t& entry =
          lut[static_cast<std::size_t>(cur) * nn + static_cast<std::size_t>(dst)];
      if (cur == dst) {
        entry = static_cast<std::uint8_t>(port_index(Port::kLocal));
        continue;
      }
      if (dd[static_cast<std::size_t>(cur)] < kInf) {
        // Committed down: continue the shortest all-down path (first
        // matching port wins — deterministic tie-break).
        for (const Port p : kAllPorts) {
          if (p == Port::kLocal || !t.link_alive(cur, p)) continue;
          const NodeId m = t.neighbor(cur, p);
          if (is_down(cur, m) && dd[static_cast<std::size_t>(m)] ==
                                     dd[static_cast<std::size_t>(cur)] - 1) {
            entry = static_cast<std::uint8_t>(port_index(p));
            break;
          }
        }
      } else if (dup[static_cast<std::size_t>(cur)] < kInf) {
        for (const Port p : kAllPorts) {
          if (p == Port::kLocal || !t.link_alive(cur, p)) continue;
          const NodeId m = t.neighbor(cur, p);
          if (!is_down(cur, m) && dup[static_cast<std::size_t>(m)] + 1 ==
                                      dup[static_cast<std::size_t>(cur)]) {
            entry = static_cast<std::uint8_t>(port_index(p));
            break;
          }
        }
      }
    }
  }
}

}  // namespace

void build_route_table(const Topology& topo, std::vector<std::uint8_t>& lut) {
  switch (topo.routing()) {
    // West-first keeps xy routes for credit walks; route_candidates
    // computes its adaptive candidates.
    case RoutingAlgorithm::kXY:
    case RoutingAlgorithm::kWestFirst:
      build_dor_lut(topo, lut, /*x_first=*/true);
      return;
    case RoutingAlgorithm::kYX:
      build_dor_lut(topo, lut, /*x_first=*/false);
      return;
    case RoutingAlgorithm::kAdaptive:
      build_updown_lut(topo, lut);
      return;
  }
}

RoutingAlgorithm routing_from_name(const std::string& name) {
  if (name == "xy") return RoutingAlgorithm::kXY;
  if (name == "yx") return RoutingAlgorithm::kYX;
  if (name == "westfirst") return RoutingAlgorithm::kWestFirst;
  if (name == "adaptive") return RoutingAlgorithm::kAdaptive;
  throw std::invalid_argument("unknown routing algorithm: " + name);
}

int route_candidates(const Topology& topo, NodeId cur, NodeId dst,
                     std::array<Port, 2>& candidates) {
  if (topo.routing() == RoutingAlgorithm::kWestFirst) {
    // Turn model: all westward movement happens first (no turn into West
    // is ever taken later), which breaks the cyclic channel dependencies.
    // Mesh-only and fault-free (enforced at configuration time), so the
    // structural coordinate compare is exact.
    const Coord c = topo.coord(cur);
    const Coord d = topo.coord(dst);
    if (c == d) {
      candidates[0] = Port::kLocal;
      return 1;
    }
    if (c.x > d.x) {
      candidates[0] = Port::kWest;
      return 1;
    }
    int n = 0;
    if (c.x < d.x) candidates[n++] = Port::kEast;
    if (c.y < d.y) candidates[n++] = Port::kNorth;
    if (c.y > d.y) candidates[n++] = Port::kSouth;
    // At most two minimal productive directions exist (E plus one of N/S,
    // or a single one); n is 1 or 2 here.
    return n;
  }
  // The topology's routes were built by its own policy (and reflect any
  // hard faults after a rebuild), so the committed next hop is a few loads
  // away.
  const std::uint8_t r = topo.route_raw(cur, dst);
  if (r == Topology::kUnreachable) return 0;
  candidates[0] = static_cast<Port>(r);
  return 1;
}

}  // namespace rlftnoc
