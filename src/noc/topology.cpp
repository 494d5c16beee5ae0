#include "noc/topology.h"

#include <stdexcept>
#include <string>

#include "noc/routing.h"

namespace rlftnoc {
namespace {

/// The [c * size + d] -> port_index table of one dimension (`up` increases
/// the coordinate, `down` decreases it; kLocal when c == d). On a torus the
/// shorter ring direction wins (tie -> up, so even rings stay
/// deterministic); on a mesh a plain compare.
std::vector<std::uint8_t> dimension_table(int size, bool torus, Port up,
                                          Port down) {
  std::vector<std::uint8_t> table;
  table.reserve(static_cast<std::size_t>(size) * static_cast<std::size_t>(size));
  for (int c = 0; c < size; ++c) {
    for (int d = 0; d < size; ++d) {
      const bool go_up =
          torus ? (d - c + size) % size <= (c - d + size) % size : c < d;
      const Port p = c == d ? Port::kLocal : go_up ? up : down;
      table.push_back(static_cast<std::uint8_t>(port_index(p)));
    }
  }
  return table;
}

}  // namespace

Topology::Topology(TopologyKind kind, int width, int height,
                   RoutingAlgorithm routing)
    : kind_(kind),
      width_(width),
      height_(height),
      routing_(routing),
      x_first_(routing != RoutingAlgorithm::kYX) {
  if (width <= 0 || height <= 0)
    throw std::invalid_argument(
        "Topology: dimensions must be positive (got " + std::to_string(width) +
        "x" + std::to_string(height) + ")");
  if (kind == TopologyKind::kTorus && (width < 2 || height < 2))
    throw std::invalid_argument(
        "Topology: a torus needs width and height >= 2 (wrap links would "
        "self-loop)");
  build_structure();
  rebuild_routes();
}

void Topology::build_structure() {
  const auto n = static_cast<std::size_t>(num_nodes());
  nbr_.assign(n * kNumPorts, kInvalidNode);
  link_alive_.assign(n * kNumPorts, 0);
  router_alive_.assign(n, 1);
  xy_.resize(n);
  const bool torus = kind_ == TopologyKind::kTorus;
  x_port_ = dimension_table(width_, torus, Port::kEast, Port::kWest);
  y_port_ = dimension_table(height_, torus, Port::kNorth, Port::kSouth);
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Coord c = coord(id);
    xy_[static_cast<std::size_t>(id)] = c;
    NodeId* row = nbr_.data() + static_cast<std::size_t>(id) * kNumPorts;
    row[port_index(Port::kNorth)] =
        c.y + 1 < height_ ? node(c.x, c.y + 1) : torus ? node(c.x, 0) : kInvalidNode;
    row[port_index(Port::kSouth)] =
        c.y > 0 ? node(c.x, c.y - 1) : torus ? node(c.x, height_ - 1) : kInvalidNode;
    row[port_index(Port::kEast)] =
        c.x + 1 < width_ ? node(c.x + 1, c.y) : torus ? node(0, c.y) : kInvalidNode;
    row[port_index(Port::kWest)] =
        c.x > 0 ? node(c.x - 1, c.y) : torus ? node(width_ - 1, c.y) : kInvalidNode;
    for (const Port p : kAllPorts) {
      if (p == Port::kLocal) continue;
      // A 1-wide/1-tall mesh degenerates to a path (or a single node): the
      // missing directions simply stay kInvalidNode / dead.
      link_alive_[static_cast<std::size_t>(id) * kNumPorts + port_index(p)] =
          row[port_index(p)] != kInvalidNode ? 1 : 0;
    }
  }
}

bool Topology::kill_link(NodeId n, Port p) {
  RLFTNOC_CHECK(valid(n));
  if (p == Port::kLocal) return false;
  const std::size_t idx =
      static_cast<std::size_t>(n) * kNumPorts + port_index(p);
  if (link_alive_[idx] == 0) return false;
  const NodeId nb = nbr_[idx];
  link_alive_[idx] = 0;
  link_alive_[static_cast<std::size_t>(nb) * kNumPorts +
              port_index(opposite(p))] = 0;
  ++dead_links_;
  return true;
}

bool Topology::kill_router(NodeId n) {
  RLFTNOC_CHECK(valid(n));
  if (router_alive_[static_cast<std::size_t>(n)] == 0) return false;
  for (const Port p : kAllPorts) {
    if (p != Port::kLocal) kill_link(n, p);
  }
  router_alive_[static_cast<std::size_t>(n)] = 0;
  ++dead_routers_;
  return true;
}

void Topology::rebuild_routes() {
  routing_policy_for(routing_).build_lut(*this, pair_route_);
}

}  // namespace rlftnoc
