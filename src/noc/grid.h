// Geometry of the simulated NoC: a W x H mesh or torus, row-major with x
// fastest. A Grid answers coordinate, node-id, structural-distance and
// wrap-link questions and holds nothing else: no links, no fault state, no
// routes. Traffic generators and workload builders take a Grid. Route state
// lives in Topology (noc/topology.h), which extends Grid; Network builds the
// only one per run.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/types.h"
#include "noc/noc_config.h"

namespace rlftnoc {

/// Shape and coordinates of a W x H mesh or torus. A small copyable value.
class Grid {
 public:
  /// Throws std::invalid_argument on non-positive dimensions, or a torus
  /// smaller than 2x2 (wrap links would self-loop).
  Grid(TopologyKind kind, int width, int height)
      : kind_(kind), width_(width), height_(height) {
    if (width <= 0 || height <= 0)
      throw std::invalid_argument(
          "Topology: dimensions must be positive (got " +
          std::to_string(width) + "x" + std::to_string(height) + ")");
    if (kind == TopologyKind::kTorus && (width < 2 || height < 2))
      throw std::invalid_argument(
          "Topology: a torus needs width and height >= 2 (wrap links would "
          "self-loop)");
  }

  explicit Grid(const NocConfig& cfg)
      : Grid(cfg.topology, cfg.mesh_width, cfg.mesh_height) {}

  TopologyKind kind() const noexcept { return kind_; }
  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int num_nodes() const noexcept { return width_ * height_; }

  Coord coord(NodeId n) const noexcept {
    return Coord{n % width_, n / width_};
  }
  NodeId node(Coord c) const noexcept { return c.y * width_ + c.x; }
  NodeId node(int x, int y) const noexcept { return y * width_ + x; }

  bool valid(NodeId n) const noexcept { return n >= 0 && n < num_nodes(); }

  /// True when the link out of `n` through `p` is a torus wrap-around link
  /// (crosses the dateline of its dimension). Always false on a mesh.
  bool wrap_link(NodeId n, Port p) const noexcept {
    if (kind_ != TopologyKind::kTorus || p == Port::kLocal) return false;
    const Coord c = coord(n);
    switch (p) {
      case Port::kNorth: return c.y == height_ - 1;
      case Port::kSouth: return c.y == 0;
      case Port::kEast: return c.x == width_ - 1;
      case Port::kWest: return c.x == 0;
      case Port::kLocal: return false;
    }
    return false;
  }

  /// Structural minimal hop distance: Manhattan on a mesh, per-dimension
  /// min(d, size - d) on a torus. Ignores faults (used for e2e control
  /// message latency and per-hop reward normalization, where the structural
  /// estimate is the stable choice).
  int distance(NodeId a, NodeId b) const noexcept {
    const Coord ca = coord(a);
    const Coord cb = coord(b);
    int dx = std::abs(ca.x - cb.x);
    int dy = std::abs(ca.y - cb.y);
    if (kind_ == TopologyKind::kTorus) {
      dx = dx < width_ - dx ? dx : width_ - dx;
      dy = dy < height_ - dy ? dy : height_ - dy;
    }
    return dx + dy;
  }

 private:
  TopologyKind kind_;
  int width_;
  int height_;
};

}  // namespace rlftnoc
