#include "noc/topology.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

namespace rlftnoc {
namespace {

// Route tables have one owner: a Topology can be moved, never copied.
static_assert(!std::is_copy_constructible_v<Topology>);
static_assert(!std::is_copy_assignable_v<Topology>);

/// A fault-free W x H mesh with xy routes.
Topology xy_mesh(int w, int h) {
  return Topology(TopologyKind::kMesh, w, h, RoutingAlgorithm::kXY);
}

TEST(Topology, CoordNodeRoundTrip) {
  const Grid t(TopologyKind::kMesh, 8, 8);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.node(t.coord(n)), n);
  }
}

TEST(Topology, CoordLayoutRowMajor) {
  const Grid t(TopologyKind::kMesh, 4, 3);
  EXPECT_EQ(t.node(0, 0), 0);
  EXPECT_EQ(t.node(3, 0), 3);
  EXPECT_EQ(t.node(0, 1), 4);
  EXPECT_EQ(t.node(3, 2), 11);
  EXPECT_EQ(t.num_nodes(), 12);
}

TEST(Topology, NeighborsInterior) {
  const Topology t = xy_mesh(4, 4);
  const NodeId n = t.node(1, 1);  // 5
  EXPECT_EQ(t.neighbor(n, Port::kNorth), t.node(1, 2));
  EXPECT_EQ(t.neighbor(n, Port::kSouth), t.node(1, 0));
  EXPECT_EQ(t.neighbor(n, Port::kEast), t.node(2, 1));
  EXPECT_EQ(t.neighbor(n, Port::kWest), t.node(0, 1));
  EXPECT_EQ(t.neighbor(n, Port::kLocal), kInvalidNode);
}

TEST(Topology, NeighborsAtEdges) {
  const Topology t = xy_mesh(4, 4);
  EXPECT_EQ(t.neighbor(t.node(0, 0), Port::kWest), kInvalidNode);
  EXPECT_EQ(t.neighbor(t.node(0, 0), Port::kSouth), kInvalidNode);
  EXPECT_EQ(t.neighbor(t.node(3, 3), Port::kEast), kInvalidNode);
  EXPECT_EQ(t.neighbor(t.node(3, 3), Port::kNorth), kInvalidNode);
}

TEST(Topology, NeighborSymmetry) {
  const Topology t = xy_mesh(5, 3);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (const Port p : kAllPorts) {
      if (p == Port::kLocal) continue;
      const NodeId nb = t.neighbor(n, p);
      if (nb != kInvalidNode) {
        EXPECT_EQ(t.neighbor(nb, opposite(p)), n);
      }
    }
  }
}

TEST(Topology, DistanceProperties) {
  const Grid t(TopologyKind::kMesh, 8, 8);
  EXPECT_EQ(t.distance(0, 0), 0);
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(7, 7)), 14);
  EXPECT_EQ(t.distance(3, 12), t.distance(12, 3));  // symmetric
}

TEST(Topology, RouteToSelfIsLocal) {
  const Topology t = xy_mesh(4, 4);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.route(n, n), Port::kLocal);
  }
}

TEST(Topology, XyRoutesXFirst) {
  const Topology t = xy_mesh(4, 4);
  // From (0,0) to (2,3): must go East until x matches.
  EXPECT_EQ(t.route(t.node(0, 0), t.node(2, 3)), Port::kEast);
  EXPECT_EQ(t.route(t.node(2, 0), t.node(2, 3)), Port::kNorth);
  EXPECT_EQ(t.route(t.node(3, 3), t.node(2, 3)), Port::kWest);
  EXPECT_EQ(t.route(t.node(2, 3), t.node(2, 1)), Port::kSouth);
}

/// Property sweep: following route() from any source reaches any
/// destination in exactly Manhattan-distance hops (minimal + deadlock-free).
class XyRouteSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(XyRouteSweep, ReachesDestinationMinimally) {
  const auto [w, h] = GetParam();
  const Topology t = xy_mesh(w, h);
  for (NodeId src = 0; src < t.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      NodeId cur = src;
      int hops = 0;
      while (cur != dst) {
        const Port p = t.route(cur, dst);
        ASSERT_NE(p, Port::kLocal);
        cur = t.neighbor(cur, p);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++hops, t.distance(src, dst));
      }
      EXPECT_EQ(hops, t.distance(src, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, XyRouteSweep,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(5, 3)));

TEST(Topology, DegenerateDimensionsThrow) {
  EXPECT_THROW(Grid(TopologyKind::kMesh, 0, 4), std::invalid_argument);
  EXPECT_THROW(Grid(TopologyKind::kMesh, 4, 0), std::invalid_argument);
  EXPECT_THROW(Grid(TopologyKind::kMesh, -1, 4), std::invalid_argument);
  EXPECT_THROW(Grid(TopologyKind::kMesh, 4, -3), std::invalid_argument);
  // A torus needs both dimensions >= 2: wrap links would otherwise
  // self-loop (neighbor(n, E) == n on a 1-wide ring).
  EXPECT_THROW(Grid(TopologyKind::kTorus, 1, 4), std::invalid_argument);
  EXPECT_THROW(Grid(TopologyKind::kTorus, 4, 1), std::invalid_argument);
  // Topology validates through Grid before building any table.
  EXPECT_THROW(
      Topology(TopologyKind::kTorus, 1, 4, RoutingAlgorithm::kAdaptive),
      std::invalid_argument);
  EXPECT_NO_THROW(Grid(TopologyKind::kMesh, 1, 1));  // a single-node mesh is legal
  EXPECT_NO_THROW(
      Topology(TopologyKind::kTorus, 2, 2, RoutingAlgorithm::kAdaptive));
}

TEST(Topology, TorusWrapNeighbors) {
  const Topology t(TopologyKind::kTorus, 4, 3, RoutingAlgorithm::kXY);
  EXPECT_EQ(t.neighbor(t.node(0, 0), Port::kWest), t.node(3, 0));
  EXPECT_EQ(t.neighbor(t.node(3, 0), Port::kEast), t.node(0, 0));
  EXPECT_EQ(t.neighbor(t.node(1, 0), Port::kSouth), t.node(1, 2));
  EXPECT_EQ(t.neighbor(t.node(1, 2), Port::kNorth), t.node(1, 0));
  // Wrap-link detection marks exactly the dateline crossings.
  const Grid g(TopologyKind::kTorus, 4, 3);
  EXPECT_TRUE(g.wrap_link(g.node(3, 0), Port::kEast));
  EXPECT_TRUE(g.wrap_link(g.node(0, 0), Port::kWest));
  EXPECT_TRUE(g.wrap_link(g.node(1, 2), Port::kNorth));
  EXPECT_TRUE(g.wrap_link(g.node(1, 0), Port::kSouth));
  EXPECT_FALSE(g.wrap_link(g.node(1, 1), Port::kEast));
  EXPECT_FALSE(g.wrap_link(g.node(0, 0), Port::kLocal));
}

TEST(Topology, MeshHasNoWrapLinks) {
  const Grid t(TopologyKind::kMesh, 4, 4);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (const Port p : kAllPorts) EXPECT_FALSE(t.wrap_link(n, p));
  }
}

TEST(Topology, TorusDistanceUsesWrap) {
  const Grid t(TopologyKind::kTorus, 8, 8);
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(7, 0)), 1);  // wrap W
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(0, 7)), 1);  // wrap S
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(4, 4)), 8);  // both ways tie
  EXPECT_EQ(t.distance(t.node(1, 1), t.node(6, 6)), 6);  // wrap both dims
}

/// Torus route sweep: dimension-ordered routing over wrap links still
/// reaches every destination in exactly the (wrap-aware) minimal hops.
class TorusRouteSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TorusRouteSweep, ReachesDestinationMinimally) {
  const auto [w, h] = GetParam();
  const Topology t(TopologyKind::kTorus, w, h, RoutingAlgorithm::kXY);
  for (NodeId src = 0; src < t.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      NodeId cur = src;
      int hops = 0;
      while (cur != dst) {
        const Port p = t.route(cur, dst);
        ASSERT_NE(p, Port::kLocal);
        cur = t.neighbor(cur, p);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++hops, t.distance(src, dst));
      }
      EXPECT_EQ(hops, t.distance(src, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TorusSizes, TorusRouteSweep,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(5, 3)));

/// Coordinate reference for dimension-ordered routing, written from the
/// definition rather than from the topology's tables: move along the first
/// dimension (in order) whose coordinate differs; on a torus take the ring
/// direction with fewer hops, ties going East/North.
Port reference_dor(const Grid& t, NodeId cur, NodeId dst, bool x_first) {
  const bool torus = t.kind() == TopologyKind::kTorus;
  const auto step = [torus](int c, int d, int size, Port up, Port down) {
    if (!torus) return c < d ? up : down;
    const int forward = ((d - c) % size + size) % size;
    return forward <= size - forward ? up : down;
  };
  const int cx = cur % t.width(), cy = cur / t.width();
  const int dx = dst % t.width(), dy = dst / t.width();
  const bool move_x = cx != dx && (x_first || cy == dy);
  const bool move_y = cy != dy && (!x_first || cx == dx);
  if (move_x) return step(cx, dx, t.width(), Port::kEast, Port::kWest);
  if (move_y) return step(cy, dy, t.height(), Port::kNorth, Port::kSouth);
  return Port::kLocal;
}

/// Every (kind, algorithm) pair of one shape that the constructor accepts:
/// xy and yx on mesh and torus, west-first on the mesh only (a torus needs
/// both dimensions >= 2).
std::vector<Topology> dor_topologies(int w, int h) {
  std::vector<Topology> out;
  for (const TopologyKind kind : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    if (kind == TopologyKind::kTorus && (w < 2 || h < 2)) continue;
    for (const RoutingAlgorithm alg :
         {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
          RoutingAlgorithm::kWestFirst}) {
      if (kind == TopologyKind::kTorus && alg == RoutingAlgorithm::kWestFirst)
        continue;
      out.emplace_back(kind, w, h, alg);
    }
  }
  return out;
}

/// route_raw() of a fault-free dimension-ordered topology matches the
/// coordinate reference for every pair.
class DorRouteReference
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DorRouteReference, EveryPairMatchesCoordinateReference) {
  const auto [w, h] = GetParam();
  for (const Topology& t : dor_topologies(w, h)) {
    const bool x_first = t.routing() != RoutingAlgorithm::kYX;
    for (NodeId cur = 0; cur < t.num_nodes(); ++cur) {
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
        ASSERT_EQ(t.route_raw(cur, dst),
                  port_index(reference_dor(t, cur, dst, x_first)))
            << (t.kind() == TopologyKind::kTorus ? "torus " : "mesh ") << w
            << "x" << h << " routing " << static_cast<int>(t.routing())
            << " " << cur << " -> " << dst;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DorRouteReference,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(1, 6),
                                           std::make_tuple(6, 1),
                                           std::make_tuple(2, 2),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(7, 5)));

TEST(Topology, FaultFree256MeshRoutesWithoutPairTable) {
  // A per-pair table would be 4 GiB here; the per-dimension tables are
  // 128 KiB, so construction is cheap and every pair is still answered.
  const Topology t = xy_mesh(256, 256);
  const std::array<std::tuple<int, int, int, int>, 6> pairs = {{
      {0, 0, 255, 255}, {255, 255, 0, 0}, {17, 200, 17, 3},
      {128, 5, 9, 5}, {40, 40, 40, 40}, {255, 0, 0, 255}}};
  for (const auto& [sx, sy, dx, dy] : pairs) {
    const NodeId src = t.node(sx, sy);
    const NodeId dst = t.node(dx, dy);
    EXPECT_EQ(t.route(src, dst), reference_dor(t, src, dst, true));
    NodeId cur = src;
    int hops = 0;
    while (cur != dst) {
      cur = t.neighbor(cur, t.route(cur, dst));
      ASSERT_NE(cur, kInvalidNode);
      ASSERT_LE(++hops, t.distance(src, dst));
    }
    EXPECT_EQ(hops, t.distance(src, dst));
  }
}

#if RLFTNOC_CHECK_ENABLED
using TopologyDeathTest = ::testing::Test;

TEST(TopologyDeathTest, RouteRejectsOutOfRangeNodes) {
  // Out-of-range ids (including kInvalidNode) are a caller bug: route()
  // must refuse loudly instead of indexing a route table out of bounds.
  const Topology t = xy_mesh(4, 4);
  EXPECT_DEATH(t.route(kInvalidNode, 0), "RLFTNOC_CHECK failed");
  EXPECT_DEATH(t.route(0, t.num_nodes()), "RLFTNOC_CHECK failed");
  EXPECT_DEATH(t.route(-2, 3), "RLFTNOC_CHECK failed");
}

TEST(TopologyDeathTest, RouteRejectsUnreachableDestination) {
  Topology t(TopologyKind::kTorus, 4, 4, RoutingAlgorithm::kAdaptive);
  ASSERT_TRUE(t.kill_router(5));
  t.rebuild_routes();
  EXPECT_DEATH(t.route(0, 5), "RLFTNOC_CHECK failed");
  EXPECT_FALSE(t.reachable(0, 5));  // the checked query for this case
}
#endif

TEST(Topology, PortHelpers) {
  EXPECT_EQ(opposite(Port::kNorth), Port::kSouth);
  EXPECT_EQ(opposite(Port::kEast), Port::kWest);
  EXPECT_EQ(opposite(opposite(Port::kWest)), Port::kWest);
  EXPECT_EQ(opposite(Port::kLocal), Port::kLocal);
  EXPECT_STREQ(port_name(Port::kNorth), "N");
  EXPECT_STREQ(port_name(Port::kLocal), "L");
  EXPECT_EQ(port_index(Port::kLocal), 4u);
}

}  // namespace
}  // namespace rlftnoc
