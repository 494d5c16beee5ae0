// Hard (permanent) faults: spec parsing, fault-adaptive route rebuild,
// audited end-to-end runs over dead links/routers, and the determinism
// contract (bit-identical results for any sim_threads) under mid-run kills.
#include "fault/hard_faults.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "noc/network.h"
#include "noc/topology.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

// ---------------------------------------------------------------- parsing

TEST(ParseHardFaults, EmptyYieldsEmpty) {
  EXPECT_TRUE(parse_hard_faults("").empty());
  EXPECT_TRUE(parse_hard_faults("  , ,, ").empty());
}

TEST(ParseHardFaults, LinkAndRouterItems) {
  const auto v = parse_hard_faults("link:5:E, router:12, link:0:n@300");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].kind, HardFault::Kind::kLink);
  EXPECT_EQ(v[0].node, 5);
  EXPECT_EQ(v[0].port, Port::kEast);
  EXPECT_EQ(v[0].at_cycle, 0u);
  EXPECT_EQ(v[1].kind, HardFault::Kind::kRouter);
  EXPECT_EQ(v[1].node, 12);
  EXPECT_EQ(v[2].kind, HardFault::Kind::kLink);
  EXPECT_EQ(v[2].port, Port::kNorth);  // case-insensitive port
  EXPECT_EQ(v[2].at_cycle, 300u);
}

TEST(ParseHardFaults, SeparatorsAreCommasAndWhitespace) {
  const auto v = parse_hard_faults("link:1:N link:2:S\trouter:3@7\nlink:4:W");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[2].at_cycle, 7u);
}

TEST(ParseHardFaults, RoundTripsThroughToString) {
  const auto v = parse_hard_faults("link:9:W@123, router:4, router:0@1");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(hard_fault_to_string(v[0]), "link:9:W@123");
  EXPECT_EQ(hard_fault_to_string(v[1]), "router:4");
  EXPECT_EQ(hard_fault_to_string(v[2]), "router:0@1");
  for (const HardFault& f : v) {
    const auto again = parse_hard_faults(hard_fault_to_string(f));
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0], f);
  }
}

TEST(ParseHardFaults, MalformedSpecsThrow) {
  EXPECT_THROW(parse_hard_faults("link"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("link:3"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("link:3:Q"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("link:x:N"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("link:3:N@"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("link:3:N@x"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("router:1:N"), std::invalid_argument);
  EXPECT_THROW(parse_hard_faults("node:3"), std::invalid_argument);
}

// ------------------------------------------------------------ LUT rebuild

/// Walks the topology's routes from src to dst; returns hops or -1 on a severed or
/// cyclic walk. `banned` (node, port) must never be traversed.
int walk_route(const Topology& t, NodeId src, NodeId dst, NodeId banned_node,
               Port banned_port) {
  NodeId cur = src;
  int hops = 0;
  while (cur != dst) {
    if (!t.reachable(cur, dst)) return -1;
    const Port p = t.route(cur, dst);
    if (p == Port::kLocal) return -1;
    if ((cur == banned_node && p == banned_port) ||
        (t.neighbor(cur, p) == banned_node && opposite(p) == banned_port))
      return -1;  // crossed the dead wire
    cur = t.neighbor(cur, p);
    if (cur == kInvalidNode || ++hops > t.num_nodes()) return -1;
  }
  return hops;
}

TEST(AdaptiveRouting, FaultFreeMeshIsMinimal) {
  const Topology t(TopologyKind::kMesh, 6, 6, RoutingAlgorithm::kAdaptive);
  for (NodeId src = 0; src < t.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      ASSERT_EQ(walk_route(t, src, dst, kInvalidNode, Port::kLocal),
                t.distance(src, dst));
    }
  }
}

TEST(AdaptiveRouting, RebuildRoutesAroundDeadLink) {
  Topology t(TopologyKind::kMesh, 6, 6, RoutingAlgorithm::kAdaptive);
  const NodeId a = t.node(2, 2);
  ASSERT_TRUE(t.kill_link(a, Port::kEast));
  t.rebuild_routes();
  // Every pair stays connected (a mesh minus one link is still connected)
  // and no route crosses the dead wire.
  for (NodeId src = 0; src < t.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      ASSERT_GE(walk_route(t, src, dst, a, Port::kEast), 0)
          << "severed " << src << " -> " << dst;
    }
  }
}

TEST(AdaptiveRouting, DeadRouterBecomesUnreachable) {
  Topology t(TopologyKind::kTorus, 4, 4, RoutingAlgorithm::kAdaptive);
  ASSERT_TRUE(t.kill_router(9));
  t.rebuild_routes();
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    if (n == 9) continue;
    EXPECT_FALSE(t.reachable(n, 9));
    EXPECT_FALSE(t.reachable(9, n));
    for (NodeId m = 0; m < t.num_nodes(); ++m) {
      if (m == 9 || n == 9) continue;
      EXPECT_TRUE(t.reachable(n, m));  // survivors stay fully connected
    }
  }
}

TEST(DorRouting, SeveredXyPairsAreUnreachableNotMisrouted) {
  // xy is single-path: a pair whose dimension-ordered route crosses the
  // dead link is marked unreachable (the NI refuses such packets) instead
  // of being silently misrouted.
  Topology t(TopologyKind::kMesh, 4, 4, RoutingAlgorithm::kXY);
  ASSERT_TRUE(t.kill_link(t.node(1, 1), Port::kEast));
  t.rebuild_routes();
  // (0,1) -> (3,1) goes East along y=1 straight through the dead wire.
  EXPECT_FALSE(t.reachable(t.node(0, 1), t.node(3, 1)));
  // (1,0) -> (1,3) never touches it.
  EXPECT_TRUE(t.reachable(t.node(1, 0), t.node(1, 3)));
  ASSERT_GT(walk_route(t, t.node(1, 0), t.node(1, 3), t.node(1, 1),
                       Port::kEast),
            0);
}

/// Dimension-ordered (x first) path from src to dst on the fault-free
/// structure, derived from coordinates: the first entry is src, the last
/// dst.
std::vector<NodeId> reference_xy_path(const Topology& t, NodeId src,
                                      NodeId dst) {
  const bool torus = t.kind() == TopologyKind::kTorus;
  const auto step = [torus](int c, int d, int size) {
    if (!torus) return c < d ? 1 : -1;
    const int forward = ((d - c) % size + size) % size;
    return forward <= size - forward ? 1 : -1;
  };
  std::vector<NodeId> path{src};
  int x = src % t.width(), y = src / t.width();
  const int dx = dst % t.width(), dy = dst / t.width();
  while (x != dx) {
    x = (x + step(x, dx, t.width()) + t.width()) % t.width();
    path.push_back(t.node(x, y));
  }
  while (y != dy) {
    y = (y + step(y, dy, t.height()) + t.height()) % t.height();
    path.push_back(t.node(x, y));
  }
  return path;
}

/// The port from `a` to its structural neighbour `b`.
Port port_toward(const Topology& t, NodeId a, NodeId b) {
  for (const Port p : kAllPorts)
    if (p != Port::kLocal && t.neighbor(a, p) == b) return p;
  return Port::kLocal;
}

TEST(DorRouting, FaultedXyMatchesReferenceExceptSeveredPairs) {
  for (const TopologyKind kind : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    Topology t(kind, 5, 4, RoutingAlgorithm::kXY);
    const NodeId a = t.node(2, 1);
    const NodeId b = t.neighbor(a, Port::kEast);
    ASSERT_TRUE(t.kill_link(a, Port::kEast));
    // Routes change only at a rebuild: until then the killed link is still
    // on the fault-free routes.
    for (NodeId src = 0; src < t.num_nodes(); ++src)
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst)
        ASSERT_TRUE(t.reachable(src, dst));
    t.rebuild_routes();

    int severed = 0;
    for (NodeId src = 0; src < t.num_nodes(); ++src) {
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
        const std::vector<NodeId> path = reference_xy_path(t, src, dst);
        bool crosses = false;
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          crosses |= (path[i] == a && path[i + 1] == b) ||
                     (path[i] == b && path[i + 1] == a);
        severed += crosses ? 1 : 0;
        ASSERT_EQ(t.reachable(src, dst), !crosses) << src << " -> " << dst;
        if (crosses) continue;
        const Port expected = path.size() > 1
                                  ? port_toward(t, src, path[1])
                                  : Port::kLocal;
        ASSERT_EQ(t.route(src, dst), expected) << src << " -> " << dst;
      }
    }
    EXPECT_GT(severed, 0);

    // A moved-to Topology keeps the fault masks and the faulted routes.
    std::vector<std::uint8_t> routes;
    for (NodeId src = 0; src < t.num_nodes(); ++src)
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst)
        routes.push_back(t.route_raw(src, dst));
    const Topology moved = std::move(t);
    EXPECT_FALSE(moved.link_alive(a, Port::kEast));
    EXPECT_EQ(moved.num_dead_links(), 1);
    std::size_t k = 0;
    for (NodeId src = 0; src < moved.num_nodes(); ++src)
      for (NodeId dst = 0; dst < moved.num_nodes(); ++dst)
        ASSERT_EQ(moved.route_raw(src, dst), routes[k++]) << src << " -> " << dst;
  }
}

// -------------------------------------------------- network-level checks

TEST(HardFaults, ScheduleValidatesSpecs) {
  NocConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  {
    Network net(cfg, 1);
    // Edge of the mesh: node 3 has no East link.
    EXPECT_THROW(net.schedule_hard_faults(parse_hard_faults("link:3:E")),
                 std::invalid_argument);
    EXPECT_THROW(net.schedule_hard_faults(parse_hard_faults("router:16")),
                 std::invalid_argument);
  }
  {
    NocConfig wf = cfg;
    wf.routing = RoutingAlgorithm::kWestFirst;
    Network net(wf, 1);
    EXPECT_THROW(net.schedule_hard_faults(parse_hard_faults("link:5:E")),
                 std::invalid_argument);
  }
}

SimOptions faulted_options(const char* spec, std::uint64_t seed = 5) {
  SimOptions opt;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.seed = seed;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  opt.audit = true;
  opt.audit_interval = 4;
  opt.hard_faults = parse_hard_faults(spec);
  return opt;
}

SimResult run_uniform(const SimOptions& opt, std::uint64_t packets = 1500) {
  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.05;
  o.total_packets = packets;
  SyntheticTraffic gen(Grid(opt.noc), o, opt.seed);
  return sim.run(gen);
}

TEST(HardFaults, StaticDeadLinkOnXyMeshDrainsAudited) {
  const SimOptions opt = faulted_options("link:5:E");
  const SimResult r = run_uniform(opt);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_EQ(r.packets_delivered, r.packets_injected);
  // xy severs some pairs: those packets are refused at the source.
  EXPECT_GT(r.unreachable_drops, 0u);
}

TEST(HardFaults, StaticDeadLinksOnAdaptiveTorusDeliverEverything) {
  SimOptions opt = faulted_options("link:5:E, link:10:N, link:0:W");
  opt.noc.topology = TopologyKind::kTorus;
  opt.noc.routing = RoutingAlgorithm::kAdaptive;
  const SimResult r = run_uniform(opt);
  EXPECT_TRUE(r.drained);
  // Adaptive routing keeps the torus connected: nothing is refused.
  EXPECT_EQ(r.unreachable_drops, 0u);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_EQ(r.packets_delivered, r.packets_injected);
}

TEST(HardFaults, StaticDeadRouterDrainsAudited) {
  SimOptions opt = faulted_options("router:6");
  opt.noc.routing = RoutingAlgorithm::kAdaptive;
  const SimResult r = run_uniform(opt);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_EQ(r.packets_delivered, r.packets_injected);
  // Traffic to/from the dead router is refused at generation time.
  EXPECT_GT(r.unreachable_drops, 0u);
}

// ---------------------------------------------------------- determinism

bool same_result(const SimResult& a, const SimResult& b) {
  return a.execution_cycles == b.execution_cycles &&
         a.total_cycles == b.total_cycles && a.drained == b.drained &&
         a.packets_injected == b.packets_injected &&
         a.packets_delivered == b.packets_delivered &&
         a.flits_delivered == b.flits_delivered &&
         a.enqueue_drops == b.enqueue_drops &&
         a.unreachable_drops == b.unreachable_drops &&
         a.retransmitted_flits == b.retransmitted_flits &&
         a.retx_flits_e2e == b.retx_flits_e2e &&
         a.retx_flits_hop == b.retx_flits_hop &&
         a.avg_packet_latency == b.avg_packet_latency &&
         a.p99_latency == b.p99_latency;
}

TEST(HardFaults, MidRunKillsAreBitIdenticalAcrossSimThreads) {
  // Link kill at cycle 400 and a router kill at 900, both mid-traffic on an
  // adaptive torus; teardown + reroute + e2e repair must land identically
  // for every thread count.
  SimOptions opt = faulted_options("link:5:E@400, router:10@900", 7);
  opt.noc.topology = TopologyKind::kTorus;
  opt.noc.routing = RoutingAlgorithm::kAdaptive;
  SimResult serial;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SimOptions o = opt;
    o.sim_threads = threads;
    const SimResult r = run_uniform(o, 2000);
    EXPECT_TRUE(r.drained);
    EXPECT_GT(r.packets_delivered, 0u);
    if (threads == 1u) {
      serial = r;
    } else {
      EXPECT_TRUE(same_result(serial, r)) << "sim_threads=" << threads;
    }
  }
}

TEST(HardFaults, MidRunKillOnXyMeshIsBitIdentical) {
  // Dimension-ordered routing takes the purge-heavy path (severed pairs,
  // e2e abandonment); cover it across thread counts too.
  const SimOptions opt = faulted_options("link:9:N@500", 13);
  SimResult serial;
  for (const unsigned threads : {1u, 4u}) {
    SimOptions o = opt;
    o.sim_threads = threads;
    const SimResult r = run_uniform(o, 2000);
    EXPECT_TRUE(r.drained);
    if (threads == 1u) {
      serial = r;
    } else {
      EXPECT_TRUE(same_result(serial, r)) << "sim_threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace rlftnoc
