// NetworkAuditor contract: a faithful simulation — including one under heavy
// fault injection, where every ARQ path fires — audits clean every cycle,
// and deliberately corrupted state (phantom flits, minted credits) trips the
// matching invariant with an actionable location.
#include "noc/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/hard_faults.h"
#include "noc/network.h"
#include "noc/node_hot.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

/// Table II data packets: 4 flits.
constexpr int kPacketLen = 4;

NocConfig tiny_mesh() {
  NocConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  return cfg;
}

/// Steps `net` for up to `cycles`, auditing after every step; returns every
/// violation found (the audit stops adding new cycles once traffic drains).
std::vector<AuditViolation> step_and_audit(Network& net, NetworkAuditor& auditor,
                                           Cycle cycles) {
  std::vector<AuditViolation> all;
  for (Cycle c = 0; c < cycles; ++c) {
    net.step();
    std::vector<AuditViolation> v = auditor.run(net);
    all.insert(all.end(), v.begin(), v.end());
    if (net.drained()) break;
  }
  return all;
}

TEST(Audit, QuiescentNetworkIsClean) {
  Network net(tiny_mesh(), /*seed=*/11);
  NetworkAuditor auditor;
  EXPECT_TRUE(auditor.run(net).empty());
  EXPECT_EQ(auditor.clean_passes(), 1u);
}

TEST(Audit, FaultHeavyArqTrafficAuditsCleanEveryCycle) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/23);

  // Mode 2 exercises the whole link layer: ECC retention, NACK resends,
  // proactive duplicates and duplicate discards at the receivers.
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    net.router(n).set_mode(OpMode::kMode2);
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (net.out_channel(n, p) != nullptr)
        net.set_link_error_prob(n, p, LinkErrorProb{0.08, 0.004});
    }
  }

  Rng traffic_rng(23, "audit-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net.ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                           kPacketLen, 0,
                                           net.payload_rng()));
  }

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations =
      step_and_audit(net, auditor, 20000);
  for (const AuditViolation& v : violations) ADD_FAILURE() << v.to_string();
  EXPECT_TRUE(net.drained());
  EXPECT_GT(auditor.clean_passes(), 0u);

  // The run must actually have exercised the ARQ machinery to mean anything.
  std::uint64_t dups = 0;
  std::uint64_t discards = 0;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    dups += net.router(n).counters().preretx_duplicates;
    discards += net.router(n).counters().dup_discards;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_GT(discards, 0u);
}

TEST(Audit, DroopAccountingBalancesOnEveryLiveInjector) {
  // Every link injector must satisfy droop_traversals + droop_left ==
  // total_droops * droop_len at all times (the burst counter covers exactly
  // its burst, counting the starter traversal). Drive real traffic, then
  // sweep every live link's injector through Network::link_injector.
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/29);
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (net.out_channel(n, p) != nullptr)
        net.set_link_error_prob(n, p, LinkErrorProb{0.05, 0.002});
    }
  }
  Rng traffic_rng(29, "droop-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 80; ++i) {
    const auto src = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net.ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                           kPacketLen, 0,
                                           net.payload_rng()));
  }
  for (int i = 0; i < 20000 && !net.drained(); ++i) net.step();
  ASSERT_TRUE(net.drained());

  std::uint64_t droops = 0;
  int injectors = 0;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      const LinkFaultInjector* inj = net.link_injector(n, p);
      if (inj == nullptr) continue;
      ++injectors;
      EXPECT_TRUE(inj->droop_accounting_consistent())
          << "node " << n << " port " << port_name(p);
      droops += inj->total_droops();
    }
  }
  EXPECT_GT(injectors, 0);
  EXPECT_GT(droops, 0u);  // the run must have entered bursts to mean much
}

TEST(Audit, MaskConsistencyUnderMidRunKillsEveryCycle) {
  // The bitmask router datapath (occ/state/credit/free-VC words, buffered
  // counter) is maintained incrementally on push/pop/purge; invariant 7
  // re-derives every word from live VC state each audited cycle. This run
  // forces the hard paths: a mid-run link kill severing in-flight worms
  // (drop_leading_worm / purge_dead_output chains) and a mid-run router
  // kill (wholesale purge_for_router_kill), under elevated error pressure
  // so ARQ pops, duplicate discards and retx re-pushes all churn the masks.
  // opt.audit aborts the run on the first divergence, so completing the run
  // IS the assertion that incremental == scanned on every cycle.
  SimOptions opt;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.seed = 7;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.noc.topology = TopologyKind::kTorus;
  opt.noc.routing = RoutingAlgorithm::kAdaptive;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  opt.audit = true;
  opt.audit_interval = 1;
  opt.error_scale = 2.0;
  opt.hard_faults = parse_hard_faults("link:5:E@400, router:10@900");

  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.05;
  o.total_packets = 1200;
  SyntheticTraffic gen(Grid(opt.noc), o, opt.seed);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_delivered, 0u);
  ASSERT_NE(sim.auditor(), nullptr);
  EXPECT_GT(sim.auditor()->clean_passes(), 1000u);
}

/// Audited per-cycle sweep of the stepper's packed node state (lane bytes +
/// hot bits, invariant 7) through mid-run link and router kills, on mesh and
/// torus, serial and threaded. Teardown clears lanes wholesale and refreshes
/// hot bytes from serial context; the threaded runs push into neighbour
/// lanes from other shards. Completing the audited run is the assertion.
class LaneOccupancyAudit
    : public ::testing::TestWithParam<std::tuple<TopologyKind, unsigned>> {};

TEST_P(LaneOccupancyAudit, CleanEveryCycleThroughMidRunKills) {
  const auto [topology, threads] = GetParam();
  SimOptions opt;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.seed = 13;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.noc.topology = topology;
  opt.noc.routing = RoutingAlgorithm::kAdaptive;
  opt.sim_threads = threads;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  opt.audit = true;
  opt.audit_interval = 1;
  opt.error_scale = 2.0;
  opt.hard_faults = parse_hard_faults("link:6:E@300, router:9@700");

  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.05;
  o.total_packets = 1000;
  SyntheticTraffic gen(Grid(opt.noc), o, opt.seed);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_GT(r.total_cycles, 700u);  // both kills struck mid-run
  ASSERT_NE(sim.auditor(), nullptr);
  EXPECT_GE(sim.auditor()->clean_passes(), r.total_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    MeshTorusThreads, LaneOccupancyAudit,
    ::testing::Combine(::testing::Values(TopologyKind::kMesh,
                                         TopologyKind::kTorus),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<LaneOccupancyAudit::ParamType>& info) {
      return std::string(std::get<0>(info.param) == TopologyKind::kMesh
                             ? "mesh"
                             : "torus") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

/// The busy-node worklists the flag scan emits must name exactly the nodes
/// the idle-skip predicate calls busy. Before each step the expected counts
/// are re-derived from live state — Router::quiescent(),
/// NetworkInterface::injection_idle() and the node's lane-occupancy bytes —
/// and the step's skip-counter deltas must equal nodes minus those counts,
/// on every cycle, including ones a sleeping shard elides wholesale. Link
/// error probabilities stay zero (error_scale 0), so the serial e2e drain
/// inside step() only retires retained packets and never re-arms an NI.
class BusyWorklistAudit
    : public ::testing::TestWithParam<std::tuple<TopologyKind, unsigned>> {};

TEST_P(BusyWorklistAudit, SkipDeltasMatchLiveBusyCountsEveryCycle) {
  const auto [topology, threads] = GetParam();
  NocConfig cfg = tiny_mesh();
  cfg.topology = topology;
  Network net(cfg, /*seed=*/19);
  net.set_sim_threads(threads);
  // Half the routers run the ARQ link layer, so retention and ACK lanes keep
  // routers busy after their buffers empty.
  for (NodeId n = 0; n < cfg.num_nodes(); n += 2)
    net.router(n).set_mode(OpMode::kMode2);

  const auto expected_busy = [&net, &cfg]() {
    std::uint64_t routers = 0;
    std::uint64_t nis = 0;
    for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
      const auto& b = net.lane_occ(n).b;
      bool router_lane = false;
      for (std::size_t k = 0; k < node_hot::kEjFlit; ++k)
        router_lane = router_lane || b[k] != 0;
      const bool ni_lane =
          b[node_hot::kEjFlit] != 0 || b[node_hot::kInjCredit] != 0;
      routers += (!net.router(n).quiescent() || router_lane) ? 1 : 0;
      nis += (!net.ni(n).injection_idle() || ni_lane) ? 1 : 0;
    }
    return std::pair<std::uint64_t, std::uint64_t>{routers, nis};
  };

  Rng traffic(19, "worklist-traffic");
  PacketId next_id = 1;
  const auto nodes = static_cast<std::uint64_t>(cfg.num_nodes());
  NetworkAuditor auditor;
  std::uint64_t busy_cycles = 0;
  std::uint64_t idle_cycles = 0;
  // Two bursts of traffic with a long idle gap between them, so the run
  // covers loaded cycles, partially and fully slept cycles, and re-wakes.
  for (Cycle c = 0; c < 4000; ++c) {
    const bool burst = c < 300 || (c >= 2000 && c < 2200);
    if (burst && traffic.bernoulli(0.3)) {
      const auto src = static_cast<NodeId>(traffic.next_below(nodes));
      const auto dst = static_cast<NodeId>(traffic.next_below(nodes));
      // Single-flit packets let an NI go idle in a cycle its router skips,
      // so only the union list's hot-byte refresh can record it.
      const int len = traffic.bernoulli(0.5) ? 1 : kPacketLen;
      if (src != dst)
        net.ni(src).enqueue_packet(
            make_packet(next_id++, src, dst, len, c, net.payload_rng()));
    }
    const auto [routers, nis] = expected_busy();
    const std::uint64_t r0 = net.router_steps_skipped();
    const std::uint64_t n0 = net.ni_steps_skipped();
    net.step();
    ASSERT_EQ(net.router_steps_skipped() - r0, nodes - routers) << "cycle " << c;
    ASSERT_EQ(net.ni_steps_skipped() - n0, nodes - nis) << "cycle " << c;
    for (const AuditViolation& v : auditor.run(net)) ADD_FAILURE() << v.to_string();
    (routers + nis != 0 ? busy_cycles : idle_cycles) += 1;
  }
  EXPECT_TRUE(net.drained());
  EXPECT_GT(net.metrics().packets_delivered, 50u);
  EXPECT_GT(busy_cycles, 400u);
  EXPECT_GT(idle_cycles, 1000u);
  EXPECT_GT(net.lookahead_cycles_slept(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    MeshTorusThreads, BusyWorklistAudit,
    ::testing::Combine(::testing::Values(TopologyKind::kMesh,
                                         TopologyKind::kTorus),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<BusyWorklistAudit::ParamType>& info) {
      return std::string(std::get<0>(info.param) == TopologyKind::kMesh
                             ? "mesh"
                             : "torus") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Audit, UntrackedLaneTripsMaskConsistency) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A lane that stops maintaining its occupancy byte: the credit sits in
  // the lane, but the stepper would never see it.
  ChannelPair* ch = net.out_channel(5, Port::kNorth);
  ASSERT_NE(ch, nullptr);
  ch->acks.bind(nullptr);
  ch->acks.push(net.now(), AckMsg{});

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  const auto it = std::find_if(violations.begin(), violations.end(),
                               [](const AuditViolation& v) {
                                 return v.invariant == "mask-consistency";
                               });
  ASSERT_NE(it, violations.end());
  EXPECT_EQ(it->node, 5);
  EXPECT_EQ(it->port, Port::kNorth);
  EXPECT_NE(it->detail.find("out-ack"), std::string::npos) << it->detail;
}

TEST(Audit, PhantomFlitTripsConservation) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A flit that no NI counter accounts for: exactly what a buggy injection
  // path (or a fault injector dropping flits silently) would produce.
  Flit rogue;
  rogue.packet_id = 999;
  rogue.vc = 0;
  rogue.src = 0;
  rogue.dst = 1;
  net.inj_channel(0).flits.push(net.now(), rogue);

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "flit-conservation");
  EXPECT_EQ(auditor.clean_passes(), 0u);
}

TEST(Audit, MintedEjectionCreditTripsCreditBalance) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A credit out of thin air on the ejection loop: the local output VC now
  // believes the NI has more buffer than physically exists.
  net.ej_channel(3).credits.push(net.now(), Credit{0});

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  ASSERT_FALSE(violations.empty());
  const auto it = std::find_if(violations.begin(), violations.end(),
                               [](const AuditViolation& v) {
                                 return v.invariant == "credit-balance";
                               });
  ASSERT_NE(it, violations.end());
  EXPECT_EQ(it->node, 3);
  EXPECT_TRUE(it->has_port);
  EXPECT_EQ(it->port, Port::kLocal);
}

TEST(Audit, MintedMeshCreditTripsCreditBalance) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  ChannelPair* ch = net.out_channel(0, Port::kEast);
  ASSERT_NE(ch, nullptr);
  ch->credits.push(net.now(), Credit{1});

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "credit-balance");
  EXPECT_EQ(violations.front().node, 0);
  EXPECT_EQ(violations.front().port, Port::kEast);
}

TEST(Audit, CheckOrThrowReportsLocation) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  Flit rogue;
  rogue.packet_id = 1000;
  rogue.vc = 0;
  net.inj_channel(2).flits.push(net.now(), rogue);

  NetworkAuditor auditor;
  try {
    auditor.check_or_throw(net);
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "flit-conservation");
    EXPECT_NE(std::string(e.what()).find("flit-conservation"),
              std::string::npos);
  }
}

TEST(Audit, SimulatorIntegrationAuditsCleanRun) {
  SimOptions opt;
  opt.noc = tiny_mesh();
  opt.policy = PolicyKind::kStaticArqEcc;  // ECC links on everywhere
  opt.seed = 17;
  opt.audit = true;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 2000;
  opt.error_scale = 4.0;  // force real ARQ traffic during the audit

  Simulator sim(opt);
  ASSERT_NE(sim.auditor(), nullptr);

  SyntheticTraffic::Options to;
  to.injection_rate = 0.06;
  to.total_packets = 800;
  SyntheticTraffic gen(Grid(opt.noc), to, opt.seed);

  SimResult res;
  ASSERT_NO_THROW(res = sim.run(gen));
  EXPECT_TRUE(res.drained);
  EXPECT_GT(sim.auditor()->clean_passes(), 1000u);
}

TEST(Audit, SimulatorAuditIntervalThins) {
  SimOptions opt;
  opt.noc = tiny_mesh();
  opt.policy = PolicyKind::kStaticCrc;
  opt.seed = 9;
  opt.audit = true;
  opt.audit_interval = 64;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 500;

  Simulator sim(opt);
  SyntheticTraffic::Options to;
  to.injection_rate = 0.05;
  to.total_packets = 200;
  SyntheticTraffic gen(Grid(opt.noc), to, opt.seed);
  const SimResult res = sim.run(gen);
  EXPECT_TRUE(res.drained);
  const std::uint64_t passes = sim.auditor()->clean_passes();
  EXPECT_GT(passes, 0u);
  // Sparser than every-cycle auditing by construction.
  EXPECT_LT(passes, res.execution_cycles);
}

#if RLFTNOC_CHECK_ENABLED
using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, DelayLineStampRegressionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DelayLine<Credit> line;
        line.push(/*now=*/10, Credit{0});
        line.push(/*now=*/5, Credit{0});
      },
      "RLFTNOC_CHECK failed");
}
#endif

}  // namespace
}  // namespace rlftnoc
