// Fault-tolerance behaviour of the four operation modes under injected
// timing errors.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "noc/network.h"
#include "noc/ni.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

NocConfig small_cfg() {
  NocConfig c;
  c.mesh_width = 4;
  c.mesh_height = 4;
  return c;
}

void set_all_modes(Network& net, OpMode m) {
  for (NodeId r = 0; r < net.config().num_nodes(); ++r) net.router(r).set_mode(m);
}

void set_all_link_probs(Network& net, double normal, double relaxed = 1e-12) {
  for (NodeId r = 0; r < net.config().num_nodes(); ++r) {
    for (const Port p : kAllPorts) {
      if (p != Port::kLocal && net.out_channel(r, p) != nullptr) {
        net.set_link_error_prob(r, p, LinkErrorProb{normal, relaxed});
      }
    }
  }
}

/// Drives `packets` uniform packets through the network; returns when all
/// are resolved or `max_cycles` elapse.
void drive(Network& net, int packets, Cycle max_cycles, std::uint64_t seed = 3) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.06;
  o.total_packets = static_cast<std::uint64_t>(packets);
  SyntheticTraffic gen(Grid(net.config()), o, seed);
  std::vector<Packet> batch;
  const Cycle end = net.now() + max_cycles;
  while (net.now() < end && (!gen.exhausted() || !net.drained())) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
}

TEST(FaultMode0, ErrorsCaughtByCrcAndRetransmittedEndToEnd) {
  Network net(small_cfg(), 1);
  set_all_modes(net, OpMode::kMode0);
  set_all_link_probs(net, 0.02);
  drive(net, 1500, 300000);
  const NetworkMetrics& m = net.metrics();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(m.packets_delivered, 1500u);
  EXPECT_GT(m.crc_packet_failures, 0u);
  EXPECT_GT(m.packet_e2e_retransmissions, 0u);
  EXPECT_GT(m.retx_flits_e2e, 0u);
  // Mode 0 has no link-level machinery.
  EXPECT_EQ(m.retx_flits_hop, 0u);
  EXPECT_EQ(m.dup_flits, 0u);
}

TEST(FaultMode1, EccCorrectsAndNacksInsteadOfE2e) {
  Network net(small_cfg(), 1);
  set_all_modes(net, OpMode::kMode1);
  set_all_link_probs(net, 0.02);
  drive(net, 1500, 300000);
  const NetworkMetrics& m = net.metrics();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(m.packets_delivered, 1500u);
  std::uint64_t corrections = 0;
  std::uint64_t uncorrectable = 0;
  for (NodeId r = 0; r < 16; ++r) {
    corrections += net.router(r).counters().ecc_corrections;
    uncorrectable += net.router(r).counters().ecc_uncorrectable;
  }
  EXPECT_GT(corrections, 0u);
  // Most errors are single-bit: corrections dominate rejections.
  EXPECT_GT(corrections, uncorrectable);
  // Link-level retransmission replaces nearly all source retransmission.
  EXPECT_LT(m.packet_e2e_retransmissions, m.crc_packet_failures + 50);
  EXPECT_LT(m.retx_flits_e2e, m.retx_flits_hop + 500);
}

TEST(FaultMode1, DramaticallyFewerRetransmittedFlitsThanMode0) {
  auto run = [](OpMode mode) {
    Network net(small_cfg(), 1);
    set_all_modes(net, mode);
    set_all_link_probs(net, 0.03);
    drive(net, 1200, 300000);
    return net.metrics().retx_flits_e2e + net.metrics().retx_flits_hop;
  };
  const auto mode0 = run(OpMode::kMode0);
  const auto mode1 = run(OpMode::kMode1);
  EXPECT_GT(mode0, 2 * mode1);
}

TEST(FaultMode2, ProactiveDuplicatesAreSentAndDiscarded) {
  Network net(small_cfg(), 1);
  set_all_modes(net, OpMode::kMode2);
  set_all_link_probs(net, 0.01);
  drive(net, 800, 300000);
  const NetworkMetrics& m = net.metrics();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(m.packets_delivered, 800u);
  EXPECT_GT(m.dup_flits, 0u);
  std::uint64_t discards = 0;
  for (NodeId r = 0; r < 16; ++r) discards += net.router(r).counters().dup_discards;
  // Most duplicates chase an already-accepted original.
  EXPECT_GT(discards, m.dup_flits / 2);
}

TEST(FaultMode3, RelaxedTimingEliminatesErrors) {
  Network net(small_cfg(), 1);
  set_all_modes(net, OpMode::kMode3);
  set_all_link_probs(net, 0.05, 1e-12);
  drive(net, 800, 400000);
  const NetworkMetrics& m = net.metrics();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(m.packets_delivered, 800u);
  EXPECT_EQ(m.crc_packet_failures, 0u);
  EXPECT_EQ(m.retx_flits_hop, 0u);
  EXPECT_EQ(m.packet_e2e_retransmissions, 0u);
}

TEST(FaultMode3, CostsLatencyComparedToMode1) {
  auto run = [](OpMode mode) {
    Network net(small_cfg(), 1);
    set_all_modes(net, mode);
    set_all_link_probs(net, 1e-9, 1e-12);
    drive(net, 800, 300000);
    return net.metrics().packet_latency.mean();
  };
  EXPECT_GT(run(OpMode::kMode3), run(OpMode::kMode1) + 3.0);
}

TEST(FaultModes, AllModesDeliverEverythingUnderHeavyErrors) {
  for (const OpMode mode : {OpMode::kMode0, OpMode::kMode1, OpMode::kMode2,
                            OpMode::kMode3}) {
    Network net(small_cfg(), 1);
    set_all_modes(net, mode);
    set_all_link_probs(net, 0.05);
    drive(net, 500, 600000);
    EXPECT_TRUE(net.drained()) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(net.metrics().packets_delivered, 500u)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(FaultModes, PayloadsDeliveredIntactUnderEcc) {
  // CRC failures at the destination may only come from genuinely
  // uncorrected patterns; with ECC enabled and moderate errors the flit
  // failure rate at the NI must be far below the raw link error rate.
  Network net(small_cfg(), 1);
  set_all_modes(net, OpMode::kMode1);
  set_all_link_probs(net, 0.02);
  drive(net, 2000, 400000);
  std::uint64_t ejected = 0;
  std::uint64_t failures = 0;
  for (NodeId n = 0; n < 16; ++n) {
    ejected += net.ni(n).counters().flits_ejected;
    failures += net.ni(n).counters().crc_flit_failures;
  }
  ASSERT_GT(ejected, 0u);
  EXPECT_LT(static_cast<double>(failures) / static_cast<double>(ejected), 0.02 / 4);
}

TEST(FaultModes, ModeSwitchMidTrafficStaysCorrect) {
  Network net(small_cfg(), 1);
  set_all_link_probs(net, 0.02);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 2000;
  SyntheticTraffic gen(Grid(net.config()), o, 9);
  std::vector<Packet> batch;
  Rng mode_rng(123);
  while (!gen.exhausted() || !net.drained()) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    // Aggressively flip random routers between random modes.
    if (net.now() % 250 == 0) {
      for (int k = 0; k < 4; ++k) {
        const auto r = static_cast<NodeId>(mode_rng.next_below(16));
        net.router(r).set_mode(static_cast<OpMode>(mode_rng.next_below(4)));
      }
    }
    net.step();
    ASSERT_LT(net.now(), 600000u) << "drain failure after mode churn";
  }
  EXPECT_EQ(net.metrics().packets_delivered, 2000u);
}

TEST(FaultModes, HotSingleLinkOnlyAffectsCrossingTraffic) {
  Network net(small_cfg(), 1);
  set_all_modes(net, OpMode::kMode0);
  // Only router 5's east link is faulty.
  net.set_link_error_prob(5, Port::kEast, LinkErrorProb{0.2, 1e-12});
  Rng rng(7);
  // Packet 0->3 (top row, no east link of 5): must never fail.
  // Packet 4->7 crosses 5->6 east: fails often.
  PacketId id = 1;
  for (int i = 0; i < 200; ++i) {
    net.ni(0).enqueue_packet(make_packet(id++, 0, 3, 2, net.now(), rng));
    net.ni(4).enqueue_packet(make_packet(id++, 4, 7, 2, net.now(), rng));
  }
  for (Cycle t = 0; t < 100000 && !net.drained(); ++t) net.step();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.metrics().packets_delivered, 400u);
  EXPECT_GT(net.metrics().crc_packet_failures, 0u);
  EXPECT_EQ(net.ni(3).counters().crc_flit_failures, 0u);
  EXPECT_GT(net.ni(7).counters().crc_flit_failures, 0u);
}

}  // namespace
}  // namespace rlftnoc
