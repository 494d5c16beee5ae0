// Cross-module integration properties that no single unit test covers.
#include <gtest/gtest.h>

#include "noc/network.h"
#include "noc/ni.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

NocConfig cfg4() {
  NocConfig c;
  c.mesh_width = 4;
  c.mesh_height = 4;
  return c;
}

void set_all(Network& net, OpMode m, double p) {
  for (NodeId r = 0; r < net.config().num_nodes(); ++r) {
    net.router(r).set_mode(m);
    for (const Port pt : kAllPorts) {
      if (pt != Port::kLocal && net.out_channel(r, pt) != nullptr)
        net.set_link_error_prob(r, pt, LinkErrorProb{p, 1e-12});
    }
  }
}

void pump(Network& net, std::uint64_t packets, Cycle guard, std::uint64_t seed = 3) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.06;
  o.total_packets = packets;
  SyntheticTraffic gen(Grid(net.config()), o, seed);
  std::vector<Packet> batch;
  const Cycle end = net.now() + guard;
  while (net.now() < end && (!gen.exhausted() || !net.drained())) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
  ASSERT_TRUE(net.drained());
}

TEST(Integration, SingleBitOnlyErrorsNeverReachDestinationUnderEcc) {
  // Force the injector to single-bit bursts (multibit prob 0): SECDED must
  // correct everything, so zero CRC failures and zero NACK resends.
  VariusParams vp;
  vp.multibit_base = 0.0;
  vp.multibit_slope = 0.0;
  vp.multibit_cap = 0.0;
  Network net(cfg4(), 1, vp);
  set_all(net, OpMode::kMode1, 0.05);
  pump(net, 1000, 400000);
  EXPECT_EQ(net.metrics().crc_packet_failures, 0u);
  EXPECT_EQ(net.metrics().retx_flits_hop, 0u);
  std::uint64_t corrections = 0;
  for (NodeId r = 0; r < 16; ++r)
    corrections += net.router(r).counters().ecc_corrections;
  EXPECT_GT(corrections, 100u);
}

TEST(Integration, EnergyAccountingIsConsistent) {
  Network net(cfg4(), 1);
  set_all(net, OpMode::kMode1, 0.01);
  pump(net, 500, 300000);
  const PowerModel& p = net.power();
  double per_router = 0.0;
  for (NodeId r = 0; r < 16; ++r) per_router += p.total_dynamic_energy_pj(r);
  EXPECT_NEAR(per_router, p.total_dynamic_energy_pj(), 1e-6);
  // ECC decodes cannot exceed encodes plus duplicates (every decode had a
  // wire transmission carrying check bits).
  EXPECT_GT(p.total_event_count(PowerEvent::kEccEncode), 0u);
}

TEST(Integration, EveryInjectedPacketDeliveredExactlyOnce) {
  Network net(cfg4(), 1);
  set_all(net, OpMode::kMode1, 0.03);
  pump(net, 1500, 600000);
  const NetworkMetrics& m = net.metrics();
  EXPECT_EQ(m.packets_injected, 1500u);
  EXPECT_EQ(m.packets_delivered, 1500u);
  std::uint64_t ni_delivered = 0;
  for (NodeId n = 0; n < 16; ++n)
    ni_delivered += net.ni(n).counters().packets_delivered;
  EXPECT_EQ(ni_delivered, 1500u);
}

TEST(Integration, FlitConservationUnderFaults) {
  // Flits ejected at NIs == flits delivered + flits of CRC-failed packets;
  // nothing is silently lost or duplicated end to end.
  Network net(cfg4(), 1);
  set_all(net, OpMode::kMode0, 0.02);
  pump(net, 1200, 600000);
  std::uint64_t ejected = 0;
  std::uint64_t sent = 0;
  for (NodeId n = 0; n < 16; ++n) {
    ejected += net.ni(n).counters().flits_ejected;
    sent += net.ni(n).counters().flits_sent;
  }
  EXPECT_EQ(ejected, sent);  // every flit sent from a source NI ejects once
}

TEST(Integration, CampaignRunsAndNormalizes) {
  SimOptions base;
  base.noc.mesh_width = 4;
  base.noc.mesh_height = 4;
  base.pretrain_cycles = 20000;
  base.warmup_cycles = 4000;
  const CampaignResults res =
      run_campaign(base, {"swaptions"},
                   {PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc},
                   /*packet_budget_scale_pct=*/3);
  ASSERT_EQ(res.results.size(), 1u);
  ASSERT_EQ(res.results[0].size(), 2u);
  EXPECT_GT(res.at(0, 0).packets_delivered, 0u);

  std::ostringstream os;
  print_normalized_table(os, res, "latency", metric_latency, false);
  const std::string out = os.str();
  EXPECT_NE(out.find("swaptions"), std::string::npos);
  EXPECT_NE(out.find("geomean"), std::string::npos);
  EXPECT_NE(out.find("CRC"), std::string::npos);
}

TEST(Integration, MetricExtractors) {
  SimResult r;
  r.retransmitted_flits = 10;
  r.execution_cycles = 20;
  r.avg_packet_latency = 30.0;
  r.energy_efficiency = 40.0;
  r.avg_dynamic_power_w = 50.0;
  EXPECT_EQ(metric_retransmissions(r), 10.0);
  EXPECT_EQ(metric_exec_speedup_inverse(r), 20.0);
  EXPECT_EQ(metric_latency(r), 30.0);
  EXPECT_EQ(metric_energy_efficiency(r), 40.0);
  EXPECT_EQ(metric_dynamic_power(r), 50.0);
}

TEST(Integration, ArqEccBeatsCrcUnderHighErrors) {
  // The paper's core premise at the protocol level.
  auto run = [](OpMode mode) {
    Network net(cfg4(), 1);
    set_all(net, mode, 0.04);
    SyntheticTraffic::Options o;
    o.injection_rate = 0.06;
    o.total_packets = 1500;
    SyntheticTraffic gen(Grid(cfg4()), o, 5);
    std::vector<Packet> batch;
    while (!gen.exhausted() || !net.drained()) {
      batch.clear();
      gen.tick(net.now(), batch);
      for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
      net.step();
      if (net.now() > 800000) break;
    }
    return net.metrics().packet_latency.mean();
  };
  EXPECT_LT(run(OpMode::kMode1), run(OpMode::kMode0));
}

TEST(Integration, RelaxedModeBeatsEccUnderExtremeErrors) {
  auto run = [](OpMode mode) {
    Network net(cfg4(), 1);
    set_all(net, mode, 0.4);
    SyntheticTraffic::Options o;
    o.injection_rate = 0.04;
    o.total_packets = 800;
    SyntheticTraffic gen(Grid(cfg4()), o, 5);
    std::vector<Packet> batch;
    while (!gen.exhausted() || !net.drained()) {
      batch.clear();
      gen.tick(net.now(), batch);
      for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
      net.step();
      if (net.now() > 1500000) break;
    }
    return net.metrics().packet_latency.mean();
  };
  EXPECT_LT(run(OpMode::kMode3), run(OpMode::kMode1));
}

}  // namespace
}  // namespace rlftnoc
