// Fault-free network behaviour: delivery, latency, credits, drain.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "noc/network.h"
#include "noc/ni.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

NocConfig small_cfg(int w = 4, int h = 4) {
  NocConfig c;
  c.mesh_width = w;
  c.mesh_height = h;
  return c;
}

void run_until_drained(Network& net, Cycle max_cycles) {
  const Cycle end = net.now() + max_cycles;
  while (net.now() < end && !net.drained()) net.step();
}

TEST(NetworkBasic, SinglePacketDelivered) {
  Network net(small_cfg(), 1);
  Rng rng(7);
  net.ni(0).enqueue_packet(make_packet(1, 0, 15, 4, 0, rng));
  run_until_drained(net, 500);
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.metrics().packets_delivered, 1u);
  EXPECT_EQ(net.metrics().flits_delivered, 4u);
  EXPECT_EQ(net.metrics().packet_e2e_retransmissions, 0u);
  EXPECT_EQ(net.ni(15).counters().crc_flit_failures, 0u);
}

TEST(NetworkBasic, LatencyIsPlausible) {
  Network net(small_cfg(), 1);
  Rng rng(7);
  net.ni(0).enqueue_packet(make_packet(1, 0, 15, 4, 0, rng));
  run_until_drained(net, 500);
  // 6 hops, ~3 cycles per hop router pipeline + serialization of 4 flits.
  const double lat = net.metrics().packet_latency.mean();
  EXPECT_GE(lat, 10.0);
  EXPECT_LE(lat, 60.0);
}

TEST(NetworkBasic, SingleFlitPacket) {
  Network net(small_cfg(), 1);
  Rng rng(7);
  net.ni(5).enqueue_packet(make_packet(9, 5, 6, 1, 0, rng));
  run_until_drained(net, 200);
  EXPECT_EQ(net.metrics().packets_delivered, 1u);
  EXPECT_EQ(net.metrics().flits_delivered, 1u);
}

TEST(NetworkBasic, IdleSkipElidesQuiescentNodes) {
  Network net(small_cfg(), 1);
  // A fully idle network: every per-node visit is provably a no-op, so all
  // of them must be skipped.
  for (int i = 0; i < 100; ++i) net.step();
  const std::uint64_t nodes = 16;
  EXPECT_EQ(net.router_steps_skipped(), 100 * nodes);
  EXPECT_EQ(net.ni_steps_skipped(), 100 * nodes);

  // With one packet crossing the mesh, the nodes it touches must NOT be
  // skipped while it is in flight — but far-away corners still are.
  Rng rng(7);
  net.ni(0).enqueue_packet(make_packet(1, 0, 15, 4, net.now(), rng));
  const std::uint64_t before_r = net.router_steps_skipped();
  run_until_drained(net, 500);
  EXPECT_EQ(net.metrics().packets_delivered, 1u);
  const Cycle active_cycles = net.now() - 100;
  const std::uint64_t skipped_r = net.router_steps_skipped() - before_r;
  EXPECT_LT(skipped_r, active_cycles * nodes);  // some work happened
  EXPECT_GT(skipped_r, 0u);                     // but idle corners were elided
}

TEST(NetworkBasic, SelfAddressedViaLocalPort) {
  // src == dst: the flit turns around through the router's local ports.
  Network net(small_cfg(), 1);
  Rng rng(7);
  net.ni(3).enqueue_packet(make_packet(2, 3, 3, 2, 0, rng));
  run_until_drained(net, 200);
  EXPECT_EQ(net.metrics().packets_delivered, 1u);
}

/// Parameterized mesh sizes: every (src, dst) pair delivers.
class NetworkAllPairs : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NetworkAllPairs, AllPairsDeliver) {
  const auto [w, h] = GetParam();
  Network net(small_cfg(w, h), 1);
  Rng rng(7);
  PacketId id = 1;
  std::uint64_t expected = 0;
  for (NodeId s = 0; s < net.config().num_nodes(); ++s) {
    for (NodeId d = 0; d < net.config().num_nodes(); ++d) {
      if (s == d) continue;
      ASSERT_TRUE(net.ni(s).enqueue_packet(make_packet(id++, s, d, 2, net.now(), rng)));
      ++expected;
    }
  }
  run_until_drained(net, 60000);
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.metrics().packets_delivered, expected);
  EXPECT_EQ(net.metrics().crc_packet_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkAllPairs,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(3, 3),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(2, 5)));

TEST(NetworkBasic, SustainedLoadDeliversEverythingAndDrains) {
  Network net(small_cfg(), 1);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.10;
  o.total_packets = 3000;
  SyntheticTraffic gen(Grid(net.config()), o, 3);
  std::vector<Packet> batch;
  while (!gen.exhausted() || !net.drained()) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) ASSERT_TRUE(net.ni(p.src).enqueue_packet(std::move(p)));
    net.step();
    ASSERT_LT(net.now(), 200000u) << "network failed to drain";
  }
  EXPECT_EQ(net.metrics().packets_delivered, 3000u);
  EXPECT_EQ(net.metrics().packets_injected, 3000u);
}

TEST(NetworkBasic, NoSpuriousRetransmissionsWithoutFaults) {
  Network net(small_cfg(), 1);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.15;
  o.total_packets = 2000;
  SyntheticTraffic gen(Grid(net.config()), o, 5);
  std::vector<Packet> batch;
  for (Cycle t = 0; t < 40000 && !(gen.exhausted() && net.drained()); ++t) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
  EXPECT_EQ(net.metrics().total_retransmitted_flits(), 0u);
  EXPECT_EQ(net.metrics().crc_packet_failures, 0u);
}

TEST(NetworkBasic, DeterministicAcrossRuns) {
  auto run = [] {
    Network net(small_cfg(), 99);
    SyntheticTraffic::Options o;
    o.injection_rate = 0.08;
    o.total_packets = 500;
    SyntheticTraffic gen(Grid(net.config()), o, 99);
    std::vector<Packet> batch;
    while (!gen.exhausted() || !net.drained()) {
      batch.clear();
      gen.tick(net.now(), batch);
      for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
      net.step();
      if (net.now() > 100000) break;
    }
    return std::make_tuple(net.now(), net.metrics().packet_latency.mean(),
                           net.metrics().packets_delivered);
  };
  EXPECT_EQ(run(), run());
}

TEST(NetworkBasic, ChannelWiringConsistency) {
  Network net(small_cfg(), 1);
  const Topology& t = net.topology();
  for (NodeId n = 0; n < net.config().num_nodes(); ++n) {
    for (const Port p : kAllPorts) {
      if (p == Port::kLocal) {
        EXPECT_EQ(net.out_channel(n, p), nullptr);
        continue;
      }
      const NodeId nb = t.neighbor(n, p);
      if (nb == kInvalidNode) {
        EXPECT_EQ(net.out_channel(n, p), nullptr);
        EXPECT_EQ(net.in_channel(n, p), nullptr);
      } else {
        // My outgoing channel is my neighbour's incoming channel.
        EXPECT_EQ(net.out_channel(n, p), net.in_channel(nb, opposite(p)));
      }
    }
  }
}

TEST(NetworkBasic, PathLatencyCreditsWholePath) {
  Network net(small_cfg(), 1);
  net.add_path_latency(0, 3, 30.0);  // straight east path: 0,1,2,3
  for (NodeId n : {0, 1, 2, 3}) {
    EXPECT_EQ(net.router_latency_window(n).count(), 1u);
    EXPECT_DOUBLE_EQ(net.router_latency_window(n).mean(), 30.0);
  }
  EXPECT_EQ(net.router_latency_window(4).count(), 0u);
}

TEST(NetworkBasic, EnqueueRejectsWhenFull) {
  NocConfig cfg = small_cfg();
  cfg.ni_queue_limit = 2;
  Network net(cfg, 1);
  Rng rng(7);
  EXPECT_TRUE(net.ni(0).enqueue_packet(make_packet(1, 0, 1, 1, 0, rng)));
  EXPECT_TRUE(net.ni(0).enqueue_packet(make_packet(2, 0, 1, 1, 0, rng)));
  EXPECT_FALSE(net.ni(0).enqueue_packet(make_packet(3, 0, 1, 1, 0, rng)));
  EXPECT_EQ(net.ni(0).counters().queue_rejects, 1u);
}

TEST(NetworkBasic, PowerEventsRecordedDuringDelivery) {
  Network net(small_cfg(), 1);
  Rng rng(7);
  net.ni(0).enqueue_packet(make_packet(1, 0, 15, 4, 0, rng));
  run_until_drained(net, 500);
  EXPECT_GT(net.power().total_dynamic_energy_pj(), 0.0);
  EXPECT_GT(net.power().total_event_count(PowerEvent::kLinkTraversal), 0u);
  EXPECT_GT(net.power().total_event_count(PowerEvent::kCrcEncode), 0u);
  EXPECT_GT(net.power().total_event_count(PowerEvent::kCrcDecode), 0u);
  // No ECC activity in mode 0.
  EXPECT_EQ(net.power().total_event_count(PowerEvent::kEccEncode), 0u);
}

}  // namespace
}  // namespace rlftnoc
