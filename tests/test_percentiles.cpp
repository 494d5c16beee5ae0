// Latency-percentile reporting added on top of the paper's metrics.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

TEST(Percentiles, OrderedAndNearMean) {
  SimOptions opt;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 2000;
  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 5000;
  SyntheticTraffic gen(Grid(opt.noc), o, 3);
  const SimResult r = sim.run(gen);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.p50_latency, 0.0);
  EXPECT_LE(r.p50_latency, r.p95_latency);
  EXPECT_LE(r.p95_latency, r.p99_latency);
  // Under light load the distribution is tight: the median sits near the
  // mean and the tail is bounded.
  EXPECT_NEAR(r.p50_latency, r.avg_packet_latency, r.avg_packet_latency * 0.5);
  EXPECT_LT(r.p99_latency, 20.0 * r.avg_packet_latency);
}

TEST(Percentiles, TailGrowsUnderFaults) {
  auto run = [](double scale) {
    SimOptions opt;
    opt.policy = PolicyKind::kStaticCrc;
    opt.noc.mesh_width = 4;
    opt.noc.mesh_height = 4;
    opt.pretrain_cycles = 0;
    opt.warmup_cycles = 2000;
    opt.error_scale = scale;
    Simulator sim(opt);
    SyntheticTraffic::Options o;
    o.injection_rate = 0.06;
    o.total_packets = 4000;
    SyntheticTraffic gen(Grid(opt.noc), o, 5);
    return sim.run(gen);
  };
  const SimResult clean = run(0.0);
  const SimResult faulty = run(4.0);
  // Retransmissions are rare but expensive: the p99 tail inflates much more
  // than the median.
  EXPECT_GT(faulty.p99_latency - clean.p99_latency,
            (faulty.p50_latency - clean.p50_latency) * 2.0);
}

}  // namespace
}  // namespace rlftnoc
