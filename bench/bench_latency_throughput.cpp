// E10 — classic NoC load-latency curves: average latency vs offered load
// for the synthetic patterns, per operation mode, fault-free and faulty.
// A sanity check that the substrate behaves like a real mesh (flat latency
// until the knee, then divergence; mode 3's knee at ~1/3 the load).
#include <cstdio>
#include <vector>

#include "noc/network.h"
#include "noc/ni.h"
#include "traffic/traffic.h"

using namespace rlftnoc;

namespace {

double run_point(TrafficPattern pattern, double rate, OpMode mode, double p_err) {
  NocConfig cfg;
  Network net(cfg, 1);
  for (NodeId r = 0; r < cfg.num_nodes(); ++r) {
    net.router(r).set_mode(mode);
    for (const Port pt : kAllPorts) {
      if (pt != Port::kLocal && net.out_channel(r, pt) != nullptr)
        net.set_link_error_prob(r, pt, LinkErrorProb{p_err, 1e-12});
    }
  }
  SyntheticTraffic::Options o;
  o.pattern = pattern;
  o.injection_rate = rate;
  o.total_packets = 0;  // open loop; measure over a fixed window
  SyntheticTraffic gen(Grid(cfg), o, 3);
  std::vector<Packet> batch;
  constexpr Cycle kWarm = 5000;
  constexpr Cycle kMeasure = 25000;
  for (Cycle t = 0; t < kWarm + kMeasure; ++t) {
    if (t == kWarm) net.metrics().reset();
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& pk : batch) net.ni(pk.src).enqueue_packet(std::move(pk));
    net.step();
  }
  return net.metrics().packet_latency.count() ? net.metrics().packet_latency.mean()
                                              : -1.0;
}

}  // namespace

int main() {
  const std::vector<double> loads = {0.02, 0.05, 0.10, 0.15, 0.20, 0.28};

  std::printf("== E10: load-latency curves (8x8 mesh, fault-free) ==\n");
  for (const TrafficPattern pat :
       {TrafficPattern::kUniform, TrafficPattern::kTranspose,
        TrafficPattern::kHotspot}) {
    std::printf("%-14s", traffic_pattern_name(pat));
    for (const double load : loads) {
      const double lat = run_point(pat, load, OpMode::kMode0, 0.0);
      if (lat < 0.0) {
        std::printf("%10s", "sat");
      } else {
        std::printf("%10.1f", lat);
      }
    }
    std::printf("   (load: 0.02..0.28 flits/node/cyc)\n");
  }

  std::printf("\nuniform traffic per mode (p_err = 0.01):\n");
  for (int m = 0; m < 4; ++m) {
    std::printf("mode%-10d", m);
    for (const double load : loads) {
      const double lat = run_point(TrafficPattern::kUniform, load,
                                   static_cast<OpMode>(m), 0.01);
      if (lat < 0.0 || lat > 2000.0) {
        std::printf("%10s", "sat");
      } else {
        std::printf("%10.1f", lat);
      }
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: flat latency until the knee; mode 3 saturates"
              " at roughly 1/3 the mode-0/1 load.\n");
  return 0;
}
