// E8 — ablation of the four operation modes (the design choice behind
// Section III): every router forced into one mode, swept across link error
// probabilities, reporting latency / fault retransmissions / energy per
// flit. This regenerates the crossover table that calibrates the oracle /
// DT thresholds (ErrorLevelThresholds).
#include <cstdio>
#include <vector>

#include "noc/network.h"
#include "noc/ni.h"
#include "traffic/traffic.h"

using namespace rlftnoc;

namespace {

struct Cell {
  double latency;
  std::uint64_t fault_retx;
  std::uint64_t dups;
  double energy_per_flit_pj;
};

Cell run(OpMode mode, double p_error, double injection_rate) {
  NocConfig cfg;
  Network net(cfg, 1);
  for (NodeId r = 0; r < cfg.num_nodes(); ++r) {
    net.router(r).set_mode(mode);
    for (const Port pt : kAllPorts) {
      if (pt != Port::kLocal && net.out_channel(r, pt) != nullptr)
        net.set_link_error_prob(r, pt, LinkErrorProb{p_error, 1e-12});
    }
  }
  SyntheticTraffic::Options o;
  o.injection_rate = injection_rate;
  o.total_packets = 3000;
  SyntheticTraffic gen(Grid(cfg), o, 7);
  std::vector<Packet> batch;
  // 600K-cycle guard: saturated cells (mode 0 at high p) report truncated
  // latencies, which is enough to show the collapse without a 10x runtime.
  while ((!gen.exhausted() || !net.drained()) && net.now() < 600'000) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& pk : batch) net.ni(pk.src).enqueue_packet(std::move(pk));
    net.step();
  }
  const NetworkMetrics& m = net.metrics();
  Cell cell;
  cell.latency = m.packet_latency.mean();
  cell.fault_retx = m.retx_flits_e2e + m.retx_flits_hop;
  cell.dups = m.dup_flits;
  cell.energy_per_flit_pj =
      m.flits_delivered
          ? net.power().total_dynamic_energy_pj() / static_cast<double>(m.flits_delivered)
          : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const double rate = argc > 1 ? std::atof(argv[1]) : 0.06;
  std::printf("== E8: forced-mode sweep (8x8 mesh, uniform %.2f flits/node/cyc) ==\n",
              rate);
  std::printf("%-8s", "p_err");
  for (int m = 0; m < 4; ++m)
    std::printf("      mode%d lat/retx/E", m);
  std::printf("\n");
  const std::vector<double> probs = {0.001, 0.005, 0.012, 0.03,
                                     0.06,  0.12,  0.25,  0.35};
  std::vector<int> best_per_p;
  for (const double p : probs) {
    std::printf("%-8.3f", p);
    double best = 1e300;
    int best_mode = 0;
    for (int m = 0; m < 4; ++m) {
      const Cell c = run(static_cast<OpMode>(m), p, rate);
      // The controller's objective: latency x energy-per-flit.
      const double objective = c.latency * c.energy_per_flit_pj;
      if (objective < best) {
        best = objective;
        best_mode = m;
      }
      std::printf("  %7.1f/%6llu/%4.1f", c.latency,
                  static_cast<unsigned long long>(c.fault_retx),
                  c.energy_per_flit_pj);
    }
    best_per_p.push_back(best_mode);
    std::printf("   -> best: mode%d\n", best_mode);
  }

  std::printf("\noptimal mode escalates with error probability:");
  bool monotone = true;
  for (std::size_t i = 1; i < best_per_p.size(); ++i) {
    if (best_per_p[i] < best_per_p[i - 1]) monotone = false;
  }
  std::printf(" %s\n", monotone ? "yes" : "NO (see table)");
  return 0;
}
