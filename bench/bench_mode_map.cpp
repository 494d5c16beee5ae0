// Spatial mode-residency map: runs one benchmark under the RL (or DT)
// policy and prints, per router tile, the dominant operation mode and the
// steady-state temperature — the spatial intuition behind the paper's
// adaptive scheme (hot memory-controller neighbourhoods escalate, the cool
// rim stays at mode 0).
//
//   bench_mode_map [benchmark] [rl|dt|oracle]
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "traffic/parsec.h"

using namespace rlftnoc;

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "canneal";
  const std::string pol = argc > 2 ? argv[2] : "rl";
  SimOptions opt;
  opt.policy = pol == "dt"       ? PolicyKind::kDecisionTree
               : pol == "oracle" ? PolicyKind::kOracle
                                 : PolicyKind::kRl;
  opt.seed = 11;

  Simulator sim(opt);
  ParsecProfile prof = parsec_profile(bench);
  ParsecTraffic gen(Grid(opt.noc), prof, opt.seed);

  // Count per-router mode residency across the measurement phase by
  // sampling the controller after the run via a piggy-backed counter: we
  // re-run the control loop manually here for full access.
  const int n = opt.noc.num_nodes();
  std::vector<std::array<std::uint64_t, kNumOpModes>> residency(
      static_cast<std::size_t>(n));

  // Drive the phases by hand (same protocol as Simulator::run, but sampling
  // modes every control step of the measurement phase).
  sim.controller().begin_phase(SimPhase::kPretrain);
  {
    PretrainTraffic pre(sim.network().topology(), opt.seed);
    std::vector<Packet> batch;
    for (Cycle t = 0; t < opt.pretrain_cycles; ++t) {
      batch.clear();
      pre.tick(sim.network().now(), batch);
      for (auto& p : batch) sim.network().ni(p.src).enqueue_packet(std::move(p));
      sim.network().step();
      sim.controller().on_cycle();
    }
  }
  sim.controller().begin_phase(SimPhase::kMeasure);
  std::vector<Packet> batch;
  std::uint64_t last_steps = sim.controller().steps();
  while ((!gen.exhausted() || !sim.network().drained()) &&
         sim.network().now() < 3'000'000) {
    batch.clear();
    gen.tick(sim.network().now(), batch);
    for (auto& p : batch) sim.network().ni(p.src).enqueue_packet(std::move(p));
    sim.network().step();
    sim.controller().on_cycle();
    if (sim.controller().steps() != last_steps) {
      last_steps = sim.controller().steps();
      for (NodeId r = 0; r < n; ++r)
        ++residency[static_cast<std::size_t>(r)]
                   [static_cast<std::size_t>(sim.controller().current_mode(r))];
    }
  }

  std::printf("== spatial mode residency: %s under %s ==\n", bench.c_str(),
              policy_name(opt.policy));
  std::printf("(per tile: dominant mode and mean temperature; MCs sit one "
              "tile in from each corner)\n\n");
  const int w = opt.noc.mesh_width;
  const int h = opt.noc.mesh_height;
  for (int y = h - 1; y >= 0; --y) {
    for (int x = 0; x < w; ++x) {
      const auto r = static_cast<std::size_t>(y * w + x);
      std::size_t best = 0;
      for (std::size_t m = 1; m < kNumOpModes; ++m) {
        if (residency[r][m] > residency[r][best]) best = m;
      }
      std::printf(" m%zu/%3.0fC", best,
                  sim.controller().thermal().temperature(static_cast<NodeId>(r)));
    }
    std::printf("\n");
  }

  std::printf("\nmode residency totals:");
  std::array<std::uint64_t, kNumOpModes> total{};
  std::uint64_t all = 0;
  for (const auto& r : residency) {
    for (std::size_t m = 0; m < kNumOpModes; ++m) {
      total[m] += r[m];
      all += r[m];
    }
  }
  for (std::size_t m = 0; m < kNumOpModes; ++m)
    std::printf("  mode%zu %.1f%%", m,
                all ? 100.0 * static_cast<double>(total[m]) / static_cast<double>(all)
                    : 0.0);
  std::printf("\n");
  return 0;
}
