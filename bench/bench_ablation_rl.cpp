// E9 — RL design-choice ablations on a 4x4 mesh with a fixed workload:
//  * shared Q-table (default) vs paper-literal per-router tables,
//  * aggregated 8-feature state (default) vs paper-literal per-port state,
//  * discount rate gamma (0.2 default vs the paper's 0.5 and high 0.95),
//  * frozen-greedy measurement (default) vs always-exploring epsilon = 0.1,
//  * optimistic initialization vs the paper's zero init.
#include <cstdio>
#include <functional>
#include <string>

#include "sim/simulator.h"
#include "traffic/traffic.h"

using namespace rlftnoc;

namespace {

SimResult run_variant(const std::string& label,
                      const std::function<void(SimOptions&)>& tweak) {
  SimOptions opt;
  opt.policy = PolicyKind::kRl;
  opt.seed = 9;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.pretrain_cycles = 300000;
  opt.warmup_cycles = 20000;
  opt.thermal.ambient_c = 58.0;  // sit the 4x4 mesh in the interesting band
  tweak(opt);

  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 40000;
  SyntheticTraffic gen(Grid(opt.noc), o, opt.seed);
  const SimResult r = sim.run(gen);
  std::printf("%-28s lat=%7.1f  faultRetx=%7llu  dup=%7llu  eff=%5.2f  "
              "modes=[%.2f %.2f %.2f %.2f]\n",
              label.c_str(), r.avg_packet_latency,
              static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
              static_cast<unsigned long long>(r.dup_flits), r.energy_efficiency,
              r.mode_fraction[0], r.mode_fraction[1], r.mode_fraction[2],
              r.mode_fraction[3]);
  return r;
}

}  // namespace

int main() {
  std::printf("== E9: RL design ablations (4x4 mesh, uniform 0.08, hot ambient) ==\n");

  run_variant("default", [](SimOptions&) {});
  run_variant("per-router tables (paper)",
              [](SimOptions& o) { o.rl_shared_table = false; });
  run_variant("per-port state (paper)",
              [](SimOptions& o) { o.per_port_state = true; });
  run_variant("gamma=0.5 (paper)", [](SimOptions& o) { o.rl.gamma = 0.5; });
  run_variant("gamma=0.95", [](SimOptions& o) { o.rl.gamma = 0.95; });
  run_variant("explore while measured",
              [](SimOptions& o) { o.freeze_rl_on_measure = false; });
  run_variant("zero Q init (paper)", [](SimOptions& o) {
    o.rl.optimistic_init = 0.0;
  });
  run_variant("no pessimism/prior", [](SimOptions& o) {
    o.rl.confidence_penalty = 0.0;
    o.rl.action_cost_prior = 0.0;
  });
  run_variant("alpha=0.5", [](SimOptions& o) { o.rl.alpha = 0.5; });

  std::printf("\n(reference statics)\n");
  for (const PolicyKind k : {PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc,
                             PolicyKind::kOracle}) {
    SimOptions opt;
    opt.policy = k;
    opt.seed = 9;
    opt.noc.mesh_width = 4;
    opt.noc.mesh_height = 4;
    opt.pretrain_cycles = 0;
    opt.warmup_cycles = 20000;
    opt.thermal.ambient_c = 58.0;
    Simulator sim(opt);
    SyntheticTraffic::Options o;
    o.injection_rate = 0.08;
    o.total_packets = 40000;
    SyntheticTraffic gen(Grid(opt.noc), o, opt.seed);
    const SimResult r = sim.run(gen);
    std::printf("%-28s lat=%7.1f  faultRetx=%7llu  dup=%7llu  eff=%5.2f\n",
                r.policy.c_str(), r.avg_packet_latency,
                static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
                static_cast<unsigned long long>(r.dup_flits), r.energy_efficiency);
  }
  return 0;
}
