// Custom-policy example: the ControlPolicy interface is the extension point
// of the library. This defines a hand-written temperature-threshold policy
// with hysteresis (no learning, no ground truth) and races it against the
// built-in RL policy and the static baselines on one benchmark.
//
//   ./custom_policy [benchmark] [seed]
#include <cstdio>
#include <string>
#include <vector>

#include "ftnoc/policy.h"
#include "sim/simulator.h"
#include "traffic/parsec.h"

using namespace rlftnoc;

namespace {

/// Escalates by local temperature with 3 C of hysteresis, and drops to the
/// relaxed mode only when NACKs prove the errors are beating SECDED.
class ThermalHysteresisPolicy final : public ControlPolicy {
 public:
  const char* name() const override { return "thermal-hys"; }

  OpMode decide(NodeId router, const FeatureSnapshot& s, double) override {
    if (last_.size() <= static_cast<std::size_t>(router))
      last_.resize(static_cast<std::size_t>(router) + 1, OpMode::kMode0);
    OpMode& mode = last_[static_cast<std::size_t>(router)];

    double max_nack = 0.0;
    for (const double n : s.in_nack_rate) max_nack = std::max(max_nack, n);

    const double up = s.temperature_c;
    const double down = s.temperature_c + 3.0;  // hysteresis band
    if (mode == OpMode::kMode0 && up > 72.0) mode = OpMode::kMode1;
    if (mode != OpMode::kMode0 && down < 72.0) mode = OpMode::kMode0;
    if (mode == OpMode::kMode1 && max_nack > 0.05) mode = OpMode::kMode3;
    if (mode == OpMode::kMode3 && max_nack < 0.01 && down < 95.0)
      mode = OpMode::kMode1;
    return mode;
  }

 private:
  std::vector<OpMode> last_;
};

SimResult run(const std::string& bench, std::uint64_t seed,
              std::unique_ptr<ControlPolicy> policy, PolicyKind kind) {
  SimOptions opt;
  opt.policy = kind;
  opt.seed = seed;
  opt.pretrain_cycles = 300000;
  Simulator sim = policy ? Simulator(opt, std::move(policy)) : Simulator(opt);
  ParsecProfile prof = parsec_profile(bench);
  prof.total_packets /= 2;
  ParsecTraffic gen(Grid(opt.noc), prof, seed);
  return sim.run(gen);
}

void show(const SimResult& r) {
  std::printf("%-12s lat=%7.1f cyc  faultRetx=%8llu  eff=%5.2f flits/nJ  "
              "modes=[%.2f %.2f %.2f %.2f]\n",
              r.policy.c_str(), r.avg_packet_latency,
              static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
              r.energy_efficiency, r.mode_fraction[0], r.mode_fraction[1],
              r.mode_fraction[2], r.mode_fraction[3]);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "ferret";
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  std::printf("custom policy vs built-ins on '%s'\n", bench.c_str());
  show(run(bench, seed, nullptr, PolicyKind::kStaticCrc));
  show(run(bench, seed, nullptr, PolicyKind::kStaticArqEcc));
  show(run(bench, seed, std::make_unique<ThermalHysteresisPolicy>(),
           PolicyKind::kStaticCrc));
  show(run(bench, seed, nullptr, PolicyKind::kRl));
  return 0;
}
