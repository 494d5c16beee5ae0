// Quickstart: run one PARSEC-like benchmark under the RL policy and the CRC
// baseline, and print the headline metrics side by side.
//
//   ./quickstart [benchmark] [seed]
//
// Benchmarks: blackscholes bodytrack canneal dedup ferret fluidanimate
//             swaptions x264          (default: canneal)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/simulator.h"
#include "traffic/parsec.h"

using namespace rlftnoc;

namespace {

SimResult run_one(PolicyKind policy, const std::string& bench, std::uint64_t seed) {
  SimOptions opt;
  opt.policy = policy;
  opt.seed = seed;
  // Keep the demo snappy: shorter pretrain and a reduced packet budget.
  opt.pretrain_cycles = 120000;
  opt.warmup_cycles = 30000;

  Simulator sim(opt);
  ParsecProfile profile = parsec_profile(bench);
  profile.total_packets /= 2;  // demo-sized execution
  ParsecTraffic traffic(Grid(opt.noc), profile, seed);
  return sim.run(traffic);
}

void print_result(const SimResult& r) {
  std::printf("%-8s exec=%9llu cyc  lat=%7.1f cyc  retxFlits=%8llu  "
              "eff=%6.3f flits/nJ  dynPwr=%6.3f W  T=%4.0f/%4.0f C  "
              "modes=[%.2f %.2f %.2f %.2f]\n",
              r.policy.c_str(),
              static_cast<unsigned long long>(r.execution_cycles),
              r.avg_packet_latency,
              static_cast<unsigned long long>(r.retransmitted_flits),
              r.energy_efficiency, r.avg_dynamic_power_w, r.avg_temperature_c,
              r.max_temperature_c, r.mode_fraction[0], r.mode_fraction[1],
              r.mode_fraction[2], r.mode_fraction[3]);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "canneal";
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  std::printf("rlftnoc quickstart: benchmark '%s', 8x8 mesh, seed %llu\n",
              bench.c_str(), static_cast<unsigned long long>(seed));

  const SimResult crc = run_one(PolicyKind::kStaticCrc, bench, seed);
  print_result(crc);
  const SimResult rl = run_one(PolicyKind::kRl, bench, seed);
  print_result(rl);

  if (crc.avg_packet_latency > 0.0 && crc.retransmitted_flits > 0) {
    std::printf("\nRL vs CRC: latency %+.1f%%, retransmission %+.1f%%, "
                "energy efficiency %+.1f%%\n",
                (rl.avg_packet_latency / crc.avg_packet_latency - 1.0) * 100.0,
                (static_cast<double>(rl.retransmitted_flits) /
                     static_cast<double>(crc.retransmitted_flits) -
                 1.0) * 100.0,
                (rl.energy_efficiency / crc.energy_efficiency - 1.0) * 100.0);
  }
  return 0;
}
