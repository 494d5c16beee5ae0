// Micro-performance benchmarks (google-benchmark): the hot inner kernels of
// the simulator. Useful when hacking on the router datapath — a regression
// here multiplies directly into campaign wall-time.
#include <benchmark/benchmark.h>

#include "coding/crc.h"
#include "coding/secded.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "noc/network.h"
#include "noc/ni.h"
#include "rl/agent.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

void BM_Crc32Flit(benchmark::State& state) {
  Rng rng(1);
  const BitVec128 payload(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(default_crc32().compute(payload));
  }
}
BENCHMARK(BM_Crc32Flit);

void BM_SecdedEncodeFlit(benchmark::State& state) {
  Rng rng(2);
  const BitVec128 payload(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_flit_ecc(default_secded(), payload));
  }
}
BENCHMARK(BM_SecdedEncodeFlit);

void BM_SecdedDecodeCorrupted(benchmark::State& state) {
  Rng rng(3);
  const BitVec128 payload(rng.next_u64(), rng.next_u64());
  const FlitEcc ecc = encode_flit_ecc(default_secded(), payload);
  BitVec128 bad = payload;
  bad.flip_bit(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_flit_ecc(default_secded(), bad, ecc));
  }
}
BENCHMARK(BM_SecdedDecodeCorrupted);

void BM_FaultInjection(benchmark::State& state) {
  VariusModel model;
  LinkFaultInjector inj(&model, 4, "bench");
  BitVec128 payload(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.inject(payload, nullptr, 0.01));
  }
}
BENCHMARK(BM_FaultInjection);

void BM_QLearningStep(benchmark::State& state) {
  QLearningAgent agent(QLearningParams{}, 5, "bench");
  Rng rng(6);
  DiscreteState s{0, 1, 2, 1, 0, 1, 0, 3};
  DiscreteState s2 = s;
  for (auto _ : state) {
    s[0] = static_cast<std::uint8_t>(rng.next_below(5));
    s2[1] = static_cast<std::uint8_t>(rng.next_below(5));
    const int a = agent.select_action(s);
    agent.update(s, a, 0.5, s2);
  }
}
BENCHMARK(BM_QLearningStep);

void BM_NetworkCyclePerLoad(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  NocConfig cfg;
  Network net(cfg, 1);
  SyntheticTraffic::Options o;
  o.injection_rate = rate;
  o.total_packets = 0;
  SyntheticTraffic gen(Grid(cfg), o, 7);
  std::vector<Packet> batch;
  for (auto _ : state) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCyclePerLoad)->Arg(2)->Arg(8)->Arg(15);

void BM_NetworkCycleWithFaultsAndEcc(benchmark::State& state) {
  NocConfig cfg;
  Network net(cfg, 1);
  for (NodeId r = 0; r < cfg.num_nodes(); ++r) {
    net.router(r).set_mode(OpMode::kMode1);
    for (const Port pt : kAllPorts) {
      if (pt != Port::kLocal && net.out_channel(r, pt) != nullptr)
        net.set_link_error_prob(r, pt, LinkErrorProb{0.01, 1e-12});
    }
  }
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 0;
  SyntheticTraffic gen(Grid(cfg), o, 8);
  std::vector<Packet> batch;
  for (auto _ : state) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCycleWithFaultsAndEcc);

}  // namespace
}  // namespace rlftnoc

BENCHMARK_MAIN();
