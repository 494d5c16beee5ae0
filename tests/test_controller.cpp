#include "ftnoc/controller.h"

#include "ftnoc/dt_policy.h"

#include <gtest/gtest.h>

#include "noc/ni.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

NocConfig cfg4() {
  NocConfig c;
  c.mesh_width = 4;
  c.mesh_height = 4;
  return c;
}

TEST(Controller, InitializesLinkProbabilities) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  FtController ctl(&net, &pol);
  // All links carry the cool-ambient error probability right away.
  const LinkErrorProb p = net.link_error_prob(5, Port::kEast);
  EXPECT_GT(p.normal, 0.0);
  EXPECT_LT(p.normal, 0.01);
  EXPECT_LT(p.relaxed, 1e-9);
}

TEST(Controller, FaultsCanBeDisabled) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  ControllerOptions opt;
  opt.faults_enabled = false;
  FtController ctl(&net, &pol, opt);
  EXPECT_EQ(net.link_error_prob(5, Port::kEast).normal, 0.0);
}

TEST(Controller, AppliesPolicyModeToAllRouters) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode2);
  FtController ctl(&net, &pol);
  for (NodeId r = 0; r < 16; ++r) EXPECT_EQ(net.router(r).mode(), OpMode::kMode2);
}

TEST(Controller, StepsOnSchedule) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  ControllerOptions opt;
  opt.step_cycles = 100;
  FtController ctl(&net, &pol, opt);
  const std::uint64_t start = ctl.steps();
  for (int i = 0; i < 1000; ++i) {
    net.step();
    ctl.on_cycle();
  }
  EXPECT_EQ(ctl.steps() - start, 10u);
}

TEST(Controller, TemperatureRisesUnderTraffic) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  ControllerOptions opt;
  opt.faults_enabled = false;  // isolate the thermal path
  FtController ctl(&net, &pol, opt);
  const double t0 = ctl.thermal().temperature(5);

  SyntheticTraffic::Options o;
  o.injection_rate = 0.15;
  o.total_packets = 0;
  SyntheticTraffic gen(Grid(cfg4()), o, 2);
  std::vector<Packet> batch;
  for (Cycle t = 0; t < 60000; ++t) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
    ctl.on_cycle();
  }
  EXPECT_GT(ctl.thermal().temperature(5), t0 + 5.0);
}

TEST(Controller, HotterMeansMoreErrors) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  FtController ctl(&net, &pol);
  const double p_cool = net.link_error_prob(5, Port::kEast).normal;

  SyntheticTraffic::Options o;
  o.injection_rate = 0.15;
  o.total_packets = 0;
  SyntheticTraffic gen(Grid(cfg4()), o, 2);
  std::vector<Packet> batch;
  for (Cycle t = 0; t < 60000; ++t) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
    ctl.on_cycle();
  }
  EXPECT_GT(net.link_error_prob(5, Port::kEast).normal, p_cool);
}

TEST(Controller, FeaturesReflectTraffic) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  ControllerOptions opt;
  opt.faults_enabled = false;
  FtController ctl(&net, &pol, opt);

  SyntheticTraffic::Options o;
  o.injection_rate = 0.12;
  o.total_packets = 0;
  SyntheticTraffic gen(Grid(cfg4()), o, 4);
  std::vector<Packet> batch;
  for (Cycle t = 0; t < 20000; ++t) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
    ctl.on_cycle();
  }
  const FeatureSnapshot& f = ctl.last_features(5);
  double total_util = 0.0;
  for (const double u : f.out_link_util) total_util += u;
  EXPECT_GT(total_util, 0.05);
  EXPECT_GT(f.temperature_c, 45.0);
}

TEST(Controller, RewardIsFiniteAndPositive) {
  Network net(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode1);
  FtController ctl(&net, &pol);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.1;
  o.total_packets = 0;
  SyntheticTraffic gen(Grid(cfg4()), o, 6);
  std::vector<Packet> batch;
  for (Cycle t = 0; t < 10000; ++t) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
    ctl.on_cycle();
  }
  for (NodeId r = 0; r < 16; ++r) {
    EXPECT_GT(ctl.last_reward(r), 0.0);
    EXPECT_LT(ctl.last_reward(r), 100.0);
  }
}

TEST(Controller, ControlEnergyChargedForLearningPolicies) {
  Network net(cfg4(), 1);
  DtPolicy dt;
  FtController ctl(&net, &dt);
  for (int i = 0; i < 3000; ++i) {
    net.step();
    ctl.on_cycle();
  }
  EXPECT_GT(net.power().total_event_count(PowerEvent::kDtInference), 0u);
}

TEST(Controller, ErrorScaleMultiplies) {
  Network net1(cfg4(), 1);
  Network net2(cfg4(), 1);
  StaticPolicy pol(OpMode::kMode0);
  FtController c1(&net1, &pol, {}, {}, 1.0);
  FtController c2(&net2, &pol, {}, {}, 10.0);
  EXPECT_NEAR(net2.link_error_prob(5, Port::kEast).normal,
              10.0 * net1.link_error_prob(5, Port::kEast).normal, 1e-12);
}

}  // namespace
}  // namespace rlftnoc
