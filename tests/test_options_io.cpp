#include "sim/options_io.h"

#include <gtest/gtest.h>

#include <string>

#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

TEST(OptionsIo, EmptyConfigYieldsDefaults) {
  const SimOptions def;
  const SimOptions opt = sim_options_from_config(Config{});
  EXPECT_EQ(opt.noc.mesh_width, def.noc.mesh_width);
  EXPECT_EQ(opt.policy, def.policy);
  EXPECT_EQ(opt.seed, 1u);
  EXPECT_DOUBLE_EQ(opt.rl.alpha, def.rl.alpha);
  EXPECT_DOUBLE_EQ(opt.thermal.ambient_c, def.thermal.ambient_c);
}

TEST(OptionsIo, PolicySpellings) {
  EXPECT_EQ(policy_from_string("crc"), PolicyKind::kStaticCrc);
  EXPECT_EQ(policy_from_string("CRC"), PolicyKind::kStaticCrc);
  EXPECT_EQ(policy_from_string("arq"), PolicyKind::kStaticArqEcc);
  EXPECT_EQ(policy_from_string("ARQ+ECC"), PolicyKind::kStaticArqEcc);
  EXPECT_EQ(policy_from_string("dt"), PolicyKind::kDecisionTree);
  EXPECT_EQ(policy_from_string("rl"), PolicyKind::kRl);
  EXPECT_EQ(policy_from_string("Oracle"), PolicyKind::kOracle);
  EXPECT_THROW(policy_from_string("magic"), ConfigError);
}

TEST(OptionsIo, FullOverrideSet) {
  const Config cfg = Config::from_string(R"(
    policy = dt
    seed = 99
    jobs = 6
    sim_threads = 4
    audit = true
    audit_interval = 32
    error_scale = 2.5
    pretrain_cycles = 1234
    warmup_cycles = 567
    freeze_rl_on_measure = false
    per_port_state = true
    rl_shared_table = false
    rl.alpha = 0.3
    rl.gamma = 0.7
    rl.epsilon = 0.05
    ctrl.step_cycles = 250
    ctrl.voltage = 0.9
    ctrl.faults_enabled = false
    varius.sigma = 0.06
    varius.droop_rate = 0.0
    thermal.ambient_c = 55
    power.leak_w_at_ref = 0.02
    thresholds.low = 0.005
    noc.mesh_width = 4
    noc.mesh_height = 6
    noc.vcs_per_port = 2
    noc.routing = yx
  )");
  const SimOptions opt = sim_options_from_config(cfg);
  EXPECT_EQ(opt.policy, PolicyKind::kDecisionTree);
  EXPECT_EQ(opt.seed, 99u);
  EXPECT_EQ(opt.jobs, 6u);
  EXPECT_EQ(opt.sim_threads, 4u);
  EXPECT_TRUE(opt.audit);
  EXPECT_EQ(opt.audit_interval, 32u);
  EXPECT_DOUBLE_EQ(opt.error_scale, 2.5);
  EXPECT_EQ(opt.pretrain_cycles, 1234u);
  EXPECT_EQ(opt.warmup_cycles, 567u);
  EXPECT_FALSE(opt.freeze_rl_on_measure);
  EXPECT_TRUE(opt.per_port_state);
  EXPECT_FALSE(opt.rl_shared_table);
  EXPECT_DOUBLE_EQ(opt.rl.alpha, 0.3);
  EXPECT_DOUBLE_EQ(opt.rl.gamma, 0.7);
  EXPECT_DOUBLE_EQ(opt.rl.epsilon, 0.05);
  EXPECT_EQ(opt.controller.step_cycles, 250u);
  EXPECT_DOUBLE_EQ(opt.controller.voltage, 0.9);
  EXPECT_FALSE(opt.controller.faults_enabled);
  EXPECT_DOUBLE_EQ(opt.varius.sigma, 0.06);
  EXPECT_DOUBLE_EQ(opt.varius.droop_rate, 0.0);
  EXPECT_DOUBLE_EQ(opt.thermal.ambient_c, 55.0);
  EXPECT_DOUBLE_EQ(opt.power.leak_w_at_ref, 0.02);
  EXPECT_DOUBLE_EQ(opt.thresholds.low, 0.005);
  EXPECT_EQ(opt.noc.mesh_width, 4);
  EXPECT_EQ(opt.noc.mesh_height, 6);
  EXPECT_EQ(opt.noc.vcs_per_port, 2);
  EXPECT_EQ(opt.noc.routing, RoutingAlgorithm::kYX);
}

TEST(OptionsIo, AuditKeysRoundTrip) {
  Config cfg;
  cfg.set("audit", "true");
  cfg.set("audit_interval", "64");
  const Config reparsed = Config::from_string(cfg.to_string());
  const SimOptions opt = sim_options_from_config(reparsed);
  EXPECT_TRUE(opt.audit);
  EXPECT_EQ(opt.audit_interval, 64u);
}

TEST(OptionsIo, HardFaultsKeyParses) {
  const Config cfg = Config::from_string(R"(
    noc.mesh_width = 4
    noc.mesh_height = 4
    hard_faults = link:5:E@100, router:9
  )");
  const SimOptions opt = sim_options_from_config(cfg);
  ASSERT_EQ(opt.hard_faults.size(), 2u);
  EXPECT_EQ(opt.hard_faults[0].kind, HardFault::Kind::kLink);
  EXPECT_EQ(opt.hard_faults[0].node, 5);
  EXPECT_EQ(opt.hard_faults[0].port, Port::kEast);
  EXPECT_EQ(opt.hard_faults[0].at_cycle, 100u);
  EXPECT_EQ(opt.hard_faults[1].kind, HardFault::Kind::kRouter);
  EXPECT_EQ(opt.hard_faults[1].node, 9);
}

TEST(OptionsIo, MalformedHardFaultsThrowConfigError) {
  const Config cfg = Config::from_string("hard_faults = link:oops\n");
  EXPECT_THROW(sim_options_from_config(cfg), ConfigError);
}

TEST(OptionsIo, HardFaultsRejectWestfirstRouting) {
  const Config cfg = Config::from_string(R"(
    noc.routing = westfirst
    hard_faults = link:5:E
  )");
  EXPECT_THROW(sim_options_from_config(cfg), ConfigError);
}

TEST(OptionsIo, RetiredKeysThrowNamingTheirReplacement) {
  const auto message_for = [](const char* key, const char* value) {
    Config cfg;
    cfg.set(key, value);
    try {
      sim_options_from_config(cfg);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected ConfigError for key " << key;
    return std::string();
  };
  const std::string trace = message_for("trace", "old.trace");
  EXPECT_NE(trace.find("'trace'"), std::string::npos) << trace;
  EXPECT_NE(trace.find("use workload=<file>"), std::string::npos) << trace;
  const std::string step = message_for("step_cycles", "250");
  EXPECT_NE(step.find("'step_cycles'"), std::string::npos) << step;
  EXPECT_NE(step.find("use ctrl.step_cycles"), std::string::npos) << step;
}

TEST(OptionsIo, InvalidStructuralValueThrows) {
  const Config cfg = Config::from_string("noc.mesh_width = 1\n");
  EXPECT_THROW(sim_options_from_config(cfg), std::invalid_argument);
}

TEST(OptionsIo, MalformedValueThrows) {
  const Config cfg = Config::from_string("rl.alpha = fast\n");
  EXPECT_THROW(sim_options_from_config(cfg), ConfigError);
}

TEST(OptionsIo, ConfiguredOptionsRunEndToEnd) {
  const Config cfg = Config::from_string(R"(
    policy = arq
    seed = 3
    noc.mesh_width = 4
    noc.mesh_height = 4
    pretrain_cycles = 0
    warmup_cycles = 1000
  )");
  SimOptions opt = sim_options_from_config(cfg);
  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 1500;
  SyntheticTraffic gen(MeshTopology(opt.noc), o, opt.seed);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.policy, "ARQ+ECC");
}

}  // namespace
}  // namespace rlftnoc
