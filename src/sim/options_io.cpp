#include "sim/options_io.h"

#include <stdexcept>

#include "fault/hard_faults.h"

namespace rlftnoc {

PolicyKind policy_from_string(const std::string& s) {
  if (s == "crc" || s == "CRC") return PolicyKind::kStaticCrc;
  if (s == "arq" || s == "ARQ+ECC") return PolicyKind::kStaticArqEcc;
  if (s == "dt" || s == "DT") return PolicyKind::kDecisionTree;
  if (s == "rl" || s == "RL") return PolicyKind::kRl;
  if (s == "oracle" || s == "Oracle") return PolicyKind::kOracle;
  throw ConfigError("unknown policy '" + s + "' (crc|arq|dt|rl|oracle)");
}

SimOptions sim_options_from_config(const Config& cfg) {
  // Retired keys fail loudly: Config accepts any key, so an old config that
  // still sets one would otherwise run silently without it.
  static constexpr struct {
    const char* key;
    const char* replacement;
  } kRetired[] = {{"trace", "workload=<file>"},
                  {"step_cycles", "ctrl.step_cycles"},
                  {"noc.flits_per_packet", "a workload file's per-transfer len"}};
  for (const auto& r : kRetired) {
    if (cfg.contains(r.key)) {
      throw ConfigError(std::string("key '") + r.key +
                        "' is no longer supported: use " + r.replacement);
    }
  }
  SimOptions opt;
  opt.noc = NocConfig::from_config(cfg);
  if (cfg.contains("policy")) opt.policy = policy_from_string(cfg.get_string("policy"));
  opt.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  opt.jobs = static_cast<unsigned>(
      cfg.get_int("jobs", static_cast<std::int64_t>(opt.jobs)));
  opt.sim_threads = static_cast<unsigned>(
      cfg.get_int("sim_threads", static_cast<std::int64_t>(opt.sim_threads)));
  opt.audit = cfg.get_bool("audit", opt.audit);
  opt.audit_interval = static_cast<Cycle>(
      cfg.get_int("audit_interval", static_cast<std::int64_t>(opt.audit_interval)));
  opt.error_scale = cfg.get_double("error_scale", opt.error_scale);
  if (cfg.contains("hard_faults")) {
    try {
      opt.hard_faults = parse_hard_faults(cfg.get_string("hard_faults"));
    } catch (const std::invalid_argument& e) {
      throw ConfigError(std::string("hard_faults: ") + e.what());
    }
    if (!opt.hard_faults.empty() &&
        opt.noc.routing == RoutingAlgorithm::kWestFirst) {
      throw ConfigError(
          "hard_faults requires xy, yx or adaptive routing (westfirst has no "
          "fault-adaptive fallback)");
    }
  }
  opt.pretrain_cycles = static_cast<Cycle>(
      cfg.get_int("pretrain_cycles", static_cast<std::int64_t>(opt.pretrain_cycles)));
  opt.warmup_cycles = static_cast<Cycle>(
      cfg.get_int("warmup_cycles", static_cast<std::int64_t>(opt.warmup_cycles)));
  opt.max_measure_cycles = static_cast<Cycle>(cfg.get_int(
      "max_measure_cycles", static_cast<std::int64_t>(opt.max_measure_cycles)));
  opt.freeze_rl_on_measure =
      cfg.get_bool("freeze_rl_on_measure", opt.freeze_rl_on_measure);
  // Workload selection / capture (see src/workload): `workload` names a
  // synthetic pattern, parsec benchmark, built-in dependency-graph generator
  // or a workload file path; `record_workload` captures the run.
  opt.workload = cfg.get_string("workload", opt.workload);
  opt.record_workload = cfg.get_string("record_workload", opt.record_workload);
  opt.per_port_state = cfg.get_bool("per_port_state", opt.per_port_state);
  opt.rl_shared_table = cfg.get_bool("rl_shared_table", opt.rl_shared_table);

  // telemetry.* (see src/telemetry): `telemetry` switches the subsystem on
  // (the CLI spells it --trace).
  opt.telemetry.enabled = cfg.get_bool("telemetry", opt.telemetry.enabled);
  opt.telemetry.out_dir = cfg.get_string("telemetry.dir", opt.telemetry.out_dir);
  opt.telemetry.metrics_interval = static_cast<Cycle>(cfg.get_int(
      "metrics_interval",
      static_cast<std::int64_t>(opt.telemetry.metrics_interval)));
  opt.telemetry.series_rows = static_cast<std::size_t>(cfg.get_int(
      "telemetry.series_rows",
      static_cast<std::int64_t>(opt.telemetry.series_rows)));
  opt.telemetry.trace_capacity = static_cast<std::size_t>(cfg.get_int(
      "telemetry.trace_capacity",
      static_cast<std::int64_t>(opt.telemetry.trace_capacity)));

  // rl.*
  opt.rl.alpha = cfg.get_double("rl.alpha", opt.rl.alpha);
  opt.rl.gamma = cfg.get_double("rl.gamma", opt.rl.gamma);
  opt.rl.epsilon = cfg.get_double("rl.epsilon", opt.rl.epsilon);
  opt.rl.optimistic_init = cfg.get_double("rl.optimistic_init", opt.rl.optimistic_init);
  opt.rl.confidence_penalty =
      cfg.get_double("rl.confidence_penalty", opt.rl.confidence_penalty);
  opt.rl.action_cost_prior =
      cfg.get_double("rl.action_cost_prior", opt.rl.action_cost_prior);

  // ctrl.*
  opt.controller.step_cycles = static_cast<Cycle>(cfg.get_int(
      "ctrl.step_cycles",
      static_cast<std::int64_t>(opt.controller.step_cycles)));
  opt.controller.voltage = cfg.get_double("ctrl.voltage", opt.controller.voltage);
  opt.controller.faults_enabled =
      cfg.get_bool("ctrl.faults_enabled", opt.controller.faults_enabled);
  opt.controller.core_base_w =
      cfg.get_double("ctrl.core_base_w", opt.controller.core_base_w);
  opt.controller.core_per_flit_w =
      cfg.get_double("ctrl.core_per_flit_w", opt.controller.core_per_flit_w);
  opt.controller.reward_energy_weight = cfg.get_double(
      "ctrl.reward_energy_weight", opt.controller.reward_energy_weight);
  opt.controller.feature_ema_alpha =
      cfg.get_double("ctrl.feature_ema_alpha", opt.controller.feature_ema_alpha);

  // varius.*
  opt.varius.nominal_delay =
      cfg.get_double("varius.nominal_delay", opt.varius.nominal_delay);
  opt.varius.temp_coeff = cfg.get_double("varius.temp_coeff", opt.varius.temp_coeff);
  opt.varius.util_coeff = cfg.get_double("varius.util_coeff", opt.varius.util_coeff);
  opt.varius.sigma = cfg.get_double("varius.sigma", opt.varius.sigma);
  opt.varius.droop_rate = cfg.get_double("varius.droop_rate", opt.varius.droop_rate);
  opt.varius.droop_scale =
      cfg.get_double("varius.droop_scale", opt.varius.droop_scale);
  opt.varius.droop_len_traversals = static_cast<int>(cfg.get_int(
      "varius.droop_len", opt.varius.droop_len_traversals));

  // thermal.*
  opt.thermal.ambient_c = cfg.get_double("thermal.ambient_c", opt.thermal.ambient_c);
  opt.thermal.r_ambient = cfg.get_double("thermal.r_ambient", opt.thermal.r_ambient);
  opt.thermal.r_lateral = cfg.get_double("thermal.r_lateral", opt.thermal.r_lateral);
  opt.thermal.max_temp_c = cfg.get_double("thermal.max_temp_c", opt.thermal.max_temp_c);

  // power.*
  opt.power.leak_w_at_ref = cfg.get_double("power.leak_w_at_ref", opt.power.leak_w_at_ref);
  opt.power.leak_temp_coeff =
      cfg.get_double("power.leak_temp_coeff", opt.power.leak_temp_coeff);

  // thresholds.*
  opt.thresholds.low = cfg.get_double("thresholds.low", opt.thresholds.low);
  opt.thresholds.medium = cfg.get_double("thresholds.medium", opt.thresholds.medium);
  opt.thresholds.high = cfg.get_double("thresholds.high", opt.thresholds.high);

  return opt;
}

}  // namespace rlftnoc
