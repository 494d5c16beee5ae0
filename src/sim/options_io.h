// SimOptions <-> flat Config mapping, so experiments are fully describable
// as `key = value` text (CLI, config files, sweep scripts).
//
// Key namespaces: top-level experiment keys (policy, seed, jobs,
// error_scale, phase lengths), `noc.*` (NocConfig::from_config), `rl.*` (Q-learning
// hyper-parameters), `ctrl.*` (controller/coupling), `varius.*`,
// `thermal.*`, `power.leak_*`. Unknown keys are ignored by design — the
// caller owns workload keys etc. — except the retired `trace`,
// `step_cycles` and `noc.flits_per_packet` keys, which throw ConfigError
// naming their replacement.
#pragma once

#include "common/config.h"
#include "sim/simulator.h"

namespace rlftnoc {

/// Builds SimOptions from a flat Config; missing keys keep defaults,
/// malformed values and retired keys throw ConfigError, out-of-range
/// structural parameters throw std::invalid_argument (NocConfig::validate).
SimOptions sim_options_from_config(const Config& cfg);

/// Parses a policy spelling ("crc" | "arq" | "dt" | "rl" | "oracle", or the
/// display names used in result files); throws ConfigError otherwise.
PolicyKind policy_from_string(const std::string& s);

}  // namespace rlftnoc
