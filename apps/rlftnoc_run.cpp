// rlftnoc_run — config-file-driven simulation CLI.
//
// Usage:
//   rlftnoc_run [<config-file>] [--flag V | --flag=V ...] [key=value ...]
//   rlftnoc_run --dump-defaults
//
// Flags are shorthands for config keys (kFlags below):
//   --jobs N                  jobs = N
//   --sim-threads N           sim_threads = N
//   --audit                   audit = true
//   --workload W              workload = W
//   --record-workload PATH    record_workload = PATH
//   --kill-link NODE:P[@C]    appends link:NODE:P[@C] to hard_faults
//   --kill-router NODE[@C]    appends router:NODE[@C] to hard_faults
//   --trace                   telemetry = true
//   --trace-dir D             telemetry.dir = D
//   --metrics-interval N      metrics_interval = N
// An unknown flag is an error (exit 2).
//
// Config keys (all optional; defaults reproduce the paper's setup):
//   policy        = crc | arq | dt | rl | oracle
//   workload      = <parsec name> | uniform | transpose | hotspot | ... |
//                   dnn | rpc | nackstorm  (dependency-graph generators,
//                                           tuned with wl.* keys) |
//                   <path>  (rlftnoc-workload-v1 file: JSON, .wkb, or a
//                            legacy `cycle src dst len` packet trace;
//                            dependency-gated replay)
//   record_workload = <path>         (capture this run into a replayable
//                                     rlftnoc-workload-v1 file; .wkb =
//                                     binary)
//   seed          = 1
//   jobs          = 1                (campaign-mode parallelism)
//   sim_threads   = 1                (threads inside one run's Network::step;
//                                     0 = hardware threads. Results are
//                                     bit-identical for any value; total
//                                     threads ~= jobs x sim_threads)
//   audit         = false            (per-cycle invariant audit)
//   audit_interval= 1                (cycles between audit sweeps)
//   telemetry     = false            (event trace + metrics)
//   telemetry.dir = telemetry        (output directory)
//   metrics_interval = 1000          (cycles/sample)
//   telemetry.series_rows / telemetry.trace_capacity   (ring sizes)
//   hard_faults   =                  (permanent faults: "link:NODE:P[@CYCLE],
//                                     router:NODE[@CYCLE], ...". Needs
//                                     xy|yx|adaptive routing)
//   injection_rate= 0.06             (synthetic workloads)
//   packets       = 50000            (synthetic workloads)
//   budget_pct    = 100              (PARSEC workloads; at least 1 packet)
//   error_scale   = 1.0
//   pretrain_cycles / warmup_cycles / ctrl.step_cycles
//   rl_save       = <path>           (persist learned Q-tables after the run)
//   rl_load       = <path>           (start from previously saved Q-tables)
//   noc.mesh_width / noc.mesh_height / noc.vcs_per_port / ... (see NocConfig)
//
// Campaign mode (runs a benchmark x policy grid instead of one simulation):
//   campaign      = all | <bench1,bench2,...>
//   policies      = crc,arq,dt,rl     (default: the paper's four)
//   results_out   = <path>            (write the raw results TSV)
// `jobs` sets how many (benchmark, policy) runs execute concurrently; each
// run derives its own seed, so any value of jobs yields bit-identical
// results.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "ftnoc/rl_policy.h"
#include "sim/campaign.h"
#include "sim/options_io.h"
#include "sim/results_io.h"
#include "sim/simulator.h"
#include "traffic/parsec.h"

using namespace rlftnoc;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run_campaign_mode(const Config& cfg, const SimOptions& opt) {
  std::vector<std::string> benchmarks;
  const std::string spec = cfg.get_string("campaign");
  if (spec == "all") {
    for (const ParsecProfile& p : parsec_suite()) benchmarks.push_back(p.name);
  } else {
    benchmarks = split_csv(spec);
  }
  if (benchmarks.empty()) throw ConfigError("campaign: empty benchmark list");

  std::vector<PolicyKind> policies;
  for (const std::string& p : split_csv(cfg.get_string("policies", "crc,arq,dt,rl")))
    policies.push_back(policy_from_string(p));
  if (policies.empty()) throw ConfigError("policies: empty policy list");

  const auto budget =
      static_cast<std::uint64_t>(cfg.get_int("budget_pct", 100));
  const CampaignResults res = run_campaign(opt, benchmarks, policies, budget);
  if (opt.audit)
    std::printf("invariant audit: every run completed with zero violations\n");
  if (cfg.contains("results_out"))
    write_results_file(cfg.get_string("results_out"), res);

  print_normalized_table(std::cout, res, "execution time (lower = faster)",
                         metric_exec_speedup_inverse, false);
  print_normalized_table(std::cout, res, "avg end-to-end latency",
                         metric_latency, false);
  print_normalized_table(std::cout, res, "energy efficiency",
                         metric_energy_efficiency, true);
  return 0;
}

// How a flag writes its config key.
enum class FlagKind {
  kValue,         ///< key = the flag's value
  kSetTrue,       ///< key = true; the flag takes no value
  kAppendLink,    ///< appends "link:<value>" to the comma list in key
  kAppendRouter,  ///< appends "router:<value>" to the comma list in key
};

struct Flag {
  const char* flag;
  const char* key;
  FlagKind kind;
};

constexpr Flag kFlags[] = {
    {"--jobs", "jobs", FlagKind::kValue},
    {"--sim-threads", "sim_threads", FlagKind::kValue},
    {"--audit", "audit", FlagKind::kSetTrue},
    {"--workload", "workload", FlagKind::kValue},
    {"--record-workload", "record_workload", FlagKind::kValue},
    {"--kill-link", "hard_faults", FlagKind::kAppendLink},
    {"--kill-router", "hard_faults", FlagKind::kAppendRouter},
    {"--trace", "telemetry", FlagKind::kSetTrue},
    {"--trace-dir", "telemetry.dir", FlagKind::kValue},
    {"--metrics-interval", "metrics_interval", FlagKind::kValue},
};

/// Applies argv[i] (a `--flag`, `--flag V` or `--flag=V`) to `cfg`,
/// advancing `i` past a separate value. Throws ConfigError for an unknown
/// flag or a missing / unexpected value.
void apply_flag(Config& cfg, int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  const std::size_t eq = arg.find('=');
  const std::string name = arg.substr(0, eq);
  const Flag* f = nullptr;
  for (const Flag& cand : kFlags) {
    if (name == cand.flag) f = &cand;
  }
  if (f == nullptr) {
    std::string known;
    for (const Flag& cand : kFlags) known += std::string(" ") + cand.flag;
    throw ConfigError("unknown flag '" + name + "' (flags:" + known + ")");
  }
  if (f->kind == FlagKind::kSetTrue) {
    if (eq != std::string::npos) throw ConfigError(name + " takes no value");
    cfg.set(f->key, "true");
    return;
  }
  std::string value;
  if (eq != std::string::npos) {
    value = arg.substr(eq + 1);
  } else if (i + 1 < argc) {
    value = argv[++i];
  } else {
    throw ConfigError(name + " needs a value");
  }
  if (f->kind == FlagKind::kValue) {
    cfg.set(f->key, value);
    return;
  }
  const std::string item =
      (f->kind == FlagKind::kAppendLink ? "link:" : "router:") + value;
  const std::string prev = cfg.get_string(f->key, "");
  cfg.set(f->key, prev.empty() ? item : prev + "," + item);
}

void print_result(const SimResult& r) {
  std::printf("workload            %s\n", r.workload.c_str());
  std::printf("policy              %s\n", r.policy.c_str());
  std::printf("drained             %s\n", r.drained ? "yes" : "NO");
  std::printf("execution cycles    %llu\n",
              static_cast<unsigned long long>(r.execution_cycles));
  std::printf("packets delivered   %llu / %llu injected\n",
              static_cast<unsigned long long>(r.packets_delivered),
              static_cast<unsigned long long>(r.packets_injected));
  if (r.enqueue_drops > 0)
    std::printf("enqueue drops       %llu (source NI queues overflowed)\n",
                static_cast<unsigned long long>(r.enqueue_drops));
  if (r.unreachable_drops > 0)
    std::printf("unreachable drops   %llu (dead or disconnected endpoints)\n",
                static_cast<unsigned long long>(r.unreachable_drops));
  std::printf("avg e2e latency     %.2f cycles\n", r.avg_packet_latency);
  std::printf("fault retx flits    %llu (e2e %llu, link %llu)\n",
              static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
              static_cast<unsigned long long>(r.retx_flits_e2e),
              static_cast<unsigned long long>(r.retx_flits_hop));
  std::printf("mode-2 duplicates   %llu\n",
              static_cast<unsigned long long>(r.dup_flits));
  std::printf("energy              %.2f uJ dynamic + %.2f uJ leakage\n",
              r.dynamic_energy_pj * 1e-6, r.leakage_energy_pj * 1e-6);
  std::printf("energy efficiency   %.3f flits/nJ\n", r.energy_efficiency);
  std::printf("dynamic power       %.3f W\n", r.avg_dynamic_power_w);
  std::printf("temperature         avg %.1f C, max %.1f C\n", r.avg_temperature_c,
              r.max_temperature_c);
  std::printf("mode residency      %.2f / %.2f / %.2f / %.2f\n", r.mode_fraction[0],
              r.mode_fraction[1], r.mode_fraction[2], r.mode_fraction[3]);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Config cfg;
    int first_override = 1;
    if (argc > 1 && std::string(argv[1]) == "--dump-defaults") {
      std::printf(
          "policy = rl\nworkload = canneal\nseed = 1\nbudget_pct = 100\n"
          "error_scale = 1.0\n# pretrain_cycles = 500000\n# warmup_cycles = 50000\n"
          "# noc.mesh_width = 8\n# noc.vcs_per_port = 4\n");
      return 0;
    }
    if (argc > 1 && std::string(argv[1]).find('=') == std::string::npos &&
        std::string(argv[1]).rfind("--", 0) != 0) {
      cfg = Config::from_file(argv[1]);
      first_override = 2;
    }
    for (int i = first_override; i < argc; ++i) {
      const std::string kv = argv[i];
      if (kv.rfind("--", 0) == 0) {
        apply_flag(cfg, argc, argv, i);
        continue;
      }
      const auto eq = kv.find('=');
      if (eq == std::string::npos) throw ConfigError("override must be key=value: " + kv);
      cfg.set(kv.substr(0, eq), kv.substr(eq + 1));
    }

    SimOptions opt = sim_options_from_config(cfg);
    if (!cfg.contains("policy")) opt.policy = PolicyKind::kRl;

    if (cfg.contains("campaign")) return run_campaign_mode(cfg, opt);

    // A pre-trained policy skips the synthetic pre-training phase.
    if (cfg.contains("rl_load")) opt.pretrain_cycles = 0;

    auto workload = make_traffic(
        cfg.get_string("workload", "uniform"), opt, cfg,
        static_cast<std::uint64_t>(cfg.get_int("budget_pct", 100)));
    Simulator sim(opt);
    if (cfg.contains("rl_load")) {
      auto* rl = dynamic_cast<RlPolicy*>(&sim.policy());
      if (rl == nullptr) throw ConfigError("rl_load requires policy = rl");
      rl->load_tables(cfg.get_string("rl_load"));
    }
    const SimResult r = sim.run(*workload);
    if (const NetworkAuditor* auditor = sim.auditor()) {
      std::printf("invariant audit: %llu clean sweeps, zero violations\n",
                  static_cast<unsigned long long>(auditor->clean_passes()));
    }
    if (cfg.contains("rl_save")) {
      if (auto* rl = dynamic_cast<RlPolicy*>(&sim.policy())) {
        rl->save_tables(cfg.get_string("rl_save"));
        std::fprintf(stderr, "saved Q-tables to %s\n",
                     cfg.get_string("rl_save").c_str());
      }
    }
    print_result(r);
    if (!sim.telemetry_files().empty()) {
      std::printf("telemetry manifest  %s\n",
                  sim.telemetry_manifest_path().c_str());
    }
    return r.drained ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlftnoc_run: %s\n", e.what());
    return 2;
  }
}
