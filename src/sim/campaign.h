// Experiment campaign runner: executes a benchmark suite across policies
// and renders the normalized tables behind Figs. 6-10.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/simulator.h"
#include "traffic/parsec.h"
#include "traffic/traffic.h"

namespace rlftnoc {

/// One grid of results: row = benchmark, column = policy.
struct CampaignResults {
  std::vector<std::string> benchmarks;
  std::vector<PolicyKind> policies;
  /// results[b][p] aligned with the vectors above.
  std::vector<std::vector<SimResult>> results;

  const SimResult& at(std::size_t bench, std::size_t pol) const {
    return results.at(bench).at(pol);
  }
};

/// Extracts the metric a figure plots from one run.
using MetricFn = std::function<double(const SimResult&)>;

/// Seed for one (benchmark, policy) run of a campaign: the base experiment
/// seed XOR a hash of the configuration's identity. Every run gets its own
/// deterministic stream, so campaign results are bit-identical regardless
/// of `SimOptions::jobs` or the order jobs happen to finish in.
std::uint64_t campaign_run_seed(std::uint64_t base_seed,
                                const std::string& benchmark, PolicyKind pol);

/// Builds the traffic a workload selector names, on the topology of
/// `opt.noc` and seeded with `opt.seed`. The one resolver shared by
/// rlftnoc_run and run_campaign; the first matching kind wins:
///  1. workload file (looks_like_workload_path): any read_workload encoding,
///     legacy packet traces included, replayed with dependency gating;
///  2. built-in generator ("dnn", "rpc", "nackstorm"), options from the
///     `wl.*` keys of `wl_cfg`;
///  3. PARSEC profile, its packet budget scaled by `budget_pct` and clamped
///     to at least one packet;
///  4. synthetic pattern (traffic_pattern_from_name) with `injection_rate`
///     and `packets` from `wl_cfg`.
/// Throws ConfigError listing the four kinds for any other selector.
std::unique_ptr<TrafficGenerator> make_traffic(const std::string& selector,
                                               const SimOptions& opt,
                                               const Config& wl_cfg,
                                               std::uint64_t budget_pct);

/// Runs every (benchmark, policy) pair, `base.jobs` configurations at a
/// time (1 = serial, 0 = one job per hardware thread). Each job derives its
/// seed via campaign_run_seed() and writes into its own results slot, so
/// output is independent of thread count. `packet_budget_scale_pct` scales
/// the packet budget (clamped to at least one packet) and the pretrain /
/// warm-up phase lengths together. Progress lines go to stderr, one
/// complete line per finished run.
///
/// Benchmark entries are any make_traffic selector, resolved with an empty
/// Config (generator and synthetic defaults). Workload files and built-in
/// generators run through the dependency-gated replay engine, whose transfer
/// graph is its own budget (packet_budget_scale_pct does not scale it). When
/// `base.record_workload` is set, each run captures into a derived path
/// with "-<benchmark>_<policy>" inserted before the extension.
CampaignResults run_campaign(const SimOptions& base,
                             const std::vector<std::string>& benchmarks,
                             const std::vector<PolicyKind>& policies,
                             std::uint64_t packet_budget_scale_pct = 100);

/// The derived per-run record_workload path: "-<benchmark>_<policy>"
/// (sanitized) inserted before the filename's extension.
std::string campaign_record_path(const std::string& base_path,
                                 const std::string& benchmark, PolicyKind pol);

/// Prints a per-benchmark table of `metric`, normalized to the first policy
/// column (the paper normalizes everything to the CRC baseline), plus the
/// geometric-mean row. `higher_is_better` flips the improvement arithmetic
/// in the summary line.
void print_normalized_table(std::ostream& out, const CampaignResults& campaign,
                            const std::string& title, const MetricFn& metric,
                            bool higher_is_better);

/// Convenience metric extractors matching the paper's figures.
double metric_retransmissions(const SimResult& r);
double metric_exec_speedup_inverse(const SimResult& r);  ///< execution cycles
double metric_latency(const SimResult& r);
double metric_energy_efficiency(const SimResult& r);
double metric_dynamic_power(const SimResult& r);

}  // namespace rlftnoc
