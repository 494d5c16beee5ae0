#include "sim/telemetry_probe.h"

#include <algorithm>
#include <array>
#include <string>

#include "ftnoc/controller.h"
#include "ftnoc/rl_policy.h"
#include "noc/network.h"
#include "workload/replay.h"

namespace rlftnoc {
namespace {

constexpr int kNumModes = 4;

std::uint64_t sum_ports(const std::array<std::uint64_t, kNumPorts>& a) {
  std::uint64_t s = 0;
  for (const std::uint64_t v : a) s += v;
  return s;
}

}  // namespace

SimTelemetryProbe::SimTelemetryProbe(Telemetry& telemetry, Network& net,
                                     FtController& ctl, ControlPolicy* policy)
    : telemetry_(telemetry), net_(net), ctl_(ctl), policy_(policy) {
  register_families();
  const auto n = static_cast<std::size_t>(net_.config().num_nodes());
  mode_counts_.assign(n * kNumModes, 0);
  temp_sum_.assign(n, 0.0);
  base_nacks_.assign(n, 0);
  base_flits_.assign(n, 0);
}

void SimTelemetryProbe::register_families() {
  MetricsRegistry& reg = telemetry_.metrics();
  const auto gauge = [&reg](MetricScope s, const char* name) {
    return reg.add(MetricKind::kGauge, s, name);
  };
  const auto counter = [&reg](MetricScope s, const char* name) {
    return reg.add(MetricKind::kCounter, s, name);
  };
  using S = MetricScope;

  m_mode_ = gauge(S::kPerRouter, "router.mode");
  m_temperature_ = gauge(S::kPerRouter, "router.temperature_c");
  m_reward_ = gauge(S::kPerRouter, "rl.reward");
  m_buffer_util_ = gauge(S::kPerRouter, "router.buffer_util");
  m_inject_queue_ = gauge(S::kPerRouter, "ni.inject_queue_depth");
  m_rl_table_entries_ = gauge(S::kGlobal, "rl.table_entries");
  m_rl_epsilon_ = gauge(S::kGlobal, "rl.epsilon");

  m_flits_in_ = counter(S::kPerRouter, "router.flits_in");
  m_hop_retx_ = counter(S::kPerRouter, "router.hop_retx");
  m_preretx_dup_ = counter(S::kPerRouter, "router.preretx_dup");
  m_nacks_sent_ = counter(S::kPerRouter, "router.nacks_sent");
  m_ecc_corrections_ = counter(S::kPerRouter, "router.ecc_corrections");
  m_ecc_uncorrectable_ = counter(S::kPerRouter, "router.ecc_uncorrectable");
  m_ni_reinjected_ = counter(S::kPerRouter, "ni.packets_reinjected");
  m_ni_crc_flit_fail_ = counter(S::kPerRouter, "ni.crc_flit_failures");
  m_port_flits_out_ = counter(S::kPerRouterPort, "router.port.flits_out");

  m_g_injected_ = counter(S::kGlobal, "net.packets_injected");
  m_g_delivered_ = counter(S::kGlobal, "net.packets_delivered");
  m_g_retx_e2e_ = counter(S::kGlobal, "net.retx_flits_e2e");
  m_g_retx_hop_ = counter(S::kGlobal, "net.retx_flits_hop");
  m_g_dup_flits_ = counter(S::kGlobal, "net.dup_flits");
  m_g_crc_pkt_fail_ = counter(S::kGlobal, "net.crc_packet_failures");
  // Parallel-stepper counters. Only thread-count-INVARIANT quantities may
  // appear here: exports are byte-identical across sim_threads values.
  // Exported (invariant — functions of the simulated traffic alone):
  //   staged_effects_merged, router/ni_steps_skipped, phase_dispatches
  //   (dispatch A runs iff any shard is awake, B iff any node is busy —
  //   both are properties of network state, not of the shard partition),
  //   merges_run (runs iff anything was staged), lookahead_cycles_slept
  //   (a cycle sleeps iff no node was busy at t-1 and no event fired at t).
  // Deliberately EXCLUDED (partition- or pool-dependent):
  //   pooled_phase_dispatches (depends on whether a pool exists),
  //   lookahead_shard_sleeps (scales with the shard count, which follows
  //   sim_threads), PhasePool::dispatches/inline_runs (scheduling cost,
  //   not simulation output).
  m_g_staged_fx_ = counter(S::kGlobal, "net.staged_effects_merged");
  m_g_router_skips_ = counter(S::kGlobal, "net.router_steps_skipped");
  m_g_ni_skips_ = counter(S::kGlobal, "net.ni_steps_skipped");
  m_g_phase_dispatches_ = counter(S::kGlobal, "net.phase_dispatches");
  m_g_merges_run_ = counter(S::kGlobal, "net.merges_run");
  m_g_lookahead_slept_ = counter(S::kGlobal, "net.lookahead_cycles_slept");
  // Dependency-gated workload replay progress. Registered unconditionally so
  // the export schema never depends on the workload kind; the gauges and
  // counters read 0 for non-replay runs.
  m_wl_total_ = gauge(S::kGlobal, "workload.transfers_total");
  m_wl_blocked_ = gauge(S::kGlobal, "workload.deps_blocked");
  m_wl_emitted_ = counter(S::kGlobal, "workload.transfers_emitted");
  m_wl_retired_ = counter(S::kGlobal, "workload.transfers_retired");
  m_wl_abandoned_ = counter(S::kGlobal, "workload.transfers_abandoned");

  h_reward_ = reg.add_histogram("rl.reward", 0.0, 5.0, 100);
  h_temperature_ = reg.add_histogram("router.temperature_c", 40.0, 120.0, 80);

  reg.freeze();
}

void SimTelemetryProbe::sample(Cycle now) {
  MetricsRegistry& reg = telemetry_.metrics();
  const int n = net_.config().num_nodes();
  const int total_vcs = static_cast<int>(kNumPorts) * net_.config().vcs_per_port;

  for (NodeId r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const Router& router = net_.router(r);
    const RouterCounters& rc = router.counters();
    const NiCounters& nc = net_.ni(r).counters();
    const int mode = static_cast<int>(router.mode());
    const double temp = ctl_.thermal().temperature(r);
    const double reward = ctl_.last_reward(r);

    reg.set(m_mode_, r, static_cast<double>(mode));
    reg.set(m_temperature_, r, temp);
    reg.set(m_reward_, r, reward);
    reg.set(m_buffer_util_, r,
            static_cast<double>(router.occupied_input_vcs()) / total_vcs);
    reg.set(m_inject_queue_, r,
            static_cast<double>(net_.ni(r).inject_queue_depth()));

    reg.set(m_flits_in_, r, static_cast<double>(sum_ports(rc.flits_in)));
    reg.set(m_hop_retx_, r, static_cast<double>(rc.hop_retransmissions));
    reg.set(m_preretx_dup_, r, static_cast<double>(rc.preretx_duplicates));
    reg.set(m_nacks_sent_, r, static_cast<double>(sum_ports(rc.nacks_sent)));
    reg.set(m_ecc_corrections_, r, static_cast<double>(rc.ecc_corrections));
    reg.set(m_ecc_uncorrectable_, r, static_cast<double>(rc.ecc_uncorrectable));
    reg.set(m_ni_reinjected_, r, static_cast<double>(nc.packets_reinjected));
    reg.set(m_ni_crc_flit_fail_, r, static_cast<double>(nc.crc_flit_failures));
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      reg.set(m_port_flits_out_, r, p, static_cast<double>(rc.flits_out[p]));
    }

    reg.observe(h_reward_, reward);
    reg.observe(h_temperature_, temp);

    mode_counts_[ri * kNumModes + static_cast<std::size_t>(mode)] += 1;
    temp_sum_[ri] += temp;
  }
  ++heat_samples_;

  const NetworkMetrics& m = net_.metrics();
  reg.set(m_g_injected_, static_cast<double>(m.packets_injected));
  reg.set(m_g_delivered_, static_cast<double>(m.packets_delivered));
  reg.set(m_g_retx_e2e_, static_cast<double>(m.retx_flits_e2e));
  reg.set(m_g_retx_hop_, static_cast<double>(m.retx_flits_hop));
  reg.set(m_g_dup_flits_, static_cast<double>(m.dup_flits));
  reg.set(m_g_crc_pkt_fail_, static_cast<double>(m.crc_packet_failures));
  reg.set(m_g_staged_fx_, static_cast<double>(net_.staged_effects_merged()));
  reg.set(m_g_router_skips_, static_cast<double>(net_.router_steps_skipped()));
  reg.set(m_g_ni_skips_, static_cast<double>(net_.ni_steps_skipped()));
  reg.set(m_g_phase_dispatches_, static_cast<double>(net_.phase_dispatches()));
  reg.set(m_g_merges_run_, static_cast<double>(net_.merges_run()));
  reg.set(m_g_lookahead_slept_,
          static_cast<double>(net_.lookahead_cycles_slept()));
  if (workload_ != nullptr) {
    reg.set(m_wl_total_, static_cast<double>(workload_->transfers_total()));
    reg.set(m_wl_blocked_, static_cast<double>(workload_->deps_blocked()));
    reg.set(m_wl_emitted_, static_cast<double>(workload_->transfers_emitted()));
    reg.set(m_wl_retired_, static_cast<double>(workload_->transfers_retired()));
    reg.set(m_wl_abandoned_,
            static_cast<double>(workload_->transfers_abandoned()));
  }

  if (const auto* rl = dynamic_cast<const RlPolicy*>(policy_)) {
    reg.set(m_rl_table_entries_,
            static_cast<double>(rl->total_table_entries()));
    reg.set(m_rl_epsilon_, rl->agent(0).params().epsilon);
  }

  telemetry_.sample(now);
}

void SimTelemetryProbe::begin_measure(Cycle /*now*/) {
  const int n = net_.config().num_nodes();
  heat_samples_ = 0;
  std::fill(mode_counts_.begin(), mode_counts_.end(), 0);
  std::fill(temp_sum_.begin(), temp_sum_.end(), 0.0);
  for (NodeId r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    base_nacks_[ri] = sum_ports(net_.router(r).counters().nacks_sent);
    base_flits_[ri] = sum_ports(net_.router(r).counters().flits_in);
  }
}

std::vector<HeatmapGrid> SimTelemetryProbe::heatmaps() const {
  const Topology& topo = net_.topology();
  const int n = net_.config().num_nodes();
  const auto nn = static_cast<std::size_t>(n);

  std::vector<HeatmapGrid> grids;
  const auto make_grid = [&](std::string name) {
    HeatmapGrid g;
    g.name = std::move(name);
    g.width = topo.width();
    g.height = topo.height();
    g.values.assign(nn, 0.0);
    return g;
  };

  for (int mode = 0; mode < kNumModes; ++mode) {
    HeatmapGrid g = make_grid("mode" + std::to_string(mode) + "_residency");
    if (heat_samples_ > 0) {
      for (std::size_t ri = 0; ri < nn; ++ri) {
        g.values[ri] =
            static_cast<double>(
                mode_counts_[ri * kNumModes + static_cast<std::size_t>(mode)]) /
            static_cast<double>(heat_samples_);
      }
    }
    grids.push_back(std::move(g));
  }

  HeatmapGrid nack = make_grid("nack_rate");
  for (NodeId r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const std::uint64_t nacks =
        sum_ports(net_.router(r).counters().nacks_sent) - base_nacks_[ri];
    const std::uint64_t flits =
        sum_ports(net_.router(r).counters().flits_in) - base_flits_[ri];
    nack.values[ri] =
        flits > 0 ? static_cast<double>(nacks) / static_cast<double>(flits) : 0.0;
  }
  grids.push_back(std::move(nack));

  HeatmapGrid temp = make_grid("temperature_c");
  if (heat_samples_ > 0) {
    for (std::size_t ri = 0; ri < nn; ++ri) {
      temp.values[ri] = temp_sum_[ri] / static_cast<double>(heat_samples_);
    }
  }
  grids.push_back(std::move(temp));

  return grids;
}

}  // namespace rlftnoc
