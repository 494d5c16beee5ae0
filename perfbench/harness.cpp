// rlftnoc benchmark harness: runs one workload job through the simulator
// libraries' public API and prints one JSON document on stdout.
//
//   rlftnoc_perfbench --workload NAME --seed N --mode job|traced|reference
//
//   job        The job a user waits on, untraced. Reports every run's
//              SimResult and the host time spent building traffic and
//              constructing Simulators.
//   traced     The same job with timing decorators around the control
//              policy and the traffic generator and Network phase timing on.
//              Adds the raw per-layer ledger, the job/run/phase spans and
//              two micro-measurements (control step, codecs).
//   reference  The same job through an independent path whose SimResults
//              must match the job's: run_campaign() for paper_campaign, a
//              different sim_threads value for the single-run workloads.
//
// Workload sizes live here; perfbench/run.py owns repetition, statistics
// and the correctness verdict.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coding/crc.h"
#include "coding/secded.h"
#include "common/bitvec.h"
#include "common/config.h"
#include "common/rng.h"
#include "ftnoc/dt_policy.h"
#include "ftnoc/policy.h"
#include "ftnoc/rl_policy.h"
#include "noc/topology.h"
#include "sim/campaign.h"
#include "sim/options_io.h"
#include "sim/simulator.h"
#include "traffic/parsec.h"
#include "traffic/traffic.h"
#include "workload/generators.h"
#include "workload/replay.h"

namespace {

using rlftnoc::Cycle;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --------------------------------------------------------------------------
// Workload definitions
// --------------------------------------------------------------------------

/// paper_campaign: share of each PARSEC profile's packet budget replayed.
/// run_campaign scales pretrain and warm-up by the same percentage.
constexpr std::uint64_t kCampaignBudgetPct = 2;
/// mesh64_uniform: packets of uniform traffic on the 64x64 mesh. Injection
/// lasts ~packets/20 cycles, which keeps >= 1000 tick-gap samples.
constexpr std::uint64_t kMesh64Packets = 22000;
/// torus_fault_rpc: independent placements per job, and the closed-loop
/// requests each of the 24 clients issues per placement. A job averages
/// over placements because one placement's cost varies widely with how its
/// traffic meets the dead links and the error-prone routers.
constexpr int kTorusRuns = 6;
constexpr int kRpcRequestsPerClient = 150;

const std::array<rlftnoc::PolicyKind, 4> kPaperPolicies = {
    rlftnoc::PolicyKind::kStaticCrc, rlftnoc::PolicyKind::kStaticArqEcc,
    rlftnoc::PolicyKind::kDecisionTree, rlftnoc::PolicyKind::kRl};

using TrafficFactory =
    std::function<std::unique_ptr<rlftnoc::TrafficGenerator>(const rlftnoc::SimOptions&)>;

/// One Simulator run of a job: its options and how to build its traffic.
struct RunPlan {
  rlftnoc::SimOptions opt;
  TrafficFactory make_traffic;
};

rlftnoc::SimOptions options_from(const std::string& text, std::uint64_t seed) {
  rlftnoc::Config cfg = rlftnoc::Config::from_string(text);
  cfg.set("seed", std::to_string(seed));
  return rlftnoc::sim_options_from_config(cfg);
}

rlftnoc::SimOptions campaign_base(std::uint64_t seed) {
  return options_from("jobs = 1\nsim_threads = 1\n", seed);
}

std::vector<std::string> parsec_names() {
  std::vector<std::string> names;
  for (const rlftnoc::ParsecProfile& p : rlftnoc::parsec_suite()) names.push_back(p.name);
  return names;
}

/// The paper's 8 benchmarks x 4 policies, mirroring run_campaign's per-run
/// seed derivation and budget scaling so the results must equal its own.
std::vector<RunPlan> paper_campaign_plan(std::uint64_t seed) {
  const rlftnoc::SimOptions base = campaign_base(seed);
  std::vector<RunPlan> plan;
  for (const std::string& bench : parsec_names()) {
    for (const rlftnoc::PolicyKind pol : kPaperPolicies) {
      RunPlan run{base, nullptr};
      run.opt.policy = pol;
      run.opt.seed = rlftnoc::campaign_run_seed(base.seed, bench, pol);
      run.opt.warmup_cycles = run.opt.warmup_cycles * kCampaignBudgetPct / 100;
      run.opt.pretrain_cycles = run.opt.pretrain_cycles * kCampaignBudgetPct / 100;
      run.make_traffic = [bench](const rlftnoc::SimOptions& opt) {
        const rlftnoc::Topology topo(opt.noc);
        rlftnoc::ParsecProfile profile = rlftnoc::parsec_profile(bench);
        profile.total_packets = std::max<std::uint64_t>(
            1, profile.total_packets * kCampaignBudgetPct / 100);
        return std::make_unique<rlftnoc::ParsecTraffic>(topo, profile, opt.seed);
      };
      plan.push_back(std::move(run));
    }
  }
  return plan;
}

/// One 64x64 run with fault injection off: the job measures stepping under
/// load, and an error-driven retransmission tail would make its cycle count
/// vary by ~7% between seeds.
std::vector<RunPlan> mesh64_plan(std::uint64_t seed, unsigned sim_threads) {
  RunPlan run{options_from(
                  "noc.mesh_width = 64\nnoc.mesh_height = 64\npolicy = arq\n"
                  "pretrain_cycles = 0\nwarmup_cycles = 0\nerror_scale = 0\n",
                  seed),
              nullptr};
  run.opt.sim_threads = sim_threads;
  run.make_traffic = [](const rlftnoc::SimOptions& opt) {
    rlftnoc::SyntheticTraffic::Options t;
    t.pattern = rlftnoc::TrafficPattern::kUniform;
    t.injection_rate = 0.02;
    t.total_packets = kMesh64Packets;
    return std::make_unique<rlftnoc::SyntheticTraffic>(rlftnoc::Topology(opt.noc), t,
                                                       opt.seed);
  };
  return {std::move(run)};
}

/// kTorusRuns rpc placements, each seeded from the job seed and its index.
/// Two links are dead from the start and two more die mid-measurement, so
/// fault teardown and the adaptive-route rebuild run in every placement.
std::vector<RunPlan> torus_plan(std::uint64_t seed, unsigned sim_threads) {
  std::vector<RunPlan> plan;
  for (int k = 0; k < kTorusRuns; ++k) {
    const std::uint64_t run_seed =
        seed ^ rlftnoc::fnv1a64("torus_fault_rpc/" + std::to_string(k));
    RunPlan run{options_from(
                    "noc.topology = torus\nnoc.routing = adaptive\npolicy = rl\n"
                    "error_scale = 3\npretrain_cycles = 20000\nwarmup_cycles = 0\n"
                    "hard_faults = link:27:E link:10:N link:36:S@25000 "
                    "link:45:W@35000\n",
                    run_seed),
                nullptr};
    run.opt.sim_threads = sim_threads;
    run.make_traffic = [](const rlftnoc::SimOptions& opt) {
      const rlftnoc::Topology topo(opt.noc);
      rlftnoc::RpcWorkloadOptions rpc;
      rpc.clients = 24;
      rpc.servers = 24;
      rpc.fanout = 3;
      rpc.requests_per_client = kRpcRequestsPerClient;
      return std::make_unique<rlftnoc::WorkloadReplayTraffic>(
          rlftnoc::make_rpc_workload(topo, rpc, opt.seed), topo.num_nodes(), opt.seed);
    };
    plan.push_back(std::move(run));
  }
  return plan;
}

/// The job's runs; `reference` selects the other sim_threads value.
std::vector<RunPlan> plan_job(const std::string& workload, std::uint64_t seed,
                              bool reference) {
  if (workload == "paper_campaign") return paper_campaign_plan(seed);
  if (workload == "mesh64_uniform") return mesh64_plan(seed, reference ? 1 : 2);
  if (workload == "torus_fault_rpc") return torus_plan(seed, reference ? 2 : 1);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

// --------------------------------------------------------------------------
// Timing decorators
// --------------------------------------------------------------------------

/// Forwards every ControlPolicy virtual to the wrapped policy, timing
/// decide() and stamping phase boundaries.
class TimedPolicy final : public rlftnoc::ControlPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<rlftnoc::ControlPolicy> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }

  rlftnoc::OpMode decide(rlftnoc::NodeId router, const rlftnoc::FeatureSnapshot& state,
                         double reward) override {
    const Clock::time_point t0 = Clock::now();
    const rlftnoc::OpMode mode = inner_->decide(router, state, reward);
    decide_s_ += seconds_between(t0, Clock::now());
    ++decide_calls_;
    return mode;
  }

  void begin_phase(rlftnoc::SimPhase phase) override {
    phase_begin_[static_cast<std::size_t>(phase)] = Clock::now();
    inner_->begin_phase(phase);
  }

  std::optional<rlftnoc::PowerEvent> control_energy_event() const override {
    return inner_->control_energy_event();
  }

  const rlftnoc::ControlPolicy& inner() const noexcept { return *inner_; }
  double decide_s() const noexcept { return decide_s_; }
  std::uint64_t decide_calls() const noexcept { return decide_calls_; }
  Clock::time_point phase_begin(rlftnoc::SimPhase phase) const {
    return phase_begin_[static_cast<std::size_t>(phase)];
  }

 private:
  std::unique_ptr<rlftnoc::ControlPolicy> inner_;
  double decide_s_ = 0.0;
  std::uint64_t decide_calls_ = 0;
  std::array<Clock::time_point, 3> phase_begin_{};
};

/// Forwards every TrafficGenerator virtual to the wrapped generator, timing
/// tick() and recording the host time between successive ticks (one
/// simulated cycle each while the generator is live).
class TimedTraffic final : public rlftnoc::TrafficGenerator {
 public:
  TimedTraffic(rlftnoc::TrafficGenerator& inner, std::vector<float>& gaps_us)
      : inner_(inner), gaps_us_(gaps_us) {}

  void tick(Cycle now, std::vector<rlftnoc::Packet>& out) override {
    const Clock::time_point t0 = Clock::now();
    if (ticked_) gaps_us_.push_back(static_cast<float>(seconds_between(last_, t0) * 1e6));
    last_ = t0;
    ticked_ = true;
    const std::size_t before = out.size();
    inner_.tick(now, out);
    packets_ += out.size() - before;
    tick_s_ += seconds_between(t0, Clock::now());
  }
  bool exhausted() const override { return inner_.exhausted(); }
  const std::string& name() const override { return inner_.name(); }

  double tick_s() const noexcept { return tick_s_; }
  std::uint64_t packets() const noexcept { return packets_; }

 private:
  rlftnoc::TrafficGenerator& inner_;
  std::vector<float>& gaps_us_;
  Clock::time_point last_{};
  bool ticked_ = false;
  double tick_s_ = 0.0;
  std::uint64_t packets_ = 0;
};

// --------------------------------------------------------------------------
// JSON output
// --------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_number(std::uint64_t v) { return std::to_string(v); }

/// Builds one flat-or-nested JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

/// Every SimResult field, all of them simulated quantities (the struct holds
/// no host-time field). perfbench/test_ledger.py checks this list against
/// the struct definition.
std::string result_json(const rlftnoc::SimResult& r) {
  std::vector<std::string> modes;
  for (const double f : r.mode_fraction) modes.push_back(json_number(f));
  return JsonObject()
      .str("workload", r.workload)
      .str("policy", r.policy)
      .count("execution_cycles", r.execution_cycles)
      .count("total_cycles", r.total_cycles)
      .boolean("drained", r.drained)
      .num("avg_packet_latency", r.avg_packet_latency)
      .num("p50_latency", r.p50_latency)
      .num("p95_latency", r.p95_latency)
      .num("p99_latency", r.p99_latency)
      .count("packets_injected", r.packets_injected)
      .count("packets_delivered", r.packets_delivered)
      .count("flits_delivered", r.flits_delivered)
      .count("enqueue_drops", r.enqueue_drops)
      .count("unreachable_drops", r.unreachable_drops)
      .count("retransmitted_flits", r.retransmitted_flits)
      .count("retx_flits_e2e", r.retx_flits_e2e)
      .count("retx_flits_hop", r.retx_flits_hop)
      .count("dup_flits", r.dup_flits)
      .count("crc_packet_failures", r.crc_packet_failures)
      .num("dynamic_energy_pj", r.dynamic_energy_pj)
      .num("leakage_energy_pj", r.leakage_energy_pj)
      .num("total_energy_pj", r.total_energy_pj)
      .num("energy_efficiency", r.energy_efficiency)
      .num("avg_dynamic_power_w", r.avg_dynamic_power_w)
      .num("avg_total_power_w", r.avg_total_power_w)
      .num("avg_temperature_c", r.avg_temperature_c)
      .num("max_temperature_c", r.max_temperature_c)
      .raw("mode_fraction", json_array(modes))
      .count("rl_table_entries", r.rl_table_entries)
      .num("dt_training_accuracy", r.dt_training_accuracy)
      .done();
}

// --------------------------------------------------------------------------
// Spans and the per-layer ledger
// --------------------------------------------------------------------------

/// Job -> run -> phase spans, kept in memory and emitted with the output.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int add(const std::string& name, int parent, Clock::time_point start,
          Clock::time_point end) {
    spans_.push_back({name, parent, seconds_between(origin_, start),
                      seconds_between(origin_, end), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
  }
  void count(int id, const std::string& key, double v) {
    spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, v);
  }

  std::string json() const {
    std::vector<std::string> items;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject counts;
      for (const auto& [k, v] : s.counts) counts.num(k, v);
      items.push_back(JsonObject()
                          .count("id", i)
                          .raw("parent", s.parent < 0 ? "null" : std::to_string(s.parent))
                          .str("name", s.name)
                          .num("start_s", s.start_s)
                          .num("end_s", s.end_s)
                          .raw("counts", counts.done())
                          .done());
    }
    return json_array(items);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
    std::vector<std::pair<std::string, double>> counts;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Raw layer totals summed over a job's runs. run.py derives the reported
/// per-layer metrics (ratios, closure) from these.
struct Ledger {
  double run_wall_s = 0, pretrain_s = 0, warmup_s = 0, measure_s = 0;
  double noc_serial_s = 0, noc_receive_s = 0, noc_execute_s = 0, noc_merge_s = 0;
  double decide_s = 0, tick_s = 0;
  std::uint64_t decide_calls = 0, packets = 0;
  std::uint64_t stepped_cycles = 0, router_cycles = 0;
  std::uint64_t router_steps_skipped = 0, ni_steps_skipped = 0, lookahead_cycles_slept = 0;
  std::uint64_t phase_dispatches = 0, pooled_phase_dispatches = 0, merges_run = 0;
  std::uint64_t staged_effects_merged = 0, hard_faults_applied = 0;
  std::vector<float> cycle_gaps_us;

  /// Adds the layer totals of one finished run and attaches them to its span.
  void add_run(rlftnoc::Simulator& sim, double run_decide_s,
               std::uint64_t run_decide_calls, const TimedTraffic* traffic, std::uint64_t replay_packets,
               double run_wall, SpanLog& spans, int run_span) {
    const rlftnoc::Network& net = sim.network();
    const rlftnoc::Network::PhaseTimings& pt = net.phase_timings();
    const std::uint64_t cycles = net.now();
    const std::uint64_t nodes = static_cast<std::uint64_t>(net.config().num_nodes());
    const std::vector<std::pair<const char*, double>> counts = {
        {"noc.serial_s", pt.serial_seconds},
        {"noc.receive_s", pt.receive_seconds},
        {"noc.execute_s", pt.execute_seconds},
        {"noc.merge_s", pt.merge_seconds},
        {"ftnoc.decide_s", run_decide_s},
        {"ftnoc.decide_calls", static_cast<double>(run_decide_calls)},
        {"traffic.tick_s", traffic ? traffic->tick_s() : 0.0},
        {"traffic.packets",
         static_cast<double>(traffic ? traffic->packets() : replay_packets)},
        {"noc.stepped_cycles", static_cast<double>(cycles)},
        {"noc.router_steps_skipped", static_cast<double>(net.router_steps_skipped())},
        {"noc.ni_steps_skipped", static_cast<double>(net.ni_steps_skipped())},
        {"noc.lookahead_cycles_slept", static_cast<double>(net.lookahead_cycles_slept())},
        {"noc.phase_dispatches", static_cast<double>(net.phase_dispatches())},
        {"noc.pooled_phase_dispatches", static_cast<double>(net.pooled_phase_dispatches())},
        {"noc.merges_run", static_cast<double>(net.merges_run())},
        {"noc.staged_effects_merged", static_cast<double>(net.staged_effects_merged())},
        {"noc.hard_faults_applied", static_cast<double>(net.hard_faults_applied())},
    };
    for (const auto& [k, v] : counts) spans.count(run_span, k, v);

    run_wall_s += run_wall;
    noc_serial_s += pt.serial_seconds;
    noc_receive_s += pt.receive_seconds;
    noc_execute_s += pt.execute_seconds;
    noc_merge_s += pt.merge_seconds;
    decide_s += run_decide_s;
    decide_calls += run_decide_calls;
    if (traffic) {
      tick_s += traffic->tick_s();
      packets += traffic->packets();
    } else {
      packets += replay_packets;
    }
    stepped_cycles += cycles;
    router_cycles += nodes * cycles;
    router_steps_skipped += net.router_steps_skipped();
    ni_steps_skipped += net.ni_steps_skipped();
    lookahead_cycles_slept += net.lookahead_cycles_slept();
    phase_dispatches += net.phase_dispatches();
    pooled_phase_dispatches += net.pooled_phase_dispatches();
    merges_run += net.merges_run();
    staged_effects_merged += net.staged_effects_merged();
    hard_faults_applied += net.hard_faults_applied();
  }

  std::string json() const {
    JsonObject q;
    const std::size_t n = cycle_gaps_us.size();
    std::vector<float> sorted = cycle_gaps_us;
    // Percentiles in tenths of a percent; ledger.py decides which may be
    // reported for the sample count.
    const std::pair<const char*, std::size_t> percentiles[] = {{"50", 500}, {"99", 990}};
    for (const auto& [label, tenths] : percentiles) {
      double v = 0.0;
      if (n > 0) {
        // Nearest rank over the exact sample set: ceil(tenths * n / 1000).
        const std::size_t rank = std::max<std::size_t>(1, (tenths * n + 999) / 1000);
        const std::size_t k = rank - 1;
        std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(k),
                         sorted.end());
        v = sorted[k];
      }
      q.num(label, v);
    }
    return JsonObject()
        .num("run_wall_s", run_wall_s)
        .num("pretrain_s", pretrain_s)
        .num("warmup_s", warmup_s)
        .num("measure_s", measure_s)
        .num("noc_serial_s", noc_serial_s)
        .num("noc_receive_s", noc_receive_s)
        .num("noc_execute_s", noc_execute_s)
        .num("noc_merge_s", noc_merge_s)
        .num("decide_s", decide_s)
        .count("decide_calls", decide_calls)
        .num("tick_s", tick_s)
        .count("packets", packets)
        .count("stepped_cycles", stepped_cycles)
        .count("router_cycles", router_cycles)
        .count("router_steps_skipped", router_steps_skipped)
        .count("ni_steps_skipped", ni_steps_skipped)
        .count("lookahead_cycles_slept", lookahead_cycles_slept)
        .count("phase_dispatches", phase_dispatches)
        .count("pooled_phase_dispatches", pooled_phase_dispatches)
        .count("merges_run", merges_run)
        .count("staged_effects_merged", staged_effects_merged)
        .count("hard_faults_applied", hard_faults_applied)
        .count("cycle_gap_samples", n)
        .raw("cycle_gap_us_percentiles", q.done())
        .done();
  }
};

// --------------------------------------------------------------------------
// Running a job
// --------------------------------------------------------------------------

struct RunOutcome {
  bool ok = false;
  std::string error;
  rlftnoc::SimResult result;
};

struct JobOutput {
  std::vector<RunOutcome> runs;
  double build_s = 0.0;      ///< traffic / workload generator construction
  double construct_s = 0.0;  ///< Simulator construction
  double job_wall_s = 0.0;
  std::optional<Ledger> ledger;
  std::unique_ptr<rlftnoc::Simulator> last_sim;  ///< traced: for control_step timing
};

/// Runs the job's plans in order. A run that throws is recorded as failed
/// and the job continues. `traced` wraps policy and traffic in the timing
/// decorators, turns on Network phase timing and fills the ledger.
JobOutput run_job(const std::vector<RunPlan>& plan, bool traced, SpanLog* spans) {
  JobOutput out;
  if (traced) out.ledger.emplace();
  const Clock::time_point job_start = Clock::now();
  const int job_span = spans ? spans->add("job", -1, job_start, job_start) : -1;
  for (const RunPlan& run : plan) {
    RunOutcome outcome;
    try {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<rlftnoc::TrafficGenerator> traffic = run.make_traffic(run.opt);
      const Clock::time_point t1 = Clock::now();
      std::unique_ptr<rlftnoc::Simulator> sim;
      TimedPolicy* policy = nullptr;
      if (traced) {
        auto timed = std::make_unique<TimedPolicy>(rlftnoc::make_policy(run.opt));
        policy = timed.get();
        sim = std::make_unique<rlftnoc::Simulator>(run.opt, std::move(timed));
      } else {
        sim = std::make_unique<rlftnoc::Simulator>(run.opt);
      }
      const Clock::time_point t2 = Clock::now();
      out.build_s += seconds_between(t0, t1);
      out.construct_s += seconds_between(t1, t2);

      if (!traced) {
        outcome.result = sim->run(*traffic);
      } else {
        Ledger& ledger = *out.ledger;
        sim->network().set_phase_timing(true);
        // WorkloadReplayTraffic must reach Simulator::run undecorated: the
        // Simulator finds it by dynamic_cast to feed it packet completions.
        auto* replay = dynamic_cast<rlftnoc::WorkloadReplayTraffic*>(traffic.get());
        std::optional<TimedTraffic> timed_traffic;
        if (!replay) timed_traffic.emplace(*traffic, ledger.cycle_gaps_us);
        // Decisions taken by the constructor's initial control step are set-up.
        const double decide_s0 = policy->decide_s();
        const std::uint64_t decide_calls0 = policy->decide_calls();

        const Clock::time_point r0 = Clock::now();
        if (timed_traffic) {
          outcome.result = sim->run(*timed_traffic);
        } else {
          outcome.result = sim->run(*traffic);
        }
        const Clock::time_point r1 = Clock::now();

        // Wrapping hides the learning policy from the Simulator's
        // dynamic_cast; read its diagnostics from the inner policy.
        if (const auto* rl = dynamic_cast<const rlftnoc::RlPolicy*>(&policy->inner()))
          outcome.result.rl_table_entries = rl->total_table_entries();
        if (const auto* dt = dynamic_cast<const rlftnoc::DtPolicy*>(&policy->inner()))
          outcome.result.dt_training_accuracy = dt->training_accuracy();

        const Clock::time_point p_pre = policy->phase_begin(rlftnoc::SimPhase::kPretrain);
        const Clock::time_point p_warm = policy->phase_begin(rlftnoc::SimPhase::kWarmup);
        const Clock::time_point p_meas = policy->phase_begin(rlftnoc::SimPhase::kMeasure);
        ledger.pretrain_s += seconds_between(p_pre, p_warm);
        ledger.warmup_s += seconds_between(p_warm, p_meas);
        ledger.measure_s += seconds_between(p_meas, r1);

        const int run_span = spans->add("run:" + outcome.result.workload + "/" +
                                            outcome.result.policy,
                                        job_span, t0, r1);
        spans->add("workload.build", run_span, t0, t1);
        spans->add("sim.construct", run_span, t1, t2);
        spans->add("sim.pretrain", run_span, p_pre, p_warm);
        spans->add("sim.warmup", run_span, p_warm, p_meas);
        spans->add("sim.measure", run_span, p_meas, r1);
        ledger.add_run(*sim, policy->decide_s() - decide_s0,
                       policy->decide_calls() - decide_calls0,
                       timed_traffic ? &*timed_traffic : nullptr,
                       replay ? replay->transfers_emitted() : 0,
                       seconds_between(r0, r1), *spans, run_span);
        out.last_sim = std::move(sim);
      }
      outcome.ok = true;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    out.runs.push_back(std::move(outcome));
  }
  const Clock::time_point job_end = Clock::now();
  out.job_wall_s = seconds_between(job_start, job_end);
  if (spans) spans->set_end(job_span, job_end);
  return out;
}

/// Median host microseconds of one FtController::control_step() on the
/// finished run's mesh and policy.
double control_step_us(rlftnoc::Simulator& sim) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 20 || (samples.size() < 20000 && seconds_between(start, Clock::now()) < 0.2)) {
    const Clock::time_point t0 = Clock::now();
    sim.controller().control_step();
    samples.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

/// Codec throughput on fixed pseudo-random flit payloads: median over
/// rounds of host nanoseconds per 128-bit flit. `ok` reports the codecs'
/// known-answer and round-trip checks.
struct CodecTiming {
  double crc32_ns_per_flit = 0.0;
  double secded_ns_per_flit = 0.0;
  bool ok = false;
};

CodecTiming time_codecs() {
  constexpr std::size_t kFlits = 4096;
  constexpr int kRounds = 15;
  std::vector<rlftnoc::BitVec128> payloads;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = 0; i < kFlits; ++i) payloads.emplace_back(next(), next());

  const rlftnoc::Crc32& crc = rlftnoc::default_crc32();
  const rlftnoc::Secded7264& secded = rlftnoc::default_secded();
  CodecTiming t;
  const std::uint8_t check_bytes[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  t.ok = crc.compute(std::span<const std::uint8_t>(check_bytes)) == 0xCBF43926u;

  // Opaque barriers keep the timed loops in place: the payloads may have
  // changed before each loop, and each accumulator is read after it.
  auto clobber = [&payloads] { asm volatile("" : : "r"(payloads.data()) : "memory"); };
  std::uint64_t acc = 0;
  std::vector<double> crc_ns, ecc_ns;
  for (int round = 0; round < kRounds; ++round) {
    clobber();
    const Clock::time_point a = Clock::now();
    for (const rlftnoc::BitVec128& p : payloads) acc += crc.compute(p);
    asm volatile("" : "+r"(acc));
    clobber();
    const Clock::time_point b = Clock::now();
    for (const rlftnoc::BitVec128& p : payloads) {
      const rlftnoc::FlitEcc ecc = rlftnoc::encode_flit_ecc(secded, p);
      const rlftnoc::FlitEccDecode dec = rlftnoc::decode_flit_ecc(secded, p, ecc);
      acc += static_cast<std::uint64_t>(dec.status) + dec.payload.word(0);
    }
    asm volatile("" : "+r"(acc));
    const Clock::time_point c = Clock::now();
    crc_ns.push_back(seconds_between(a, b) * 1e9 / kFlits);
    ecc_ns.push_back(seconds_between(b, c) * 1e9 / kFlits);
  }
  // Round trip: every clean word decodes clean and unchanged; a single
  // flipped bit is corrected.
  for (const rlftnoc::BitVec128& p : payloads) {
    const rlftnoc::FlitEcc ecc = rlftnoc::encode_flit_ecc(secded, p);
    const rlftnoc::FlitEccDecode clean = rlftnoc::decode_flit_ecc(secded, p, ecc);
    const rlftnoc::BitVec128 flipped(p.word(0) ^ 1ULL, p.word(1));
    const rlftnoc::FlitEccDecode fixed = rlftnoc::decode_flit_ecc(secded, flipped, ecc);
    t.ok = t.ok && clean.status == rlftnoc::SecdedStatus::kClean && clean.payload == p &&
           fixed.status == rlftnoc::SecdedStatus::kCorrected && fixed.payload == p;
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  t.crc32_ns_per_flit = median(crc_ns);
  t.secded_ns_per_flit = median(ecc_ns);
  return t;
}

/// The reference path for paper_campaign: run_campaign itself, flattened
/// in the plan's (benchmark-major, policy-minor) order.
JobOutput run_campaign_reference(std::uint64_t seed) {
  JobOutput out;
  const Clock::time_point start = Clock::now();
  const std::vector<rlftnoc::PolicyKind> policies(kPaperPolicies.begin(), kPaperPolicies.end());
  const std::vector<std::string> benches = parsec_names();
  try {
    const rlftnoc::CampaignResults c =
        rlftnoc::run_campaign(campaign_base(seed), benches, policies, kCampaignBudgetPct);
    for (const auto& row : c.results)
      for (const rlftnoc::SimResult& r : row) out.runs.push_back({true, "", r});
  } catch (const std::exception& e) {
    out.runs.assign(benches.size() * policies.size(), RunOutcome{false, e.what(), {}});
  }
  out.job_wall_s = seconds_between(start, Clock::now());
  return out;
}

std::string runs_json(const std::vector<RunOutcome>& runs) {
  std::vector<std::string> items;
  for (const RunOutcome& r : runs) {
    items.push_back(JsonObject()
                        .boolean("ok", r.ok)
                        .str("error", r.error)
                        .raw("result", r.ok ? result_json(r.result) : "null")
                        .done());
  }
  return json_array(items);
}

int usage() {
  std::fputs(
      "usage: rlftnoc_perfbench --workload paper_campaign|mesh64_uniform|torus_fault_rpc\n"
      "                         --seed N --mode job|traced|reference\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode;
  std::optional<std::uint64_t> seed;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seed") {
      try {
        seed = std::stoull(value);
      } catch (const std::exception&) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !seed ||
      (mode != "job" && mode != "traced" && mode != "reference"))
    return usage();

  try {
    const Clock::time_point origin = Clock::now();
    SpanLog spans(origin);
    JobOutput job;
    if (mode == "reference" && workload == "paper_campaign") {
      job = run_campaign_reference(*seed);
    } else {
      job = run_job(plan_job(workload, *seed, mode == "reference"), mode == "traced",
                    mode == "traced" ? &spans : nullptr);
    }

    JsonObject doc;
    doc.str("workload", workload)
        .count("seed", *seed)
        .str("mode", mode)
        .num("job_wall_s", job.job_wall_s)
        .num("build_s", job.build_s)
        .num("construct_s", job.construct_s)
        .raw("runs", runs_json(job.runs));
    if (job.ledger) {
      const double step_us = job.last_sim ? control_step_us(*job.last_sim) : 0.0;
      const CodecTiming codecs = time_codecs();
      doc.raw("ledger", job.ledger->json())
          .num("control_step_us", step_us)
          .num("crc32_ns_per_flit", codecs.crc32_ns_per_flit)
          .num("secded_ns_per_flit", codecs.secded_ns_per_flit)
          .boolean("codecs_ok", codecs.ok)
          .raw("spans", spans.json());
    }
    std::printf("%s\n", doc.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlftnoc_perfbench: %s\n", e.what());
    return 1;
  }
}
