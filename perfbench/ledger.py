"""Statistics, digests and the per-layer ledger of the rlftnoc benchmark.

Pure functions over the harness's JSON output; perfbench/run.py does the
process handling. Tested by perfbench/test_ledger.py.
"""

import hashlib
import json
import statistics

# Every SimResult field (src/sim/simulator.h), in declaration order. All are
# simulated quantities, so all enter the digest; HOST_TIME_FIELDS lists the
# ones that would be excluded, and is empty because SimResult holds none.
SIMRESULT_FIELDS = (
    "workload", "policy", "execution_cycles", "total_cycles", "drained",
    "avg_packet_latency", "p50_latency", "p95_latency", "p99_latency",
    "packets_injected", "packets_delivered", "flits_delivered",
    "enqueue_drops", "unreachable_drops", "retransmitted_flits",
    "retx_flits_e2e", "retx_flits_hop", "dup_flits", "crc_packet_failures",
    "dynamic_energy_pj", "leakage_energy_pj", "total_energy_pj",
    "energy_efficiency", "avg_dynamic_power_w", "avg_total_power_w",
    "avg_temperature_c", "max_temperature_c", "mode_fraction",
    "rl_table_entries", "dt_training_accuracy",
)
HOST_TIME_FIELDS = ()
DIGEST_FIELDS = tuple(f for f in SIMRESULT_FIELDS if f not in HOST_TIME_FIELDS)

# Percentiles a summary may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10

# sim.unattributed_s may be at most this share of the summed run wall time
# before the ledger is flagged as not closing (ROADMAP item 1(e)).
LEDGER_TOLERANCE = 0.10

# (name, unit); README.md defines each.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycle/s"),
    ("peak_rss_mb", "MB"),
)

# name -> (unit, better, target end-to-end metric and workload, ratio base).
PER_LAYER = {
    "sim.pretrain_s": ("s", "lower", "wall_s on paper_campaign", None),
    "sim.warmup_s": ("s", "lower", "wall_s on paper_campaign", None),
    "sim.measure_s": ("s", "lower", "wall_s on paper_campaign", None),
    "sim.construct_s": ("s", "lower", "setup_s on mesh64_uniform", None),
    "workload.build_s": ("s", "lower", "setup_s on torus_fault_rpc", None),
    "sim.cycle_us_p50": ("us", "lower", "sim_cycles_per_s on paper_campaign and "
                         "mesh64_uniform (not measured on replay workloads)", None),
    "sim.cycle_us_p99": ("us", "lower", "sim_cycles_per_s on paper_campaign and "
                         "mesh64_uniform (not measured on replay workloads)", None),
    "sim.unattributed_s": ("s", "lower", "ledger closure check, ROADMAP 1(e)", None),
    "noc.serial_s": ("s", "lower", "sim_cycles_per_s on torus_fault_rpc", None),
    "noc.receive_s": ("s", "lower", "sim_cycles_per_s on all three workloads", None),
    "noc.execute_s": ("s", "lower", "sim_cycles_per_s on all three workloads", None),
    "noc.merge_s": ("s", "lower", "sim_cycles_per_s on mesh64_uniform", None),
    "noc.router_skip_ratio": ("skip/node_cycle", "higher", "wall_s on paper_campaign",
                              "routers x stepped cycles"),
    "noc.ni_skip_ratio": ("skip/node_cycle", "higher", "wall_s on paper_campaign",
                          "NIs (one per router) x stepped cycles"),
    "noc.lookahead_sleep_ratio": ("slept/cycle", "higher", "wall_s on paper_campaign",
                                  "stepped cycles"),
    "noc.pooled_dispatch_ratio": ("pooled/dispatch", "higher",
                                  "sim_cycles_per_s on mesh64_uniform",
                                  "phase dispatches"),
    "noc.merges_run": ("count", "lower", "sim_cycles_per_s on mesh64_uniform", None),
    "noc.staged_effects_merged": ("count", "lower", "sim_cycles_per_s on mesh64_uniform",
                                  None),
    "noc.hard_faults_applied": ("count", "higher", "count on torus_fault_rpc", None),
    "ftnoc.decide_s": ("s", "lower", "wall_s on paper_campaign", None),
    "ftnoc.decide_calls": ("count", "lower", "wall_s on paper_campaign", None),
    "ftnoc.control_step_us": ("us", "lower", "wall_s on paper_campaign", None),
    "traffic.tick_s": ("s", "lower", "wall_s on paper_campaign (not measured on "
                       "replay workloads)", None),
    "traffic.packets": ("count", "higher", "wall_s on paper_campaign", None),
    "coding.crc32_ns_per_flit": ("ns/flit", "lower", "sim_cycles_per_s on "
                                 "torus_fault_rpc", "128-bit flits coded"),
    "coding.secded_ns_per_flit": ("ns/flit", "lower", "sim_cycles_per_s on "
                                  "torus_fault_rpc", "128-bit flits coded"),
    "model.total_cycles": ("cycle", "lower", "simulated; must repeat exactly", None),
    "model.execution_cycles": ("cycle", "lower", "simulated; must repeat exactly", None),
    "model.avg_latency_cycles": ("cycle", "lower", "simulated; must repeat exactly",
                                 "delivered packets"),
    "model.retx_per_delivered_flit": ("retx/flit", "lower", "simulated; must repeat "
                                      "exactly", "delivered flits"),
    "model.energy_eff_flits_per_nj": ("flit/nJ", "higher", "simulated; must repeat "
                                      "exactly", "total energy in nJ"),
    "trace.overhead_frac": ("frac_of_wall", "lower", "tracing cost; none",
                            "median untraced job wall time"),
}


def percentile_rank(p, n):
    """1-based nearest rank of percentile p among n sorted samples."""
    tenths = round(p * 10)
    return max(1, (tenths * n + 999) // 1000)


def tail_percentile(n):
    """The highest ladder percentile with at least ten of n samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if n - percentile_rank(p, n) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def summarize(values):
    """Median and sample count, plus the highest percentile above the median
    that has ten samples beyond it, when the count allows one."""
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None and p > 50.0:
        out["tail"] = (p, sorted(values)[percentile_rank(p, len(values)) - 1])
    return out


def format_summary(s, unit):
    text = f"median {s['median']:.6g} {unit} (n={s['n']}"
    if "tail" in s:
        p, v = s["tail"]
        text += f", p{p:g} {v:.6g} {unit}"
    else:
        text += f"; too few for a percentile with {MIN_SAMPLES_BEYOND} samples beyond"
    return text + ")"


def run_digest(result):
    """Digest of one SimResult over DIGEST_FIELDS (exact float repr)."""
    if set(result) != set(SIMRESULT_FIELDS):
        raise ValueError("SimResult fields differ from SIMRESULT_FIELDS: "
                         f"{sorted(set(result) ^ set(SIMRESULT_FIELDS))}")
    canon = json.dumps({k: result[k] for k in DIGEST_FIELDS}, sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_failures(doc, expected):
    """Per-run failure reasons of one harness document.

    A run fails if it threw, did not drain, or its digest differs from the
    expected digest at its position (when one is given).
    """
    reasons = []
    for i, run in enumerate(doc["runs"]):
        if not run["ok"]:
            reasons.append(f"run {i} threw: {run['error']}")
            continue
        if not run["result"]["drained"]:
            reasons.append(f"run {i} did not drain")
            continue
        if expected is not None:
            want = expected[i] if i < len(expected) else None
            got = run_digest(run["result"])
            if got != want:
                reasons.append(f"run {i} digest {got} != expected {want}")
    return reasons


def job_digests(doc):
    return [run_digest(r["result"]) if r["ok"] else None for r in doc["runs"]]


def job_end_to_end(doc, wall_s, peak_rss_kb):
    """End-to-end metrics of one untraced job."""
    setup = doc["build_s"] + doc["construct_s"]
    cycles = sum(r["result"]["total_cycles"] for r in doc["runs"] if r["ok"])
    return {
        "wall_s": wall_s,
        "setup_s": setup,
        "sim_cycles_per_s": cycles / max(wall_s - setup, 1e-9),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(traced, untraced_job_wall_s):
    """Per-layer metrics of one traced harness document."""
    L = traced["ledger"]
    results = [r["result"] for r in traced["runs"] if r["ok"]]
    n_gaps = L["cycle_gap_samples"]
    pct = L["cycle_gap_us_percentiles"]
    p99_ok = (tail_percentile(n_gaps) or 0.0) >= 99.0
    delivered = sum(r["packets_delivered"] for r in results)
    flits = sum(r["flits_delivered"] for r in results)
    energy_nj = sum(r["total_energy_pj"] for r in results) * 1e-3
    return {
        "sim.pretrain_s": L["pretrain_s"],
        "sim.warmup_s": L["warmup_s"],
        "sim.measure_s": L["measure_s"],
        "sim.construct_s": traced["construct_s"],
        "workload.build_s": traced["build_s"],
        "sim.cycle_us_p50": pct["50"] if n_gaps else 0.0,
        "sim.cycle_us_p99": pct["99"] if p99_ok else 0.0,
        "sim.unattributed_s": unattributed_s(L),
        "noc.serial_s": L["noc_serial_s"],
        "noc.receive_s": L["noc_receive_s"],
        "noc.execute_s": L["noc_execute_s"],
        "noc.merge_s": L["noc_merge_s"],
        "noc.router_skip_ratio": _ratio(L["router_steps_skipped"], L["router_cycles"]),
        "noc.ni_skip_ratio": _ratio(L["ni_steps_skipped"], L["router_cycles"]),
        "noc.lookahead_sleep_ratio": _ratio(L["lookahead_cycles_slept"],
                                            L["stepped_cycles"]),
        "noc.pooled_dispatch_ratio": _ratio(L["pooled_phase_dispatches"],
                                            L["phase_dispatches"]),
        "noc.merges_run": L["merges_run"],
        "noc.staged_effects_merged": L["staged_effects_merged"],
        "noc.hard_faults_applied": L["hard_faults_applied"],
        "ftnoc.decide_s": L["decide_s"],
        "ftnoc.decide_calls": L["decide_calls"],
        "ftnoc.control_step_us": traced["control_step_us"],
        "traffic.tick_s": L["tick_s"],
        "traffic.packets": L["packets"],
        "coding.crc32_ns_per_flit": traced["crc32_ns_per_flit"],
        "coding.secded_ns_per_flit": traced["secded_ns_per_flit"],
        "model.total_cycles": sum(r["total_cycles"] for r in results),
        "model.execution_cycles": sum(r["execution_cycles"] for r in results),
        "model.avg_latency_cycles": _ratio(
            sum(r["avg_packet_latency"] * r["packets_delivered"] for r in results),
            delivered),
        "model.retx_per_delivered_flit": _ratio(
            sum(r["retransmitted_flits"] for r in results), flits),
        "model.energy_eff_flits_per_nj": _ratio(flits, energy_nj),
        "trace.overhead_frac": traced["job_wall_s"] / untraced_job_wall_s - 1.0,
    }


def timed_layers_s(L):
    """Run wall time the traced layers account for."""
    return (L["noc_serial_s"] + L["noc_receive_s"] + L["noc_execute_s"] +
            L["noc_merge_s"] + L["decide_s"] + L["tick_s"])


def unattributed_s(L):
    """Run wall time minus every timed layer (Network phases, decide, tick)."""
    return L["run_wall_s"] - timed_layers_s(L)


def closure_lines(traced):
    """Human-readable ledger closure, flagged against LEDGER_TOLERANCE."""
    L = traced["ledger"]
    wall = L["run_wall_s"]
    phases = L["pretrain_s"] + L["warmup_s"] + L["measure_s"]
    noc = L["noc_serial_s"] + L["noc_receive_s"] + L["noc_execute_s"] + L["noc_merge_s"]
    rest = unattributed_s(L)
    share = rest / wall if wall > 0 else 0.0
    verdict = "within" if abs(share) <= LEDGER_TOLERANCE else "EXCEEDS"
    return [
        f"ledger: run wall {wall:.6f} s over the job's runs",
        f"  phases  pretrain {L['pretrain_s']:.6f} + warmup {L['warmup_s']:.6f} + "
        f"measure {L['measure_s']:.6f} = {phases:.6f} s (residual {wall - phases:.6f} s)",
        f"  layers  noc {noc:.6f} + decide {L['decide_s']:.6f} + tick {L['tick_s']:.6f} "
        f"= {timed_layers_s(L):.6f} s",
        f"  sim.unattributed_s {rest:.6f} s = {100 * share:.2f}% of run wall, "
        f"{verdict} the {100 * LEDGER_TOLERANCE:.0f}% tolerance",
        f"  set-up  construct {traced['construct_s']:.6f} + build {traced['build_s']:.6f} s, "
        "outside the run wall",
    ]
