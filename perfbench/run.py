#!/usr/bin/env python3
"""rlftnoc benchmark: builds the harness, runs one workload, prints metrics.

    python3 perfbench/run.py --workload paper_campaign --seed 1 --seconds 30 --trace 0

--trace 0 repeats the untraced job, each time in a fresh harness process,
until --seconds have passed (at least MIN_JOBS times) and reports the median
of each end-to-end metric. --trace 1 alternates untraced and traced jobs,
runs the job once through its reference path, and reports the per-layer
metrics of the median traced job. Every run is checked: it must not throw, must drain, and its
SimResult digest must match the one recorded in perfbench/digests.json for
the workload and seed or, at a seed with no record, the digest of the same
run in the invocation's first job. The last line of stdout is the JSON
result; the report above it goes to stdout too, build output to stderr.

    python3 perfbench/run.py --record-digests --seeds 0-99 [--workload W]

records the reference path's digests (run_campaign, or the other
sim_threads value) at each seed, for one workload or all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "rlftnoc_perfbench"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("paper_campaign", "mesh64_uniform", "torus_fault_rpc")
MIN_JOBS = 3
# --trace 1 alternates this many untraced and traced jobs.
TRACE_PAIRS = 3
# Harness processes must finish within this many seconds of the start of
# measuring, so an invocation ends well inside three minutes.
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; False when either step fails."""
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "rlftnoc_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return False
    return HARNESS.exists()


class HarnessError(RuntimeError):
    pass


def run_harness(workload, seed, mode, timeout):
    """Runs one harness process to completion.

    Returns (document, wall seconds, peak RSS in KB). The wall time spans
    process start to exit; the peak RSS is the child's own, from wait4.
    """
    out_path = BUILD_DIR / f"out-{workload}-{mode}.json"
    err_path = BUILD_DIR / f"err-{workload}-{mode}.log"
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed), "--mode", mode]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() - t0 > timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise HarnessError(f"{mode} job exceeded {timeout:.0f} s and was killed")
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        raise HarnessError(f"{mode} job exited {proc.returncode}: {' | '.join(tail)}")
    lines = out_path.read_text().strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (ValueError, IndexError) as e:
        raise HarnessError(f"{mode} job printed no JSON result: {e}") from e
    return doc, wall, usage.ru_maxrss


def recorded_digests(workload, seed):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def check_runs(label, doc, expected, report):
    """Counts a document's runs and failures and reports each failure."""
    reasons = ledger.run_failures(doc, expected)
    for r in reasons:
        report.append(f"FAILED {label}: {r}")
    return len(doc["runs"]), len(reasons)


def measure_untraced(workload, seed, seconds, report):
    recorded = recorded_digests(workload, seed)
    start = time.perf_counter()
    jobs, attempted, failed = [], 0, 0
    expected = recorded
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        doc, wall, rss_kb = run_harness(workload, seed, "job",
                                        DEADLINE_S - (time.perf_counter() - start))
        if expected is None:
            expected = ledger.job_digests(doc)
        a, f = check_runs(f"job {len(jobs)}", doc, expected, report)
        attempted += a
        failed += f
        jobs.append(ledger.job_end_to_end(doc, wall, rss_kb))
    report.append(f"{workload} seed {seed}: {len(jobs)} untraced jobs of "
                  f"{len(doc['runs'])} runs, digests checked against "
                  f"{'the recorded digests' if recorded else 'the first job (no record for this seed)'}")
    metrics, summaries = {}, {}
    for name, unit in ledger.END_TO_END:
        values = [j[name] for j in jobs]
        summaries[name] = ledger.summarize(values)
        metrics[name] = {"value": summaries[name]["median"], "unit": unit}
        report.append(f"  {name:<18} {ledger.format_summary(summaries[name], unit)}  "
                      f"per job: {', '.join(f'{v:.6g}' for v in values)}")
    report.append(f"  {'failed_run_frac':<18} {failed / attempted:.6g} "
                  f"({failed} of {attempted} runs failed)")
    return metrics, attempted, failed, failed == 0


def measure_traced(workload, seed, report):
    recorded = recorded_digests(workload, seed)
    start = time.perf_counter()
    labelled = []
    for i in range(TRACE_PAIRS):
        for mode in ("job", "traced"):
            doc, _, _ = run_harness(workload, seed, mode,
                                    DEADLINE_S - (time.perf_counter() - start))
            labelled.append((f"{mode} {i}", mode, doc))
    doc, _, _ = run_harness(workload, seed, "reference",
                            DEADLINE_S - (time.perf_counter() - start))
    labelled.append(("reference", "reference", doc))
    expected = recorded if recorded else ledger.job_digests(labelled[0][2])
    attempted = failed = 0
    for label, _, doc in labelled:
        a, f = check_runs(label, doc, expected, report)
        attempted += a
        failed += f
    # Per-layer figures come from the traced job of median wall time; the
    # tracing overhead compares it with the untraced jobs' median.
    traced_jobs = sorted((d for _, m, d in labelled if m == "traced"),
                         key=lambda d: d["job_wall_s"])
    traced = traced_jobs[len(traced_jobs) // 2]
    untraced_wall = statistics.median(d["job_wall_s"] for _, m, d in labelled if m == "job")
    codecs_ok = all(d["codecs_ok"] for d in traced_jobs)
    if not codecs_ok:
        report.append("FAILED codecs: CRC-32 known answer or SECDED round trip")
    spans_dir = BUILD_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(traced["spans"], indent=1))

    layers = ledger.layer_metrics(traced, untraced_wall)
    reference = "run_campaign" if workload == "paper_campaign" else "other sim_threads"
    report.append(f"{workload} seed {seed}: {TRACE_PAIRS} untraced and {TRACE_PAIRS} traced "
                  f"jobs, alternating, and one reference ({reference}) job; digests checked "
                  f"against {'the recorded digests' if recorded else 'the first job (no record for this seed)'}; "
                  f"spans in {spans_path.relative_to(ROOT)}")
    n_gaps = traced["ledger"]["cycle_gap_samples"]
    tail = ledger.tail_percentile(n_gaps)
    report.append(f"  cycle gaps: n={n_gaps}, highest percentile with "
                  f"{ledger.MIN_SAMPLES_BEYOND} samples beyond: "
                  + (f"p{tail:g}" if tail else "none")
                  + ("" if n_gaps else " (replay traffic is not decorated, so the "
                     "cycle and tick metrics read 0)"))
    metrics = {}
    for name, (unit, _, target, base) in ledger.PER_LAYER.items():
        metrics[name] = {"value": layers[name], "unit": unit}
        extra = f"; base: {base}" if base else ""
        report.append(f"  {name:<30} {layers[name]:>14.6g} {unit:<16} -> {target}{extra}")
    report.extend(ledger.closure_lines(traced))
    return metrics, attempted, failed, failed == 0 and codecs_ok


def record_digests(workloads, seeds):
    recorded = {}
    for workload in workloads:
        for seed in seeds:
            doc, wall, _ = run_harness(workload, seed, "reference", 600.0)
            reasons = ledger.run_failures(doc, None)
            if reasons:
                raise HarnessError(f"{workload} seed {seed}: {reasons}")
            recorded.setdefault(workload, {})[str(seed)] = ledger.job_digests(doc)
            log(f"recorded {workload} seed {seed} ({wall:.1f} s)")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload, by_seed in recorded.items():
        table.setdefault(workload, {}).update(by_seed)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--seeds", default="0-99")
    args = ap.parse_args()
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 1
    try:
        if args.record_digests:
            record_digests([args.workload] if args.workload else WORKLOADS,
                           parse_seeds(args.seeds))
            return 0
        report = []
        if args.trace:
            result = measure_traced(args.workload, args.seed, report)
        else:
            result = measure_untraced(args.workload, args.seed, args.seconds, report)
    except HarnessError as e:
        log(f"perfbench: {e}")
        return 1
    metrics, attempted, failed, correct = result
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
