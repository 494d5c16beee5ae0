"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import re
import unittest
from pathlib import Path

import ledger

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def sample_result(**overrides):
    r = {f: 0 for f in ledger.SIMRESULT_FIELDS}
    r.update(workload="canneal", policy="RL", drained=True, mode_fraction=[1.0, 0, 0, 0],
             avg_packet_latency=30.5, total_cycles=1000, packets_delivered=10,
             flits_delivered=40, retransmitted_flits=4, total_energy_pj=2000.0)
    r.update(overrides)
    return r


def sample_ledger():
    return {
        "run_wall_s": 10.0, "pretrain_s": 4.0, "warmup_s": 1.0, "measure_s": 5.0,
        "noc_serial_s": 0.5, "noc_receive_s": 3.0,
        "noc_execute_s": 4.0, "noc_merge_s": 0.5, "decide_s": 0.25, "decide_calls": 640,
        "tick_s": 0.75, "packets": 500, "ticks_timed_runs": 1, "stepped_cycles": 2000,
        "router_cycles": 128000, "router_steps_skipped": 32000, "ni_steps_skipped": 64000,
        "lookahead_cycles_slept": 500, "phase_dispatches": 4000,
        "pooled_phase_dispatches": 1000, "merges_run": 1500, "staged_effects_merged": 9000,
        "hard_faults_applied": 4, "cycle_gap_samples": 1000,
        "cycle_gap_us_percentiles": {"50": 5.0, "99": 9.0},
    }


def traced_doc():
    return {
        "job_wall_s": 11.0, "build_s": 0.1, "construct_s": 0.2, "control_step_us": 70.0,
        "crc32_ns_per_flit": 8.0, "secded_ns_per_flit": 20.0, "ledger": sample_ledger(),
        "runs": [{"ok": True, "error": "", "result": sample_result()},
                 {"ok": True, "error": "", "result": sample_result(
                     avg_packet_latency=10.0, packets_delivered=30, flits_delivered=60,
                     retransmitted_flits=6, total_energy_pj=3000.0, total_cycles=500)}],
    }


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {0: None, 19: None, 20: 50.0, 99: 50.0, 100: 90.0, 199: 90.0,
                 200: 95.0, 999: 95.0, 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for n, want in cases.items():
            self.assertEqual(ledger.tail_percentile(n), want, n)

    def test_every_reported_percentile_has_ten_samples_beyond(self):
        for n in range(1, 3000, 7):
            p = ledger.tail_percentile(n)
            if p is not None:
                self.assertGreaterEqual(n - ledger.percentile_rank(p, n), 10)

    def test_summary_reports_median_count_and_tail(self):
        s = ledger.summarize([float(v) for v in range(1, 101)])
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail"], (90.0, 90.0))
        self.assertNotIn("tail", ledger.summarize([3.0, 1.0, 2.0]))


class Digest(unittest.TestCase):
    def simresult_members(self):
        header = (ROOT / "src" / "sim" / "simulator.h").read_text()
        body = re.search(r"struct SimResult \{(.*?)\n\};", header, re.S).group(1)
        body = re.sub(r"//[^\n]*", "", body)
        return re.findall(r"(\w+)\s*(?:\{\})?\s*(?:=[^;]*)?;", body)

    def test_fields_match_the_simresult_struct(self):
        self.assertEqual(tuple(self.simresult_members()), ledger.SIMRESULT_FIELDS)

    def test_harness_emits_every_field(self):
        source = (BENCH_DIR / "harness.cpp").read_text()
        body = re.search(r"std::string result_json\(.*?\n\}", source, re.S).group(0)
        emitted = re.findall(r'\.\w+\("(\w+)"', body)
        self.assertEqual(tuple(emitted), ledger.SIMRESULT_FIELDS)

    def test_every_field_except_host_time_changes_the_digest(self):
        base = sample_result()
        d0 = ledger.run_digest(base)
        for field in ledger.DIGEST_FIELDS:
            changed = copy.deepcopy(base)
            v = changed[field]
            if isinstance(v, bool):
                changed[field] = not v
            elif isinstance(v, str):
                changed[field] = v + "x"
            elif isinstance(v, list):
                changed[field] = v[:-1] + [v[-1] + 1e-12]
            else:
                changed[field] = v + 1
            self.assertNotEqual(ledger.run_digest(changed), d0, field)

    def test_digest_rejects_missing_or_extra_fields(self):
        r = sample_result()
        del r["dup_flits"]
        with self.assertRaises(ValueError):
            ledger.run_digest(r)
        with self.assertRaises(ValueError):
            ledger.run_digest(sample_result(host_wall_s=1.0))

    def test_run_failures(self):
        good = sample_result()
        doc = {"runs": [{"ok": True, "error": "", "result": good},
                        {"ok": False, "error": "boom", "result": None},
                        {"ok": True, "error": "", "result": sample_result(drained=False)},
                        {"ok": True, "error": "", "result": sample_result(dup_flits=3)}]}
        d = ledger.run_digest(good)
        reasons = ledger.run_failures(doc, [d, d, d, d])
        self.assertEqual(len(reasons), 3)
        self.assertIn("threw: boom", reasons[0])
        self.assertIn("did not drain", reasons[1])
        self.assertIn("digest", reasons[2])
        self.assertEqual(len(ledger.run_failures(doc, None)), 2)


class RatioBases(unittest.TestCase):
    def test_layer_ratios_use_their_stated_base(self):
        m = ledger.layer_metrics(traced_doc(), 10.0)
        self.assertAlmostEqual(m["noc.router_skip_ratio"], 32000 / 128000)
        self.assertAlmostEqual(m["noc.ni_skip_ratio"], 64000 / 128000)
        self.assertAlmostEqual(m["noc.lookahead_sleep_ratio"], 500 / 2000)
        self.assertAlmostEqual(m["noc.pooled_dispatch_ratio"], 1000 / 4000)
        self.assertAlmostEqual(m["model.avg_latency_cycles"], (30.5 * 10 + 10.0 * 30) / 40)
        self.assertAlmostEqual(m["model.retx_per_delivered_flit"], 10 / 100)
        self.assertAlmostEqual(m["model.energy_eff_flits_per_nj"], 100 / 5.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertEqual(m["model.total_cycles"], 1500)

    def test_unattributed_is_run_wall_minus_timed_layers(self):
        m = ledger.layer_metrics(traced_doc(), 10.0)
        self.assertAlmostEqual(m["sim.unattributed_s"], 10.0 - (0.5 + 3 + 4 + 0.5 + 0.25 + 0.75))
        self.assertTrue(any("within the 10% tolerance" in line
                            for line in ledger.closure_lines(traced_doc())))

    def test_p99_needs_a_thousand_cycle_gaps(self):
        doc = traced_doc()
        self.assertEqual(ledger.layer_metrics(doc, 10.0)["sim.cycle_us_p99"], 9.0)
        doc["ledger"]["cycle_gap_samples"] = 999
        self.assertEqual(ledger.layer_metrics(doc, 10.0)["sim.cycle_us_p99"], 0.0)

    def test_every_ratio_states_its_base(self):
        for name, (unit, _, _, base) in ledger.PER_LAYER.items():
            if "ratio" in name or "/" in unit or name.startswith("model.") and "per" in name:
                self.assertIsNotNone(base, name)

    def test_end_to_end_throughput_excludes_setup(self):
        doc = {"build_s": 0.25, "construct_s": 0.75,
               "runs": [{"ok": True, "result": sample_result(total_cycles=9000)}]}
        e = ledger.job_end_to_end(doc, 4.0, 2048)
        self.assertEqual(e["setup_s"], 1.0)
        self.assertAlmostEqual(e["sim_cycles_per_s"], 9000 / 3.0)
        self.assertEqual(e["peak_rss_mb"], 2.0)


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_the_ledger(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(ledger.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, (u, b, _, _) in ledger.PER_LAYER.items()])
        layers = ledger.layer_metrics(traced_doc(), 10.0)
        self.assertEqual(set(layers), set(ledger.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
