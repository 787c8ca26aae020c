"""Tests of the benchmark itself: span arithmetic, unwrapping, seeds, BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import frozenplanet  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from frozenplanet import levi_civita, loops  # noqa: E402


def _names(spans, values):
    return dict(zip((s[0] for s in spans), values))


class TestSelfTime:
    def test_nested_tree(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["d", 2.0, 3.0, 1],
            ["c", 5.0, 9.0, 0],
        ]
        assert _names(spans, tracer.self_times(spans)) == pytest.approx(
            {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0}
        )

    def test_overlapping_children_count_once(self):
        spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 7.0, 0]]
        assert tracer.self_times(spans)[0] == pytest.approx(4.0)

    def test_layer_sums_and_ratios(self):
        rec = tracer.Tracer()
        rec.spans[:] = [
            ["helium.PairObjective.hessian", 0.0, 6.0, -1],
            ["helium.PairObjective.gradient", 1.0, 2.0, 0],
            ["helium.PairObjective.gradient", 3.0, 5.0, 0],
            ["loops.basis_matrix", 3.5, 4.5, 2],
            ["helium.PairObjective.gradient", 7.0, 8.0, -1],
        ]
        m = tracer.layer_metrics(rec)
        assert m["helium.self_s"][0] == pytest.approx(6.0)
        assert m["loops.self_s"][0] == pytest.approx(1.0)
        assert m["helium.PairObjective.gradient.calls"][0] == 3
        assert m["helium.hessian_grad_share"][0] == pytest.approx(2.0 / 3.0)
        assert m["helium.PairObjective.hessian.mean_ms"][0] == pytest.approx(6000.0)


class TestWrapping:
    def test_originals_restored(self):
        before = [(owner, attr, fn) for owner, attr, _, fn in tracer.traced_attributes(frozenplanet)]
        assert len(before) > 100
        rec = tracer.Tracer()
        with pytest.raises(RuntimeError):
            with rec.installed(frozenplanet):
                assert all(getattr(o, a) is not fn for o, a, fn in before)
                z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1])
                levi_civita.forward(z, n_t=256)
                raise RuntimeError("leave the block early")
        assert all(getattr(o, a) is fn for o, a, fn in before)
        names = {s[0] for s in rec.spans}
        assert {"loops.from_coeffs", "loops.basis_matrix", "levi_civita.tau_of_t",
                "loops.Loop.__call__", "loops.Loop"} <= names
        forward = next(i for i, s in enumerate(rec.spans) if s[0] == "levi_civita.forward")
        assert any(s[3] == forward and s[0] == "levi_civita.tau_of_t" for s in rec.spans)

    def test_traced_call_counts_repeat(self):
        inputs = workloads.setup_pair_mean(3, None)
        counts = []
        for _ in range(2):
            rec = tracer.Tracer()
            with rec.installed(frozenplanet):
                checks, _ = workloads.run_pair_mean(inputs, 0)
            assert all(ok for _, ok in checks)
            m = tracer.layer_metrics(rec)
            counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
        assert counts[0] == counts[1]
        assert counts[0]["solve.newton.calls"] == 1


class TestInputs:
    def test_seed_determines_inputs(self):
        same = [workloads.draw_mean_kicks(5, 44), workloads.draw_mean_kicks(5, 44)]
        other = workloads.draw_mean_kicks(6, 44)
        assert all(np.array_equal(a, b) for a, b in zip(*same))
        assert not any(np.array_equal(a, b) for a, b in zip(same[0], other))
        lc_a, lc_b = workloads.draw_lc_coeffs(5), workloads.draw_lc_coeffs(5)
        assert all(np.array_equal(a, b) for a, b in zip(lc_a, lc_b))
        assert not np.array_equal(lc_a[0], workloads.draw_lc_coeffs(6)[0])

    def test_lc_loops_within_bounds(self):
        for c in workloads.draw_lc_coeffs(0):
            assert c[0] == 1.0
            assert np.all(np.abs(c[1:]) <= workloads.LC_BOUNDS)


class TestBenchmarkJson:
    def test_benchmark_json_names_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert run.WORKLOADS == tuple(workloads.WORKLOADS)
        assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
        assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
        reported = run.per_layer(tracer.Tracer(), {}, 1.0, 1.0, 1.0, 0.0)
        assert [m["name"] for m in spec["per_layer"]] == list(reported)
        assert all(m["unit"] == reported[m["name"]]["unit"] for m in spec["per_layer"])

    def test_benchmark_json_format(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics + spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(name.fullmatch(n) for n in names)
        assert all(unit.fullmatch(m["unit"]) for m in metrics)
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25

    def test_fails_without_sources(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
            "__pycache__", ".work", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "pair-mean", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode != 0
        assert out.stdout == ""
