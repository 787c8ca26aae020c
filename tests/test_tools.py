import ast
import importlib.util
import json
from pathlib import Path

import frozenplanet
import frozenplanet.cli  # noqa: F401  (the tracer reads every layer, cli too)
from bench import tracer
from tools import bench_pairs, line_reach

ROOT = Path(__file__).resolve().parents[1]

#: the paper checks that only the tests read; one that the CLI prints
#: leaves this list
PAPER_CHECKS = {
    "detline.section_through_crossing",
    "detline.sections",
    "elliptic.F_mono",
    "frozen.critical_b",
    "helium.bridge_graph_constants",
    "helium.d1w_check",
    "loops.rescale_cover",
}


def runs(values, failed=None):
    failed = failed or [0] * len(values)
    return [
        {"result": {"attempted": 4, "failed": f, "metrics": {"wall_s": {"value": v, "unit": "s"}}}}
        for v, f in zip(values, failed)
    ]


class TestBenchPairs:
    def test_compare_counts_wins_pair_by_pair(self):
        out = bench_pairs.compare(runs([1.0, 2.0, 3.0, 4.0, 5.0]), runs([0.5, 2.5, 2.0, 4.0, 1.0]))
        wall = out["wall_s"]
        # a tie counts for neither side
        assert wall["change_wins"] == 3
        assert wall["pairs"] == 5
        assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert wall["change"]["median"] == 2.0

    def test_compare_totals_failed_checks_per_side(self):
        out = bench_pairs.compare(runs([1.0, 2.0], [0, 1]), runs([1.0, 2.0], [2, 3]))
        assert out["checks"] == {
            "parent": {"failed": 1, "attempted": 8},
            "change": {"failed": 5, "attempted": 8},
        }

    def test_compare_reports_relative_median_change(self):
        out = bench_pairs.compare(runs([2.0, 4.0, 6.0]), runs([1.0, 3.0, 5.0]))
        assert out["wall_s"]["rel_change"] == -0.25
        # a parent median of 0 has no relative change
        out = bench_pairs.compare(runs([0.0, 0.0, 1.0]), runs([0.0, 1.0, 1.0]))
        assert out["wall_s"]["rel_change"] is None

    def test_gain_shown_needs_nine_wins_in_ten_and_a_drop_beyond_the_spread(self):
        parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # q3 - q1 = 0.45
        # 9 wins of 10, median drop 0.5
        change = [v - 0.5 for v in parent[:9]] + [2.0]
        assert bench_pairs.compare(runs(parent), runs(change))["wall_s"]["gain_shown"]
        # 8 wins of 10, median drop 0.5
        change = [v - 0.5 for v in parent[:8]] + [2.0, 2.0]
        assert not bench_pairs.compare(runs(parent), runs(change))["wall_s"]["gain_shown"]
        # 10 wins of 10, median drop 0.4: within the parent's spread
        change = [v - 0.4 for v in parent]
        out = bench_pairs.compare(runs(parent), runs(change))["wall_s"]
        assert out["change_wins"] == 10 and not out["gain_shown"]

    def test_within_bound_reads_the_metrics_bound(self):
        parent, change = runs([1.0, 1.0, 1.0]), runs([1.2, 1.2, 1.2])
        assert bench_pairs.compare(parent, change, {"wall_s": 0.25})["wall_s"]["within_bound"]
        out = bench_pairs.compare(parent, change, {"wall_s": 0.1})["wall_s"]
        assert out["within_bound"] is False
        # no bound, or no relative change, says nothing
        assert bench_pairs.compare(parent, change)["wall_s"]["within_bound"] is None
        out = bench_pairs.compare(runs([0.0] * 3), change, {"wall_s": 0.25})["wall_s"]
        assert out["within_bound"] is None

    def test_layers_pair_the_traced_runs_metric_by_metric(self):
        def traced(metrics):
            values = {k: {"value": v, "unit": "s"} for k, v in metrics.items()}
            return {"result": {"metrics": values}}

        out = bench_pairs.layers(
            traced({"loops.self_s": 4.0, "levi_civita.forward.calls": 7, "helium.self_s": 0.0}),
            traced({"loops.self_s": 3.0, "levi_civita.forward.calls": 0, "helium.self_s": 0.0}),
        )
        assert out["loops.self_s"] == {"parent": 4.0, "change": 3.0, "rel_change": -0.25}
        assert out["levi_civita.forward.calls"]["rel_change"] == -1.0
        # a parent value of 0 has no relative change
        assert out["helium.self_s"]["rel_change"] is None

    def test_every_workload_is_traced_once_and_keyed(self, tmp_path, monkeypatch):
        spec = {
            "run_seconds": 1,
            "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "wall_s", "bound": 0.25}],
        }
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        calls = []

        def fake_run(checkout, workload, seed, seconds, trace):
            calls.append((checkout, workload, seed, trace))
            wall = {"value": 2.0 if checkout == "parent" else 1.0, "unit": "s"}
            metrics = {"wall_s": wall}
            if trace:
                count = 4 if checkout == "parent" else 2
                metrics["helium.b_in.calls"] = {"value": count, "unit": "count"}
            return {"report": {}, "result": {"attempted": 1, "failed": 0, "metrics": metrics}}

        monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
        monkeypatch.chdir(tmp_path)
        bench_pairs.main(["--parent", "parent", "--change", str(tmp_path), "--seeds", "3", "4"])
        traced = [call for call in calls if call[3] == 1]
        # each workload once per side, on the first seed
        assert sorted(traced) == sorted(
            (side, w, 3, 1) for side in ("parent", str(tmp_path)) for w in ("a", "b")
        )
        change = json.loads((tmp_path / "BENCH_change.json").read_text())
        assert set(change["layers"]) == {"a", "b"}
        for workload in ("a", "b"):
            assert change["layers"][workload]["helium.b_in.calls"] == {
                "parent": 4, "change": 2, "rel_change": -0.5
            }
        parent = json.loads((tmp_path / "BENCH_parent.json").read_text())
        assert len(parent["runs"]) == 2 * 2 * bench_pairs.PAIRS + 2
        assert set(change["comparison"]) == {f"{w} seed {s}" for w in ("a", "b") for s in (3, 4)}

    def test_src_lines_sums_python_files_under_src(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
        (tmp_path / "src" / "b.py").write_text("z = 3\n")
        (tmp_path / "src" / "notes.txt").write_text("not code\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "c.py").write_text("w = 4\n")
        assert bench_pairs.src_lines(tmp_path) == 4


class TestTracedSpans:
    def test_every_reported_span_is_traced(self):
        # a method a traced class inherits is not in vars(cls), so moving one
        # into a base class would silently zero its per-layer metrics
        traced = {name for _, _, name, _ in tracer.traced_attributes(frozenplanet)}
        missing = set(tracer.SPAN_METRICS + tracer.MEAN_METRICS) - traced
        # loops.synthesize left src with the FFT synthesis; the next
        # benchmark change replaces it
        assert missing <= {"loops.synthesize"}


def public_definitions(tree):
    """(name, node) of every public top-level def or class of a module and
    of every public method of its public classes, as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def name_uses(tree):
    """(name, line) of every name a module reads: identifiers, attributes,
    and string constants, which name what ``getattr`` looks up.  The
    string keys of dict displays and subscripts name data, not code, and
    do not count."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(id(key) for key in node.keys if key is not None)
        elif isinstance(node, ast.Subscript):
            keys.add(id(node.slice))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in keys:
                yield node.value, node.lineno


class TestEveryNameHasAReader:
    def test_public_names_are_read_outside_their_definition(self):
        # the library and the benchmark are the readers; the tests are not
        files = sorted(ROOT.glob("src/frozenplanet/*.py")) + sorted(ROOT.glob("bench/*.py"))
        trees = {path: ast.parse(path.read_text()) for path in files}
        uses = [(path, *use) for path, tree in trees.items() for use in name_uses(tree)]
        unread = set()
        for path, tree in trees.items():
            for name, node in public_definitions(tree):
                own = name.rsplit(".", 1)[-1]
                if not any(
                    used == own and not (at == path and node.lineno <= line <= node.end_lineno)
                    for at, used, line in uses
                ):
                    unread.add(f"{path.stem}.{name}")
        assert unread == PAPER_CHECKS


class TestLineReach:
    TOY = "def f(x):\n    if x > 0:\n        return 1\n    return -1\n\n\ndef g():\n    return 0\n"

    def test_lines_a_run_misses(self, tmp_path):
        toy = tmp_path / "toy.py"
        toy.write_text(self.TOY)

        def run():
            spec = importlib.util.spec_from_file_location("toy", toy)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module.f(1)

        _, found = line_reach.reach([str(toy)], run)
        lines, ran = found[str(toy)]
        # the def lines run when the module does; f's other branch and g's body do not
        assert lines == {1, 2, 3, 4, 7, 8}
        assert lines - ran == {4, 8}
        assert line_reach.ranges(lines - ran, lines) == ["4", "8"]

    def test_ranges_join_runs_of_missed_lines(self):
        lines = {1, 2, 3, 4, 7, 8}
        assert line_reach.ranges({2, 3, 4, 8}, lines) == ["2-4", "8"]
        assert line_reach.ranges({4, 7, 8}, lines) == ["4-8"]
        assert line_reach.ranges(set(), lines) == []
