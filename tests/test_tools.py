import frozenplanet
from bench import tracer
from tools import bench_pairs


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
