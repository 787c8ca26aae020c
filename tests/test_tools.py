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
