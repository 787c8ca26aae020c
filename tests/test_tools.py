from tools import bench_pairs


def runs(values):
    return [{"result": {"metrics": {"wall_s": {"value": v, "unit": "s"}}}} for v in values]


class TestBenchPairs:
    def test_compare_counts_wins_pair_by_pair(self):
        out = bench_pairs.compare(runs([1.0, 2.0, 3.0, 4.0, 5.0]), runs([0.5, 2.5, 2.0, 4.0, 1.0]))
        wall = out["wall_s"]
        # a tie counts for neither side
        assert wall["change_wins"] == 3
        assert wall["pairs"] == 5
        assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert wall["change"]["median"] == 2.0
