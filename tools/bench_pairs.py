"""Paired benchmark runs of two source checkouts, saved as BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --seeds 1 2

The workloads and the run length are read from the change's
``BENCHMARK.json``.  For every workload and seed, ``bench/run.py --trace 0``
runs ``PAIRS`` times in each checkout, alternating which side runs first.
Then each side runs every workload once with ``--trace 1``, on the first
seed.
The report line and the result line of every run go to ``BENCH_parent.json``
and ``BENCH_change.json`` in the current directory.
``BENCH_change.json`` also holds, per workload and seed, the median and
quartiles of each end-to-end metric on both sides, the relative change of
the median, (change - parent) / parent, how many pairs the change won
(lower is better for every metric ``bench/run.py`` reports without
tracing), whether that shows a gain (``gain_shown``) and whether the
change stays within the metric's bound in ``BENCHMARK.json``
(``within_bound``), and under ``checks`` each side's failed and attempted
check totals.  Under ``layers`` it holds, per workload, for every
per-layer metric of its two traced runs, the parent's value, the change's
value and their relative change.  Each file also holds its checkout's
``src_lines``, the summed line count of ``src/**/*.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # alternating parent/change pairs per workload and seed
#: a gain is shown when the change wins at least this share of the pairs and
#: its median drop exceeds the parent's interquartile range
GAIN_WINS = 0.9


def run_bench(checkout, workload, seed, seconds, trace):
    """The report and result of one ``bench/run.py`` run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    report, result = out.stdout.strip().splitlines()[-2:]
    return {"report": json.loads(report)["report"], "result": json.loads(result)}


def src_lines(checkout):
    """The summed line count of the checkout's ``src/**/*.py``."""
    return sum(len(p.read_text().splitlines()) for p in Path(checkout).glob("src/**/*.py"))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def rel_change(parent, change):
    """(change - parent) / parent, or None when the parent's value is 0."""
    return (change - parent) / parent if parent else None


def compare(parent_runs, change_runs, bounds=None):
    """Per end-to-end metric: both sides' quartiles, the relative change of
    the median, (change - parent) / parent (None when the parent's median
    is 0), the change's wins, ``gain_shown`` (at least ``GAIN_WINS`` of the
    pairs won and a median drop larger than the parent's q3 - q1) and
    ``within_bound`` (``rel_change`` at most the metric's entry in
    ``bounds``, None without either); under ``checks``, each side's failed
    and attempted check totals."""
    bounds = bounds or {}
    out = {}
    for name in parent_runs[0]["result"]["metrics"]:
        pv = [r["result"]["metrics"][name]["value"] for r in parent_runs]
        cv = [r["result"]["metrics"][name]["value"] for r in change_runs]
        parent, change = quartiles(pv), quartiles(cv)
        rel = rel_change(parent["median"], change["median"])
        wins = sum(c < p for p, c in zip(pv, cv))
        bound = bounds.get(name)
        out[name] = {
            "parent": parent,
            "change": change,
            "rel_change": rel,
            "change_wins": wins,
            "pairs": len(pv),
            "gain_shown": wins >= GAIN_WINS * len(pv)
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"],
            "within_bound": None if bound is None or rel is None else rel <= bound,
        }
    out["checks"] = {
        side: {key: sum(r["result"][key] for r in side_runs) for key in ("failed", "attempted")}
        for side, side_runs in zip(SIDES, (parent_runs, change_runs))
    }
    return out


def layers(parent_run, change_run):
    """Per metric of the two traced runs: the parent's value, the change's
    value and ``rel_change``."""
    pm, cm = (run["result"]["metrics"] for run in (parent_run, change_run))
    out = {}
    for name in (n for n in pm if n in cm):
        p, c = pm[name]["value"], cm[name]["value"]
        out[name] = {"parent": p, "change": c, "rel_change": rel_change(p, c)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    comparison = {}
    for workload in workloads:
        for seed in args.seeds:
            batch = {side: [] for side in SIDES}
            for k in range(PAIRS):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    run = run_bench(checkouts[side], workload, seed, seconds, 0)
                    batch[side].append(dict(run, pair=k))
                    print(side, workload, seed, k, run["result"]["metrics"]["wall_s"]["value"],
                          file=sys.stderr, flush=True)
            for side in SIDES:
                runs[side] += batch[side]
            comparison[f"{workload} seed {seed}"] = compare(batch["parent"], batch["change"], bounds)
    traced = {
        w: {side: run_bench(checkouts[side], w, args.seeds[0], seconds, 1) for side in SIDES}
        for w in workloads
    }
    for side in SIDES:
        data = {
            "src_lines": src_lines(checkouts[side]),
            "runs": runs[side] + [traced[w][side] for w in workloads],
        }
        if side == "change":
            data["comparison"] = comparison
            data["layers"] = {w: layers(t["parent"], t["change"]) for w, t in traced.items()}
        Path(f"BENCH_{side}.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
