#!/usr/bin/env python3
"""Compare two result files of the end-to-end orchestration benchmark.

    compare.py [--same-commit] A.jsonl B.jsonl

A result file is the standard output of `ovnes-benchmark`, of one workload or
of all of them: JSON lines, an info line naming the workload and its seed,
then its result lines (`--trace 0` prints the end-to-end one, `--trace 1` the
per-layer one after it). A is the parent (or the first run), B the change (or
the second). Both must have run every shared workload under the same seed:
another seed is another trajectory, and the two would differ by that alone.

For every workload in both files and every end-to-end metric, B may be worse
than A by at most the metric's pair bound below, as a share of A's value; a
difference under the metric's floor is a tie. Exit 1 outside a bound.

Count-type per-layer metrics are deterministic. Their differences are always
listed; with --same-commit (the A/A agreement check) any difference, and any
difference in the deterministic end-to-end metrics, is an error.
"""
import json
import pathlib
import sys

# Absolute differences below which a metric is a tie: such values are timer
# and allocator granularity, not a regression.
FLOORS = {"setup_s": 1e-3, "peak_rss_mb": 2.0}
# End-to-end metrics that are pure functions of the spec and the seed.
DETERMINISTIC = ("served_epoch_ratio", "net_revenue", "sla_met_ratio")
# What B may be worse by in one pair of runs of one seed, measured back to
# back: the issue's table. The bounds BENCHMARK.json declares are wider, and
# are not used here. They are for the medians of two sets of ten seeds taken
# at different times, so they have to cover how far this machine drifts
# between the sets and, for net_revenue, its spread over the seeds. Neither
# enters a pair: the drift is common to both runs, and at one seed revenue
# and the two ratios are pure functions of the code.
PAIR_BOUNDS = {
    "setup_s": 0.10,
    "horizon_wall_s": 0.06,
    "epoch_latency_p50_ms": 0.08,
    "epoch_latency_p95_ms": 0.12,
    "served_epoch_ratio": 0.0,
    "net_revenue": 0.005,
    "sla_met_ratio": 0.001,
    "peak_rss_mb": 0.10,
}


def load_spec():
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    return spec["end_to_end"], spec["per_layer"]


def load_runs(path, end_to_end, per_layer):
    """Workload name -> (seed, {metric: value}), checked against the declared metrics."""
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    metric_sets = [{m["name"] for m in end_to_end}, {m["name"] for m in per_layer}]
    runs, workload = {}, None
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "workload" in obj:
            workload = obj["workload"]
            runs[workload] = (obj["seed"], {})
        elif "metrics" in obj and workload is not None:
            metrics = obj["metrics"]
            if not obj["correct"] or obj["failed"] != 0:
                sys.exit(f"{path}: {workload}: incorrect or failed run")
            if set(metrics) not in metric_sets:
                sys.exit(f"{path}: {workload}: a result line's metric names are neither set of BENCHMARK.json")
            for name, m in metrics.items():
                if m["unit"] != units[name]:
                    sys.exit(f"{path}: {workload}: {name} has unit {m['unit']}, declared {units[name]}")
                runs[workload][1][name] = m["value"]
    if not any(values for _, values in runs.values()):
        sys.exit(f"{path}: no benchmark result found")
    return runs


def worse_by(metric, a, b):
    """How much worse B is than A, as a share of A (negative: better)."""
    delta = b - a if metric["better"] == "lower" else a - b
    if a == 0:
        # No share of zero: equal is a tie, anything else is out of any bound.
        return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")
    return delta / abs(a)


def main(argv):
    same_commit = "--same-commit" in argv
    paths = [a for a in argv if a != "--same-commit"]
    if len(paths) != 2:
        sys.exit(__doc__)
    end_to_end, per_layer = load_spec()
    for m in end_to_end:
        if not PAIR_BOUNDS[m["name"]] <= m["bound"]:
            sys.exit(f"{m['name']}: the pair bound is wider than BENCHMARK.json's {m['bound']}")
    runs_a, runs_b = (load_runs(p, end_to_end, per_layer) for p in paths)
    workloads = [w for w in runs_a if w in runs_b]
    if not workloads:
        sys.exit("the two files share no workload")

    failures, compared = [], 0
    print("worse-by of B against A, as a share of A (bound); negative is better")
    for w in workloads:
        (seed_a, a), (seed_b, b) = runs_a[w], runs_b[w]
        if seed_a != seed_b:
            sys.exit(f"{w}: A ran seed {seed_a} and B seed {seed_b}; compare runs of one seed")
        cells = []
        for m in end_to_end:
            name = m["name"]
            if name not in a or name not in b:
                continue
            compared += 1
            if same_commit and name in DETERMINISTIC and a[name] != b[name]:
                failures.append(f"{w}: {name} is deterministic but {a[name]!r} != {b[name]!r}")
            if abs(b[name] - a[name]) < FLOORS.get(name, 0.0):
                cells.append(f"{name} tie")
                continue
            bound = PAIR_BOUNDS[name]
            share = worse_by(m, a[name], b[name])
            verdict = ""
            if share > bound:
                verdict = " REGRESSION"
                failures.append(f"{w}: {name} worse by {share:.4f}, bound {bound}")
            cells.append(f"{name} {share:+.4f} ({bound}){verdict}")
        print(f"{w} (seed {seed_a}): " + "  ".join(cells))
        for m in per_layer:
            name = m["name"]
            if m["unit"] == "count" and name in a and name in b and a[name] != b[name]:
                print(f"  count {name}: {a[name]!r} -> {b[name]!r}")
                if same_commit:
                    failures.append(f"{w}: count {name} differs on the same commit")

    if compared == 0:
        sys.exit("no end-to-end metric in both files: nothing was compared")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
