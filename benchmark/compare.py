#!/usr/bin/env python3
"""Compares benchmark results from two commits against BENCHMARK.json bounds.

    python3 benchmark/compare.py OLD NEW

OLD and NEW are directories (or single files) holding the standard output of
`benchmark/run.py` runs, one run per file, e.g. made with

    python3 benchmark/run.py --workload serve --seed 3 --seconds 10 \\
        --trace 0 > results/old/serve_3.txt

Every run is kept, also several runs with the same seed. Runs whose result
says `correct: false` are left out of the statistics and counted; so are
runs marked invalid (a load generator fell behind its schedule, or the host
was contended). For every workload it prints each side's runs, left-out
runs and failed/attempted operations; then, for every (workload, metric),
each side's median and quartiles, the change of the median, and a verdict:

  incorrect   the new side has a run that failed a correctness gate;
  worse       the new median is worse than the old by more than the bound;
  better      the new side has no larger share of failed operations, wins
              at least 9 of 10 seed-paired runs, and its median beats the
              old one by more than the old side's interquartile range;
  unresolved  a side's spread (interquartile range over median) is wider
              than the bound and not every new run beats every old run;
  unchanged   otherwise.

Each side's median host speed probe is printed too; when the two differ by
more than 10% the host ran at a different speed for the two sides, and a
warning says so (the verdicts are not changed).

Per-layer metrics (traced runs) have no bound; they are listed with their
medians and no verdict. Exit code 1 if any verdict is `incorrect` or
`worse`.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Sides whose median speed-probe times differ by more than this share ran on
# a host of different speed.
PROBE_WARN = 0.1


def load_runs(path):
    """{(workload, trace): [run, ...]} from run outputs, in file order.

    A run is a dict with seed, values ({metric: value}), correct, valid,
    attempted, failed and probe_ms.
    """
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = {}
    skipped = 0
    for name in files:
        with open(name, errors="replace") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        try:
            detail = json.loads(lines[-2])["kbench_detail"]
            result = json.loads(lines[-1])
            run = {
                "seed": detail["seed"],
                "values": {m: v["value"] for m, v in result["metrics"].items()},
                "correct": bool(result["correct"]),
                "valid": bool(detail.get("valid", True)),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "probe_ms": host_probe_ms(detail),
            }
        except (IndexError, KeyError, TypeError, ValueError):
            skipped += 1
            continue
        key = (detail["workload"], bool(detail["trace"]))
        runs.setdefault(key, []).append(run)
    if skipped:
        print("%s: skipped %d files that are not run outputs" % (path, skipped),
              file=sys.stderr)
    return runs


def host_probe_ms(detail):
    """The run's speed-probe time (mean of start and end), or None."""
    host = detail.get("host", {})
    if "probe_ms_start" not in host or "probe_ms_end" not in host:
        return None
    return (host["probe_ms_start"] + host["probe_ms_end"]) / 2


def probe_median(runs):
    probes = [r["probe_ms"] for r in runs if r["probe_ms"] is not None]
    return statistics.median(probes) if probes else None


def usable(runs):
    return [r for r in runs if r["correct"] and r["valid"]]


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def seed_pairs(old_runs, new_runs, metric):
    """(old, new) values of runs with the same seed, paired in file order."""
    pairs = []
    for seed in sorted({r["seed"] for r in old_runs} & {r["seed"] for r in new_runs}):
        old = [r["values"][metric] for r in old_runs
               if r["seed"] == seed and metric in r["values"]]
        new = [r["values"][metric] for r in new_runs
               if r["seed"] == seed and metric in r["values"]]
        pairs.extend(zip(old, new))
    return pairs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old, new, pairs, bound, higher_better, new_fails_more):
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)

    def better(a, b):
        return a > b if higher_better else a < b

    gain = (nm - om) if higher_better else (om - nm)
    if om and -gain / abs(om) > bound:
        return "worse"
    wins = sum(1 for a, b in pairs if better(b, a))
    if (not new_fails_more and pairs and wins >= 0.9 * len(pairs)
            and gain > (o3 - o1)):
        return "better"
    spread = max((o3 - o1) / abs(om) if om else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(better(b, a) for a in old for b in new)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def side_summary(runs):
    probe = probe_median(runs)
    return ("%d runs (%d invalid, %d incorrect left out), failed %d of %d, "
            "host speed probe median %s ms" % (
                len(runs), sum(not r["valid"] for r in runs),
                sum(not r["correct"] for r in runs),
                sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs),
                "%.2f" % probe if probe is not None else "-"))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    old_runs, new_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    failing = False
    for key in sorted(set(old_runs) & set(new_runs)):
        workload, traced = key
        print("%s%s old: %s" % (workload, "*" if traced else "",
                                side_summary(old_runs[key])))
        print("%s%s new: %s" % (workload, "*" if traced else "",
                                side_summary(new_runs[key])))
        old_probe = probe_median(old_runs[key])
        new_probe = probe_median(new_runs[key])
        if old_probe and new_probe and abs(new_probe / old_probe - 1) > PROBE_WARN:
            print("  WARNING: the host's speed probe differs by %+.0f%% between "
                  "the sides; the verdicts compare the hosts as well as the code" %
                  (100 * (new_probe / old_probe - 1)))
    print("%-11s %-36s %-6s %26s %26s %8s  %s" % (
        "workload", "metric", "unit", "old median [q1, q3]",
        "new median [q1, q3]", "change", "verdict"))
    for key in sorted(set(old_runs) & set(new_runs)):
        workload, traced = key
        old_runs_k, new_runs_k = usable(old_runs[key]), usable(new_runs[key])
        new_incorrect = any(not r["correct"] for r in new_runs[key])
        new_fails_more = failed_share(new_runs[key]) > failed_share(old_runs[key])
        if not old_runs_k or not new_runs_k:
            print("%-11s (no usable runs on one side)" % workload)
            failing = failing or new_incorrect
            continue
        metrics = sorted(set().union(*(r["values"] for r in old_runs_k)) &
                         set().union(*(r["values"] for r in new_runs_k)))
        for metric in metrics:
            old = [r["values"][metric] for r in old_runs_k if metric in r["values"]]
            new = [r["values"][metric] for r in new_runs_k if metric in r["values"]]
            o1, om, o3 = quartiles(old)
            n1, nm, n3 = quartiles(new)
            change = (nm - om) / abs(om) if om else 0.0
            spec_metric = bounds.get(metric)
            if traced or spec_metric is None:
                result = "incorrect" if new_incorrect else "-"
            elif new_incorrect:
                result = "incorrect"
            else:
                result = verdict(old, new, seed_pairs(old_runs_k, new_runs_k, metric),
                                 spec_metric["bound"],
                                 spec_metric["better"] == "higher", new_fails_more)
            failing = failing or result in ("incorrect", "worse")
            print("%-11s %-36s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%%  %s" % (
                workload + ("*" if traced else ""), metric, units.get(metric, "?"),
                om, o1, o3, nm, n1, n3, 100 * change, result))
    print("(* = traced run, per-layer metric)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
