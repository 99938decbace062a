"""Run the benchmark in alternating pairs on two checkouts and summarize.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S --out BENCH_NN.json

PARENT and CHANGE are checkouts of the repository, each with its own
``perfbench/``.  Pair k runs ``perfbench/run.py --workload W --seed S+k-1
--seconds T --trace 0`` in both, the parent first in odd pairs and the
change first in even ones, where T is ``run_seconds`` from the
``BENCHMARK.json`` beside this script.

The output file has the layout of the earlier ``BENCH_*.json``: ``runs``,
one record per run with its end-to-end metrics, and ``summary``, per
workload and metric both sides' values, medians and quartiles, the
number of pairs in which the change read better (ties count for neither)
and the relative change of the median.  Runs already in the output file
are kept, and the new ones are added as its next batch, so batches spread
over time summarize together.  For every workload and metric one line
says whether a gain may be claimed: the change won at least nine tenths
of the pairs, and the medians differ by more than the distance between
the parent's quartiles.

After both runs of a pair, the artifacts the two runs left in their
checkouts' ``perfbench/_work/W`` are compared by
``compare_artifacts.compare``: both runs of the pair record the number
compared and the paths that differ, and one line is printed.  A change
may alter artifacts on purpose, so a difference does not set the exit
code.  The exit code is 1 when a run printed no result or reported itself
incorrect, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_artifacts  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """The result object ``perfbench/run.py`` prints last, or None when the
    run printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def compare_pair(checkouts, workload):
    """The artifacts the last runs of ``workload`` left in the two
    checkouts: the number compared, and the paths that differ."""
    trees = [os.path.join(checkouts[side], "perfbench", "_work", workload) for side in SIDES]
    differing, compared = compare_artifacts.compare(*trees)
    return {"compared": compared, "differing": differing}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, better):
    """Per workload and metric: both sides' values in pair order, their
    medians, the parent's quartiles, the pairs the change won and the
    change of the median relative to the parent's.  ``better`` maps each
    metric to "lower" or "higher"; a pair missing a side is left out."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload and run["metrics"] is not None:
                pairs.setdefault((run["batch"], run["pair"]), {})[run["side"]] = run["metrics"]
        pairs = [pair for _, pair in sorted(pairs.items()) if len(pair) == 2]
        summary[workload] = {}
        for name, direction in better.items():
            parent = [pair["parent"][name] for pair in pairs]
            change = [pair["change"][name] for pair in pairs]
            if not pairs or None in parent or None in change:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            q1, q3 = _quartiles(parent)
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            summary[workload][name] = {
                "parent": parent,
                "change": change,
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_q1": q1,
                "parent_q3": q3,
                "change_better_pairs": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
                "median_change": (change_median / parent_median - 1.0
                                  if parent_median else change_median - parent_median),
            }
    return summary


def claimable(entry, better):
    """Whether the summary ``entry`` of a metric shows a gain: the change
    won at least nine tenths of the pairs, and its median is better than
    the parent's by more than the parent's quartile spread."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (entry["parent_median"] - entry["change_median"])
    return (10 * entry["change_better_pairs"] >= 9 * len(entry["parent"])
            and gain > entry["parent_q3"] - entry["parent_q1"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]

    record = {"parent": os.path.basename(os.path.abspath(args.parent)),
              "change": os.path.basename(os.path.abspath(args.change)), "claim": None,
              "method": f"perfbench/run.py --seconds {seconds} --trace 0, alternating "
                        "parent/change pairs (parent first in odd pairs, change first in "
                        "even pairs)", "runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    batch = max((run.get("batch", 1) for run in record["runs"]), default=0) + 1
    checkouts = {"parent": args.parent, "change": args.change}
    ok = True
    for pair in range(1, args.pairs + 1):
        seed = args.seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, seconds)
            ok = ok and result is not None and result["correct"]
            record["runs"].append({
                "pair": pair, "seed": seed, "workload": args.workload, "side": side,
                "first": order[0], "batch": batch,
                "correct": result is not None and result["correct"],
                "attempted": result and result["attempted"],
                "failed": result and result["failed"],
                "metrics": result and {name: m["value"] for name, m in result["metrics"].items()},
            })
            print(f"{args.workload} pair {pair} seed {seed} {side}: "
                  + (json.dumps(record["runs"][-1]["metrics"]) if result else "no result"),
                  flush=True)
        artifacts = compare_pair(checkouts, args.workload)
        for run in record["runs"][-2:]:
            run["artifacts"] = artifacts
        print(f"{args.workload} pair {pair} artifacts: {artifacts['compared']} compared, "
              f"{len(artifacts['differing'])} differ {' '.join(artifacts['differing'])}".rstrip(),
              flush=True)
    record["summary"] = summarize(record["runs"], better)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, metrics in record["summary"].items():
        for name, entry in metrics.items():
            verdict = "holds" if claimable(entry, better[name]) else "does not hold"
            print(f"{workload:12s} {name:16s} parent {entry['parent_median']:.6g} "
                  f"[{entry['parent_q1']:.6g}, {entry['parent_q3']:.6g}] "
                  f"change {entry['change_median']:.6g}  won "
                  f"{entry['change_better_pairs']}/{len(entry['parent'])}  gain rule {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
