"""Benchmark pairs of two checkouts, run alternately, and their summary.

    python3 tools/bench_pairs.py pairs --parent P --change C \
        --workload desk-train --seeds 3901-3910 --results R
    python3 tools/bench_pairs.py summarize --results R

P and C are checkouts of the two commits (`git archive` of each, at paths
of the same length). `pairs` runs `perfbench/run.py --seconds 20 --trace 0`
for each seed on both sides, one run at a time, the parent first for odd
seeds, and appends one JSON line per pair to R/pairs.jsonl. `summarize`
prints each workload's medians, quartiles (numpy.percentile, linear), the
count of pairs the change wins, the failed share and whether the set-up and
run digests of both sides are equal. The other tools/bench_*.py scripts
import `run_pairs` and `summarize_pairs` to put the pairs in their
BENCH_*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

METRICS = ("pass_rel", "setup_s", "peak_rss_mb")   # all lower-is-better


def run_side(root: str, workload: str, seed: int) -> dict:
    """One `perfbench/run.py --trace 0` run in checkout root: its metrics,
    details, digests and operation counts."""
    start = time.time()
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", "20", "--trace", "0"],
                       cwd=root, capture_output=True, text=True)
    line = [text for text in p.stdout.splitlines() if text.startswith("{")][-1]
    res = json.loads(line)
    with open(os.path.join(root, ".bench_work", f"{workload}-trace0", "result.json"),
              encoding="utf-8") as fh:
        full = json.load(fh)
    row = {k: round(v["value"], 3) for k, v in res["metrics"].items()}
    row["details"] = {k: round(v, 3) for k, v in full["details"].items()}
    row["digests"] = [full["workers"]["measure"][key]
                      for key in ("setup_digest", "run_digest")]
    row.update(correct=res["correct"], attempted=res["attempted"],
               failed=res["failed"], wall_s=round(time.time() - start, 1))
    return row


def run_pairs(parent: str, change: str, workload: str, seeds: str, results: str) -> None:
    """Run a pair per seed of seeds ("FIRST-LAST" or one seed) and append
    each to results/pairs.jsonl as it completes."""
    lo, _, hi = seeds.partition("-")
    os.makedirs(results, exist_ok=True)
    sides = {"parent": parent, "change": change}
    for seed in range(int(lo), int(hi or lo) + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"workload": workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(sides[side], workload, seed)
        with open(os.path.join(results, "pairs.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(pair) + "\n")
        print(json.dumps(pair), flush=True)


def quartiles(values) -> list:
    return [round(float(q), 3) for q in np.percentile(values, [25, 50, 75])]


def summarize_pairs(results: str) -> dict:
    """Workload -> {"summary", "pairs"} from results/pairs.jsonl."""
    with open(os.path.join(results, "pairs.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    workloads = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        summary = {"pairs": len(mine)}
        for metric in METRICS:
            parent = [r["parent"][metric] for r in mine]
            change = [r["change"][metric] for r in mine]
            pq, cq = quartiles(parent), quartiles(change)
            summary[metric] = {
                "parent_quartiles": pq, "change_quartiles": cq,
                "parent_iqr": round(pq[2] - pq[0], 3),
                "median_difference": round(cq[1] - pq[1], 3),
                "change_lower_in": f"{sum(c < p for p, c in zip(parent, change))}/{len(mine)}"}
        summary["failed_of_attempted"] = {
            side: [sum(r[side]["failed"] for r in mine),
                   sum(r[side]["attempted"] for r in mine)]
            for side in ("parent", "change")}
        summary["all_correct"] = all(r[s]["correct"] for r in mine
                                     for s in ("parent", "change"))
        same = sum(r["parent"]["digests"] == r["change"]["digests"] for r in mine)
        summary["digests_equal"] = f"{same}/{len(mine)}"
        workloads[workload] = {"summary": summary, "pairs": mine}
    return workloads


def add_pairs_parser(sub) -> None:
    q = sub.add_parser("pairs")
    q.add_argument("--parent", required=True)
    q.add_argument("--change", required=True)
    q.add_argument("--workload", required=True)
    q.add_argument("--seeds", required=True, help="FIRST-LAST")
    q.add_argument("--results", required=True)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    add_pairs_parser(sub)
    sub.add_parser("summarize").add_argument("--results", required=True)
    args = p.parse_args(argv)
    if args.mode == "pairs":
        run_pairs(args.parent, args.change, args.workload, args.seeds, args.results)
    else:
        json.dump({w: v["summary"] for w, v in summarize_pairs(args.results).items()},
                  sys.stdout, indent=1)
        print()


if __name__ == "__main__":
    main()
