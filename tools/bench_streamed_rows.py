"""Memory of the per-row commands, and benchmark pairs, for two checkouts.

    python3 tools/bench_streamed_rows.py peaks --parent P --change C --work W
    python3 tools/bench_streamed_rows.py pairs --parent P --change C \
        --workload paper-infer --seeds 3101-3110 --results R
    python3 tools/bench_streamed_rows.py summarize --peaks W/peaks.json \
        --results R --out BENCH_streamed_rows.json

P and C are checkouts of the two commits (`git archive` of each, at paths
of the same length). `peaks` generates its inputs under W with the
change's `gen-data`, then runs `eval`, `preprocess` and `augment` once per
side and size, each in a fresh process under `tracemalloc`, and writes
W/peaks.json: the traced peak in MiB of each command at 16 and 64 rows of
224 px. `eval` scores a random-init paper-preset model; `augment` tops a
set of 64 originals up with 16 or 64 synthetic images from a random-init
default GAN marked trained. `pairs` runs `perfbench/run.py --seconds 20
--trace 0` for each seed on both sides, one run at a time, the parent
first for odd seeds, and appends one JSON line per pair to
R/pairs.jsonl. `summarize` gives each workload's medians, quartiles
(numpy.percentile, linear) and the count of pairs the change wins.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

SIZES = (16, 64)
METRICS = ("pass_rel", "setup_s", "peak_rss_mb")   # all lower-is-better

# One command under tracemalloc in a fresh interpreter: prints its exit
# code and traced peak in MiB.
_MEASURE = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1] + "/src")
from weedhybrid import cli
tracemalloc.start()
rc = cli.main(sys.argv[2:])
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"rc": rc, "peak_mib": round(peak / 2**20, 3)}))
"""

# Inputs for `peaks`, made with one side's package: 224-px rows, a paper
# model, a default GAN, and the manifests each size reads.
_INPUTS = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from weedhybrid import backbone as bb, cli, dataio, deploy as dp, gan as gn, heads as hd
assert cli.main(["gen-data", "--out", "rows", "--per-class", "32", "--size", "224",
                 "--seed", "7"]) == 0
rows = dataio.read_manifest("rows/manifest.tsv")
def subset(name, per_class):
    keep = [s for k, n in enumerate(per_class) for s in [r for r in rows if r.label == k][:n]]
    dataio.write_manifest(f"rows/{name}.tsv", keep)
subset("rows16", [4] * 4)
subset("rows64", [16] * 4)
subset("augment16", [20, 20, 20, 4])    # 64 originals, 16 synthetic
subset("augment64", [32, 16, 8, 8])     # 64 originals, 64 synthetic
rng = np.random.default_rng(0)
cfg = bb.paper_config()
dp.save_model("paper.hwdm", bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
gan = gn.init_gan(gn.GanConfig(), rng)
gan.trained_steps = 1
dp.save_gan("gan.hwdm", gan)
"""


def commands(n: int) -> dict:
    return {
        "eval": ["eval", "--manifest", f"rows/rows{n}.tsv", "--model", "paper.hwdm",
                 "--out", "out"],
        "preprocess": ["preprocess", "--manifest", f"rows/rows{n}.tsv", "--out", "out",
                       "--preset", "paper"],
        "augment": ["augment", "--manifest", f"rows/augment{n}.tsv", "--gan", "gan.hwdm",
                    "--out", "out"],
    }


def peaks(args) -> None:
    os.makedirs(args.work, exist_ok=True)
    subprocess.run([sys.executable, "-c", _INPUTS, os.path.abspath(args.change)],
                   cwd=args.work, check=True, capture_output=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = {}
    for n in SIZES:
        for name, argv in commands(n).items():
            for side in ("parent", "change"):
                subprocess.run(["rm", "-rf", os.path.join(args.work, "out")], check=True)
                root = os.path.abspath(getattr(args, side))
                p = subprocess.run([sys.executable, "-c", _MEASURE, root, *argv],
                                   cwd=args.work, env=env, check=True,
                                   capture_output=True, text=True)
                got = json.loads(p.stdout.strip().splitlines()[-1])
                if got["rc"] != 0:
                    raise SystemExit(f"{side} {' '.join(argv)} exited {got['rc']}: "
                                     f"{p.stdout}")
                result.setdefault(name, {}).setdefault(side, {})[f"rows_{n}"] = \
                    got["peak_mib"]
                print(side, name, n, got["peak_mib"], flush=True)
    with open(os.path.join(args.work, "peaks.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def run_side(root: str, workload: str, seed: int) -> dict:
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


def pairs(args) -> None:
    lo, _, hi = args.seeds.partition("-")
    os.makedirs(args.results, exist_ok=True)
    for seed in range(int(lo), int(hi or lo) + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(getattr(args, side), args.workload, seed)
        with open(os.path.join(args.results, "pairs.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(pair) + "\n")
        print(json.dumps(pair), flush=True)


def quartiles(values) -> list:
    return [round(float(q), 3) for q in np.percentile(values, [25, 50, 75])]


def summarize(args) -> None:
    with open(args.peaks, encoding="utf-8") as fh:
        peak = json.load(fh)
    with open(os.path.join(args.results, "pairs.jsonl"), encoding="utf-8") as fh:
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
    bench = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench.update(tracemalloc_peaks_mib=peak, workloads=workloads)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("peaks", "pairs"):
        q = sub.add_parser(mode)
        q.add_argument("--parent", required=True)
        q.add_argument("--change", required=True)
    sub.choices["peaks"].add_argument("--work", required=True)
    sub.choices["pairs"].add_argument("--workload", required=True)
    sub.choices["pairs"].add_argument("--seeds", required=True, help="FIRST-LAST")
    sub.choices["pairs"].add_argument("--results", required=True)
    q = sub.add_parser("summarize")
    q.add_argument("--peaks", required=True)
    q.add_argument("--results", required=True)
    q.add_argument("--out", required=True, help="BENCH JSON to update")
    args = p.parse_args(argv)
    {"peaks": peaks, "pairs": pairs, "summarize": summarize}[args.mode](args)


if __name__ == "__main__":
    main()
