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
default GAN marked trained. `pairs` and the pair summary are
tools/bench_pairs.py's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench_pairs import add_pairs_parser, run_pairs, summarize_pairs

SIZES = (16, 64)

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


def pairs(args) -> None:
    run_pairs(args.parent, args.change, args.workload, args.seeds, args.results)


def summarize(args) -> None:
    with open(args.peaks, encoding="utf-8") as fh:
        peak = json.load(fh)
    workloads = summarize_pairs(args.results)
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
    q = sub.add_parser("peaks")
    q.add_argument("--parent", required=True)
    q.add_argument("--change", required=True)
    q.add_argument("--work", required=True)
    add_pairs_parser(sub)
    q = sub.add_parser("summarize")
    q.add_argument("--peaks", required=True)
    q.add_argument("--results", required=True)
    q.add_argument("--out", required=True, help="BENCH JSON to update")
    args = p.parse_args(argv)
    {"peaks": peaks, "pairs": pairs, "summarize": summarize}[args.mode](args)


if __name__ == "__main__":
    main()
