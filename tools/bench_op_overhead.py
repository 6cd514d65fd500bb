"""Per-op plumbing cost, desk `predict` and `infer`, and benchmark pairs,
for two checkouts.

    python3 tools/bench_op_overhead.py layers --parent P --change C --work W
    python3 tools/bench_op_overhead.py traces --parent P --change C --work W
    python3 tools/bench_pairs.py pairs --parent P --change C \
        --workload desk-train --seeds 3901-3910 --results R
    python3 tools/bench_op_overhead.py summarize --work W --results R \
        --out BENCH_op_overhead.json

P and C are checkouts of the two commits (`git archive` of each, at paths
of the same length). `layers` makes a desk model and one 32-px image under
W with the change's package, then runs --rounds fresh processes per side,
alternating which side goes first, each timing with one BLAS thread:
- `T.add`, `T.relu` and `T.matmul` on (1, 64) float32 tensors (the matmul
  by a (64, 64) one), untaped, in microseconds per call (median of 7
  repeats of 2000 calls);
- desk `predict` of a random-init model at batch 1 and at batch 32, in
  milliseconds per call (median of 7 repeats);
- one `infer` call through `cli.main`, model load and preprocessing
  included, in milliseconds (median of 25 calls).
It writes W/layers.json: each figure's per-process values and the median
over processes per side. `traces` runs `perfbench/run.py --workload
desk-train --trace 1` once per side and keeps the per-layer table in
W/traces.json. `summarize` writes both, with tools/bench_pairs.py's
summary of R, into the BENCH JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

from bench_pairs import summarize_pairs

# One side's timings in a fresh interpreter: argv is the checkout root and
# the work directory; prints one JSON object of figures.
_MEASURE = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from weedhybrid import backbone as bb, cli, heads as hd, tensor as T
work = sys.argv[2]


def per_call(fn, calls, repeats=7):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return float(np.median(times))


rng = np.random.default_rng(0)
a, b = (T.Tensor(rng.standard_normal((1, 64))) for _ in range(2))
w = T.Tensor(rng.standard_normal((64, 64)))
cfg = bb.desk_config()
params, heads = bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng)
x1, x32 = (T.const(rng.random((n, 3, 32, 32))) for n in (1, 32))
with open(work + "/image.txt", encoding="utf-8") as fh:
    image = fh.read().strip()
argv = ["infer", "--model", work + "/model.hwdm", "--image", image]


def infer():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


print(json.dumps({
    "add_us": 1e6 * per_call(lambda: T.add(a, b), 2000),
    "relu_us": 1e6 * per_call(lambda: T.relu(a), 2000),
    "matmul_us": 1e6 * per_call(lambda: T.matmul(a, w), 2000),
    "predict_b1_ms": 1e3 * per_call(lambda: hd.predict(params, heads, x1), 50),
    "predict_b32_ms": 1e3 * per_call(lambda: hd.predict(params, heads, x32), 3),
    "infer_ms": 1e3 * per_call(infer, 1, repeats=25),
}))
"""

# The desk model and the 32-px image `infer` reads, made with one side's package.
_INPUTS = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from weedhybrid import backbone as bb, cli, dataio, deploy as dp, heads as hd
assert cli.main(["gen-data", "--out", "rows", "--per-class", "1", "--size", "32",
                 "--seed", "7"]) == 0
with open("image.txt", "w", encoding="utf-8") as fh:
    fh.write("rows/" + dataio.read_manifest("rows/manifest.tsv")[0].image)
rng = np.random.default_rng(0)
cfg = bb.desk_config()
dp.save_model("model.hwdm", bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
"""

SIDES = ("parent", "change")


def layers(args) -> None:
    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)
    subprocess.run([sys.executable, "-c", _INPUTS, os.path.abspath(args.change)],
                   cwd=work, check=True, capture_output=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    runs = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            p = subprocess.run([sys.executable, "-c", _MEASURE,
                                os.path.abspath(getattr(args, side)), work],
                               cwd=work, env=env, check=True, capture_output=True,
                               text=True)
            runs[side].append(json.loads(p.stdout.strip().splitlines()[-1]))
            print(side, runs[side][-1], flush=True)
    result = {}
    for name in runs["parent"][0]:
        result[name] = {side: {"median": round(float(np.median(
            [run[name] for run in runs[side]])), 3),
            "runs": [round(run[name], 3) for run in runs[side]]} for side in SIDES}
    with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"rounds": args.rounds, "figures": result}, fh, indent=1)


# The per-layer rows `traces` keeps from a traced desk-train run.
TRACED = ("cli.infer", "heads.predict", "backbone.backbone_forward",
          "backbone.build_plant_graph", "cli.train", "cli.eval", "training.train",
          "training.evaluate", "tensor.Tape.backward", "tensor.tape_records",
          "imaging.adaptive_hist_eq", "imaging.preprocess", "dataio.load_dataset")


def traces(args) -> None:
    os.makedirs(args.work, exist_ok=True)
    result = {}
    for side in SIDES:
        root = getattr(args, side)
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-train",
                        "--seed", str(args.seed), "--seconds", "20", "--trace", "1"],
                       cwd=root, check=True, capture_output=True)
        with open(os.path.join(root, ".bench_work", "desk-train-trace1", "result.json"),
                  encoding="utf-8") as fh:
            full = json.load(fh)
        result[side] = {k: v for k, v in full["metrics"].items()
                        if k.rsplit(".", 1)[0] in TRACED or k in TRACED}
        print(side, json.dumps(result[side]), flush=True)
    with open(os.path.join(args.work, "traces.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "desk-train": result}, fh, indent=1)


def summarize(args) -> None:
    bench = {}
    for name in ("layers", "traces"):
        with open(os.path.join(args.work, f"{name}.json"), encoding="utf-8") as fh:
            bench[name] = json.load(fh)
    bench["workloads"] = summarize_pairs(args.results)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("layers", "traces"):
        q = sub.add_parser(mode)
        q.add_argument("--parent", required=True)
        q.add_argument("--change", required=True)
        q.add_argument("--work", required=True)
    sub.choices["layers"].add_argument("--rounds", type=int, default=6)
    sub.choices["traces"].add_argument("--seed", type=int, default=3900)
    q = sub.add_parser("summarize")
    q.add_argument("--work", required=True)
    q.add_argument("--results", required=True)
    q.add_argument("--out", required=True, help="BENCH JSON to write")
    args = p.parse_args(argv)
    {"layers": layers, "traces": traces, "summarize": summarize}[args.mode](args)


if __name__ == "__main__":
    main()
