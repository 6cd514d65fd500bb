"""Per-call cost of desk `infer`, attention, CLAHE maps and the pooled conv's
gradient fill, and benchmark pairs, for two checkouts.

    python3 tools/bench_desk_calls.py layers --parent P --change C --work W
    python3 tools/bench_desk_calls.py pairs --parent P --change C \
        --seeds 3521-3530 --results R
    python3 tools/bench_desk_calls.py summarize --work W --results R \
        --out BENCH_desk_calls.json

P and C are checkouts of the two commits (`git archive` of each, at paths
of the same length). `layers` makes a desk model and one 32-px image under
W with the change's package, then runs --rounds fresh processes per side,
alternating which side goes first, each timing with one BLAS thread (the
median of 7 repeats of a loop of calls, in microseconds per call):
- one desk `infer`, split as `cli.cmd_infer` runs it: the checkpoint read
  (`deploy.read_checkpoint`), the model build (`deploy.model_from_entries`),
  preprocessing (`imaging.read_image` and `imaging.preprocess`) and
  `heads.predict` at batch 1;
- float32 `tensor.attention` with the preset's heads, forward alone and
  forward plus backward of sum(out * g), at desk batch 1, desk batch 32
  and paper batch 1;
- `imaging._clahe_luts` (tile 8, clip 2) over a 4-image 32-px sub-stack,
  the desk preset's, and over one 224-px image;
- the gradient fill of `tensor.conv_relu_pool2d` for the two desk CNN
  blocks at batch 32, each called once over the whole batch.
It writes W/layers.json: each figure's per-process values and the median
over processes per side. `pairs` runs tools/bench_pairs.py's `run_pairs`
for each of --workloads over --seeds; `summarize` writes the layers and
`summarize_pairs` of R into the BENCH JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

from bench_pairs import run_pairs, summarize_pairs

# One side's timings in a fresh interpreter: argv is the checkout root and
# the work directory; prints one JSON object of figures.
_MEASURE = """
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from weedhybrid import backbone as bb, deploy as dp, heads as hd, imaging as im
from weedhybrid import tensor as T
work = sys.argv[2]


def per_call_us(fn, calls, repeats=7):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * float(np.median(times))


fig = {}
model = work + "/model.hwdm"
with open(work + "/image.txt", encoding="utf-8") as fh:
    image = fh.read().strip()
entries, _ = dp.read_checkpoint(model)
params, heads, _ = dp.load_model(model)
pre_cfg = im.PreprocessConfig(target_size=params.config.image_size)
x = T.const(im.preprocess(im.read_image(image), pre_cfg)[None])
fig["infer_checkpoint_read_us"] = per_call_us(lambda: dp.read_checkpoint(model), 50)
fig["infer_model_build_us"] = per_call_us(lambda: dp.model_from_entries(entries), 50)
fig["infer_preprocess_us"] = per_call_us(
    lambda: im.preprocess(im.read_image(image), pre_cfg), 100)
fig["infer_predict_us"] = per_call_us(lambda: hd.predict(params, heads, x), 50)

rng = np.random.default_rng(0)
for name, cfg, n, calls in (("desk_b1", bb.desk_config(), 1, 200),
                            ("desk_b32", bb.desk_config(), 32, 20),
                            ("paper_b1", bb.paper_config(), 1, 3)):
    w = bb.init_backbone(cfg, rng).vit.heads
    e = T.Tensor(rng.standard_normal((n, cfg.num_patches, cfg.embed_dim)),
                 requires_grad=True)
    g = T.const(rng.standard_normal(e.shape))

    def both():
        with T.Tape() as tape:
            tape.backward(T.sum_(T.mul(T.attention(e, w), g)))
        T.zero_grads([e] + [p for head in w for p in head])

    fig[f"attention_{name}_forward_us"] = per_call_us(lambda: T.attention(e, w), calls)
    fig[f"attention_{name}_forward_backward_us"] = per_call_us(both, max(1, calls // 3))

for name, n, size, calls in (("desk_4x32px", 4, 32, 200), ("paper_1x224px", 1, 224, 100)):
    lum = rng.integers(0, 256, (n, size, size), dtype=np.uint8)
    by, bx = im._tile_bounds(size, size, 8)
    fig[f"clahe_luts_{name}_us"] = per_call_us(
        lambda: im._clahe_luts(lum, by, bx, 2.0), calls)

for block, (c, k, hw) in enumerate(((3, 8, 32), (8, 16, 16)), start=1):
    xb = T.Tensor(rng.standard_normal((32, c, hw, hw)), requires_grad=True)
    kb = T.Tensor(rng.standard_normal((k, c, 3, 3)) * 0.3, requires_grad=True)
    bias = T.Tensor(rng.standard_normal(k) * 0.1, requires_grad=True)
    fills = []
    real = T._conv_backward
    T._conv_backward = lambda fill, *args, **kw: fills.append(fill)
    try:
        with T.Tape() as tape:
            out = T.conv_relu_pool2d(xb, kb, bias)
            tape.backward(T.sum_(T.mul(out, T.const(rng.standard_normal(out.shape)))))
    finally:
        T._conv_backward = real
    dest = np.empty((k, 32, hw, hw))
    fig[f"conv_fill_block{block}_b32_us"] = per_call_us(
        lambda: fills[0](0, 32, 0, hw, dest), 50)
print(json.dumps(fig))
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
WORKLOADS = "desk-train,paper-infer,imbalance"


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
            [run[name] for run in runs[side]])), 1),
            "runs": [round(run[name], 1) for run in runs[side]]} for side in SIDES}
    with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"rounds": args.rounds, "figures": result}, fh, indent=1)


def pairs(args) -> None:
    for workload in args.workloads.split(","):
        run_pairs(args.parent, args.change, workload, args.seeds, args.results)


def summarize(args) -> None:
    with open(os.path.join(args.work, "layers.json"), encoding="utf-8") as fh:
        bench = {"layers": json.load(fh)}
    bench["workloads"] = summarize_pairs(args.results)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("layers", "pairs"):
        q = sub.add_parser(mode)
        q.add_argument("--parent", required=True)
        q.add_argument("--change", required=True)
    q = sub.choices["layers"]
    q.add_argument("--work", required=True)
    q.add_argument("--rounds", type=int, default=6)
    q = sub.choices["pairs"]
    q.add_argument("--seeds", required=True, help="FIRST-LAST")
    q.add_argument("--workloads", default=WORKLOADS, help="comma-separated")
    q.add_argument("--results", required=True)
    q = sub.add_parser("summarize")
    q.add_argument("--work", required=True)
    q.add_argument("--results", required=True)
    q.add_argument("--out", required=True, help="BENCH JSON to write")
    args = p.parse_args(argv)
    {"layers": layers, "pairs": pairs, "summarize": summarize}[args.mode](args)


if __name__ == "__main__":
    main()
