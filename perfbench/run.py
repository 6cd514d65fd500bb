"""weedhybrid benchmark: one workload per invocation, result as a JSON line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy, and driven through `weedhybrid.cli.main`; the
workload's inputs are generated from --seed.  Every set-up and
measurement runs in a fresh worker process (worker.py) with at most nproc
BLAS threads.

--trace 0 gives the end-to-end metrics, the same three for every workload:
set-up runs SETUP_RUNS times (in separate processes, the last of which goes
on to measure) and `setup_s` is their median; the measuring process runs
closed-loop passes for --seconds, and `pass_rel` is the median over passes
of the pass time over the time of a reference kernel run between commands.
The raw pass time and per-command figures (the workload's `details`) go to
stderr and result.json.
--trace 1 gives the per-layer metrics: one untraced and one traced process
each run set-up plus one pass, and the difference in their wall time is
reported as `trace.overhead_s`.

The last stdout line is {"correct", "attempted", "failed", "metrics"} with
the metrics BENCHMARK.json declares for the mode; a fuller result with the
environment, samples, digests and the per-layer table is written under
.bench_work/<workload>-trace<n>/, beside the Chrome trace of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import extract

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
# One BLAS thread, never more than nproc: on a 2-vCPU machine a second thread
# made paper-preset `infer` no faster (about 275 against 265 ms per call).
BLAS_THREADS = "1"

WORKLOADS = ("desk-train", "paper-infer", "imbalance")
# Every workload reports every end-to-end metric.
END_TO_END = ("setup_s", "peak_rss_mb", "pass_rel")
# Units of the raw times and per-command figures a measuring run reports
# beside the end-to-end metrics.
DETAIL_UNITS = {"pass_s": "s", "reference_s": "s",
                "train_samples_per_s": "1/s", "int8_top1_agreement": "ratio",
                "val_accuracy": "ratio", "val_miou": "ratio",
                "infer_ms_p50": "ms", "infer_ms_p90": "ms",
                "infer_int8_ms_p50": "ms", "infer_int8_ms_p90": "ms",
                "eval_imgs_per_s": "1/s", "gan_samples_per_s": "1/s",
                "augment_imgs_per_s": "1/s", "pretrain_images_per_s": "1/s"}
COMMANDS = ("gen-data", "preprocess", "gan-train", "augment", "pretrain",
            "train", "eval", "quantize", "prune", "infer")
QUALITY = ("training.val_accuracy", "training.val_miou",
           "deploy.int8_top1_agreement")


class BenchError(Exception):
    pass


def spawn(workdir: str, name: str, args, deadline: float, extra=()) -> dict:
    """Run one worker process to completion and return its result."""
    result_path = os.path.join(workdir, f"{name}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", os.path.join(workdir, name), "--result", result_path,
           *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_end"] - started
    result["wall_s"] = result["end"] - started
    return result


def layer_metric(name: str, traced: dict, overhead_s: float) -> float:
    """Value of one declared per-layer metric from a traced worker result."""
    layers, counters = traced["layers"], traced["counters"]
    known = set(traced["traced"]) | {f"cli.{c}" for c in COMMANDS}
    if name == "trace.overhead_s":
        return overhead_s
    if name in QUALITY:
        return traced["quality"].get(name, 0.0)
    if name == "tensor.tape_records":
        backward = layers.get("tensor.Tape.backward", {}).get("calls", 0)
        return counters.get(name, 0.0) / backward if backward else 0.0
    if name in ("deploy.read_checkpoint.bytes", "deploy.write_checkpoint.bytes"):
        return counters.get(name, 0.0)
    if name == "imaging.preprocess.ms_per_call":
        row = layers.get("imaging.preprocess", {"s": 0.0, "calls": 0})
        return 1000.0 * row["s"] / row["calls"] if row["calls"] else 0.0
    base, _, stat = name.rpartition(".")
    if stat == "exit" and base.startswith("cli."):
        return traced["exit_codes"].get(base[4:], 0)
    if stat in ("s", "self_s", "calls") and base in known:
        return layers.get(base, {}).get(stat, 0)
    raise BenchError(f"per-layer metric {name} is not measured")


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS), "load_average": os.getloadavg()}


def measure(args, spec: dict, workdir: str, deadline: float) -> tuple:
    """Run the workers for one mode; return (output line dict, full result)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        workers = {"untraced": spawn(workdir, "untraced", args, deadline,
                                     ["--passes", "1"]),
                   "traced": spawn(workdir, "traced", args, deadline,
                                   ["--passes", "1", "--trace"])}
        traced = workers["traced"]
        overhead = traced["wall_s"] - workers["untraced"]["wall_s"]
        values = {m["name"]: layer_metric(m["name"], traced, overhead)
                  for m in spec["per_layer"]}
    else:
        workers = {f"setup-{i}": spawn(workdir, f"setup-{i}", args, deadline,
                                       ["--setup-only"])
                   for i in range(SETUP_RUNS - 1)}
        run = workers["measure"] = spawn(workdir, "measure", args, deadline,
                                         ["--seconds", str(args.seconds)])
        values = dict(run.get("metrics", {}),
                      setup_s=extract.median([w["setup_s"] for w in workers.values()]),
                      peak_rss_mb=run["peak_rss_mb"])
        missing = [name for name in END_TO_END if name not in values]
        if missing:
            raise BenchError(f"not measured: {', '.join(missing)}; "
                             f"problems: {run['problems']}")
    last = list(workers.values())[-1]
    problems = [p for w in workers.values() for p in w["problems"]]
    for key in ("setup_digest", "run_digest"):
        if len({w[key] for w in workers.values() if w[key] is not None}) > 1:
            problems.append(f"{key}: artifacts differ between runs of one seed")
    measured = [w for w in workers.values() if w["passes"]]
    line = {"correct": not problems,
            "attempted": sum(w["attempted"] for w in measured),
            "failed": sum(w["failed"] for w in measured),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items() if name in units}}
    full = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                problems=problems, details=workers.get("measure", {}).get("details", {}),
                environment=dict(environment(), **last["environment"]),
                layers=last.pop("layers", None), workers=workers)
    return line, full


def report(full: dict) -> None:
    """Human-readable summary on stderr."""
    env = full["environment"]
    print(f"[{full['workload']} seed {full['seed']} trace {full['trace']}] "
          f"python {env['python']} numpy {env['numpy']} {env['blas']} "
          f"{env['blas_version']} blas_threads {env['blas_threads']} "
          f"nproc {env['nproc']} load {env['load_average']}", file=sys.stderr)
    for name, m in full["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for name, value in full["details"].items():
        print(f"  (not gated) {name:28s} {value:14.6g} {DETAIL_UNITS[name]}",
              file=sys.stderr)
    print(f"  attempted {full['attempted']} failed {full['failed']} "
          f"correct {full['correct']}", file=sys.stderr)
    for problem in full["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "weedhybrid", "cli.py")):
        print(f"error: no weedhybrid sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        line, full = measure(args, spec, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    report(full)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
