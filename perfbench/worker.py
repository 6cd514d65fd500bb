"""One benchmark process: set up a workload, then optionally measure it.

Started by run.py in a fresh interpreter per setup or measurement, so no
module-level cache (such as the bilinear upsample matrices) or RSS
high-water mark carries over between them.  Writes its result as JSON to
--result; the wall-clock origin for set-up time is the parent's spawn time,
so timestamps are time.monotonic() values (one clock for all processes).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# weedhybrid modules whose public functions the traced run wraps; cli is
# left out because the benchmark records a span around each command itself.
TRACED_MODULES = ("tensor", "imaging", "backbone", "heads", "gan", "pretrain",
                  "training", "deploy", "dataio", "synthdata")


def import_program(root: str):
    """Import weedhybrid from root/src, never from an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import weedhybrid
    if not os.path.abspath(weedhybrid.__file__).startswith(src + os.sep):
        raise SystemExit(f"weedhybrid imported from {weedhybrid.__file__}, "
                         f"not from {src}")
    return weedhybrid


def blas_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def trace_hooks():
    """Counters recorded when particular traced functions return."""
    def records(tracer, args, result):
        tracer.count("tensor.tape_records", len(args[0]))

    def read_bytes(tracer, args, result):
        tracer.count("deploy.read_checkpoint.bytes", os.path.getsize(args[0]))

    def write_bytes(tracer, args, result):
        tracer.count("deploy.write_checkpoint.bytes", os.path.getsize(args[0]))

    return {"tensor.Tape.backward": records,
            "deploy.read_checkpoint": read_bytes,
            "deploy.write_checkpoint": write_bytes}


def stop_after(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether to stop measuring after `passes` passes that took `elapsed`
    seconds: stop when one more pass of the mean length would end more than
    half a pass past `seconds`.  At least one pass is always made."""
    return elapsed + 0.5 * elapsed / passes >= seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="measure passes for about this long (see stop_after)")
    p.add_argument("--passes", type=int, default=0,
                   help="measure exactly this many passes instead")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    weedhybrid = import_program(args.root)
    import tracing
    from workloads import WORKLOADS, Session

    tracer = names = None
    if args.trace:
        tracer = tracing.Tracer()
        modules = [importlib.import_module(f"weedhybrid.{m}")
                   for m in TRACED_MODULES]
        names, _ = tracing.instrument(tracer, modules,
                                      methods=[(weedhybrid.tensor.Tape, "backward")],
                                      after=trace_hooks())

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    session = Session(tracer)
    workload = WORKLOADS[args.workload](session, args.seed)
    result = {"setup_digest": workload.setup(), "setup_end": time.monotonic()}
    passes = 0
    if not args.setup_only:
        start = time.perf_counter()
        while True:
            workload.run_pass()
            passes += 1
            if args.passes:
                if passes >= args.passes:
                    break
            elif stop_after(time.perf_counter() - start, passes, args.seconds):
                break
        try:
            result["metrics"] = workload.metrics()
            result["details"] = workload.details()
        except ValueError as exc:
            session.problems.append(f"metrics: {exc}")
    result.update(
        end=time.monotonic(), passes=passes,
        attempted=session.attempted, failed=session.failed,
        problems=session.problems, exit_codes=session.exit_codes,
        run_digest=workload.digests.get("pass"),
        samples={k: list(v) for k, v in workload.samples.items()},
        quality=workload.quality, notes=workload.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=blas_info())
    if tracer is not None:
        result.update(traced=names, layers=tracing.summarize(tracer.spans),
                      counters=dict(tracer.counters), spans=len(tracer.spans))
        tracing.write_chrome_trace("trace.json", tracer.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
