"""The benchmark tools under tools/: each committed pair summary is what
tools/bench_pairs.summarize_pairs makes of the pairs stored beside it."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _bench_pairs():
    path = os.path.join(ROOT, "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["BENCH_streamed_rows.json",
                                  "BENCH_op_overhead.json",
                                  "BENCH_desk_calls.json"])
def test_committed_summaries_are_summarize_pairs_of_their_pairs(tmp_path, name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    with open(tmp_path / "pairs.jsonl", "w", encoding="utf-8") as fh:
        for entry in workloads.values():
            fh.writelines(json.dumps(pair) + "\n" for pair in entry["pairs"])
    summaries = {workload: entry["summary"] for workload, entry
                 in _bench_pairs().summarize_pairs(str(tmp_path)).items()}
    assert summaries == {workload: entry["summary"]
                         for workload, entry in workloads.items()}
