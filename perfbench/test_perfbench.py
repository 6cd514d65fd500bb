"""Tests of the benchmark's own logic: output parsing, statistics, tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import extract  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

TRAIN_OUT = """trained 5 epochs on 320 samples (validating on 80)
best epoch 4: val loss 0.9123
val accuracy 0.6375, mean IoU 0.4174
wrote run/history.csv
checkpoint: run/model.hwdm
"""
INFER_OUT = """class: grass
p(grass) = 0.4100
p(soil) = 0.3000
growth: 0.2000
mask: soil 92.0%, grass 8.0%
"""
GAN_OUT = """trained 1 epochs on 600 samples
d_loss 1.2534 -> 1.2534, g_loss 0.6193 -> 0.6193
checkpoint: gan.hwdm
"""
PRETRAIN_OUT = """pretrained 1 epochs on 1152 images
nt-xent 1.9680 -> 1.9680
checkpoint: encoder.hwdm
"""


def test_train_output_parses():
    assert extract.trained_counts(TRAIN_OUT) == (5, 320, 80)
    assert extract.val_report(TRAIN_OUT) == (0.6375, 0.4174)


def test_infer_and_augment_output_parse():
    assert extract.predicted_class(INFER_OUT) == "grass"
    out = "balanced 600 samples to 1152 (552 synthetic) at 288 per class\n"
    assert extract.augment_counts(out) == (600, 1152, 552)


def test_epoch_lines_do_not_cross_match():
    assert extract.trained_epochs(GAN_OUT, "trained") == (1, 600)
    assert extract.trained_epochs(PRETRAIN_OUT, "pretrained") == (1, 1152)
    with pytest.raises(ValueError):
        extract.trained_epochs(PRETRAIN_OUT, "trained")


def test_losses_parse_including_non_finite():
    assert extract.loss_values(GAN_OUT, "d_loss", "g_loss") == [
        1.2534, 1.2534, 0.6193, 0.6193]
    values = extract.loss_values("nt-xent 1.5 -> nan\n", "nt-xent")
    assert values[0] == 1.5 and values[1] != values[1]


def test_missing_lines_raise():
    for parse in (extract.trained_counts, extract.val_report,
                  extract.predicted_class, extract.augment_counts):
        with pytest.raises(ValueError):
            parse("error: something else\n")


def test_confusion_column_sums(tmp_path):
    path = tmp_path / "confusion.csv"
    path.write_text("truth\\pred,pred_0,pred_1,pred_2\n"
                    "true_0,3,1,0\ntrue_1,0,2,5\ntrue_2,1,0,4\n")
    assert extract.confusion_column_sums(str(path)) == [4, 3, 9]
    path.write_text("truth\\pred,pred_0,pred_1\ntrue_0,3\n")
    with pytest.raises(ValueError):
        extract.confusion_column_sums(str(path))


def test_nearest_rank_percentile_against_sample_count():
    ten = list(range(1, 11))
    assert extract.percentile(ten, 50) == 5
    assert extract.percentile(ten, 90) == 9
    assert extract.percentile(ten, 100) == 10
    assert extract.percentile([7.0], 90) == 7.0
    sixteen = list(range(16, 0, -1))  # order must not matter
    assert extract.percentile(sixteen, 90) == 15  # rank ceil(14.4) = 15
    assert extract.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        extract.percentile([], 50)
    with pytest.raises(ValueError):
        extract.percentile(ten, 0)


def _tree():
    """Hand-built spans (ns): a 0-100 root with children 10-40 and 50-70;
    the first child holds 20-30; a 60-65 span nests in the second child
    and has the root's name (recursion)."""
    return [["root", 0, 100, None],
            ["a", 10, 40, 0],
            ["leaf", 20, 30, 1],
            ["b", 50, 70, 0],
            ["root", 60, 65, 3]]


def test_self_time_on_hand_built_tree():
    table = tracing.summarize(_tree())
    ns = 1e-9
    assert table["root"]["calls"] == 2
    # the nested "root" is not added to the inclusive time a second time
    assert table["root"]["s"] == pytest.approx(100 * ns)
    assert table["root"]["self_s"] == pytest.approx((100 - 30 - 20 + 5) * ns)
    assert table["a"]["s"] == pytest.approx(30 * ns)
    assert table["a"]["self_s"] == pytest.approx(20 * ns)
    assert table["leaf"]["self_s"] == pytest.approx(10 * ns)
    assert table["b"]["self_s"] == pytest.approx(15 * ns)
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(100 * ns)  # self times tile the root


def test_covered_merges_overlapping_children():
    assert tracing._covered([(0, 10), (5, 15), (20, 25)]) == 20
    assert tracing._covered([(0, 10), (2, 3)]) == 10
    assert tracing._covered([]) == 0


def test_tracer_records_parents_and_counters():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.count("bytes", 5)
    tracer.count("bytes", 7)
    assert [sp[tracing.PARENT] for sp in tracer.spans] == [None, 0]
    assert tracer.spans[0][tracing.START] == 0 and tracer.spans[0][tracing.END] == 30
    assert tracer.counters["bytes"] == 12


def test_instrument_wraps_every_binding_and_undoes(tmp_path):
    home = types.ModuleType("pkg.home")
    exec("def helper(x):\n    return x * 2\n\n"
         "def work(x):\n    return helper(x) + 1\n\n"
         "def _private(x):\n    return x\n", home.__dict__)
    work = home.work
    user = types.ModuleType("pkg.user")
    user.work = work  # like `from .home import work`
    tracer = tracing.Tracer()
    seen = []
    names, undo = tracing.instrument(
        tracer, [home, user],
        after={"home.work": lambda t, args, result: seen.append(result)})
    assert names == ["home.helper", "home.work"]
    assert user.work is home.work and user.work is not work
    assert home._private.__name__ == "_private" and not tracer.spans
    assert user.work(3) == 7 and seen == [7]
    assert [(sp[tracing.NAME], sp[tracing.PARENT]) for sp in tracer.spans] == [
        ("home.work", None), ("home.helper", 0)]
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(str(path), tracer.spans)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["home.work", "home.helper"]
    assert events[1]["ph"] == "X" and events[1]["args"]["parent"] == 0
    undo()
    assert home.work is work and user.work is work


def test_measuring_stops_within_half_a_pass_of_the_seconds():
    assert worker.stop_after(30.0, 1, 20.0)        # one long pass is enough
    assert not worker.stop_after(10.0, 1, 20.0)    # a 2nd pass ends at 20
    assert not worker.stop_after(13.0, 1, 20.0)    # ... or at 26, 6 s past
    assert worker.stop_after(14.0, 1, 20.0)        # 28 would be 8 s past
    assert worker.stop_after(20.0, 2, 20.0)


def test_command_time_is_taken_over_the_reference_around_it():
    import workloads
    assert workloads.relative(6.0, [0.03, 0.01, 0.02], [0.02]) == pytest.approx(300.0)
    assert workloads.relative(6.0, [0.01, 0.03], [0.01, 0.02]) == pytest.approx(6.0 / 0.0175)
    assert workloads.reference_seconds() > 0


def test_declared_per_layer_metrics_are_all_measured():
    import weedhybrid
    from weedhybrid import tensor
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    modules = [importlib.import_module(f"weedhybrid.{m}")
               for m in worker.TRACED_MODULES]
    names, undo = tracing.instrument(tracing.Tracer(), modules,
                                     methods=[(tensor.Tape, "backward")])
    undo()
    assert weedhybrid.tensor.Tape.backward.__name__ == "backward"
    traced = {"traced": names, "layers": {}, "counters": {}, "quality": {},
              "exit_codes": {}}
    for metric in spec["per_layer"]:
        assert run.layer_metric(metric["name"], traced, 0.0) == 0
    with pytest.raises(run.BenchError):
        run.layer_metric("tensor.no_such_op.s", traced, 0.0)


def test_end_to_end_declarations_match_workloads():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    declared = {m["name"] for m in spec["end_to_end"]}
    assert declared == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
