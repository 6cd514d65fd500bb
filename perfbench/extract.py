"""Parsing of weedhybrid CLI output and the statistics the benchmark reports.

Only the standard library is used, so the module is testable on its own.
"""

from __future__ import annotations

import csv
import math
import re
import statistics

_FLOAT = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|-inf)"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def trained_counts(stdout: str) -> tuple:
    """(epochs, training samples, validation samples) from `train` output."""
    m = re.search(r"trained (\d+) epochs on (\d+) samples \(validating on (\d+)\)",
                  stdout)
    if m is None:
        raise ValueError("train output has no 'trained ... epochs' line")
    return tuple(int(g) for g in m.groups())


def val_report(stdout: str) -> tuple:
    """(accuracy, mean IoU) from `train` output."""
    m = re.search(rf"val accuracy {_FLOAT}, mean IoU {_FLOAT}", stdout)
    if m is None:
        raise ValueError("train output has no 'val accuracy' line")
    return float(m.group(1)), float(m.group(2))


def predicted_class(stdout: str) -> str:
    """Class name from `infer` output."""
    m = re.search(r"^class: (\S+)$", stdout, re.MULTILINE)
    if m is None:
        raise ValueError("infer output has no 'class:' line")
    return m.group(1)


def augment_counts(stdout: str) -> tuple:
    """(originals, total, synthetic) from `augment` output."""
    m = re.search(r"balanced (\d+) samples to (\d+) \((\d+) synthetic\)", stdout)
    if m is None:
        raise ValueError("augment output has no 'balanced ...' line")
    return tuple(int(g) for g in m.groups())


def trained_epochs(stdout: str, verb: str) -> tuple:
    """(epochs, images) from `gan-train` ("trained") or `pretrain` output."""
    m = re.search(rf"\b{verb} (\d+) epochs on (\d+) (?:samples|images)", stdout)
    if m is None:
        raise ValueError(f"output has no '{verb} ... epochs' line")
    return int(m.group(1)), int(m.group(2))


def loss_values(stdout: str, *names: str) -> list:
    """Every 'name a -> b' pair for the given loss names, flattened."""
    found = []
    for name in names:
        m = re.search(rf"{re.escape(name)} {_FLOAT} -> {_FLOAT}", stdout)
        if m is None:
            raise ValueError(f"output has no '{name} a -> b' report")
        found += [float(m.group(1)), float(m.group(2))]
    return found


def confusion_column_sums(path: str) -> list:
    """Predicted-class totals from a confusion.csv written by `eval`/`train`."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if not header[1:] or any(len(row) != len(header) for row in body):
        raise ValueError(f"{path}: ragged confusion matrix")
    return [sum(int(row[j]) for row in body) for j in range(1, len(header))]
