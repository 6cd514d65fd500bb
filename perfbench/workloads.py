"""The benchmark workloads, driven through `weedhybrid.cli.main` in-process.

Each workload generates its inputs from the seed in `setup` (including one
untimed warm-up of every timed command) and runs one closed-loop pass of
its timed commands per `run_pass` call: one client, each command starting
when the previous one returned.  A pass's time is the sum of its timed
commands' wall times; between commands, outside that time, a fixed reference
kernel is timed, and `pass_rel` is the pass time in units of the reference.
Commands run with stdout and stderr captured; their exit codes count
attempted and failed operations, and their outputs are checked and hashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

import extract
from weedhybrid import backbone as bb
from weedhybrid import cli
from weedhybrid import dataio
from weedhybrid import deploy as dp
from weedhybrid import heads as hd
from weedhybrid import training as tr
from weedhybrid.synthdata import CLASS_NAMES

# Exit code recorded when a command escapes cli.main with a traceback.
EXIT_TRACEBACK = 70
# After a command, the reference kernel is timed once for each this many
# seconds of command time since it was last timed (at least twice), so that
# it follows the host's speed through the pass and long commands get more
# samples.
REFERENCE_EVERY_S = 0.5

_rng = np.random.default_rng(0)
# Inputs and preallocated outputs: the kernel allocates no arrays, so the
# state the program leaves in the allocator does not change its time.
_SMALL, _MID, _BIG = (_rng.standard_normal((32, 32)), _rng.standard_normal((192, 192)),
                      _rng.standard_normal(1 << 19))
_OUTPUTS = (np.empty_like(_SMALL), np.empty_like(_MID), np.empty_like(_BIG))


def reference_seconds() -> float:
    """Wall time (about 20 ms) of a fixed kernel with the mix the program
    spends its time on: small NumPy ops driven from Python, mid-size matrix
    products, a pass over 4 MB and plain Python arithmetic.  The kernel is
    the benchmark's own code, so the program's changes do not move it,
    while a slower or faster host moves it with the program."""
    small_out, mid_out, big_out = _OUTPUTS
    start = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        for i in range(20000):
            acc += i * 3 % 7
        for _ in range(200):
            np.matmul(_SMALL, _SMALL, out=small_out)
            acc += float(np.tanh(small_out, out=small_out).sum())
        for _ in range(4):
            acc += float(np.matmul(_MID, _MID, out=mid_out).trace())
        np.abs(_BIG, out=big_out)
        acc += float(np.sqrt(big_out, out=big_out).sum())
    return time.perf_counter() - start


class Call:
    __slots__ = ("argv", "rc", "stdout", "stderr", "start", "end")

    def __init__(self, argv, rc, stdout, stderr, start, end):
        self.argv, self.rc = argv, rc
        self.stdout, self.stderr = stdout, stderr
        self.start, self.end = start, end

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Session:
    """Runs CLI commands, counts timed ones and collects failed checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.exit_codes: dict = {}

    def run(self, *argv, timed: bool = True) -> Call:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                rc = EXIT_TRACEBACK
                traceback.print_exc(file=err)
        end = time.perf_counter()
        self.exit_codes[argv[0]] = max(self.exit_codes.get(argv[0], 0), rc)
        if timed:
            self.attempted += 1
            self.failed += rc != 0
        return Call(argv, rc, out.getvalue(), err.getvalue(), start, end)

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def succeeded(self, call: Call) -> bool:
        return self.expect(call.rc == 0, f"{' '.join(call.argv)} exited "
                                         f"{call.rc}: {call.stderr.strip()}")


def relative(seconds: float, before, after) -> float:
    """Command time in units of the reference kernel's time, taken as the
    mean of its median times just before and just after the command."""
    return seconds / ((extract.median(before) + extract.median(after)) / 2)


def file_digest(paths, texts=()) -> str:
    """SHA-256 over files (name and bytes, in sorted order) and texts.  A
    file that a failed command did not write counts as empty."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.encode() + b"\0")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def tree(*roots) -> list:
    """Every regular file under the given directories."""
    found = []
    for root in roots:
        for dirpath, _, files in os.walk(root):
            found += [os.path.join(dirpath, f) for f in files]
    return found


def write_config(path: str, keys: dict) -> str:
    """Write a `key = value` run configuration for --config."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            fh.write(f"{key} = {value}\n")
    return path


def subset_manifest(manifest: str, per_class, name: str) -> str:
    """Write the first per_class[k] samples of each class next to `manifest`."""
    taken = Counter()
    keep = []
    for sample in dataio.read_manifest(manifest):
        if taken[sample.label] < per_class[sample.label]:
            taken[sample.label] += 1
            keep.append(sample)
    path = os.path.join(os.path.dirname(manifest), name)
    dataio.write_manifest(path, keep)
    return path


class Workload:
    name = ""

    def __init__(self, session: Session, seed: int):
        self.session = session
        self.seed = seed
        self.samples = defaultdict(list)  # series name -> one value per sample
        self.quality: dict = {}
        self.notes: dict = {}
        self.digests: dict = {}  # repeated step -> digest of its first run
        self.pass_seconds = 0.0
        self.pass_rel = 0.0
        self.pending = 0.0  # command time since the reference was last timed
        self.references: list = []  # the reference's last timings

    def run(self, *argv, timed: bool = True) -> Call:
        call = self.session.run(*argv, timed=timed)
        if timed:
            self.samples[f"{argv[0]}_wall_s"].append(call.seconds)
            self.pass_seconds += call.seconds
            self.pending += call.seconds
            if self.pending >= REFERENCE_EVERY_S:
                self.time_reference()
        return call

    def time_reference(self) -> None:
        """Time the reference kernel, and add the command time since it was
        last timed to `pass_rel` in units of the reference."""
        references = [reference_seconds() for _ in
                      range(max(2, round(self.pending / REFERENCE_EVERY_S)))]
        self.samples["reference_s"] += references
        if self.pending:
            self.pass_rel += relative(self.pending, self.references, references)
        self.references = references
        self.pending = 0.0

    def run_pass(self) -> None:
        """One pass of the timed commands; records its time as `pass_s`
        and in units of the reference kernel as `pass_rel`."""
        self.pass_seconds = self.pass_rel = self.pending = 0.0
        self.time_reference()
        self.iterate()
        if self.pending:
            self.time_reference()
        self.samples["pass_s"].append(self.pass_seconds)
        self.samples["pass_rel"].append(self.pass_rel)

    def setup(self) -> str:
        """Generate inputs and warm up; return a digest of what was written."""
        raise NotImplementedError

    def iterate(self) -> None:
        raise NotImplementedError

    def metrics(self) -> dict:
        """The gated end-to-end figure: median over passes of `pass_rel`."""
        return {"pass_rel": extract.median(self.samples["pass_rel"])}

    def details(self) -> dict:
        """Figures reported beside the gated one: the medians of the raw
        pass and reference times, and the workload's per-command figures."""
        return dict(pass_s=extract.median(self.samples["pass_s"]),
                    reference_s=extract.median(self.samples["reference_s"]),
                    **self.command_figures())

    def command_figures(self) -> dict:
        raise NotImplementedError

    def add_rate(self, metric: str, amount: float, call: Call) -> None:
        """One sample of a rate metric: work done / the call's wall time."""
        self.samples[metric].append(amount / call.seconds)

    def rate(self, metric: str) -> float:
        """Median over the run's calls of a rate metric."""
        if not self.samples[metric]:
            raise ValueError(f"no successful call measured {metric}")
        return extract.median(self.samples[metric])

    def check_repeatable(self, step: str, digest: str) -> None:
        """Every repeat of a step over the same inputs must write the same
        bytes as its first run."""
        first = self.digests.setdefault(step, digest)
        self.session.expect(digest == first,
                            f"a repeat of {step} wrote different artifacts")

    def _agreement(self, float_ckpt: str, int8_ckpt: str, images) -> tuple:
        """Float and int8 `infer` over images: (float classes, agreement, texts)."""
        classes, texts, agree = [], [], 0
        for image in images:
            f = self.run("infer", "--model", float_ckpt, "--image", image)
            q = self.run("infer", "--model", int8_ckpt, "--image", image)
            self.samples["infer_ms"].append(f.seconds * 1000.0)
            self.samples["infer_int8_ms"].append(q.seconds * 1000.0)
            if self.session.succeeded(f) and self.session.succeeded(q):
                classes.append(extract.predicted_class(f.stdout))
                agree += classes[-1] == extract.predicted_class(q.stdout)
            texts += [f.stdout, q.stdout]
        return classes, agree / len(images), texts


class DeskTrain(Workload):
    """README quick-start at the desk preset: train, eval, quantize, infer."""

    name = "desk-train"
    EPOCHS = 3

    def setup(self) -> str:
        s = self.seed
        self.config = write_config("desk.cfg", {"optimizer.epochs": self.EPOCHS})
        write_config("warm.cfg", {"optimizer.epochs": 1})
        self.run("gen-data", "--out", "data", "--per-class", 100, "--size", 32,
                 "--seed", s, timed=False)
        manifest = "data/manifest.tsv"
        samples = dataio.read_manifest(manifest)
        labels = np.asarray([x.label for x in samples])
        # train holds out fold 0 of the same stratified split
        _, val_idx = tr.stratified_folds(labels, k=5, seed=s).split(0)
        self.held_out = [os.path.join("data", samples[i].image) for i in val_idx]

        warm = subset_manifest(manifest, [5] * len(CLASS_NAMES), "warm.tsv")
        calls = [
            self.run("train", "--manifest", warm, "--out", "warm", "--seed", s,
                     "--config", "warm.cfg", timed=False),
            self.run("eval", "--manifest", warm, "--model", "warm/model.hwdm",
                     "--out", "warm/eval", timed=False),
            self.run("quantize", "--model", "warm/model.hwdm", "--out",
                     "warm/model-int8.hwdm", "--prune-fraction", 0.25, timed=False),
            self.run("infer", "--model", "warm/model.hwdm", "--image",
                     self.held_out[0], timed=False),
            self.run("infer", "--model", "warm/model-int8.hwdm", "--image",
                     self.held_out[0], timed=False),
        ]
        for call in calls:
            self.session.succeeded(call)
        return file_digest(tree("data", "warm"), [c.stdout for c in calls])

    def iterate(self) -> None:
        train = self.run("train", "--manifest", "data/manifest.tsv", "--out",
                         "run", "--seed", self.seed, "--config", self.config)
        if self.session.succeeded(train):
            epochs, n_train, _ = extract.trained_counts(train.stdout)
            self.add_rate("train_samples_per_s", epochs * n_train, train)
            acc, miou = extract.val_report(train.stdout)
            self.quality.update({"training.val_accuracy": acc,
                                 "training.val_miou": miou})
        ev = self.run("eval", "--manifest", "data/manifest.tsv", "--model",
                      "run/model.hwdm", "--out", "run/eval")
        self.session.succeeded(ev)
        quant = self.run("quantize", "--model", "run/model.hwdm", "--out",
                         "run/model-int8.hwdm", "--prune-fraction", 0.25)
        self.session.succeeded(quant)
        _, agreement, infers = self._agreement("run/model.hwdm",
                                               "run/model-int8.hwdm", self.held_out)
        self.samples["int8_top1_agreement"].append(agreement)
        self.quality["deploy.int8_top1_agreement"] = agreement
        self.check_repeatable("pass", file_digest(
            tree("run"), [train.stdout, ev.stdout, quant.stdout] + infers))

    def command_figures(self) -> dict:
        return {"train_samples_per_s": self.rate("train_samples_per_s"),
                "val_accuracy": self.quality["training.val_accuracy"],
                "val_miou": self.quality["training.val_miou"],
                "int8_top1_agreement": extract.median(self.samples["int8_top1_agreement"])}


class PaperInfer(Workload):
    """Paper-preset deployment: single-image float and int8 `infer`, then `eval`."""

    name = "paper-infer"
    PER_CLASS = 3

    def setup(self) -> str:
        rng = np.random.default_rng(self.seed)
        cfg = bb.paper_config()
        dp.save_model("model.hwdm", bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
        calls = [
            self.run("quantize", "--model", "model.hwdm", "--out", "model-int8.hwdm",
                     "--prune-fraction", 0.25, timed=False),
            self.run("gen-data", "--out", "data", "--per-class", self.PER_CLASS,
                     "--size", 224, "--seed", self.seed, timed=False),
        ]
        self.images = [os.path.join("data", x.image)
                       for x in dataio.read_manifest("data/manifest.tsv")]
        warm = subset_manifest("data/manifest.tsv", [1] * len(CLASS_NAMES), "warm.tsv")
        calls += [
            self.run("infer", "--model", "model.hwdm", "--image", self.images[0],
                     timed=False),
            self.run("infer", "--model", "model-int8.hwdm", "--image",
                     self.images[0], timed=False),
            self.run("eval", "--manifest", warm, "--model", "model.hwdm",
                     "--out", "warm-eval", timed=False),
        ]
        for call in calls:
            self.session.succeeded(call)
        return file_digest(["model.hwdm", "model-int8.hwdm"] + tree("data", "warm-eval"),
                           [c.stdout for c in calls])

    def iterate(self) -> None:
        classes, agreement, infers = self._agreement("model.hwdm", "model-int8.hwdm",
                                                     self.images)
        self.quality["deploy.int8_top1_agreement"] = agreement
        counts = Counter(classes)
        ev = self.run("eval", "--manifest", "data/manifest.tsv", "--model",
                      "model.hwdm", "--out", "eval")
        if self.session.succeeded(ev):
            self.add_rate("eval_imgs_per_s", len(self.images), ev)
            self.session.expect(
                extract.confusion_column_sums("eval/confusion.csv")
                == [counts[name] for name in CLASS_NAMES],
                "float infer labels disagree with eval's confusion columns")
        self.check_repeatable("pass", file_digest(tree("eval"), infers + [ev.stdout]))

    def command_figures(self) -> dict:
        f, q = self.samples["infer_ms"], self.samples["infer_int8_ms"]
        return {"infer_ms_p50": extract.percentile(f, 50),
                "infer_ms_p90": extract.percentile(f, 90),
                "infer_int8_ms_p50": extract.percentile(q, 50),
                "infer_int8_ms_p90": extract.percentile(q, 90),
                "eval_imgs_per_s": self.rate("eval_imgs_per_s"),
                "int8_top1_agreement": self.quality["deploy.int8_top1_agreement"]}


class Imbalance(Workload):
    """README imbalance flow: gan-train, augment, pretrain, train --init."""

    name = "imbalance"
    ORIGINALS = 600
    SYNTHETIC = 552  # tops 48/23/21/8% of 600 up to 288 per class
    # `gan-train` takes about 26 s on all 600 images, longer than a run, so
    # each call trains on this subset with the same class shares (broadleaf,
    # grass, soil, soybean: 8/23/21/48%).
    GAN_SUBSET = [8, 22, 20, 46]

    def setup(self) -> str:
        s = self.seed
        self.config = write_config("imbalance.cfg", {"gan.epochs": 1, "ssl.epochs": 1,
                                                    "optimizer.epochs": 1})
        self.run("gen-data", "--out", "field", "--imbalance", "--seed", s,
                 timed=False)
        self.gan_manifest = subset_manifest("field/manifest.tsv", self.GAN_SUBSET,
                                            "gan.tsv")
        warm = subset_manifest("field/manifest.tsv", [4, 3, 2, 1], "warm.tsv")
        os.makedirs("warm")  # gan-train and pretrain write into existing dirs
        calls = [
            self.run("gan-train", "--manifest", warm, "--out", "warm/gan.hwdm",
                     "--config", self.config, "--seed", s, timed=False),
            self.run("augment", "--manifest", warm, "--gan", "warm/gan.hwdm",
                     "--out", "warm/balanced", "--seed", s, timed=False),
            self.run("pretrain", "--manifest", "warm/balanced/manifest.tsv", "--out",
                     "warm/encoder.hwdm", "--config", self.config, "--seed", s,
                     timed=False),
        ]
        for call in calls:
            self.session.succeeded(call)
        # fails like the timed call below; warmed up all the same
        last = self.run("train", "--manifest", "warm/balanced/manifest.tsv", "--init",
                        "warm/encoder.hwdm", "--out", "warm/run", "--config",
                        self.config, "--seed", s, timed=False)
        return file_digest(tree("field", "warm"),
                           [c.stdout for c in calls] + [last.stdout, last.stderr])

    def iterate(self) -> None:
        s, ok = self.seed, self.session.succeeded
        gan = self.run("gan-train", "--manifest", self.gan_manifest, "--out",
                       "gan.hwdm", "--config", self.config, "--seed", s)
        if ok(gan):
            epochs, images = extract.trained_epochs(gan.stdout, "trained")
            self.add_rate("gan_samples_per_s", epochs * images, gan)
            self._finite(extract.loss_values(gan.stdout, "d_loss", "g_loss"), "GAN")
        texts = [gan.stdout, self._augment()]
        pre = self.run("pretrain", "--manifest", "balanced/manifest.tsv", "--out",
                       "encoder.hwdm", "--config", self.config, "--seed", s)
        if ok(pre):
            epochs, images = extract.trained_epochs(pre.stdout, "pretrained")
            self.add_rate("pretrain_images_per_s", epochs * images, pre)
            self._finite(extract.loss_values(pre.stdout, "nt-xent"), "NT-Xent")
        texts.append(pre.stdout)
        # At the time of writing this exits 2: synthetic rows carry no mask.
        # It is attempted every pass and counted as a failed operation.
        train = self.run("train", "--manifest", "balanced/manifest.tsv", "--init",
                         "encoder.hwdm", "--out", "run", "--config", self.config,
                         "--seed", s)
        self.notes["train --init"] = f"exit {train.rc}: {train.stderr.strip()}"
        if train.rc == 0:
            acc, miou = extract.val_report(train.stdout)
            self.quality.update({"training.val_accuracy": acc,
                                 "training.val_miou": miou})
        elif train.rc == EXIT_TRACEBACK:
            self.session.succeeded(train)
        texts.append(train.stdout)
        self.check_repeatable("pass", file_digest(
            ["gan.hwdm", "encoder.hwdm"] + tree("balanced"), texts))

    def _augment(self) -> str:
        aug = self.run("augment", "--manifest", "field/manifest.tsv", "--gan",
                       "gan.hwdm", "--out", "balanced", "--seed", self.seed)
        if self.session.succeeded(aug):
            originals, _, synthetic = extract.augment_counts(aug.stdout)
            self.session.expect((originals, synthetic) == (self.ORIGINALS, self.SYNTHETIC),
                                f"augment made {synthetic} synthetic images from "
                                f"{originals}, expected {self.SYNTHETIC} from "
                                f"{self.ORIGINALS}")
            self.add_rate("augment_imgs_per_s", synthetic, aug)
        return aug.stdout

    def _finite(self, losses, what: str) -> None:
        self.session.expect(all(math.isfinite(v) for v in losses),
                            f"{what} losses are not finite: {losses}")

    def command_figures(self) -> dict:
        return {name: self.rate(name) for name in
                ("gan_samples_per_s", "augment_imgs_per_s", "pretrain_images_per_s")}


WORKLOADS = {cls.name: cls for cls in (DeskTrain, PaperInfer, Imbalance)}
