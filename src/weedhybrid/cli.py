"""Command-line surface for the whole pipeline.

Subcommands: gen-data, preprocess, gan-train, augment, pretrain, train,
eval, quantize, prune, infer.  Every invocation is a pure function of
(config, seed, input files): repeating one produces byte-identical
outputs.  Exit codes: 0 success, 1 usage or configuration error, 2 data
or file-format error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import sys
import tempfile

import numpy as np

from . import dataio
from . import deploy as dp
from . import gan as gn
from . import heads as hd
from . import imaging as im
from . import pretrain as pt
from . import synthdata
from . import tensor as T
from . import training as tr
from .config import RunConfig, load_config, parse_config
from .errors import (ContractError, DataError, DimensionError,
                     DivergenceError, FormatError)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weedhybrid",
        description="Hybrid CNN-ViT-GNN weed detection pipeline")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--preset", choices=("desk", "paper"),
                        help="override the backbone preset")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--imbalance", action="store_true",
                   help="use the historical 48/23/21/8 percent class split "
                        "over 600 samples")
    p.add_argument("--size", type=int, default=32, help="square image size")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("preprocess", help="run the imaging pipeline over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("gan-train", help="train the conditional GAN")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output checkpoint (.hwdm)")
    p.set_defaults(func=cmd_gan_train)

    p = sub.add_parser("augment", help="rebalance classes with GAN samples")
    p.add_argument("--manifest", required=True)
    p.add_argument("--gan", required=True, help="trained GAN checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("pretrain", help="contrastive pretraining of CNN and ViT")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output checkpoint (.hwdm)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train the full multi-task model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--init", help="pretrained checkpoint to start from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("quantize", help="int8-quantize a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prune-fraction", type=float, default=0.0,
                   help="magnitude-prune before quantizing")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("prune", help="magnitude-prune a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("infer", help="classify a single image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_infer)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    return build_parser()


def _run_config(args) -> RunConfig:
    """The config file (or the defaults) with --seed and --preset applied
    before validation."""
    overrides = {name: value for name, value in (("seed", args.seed),
                                                 ("preset", args.preset))
                 if value is not None}
    if args.config:
        return load_config(args.config, overrides)
    return parse_config("", source="command line", overrides=overrides)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = _run_config(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ContractError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_data(args, cfg: RunConfig) -> int:
    counts = "imbalance" if args.imbalance else args.per_class
    manifest = synthdata.generate_dataset(args.out, counts,
                                          size=(args.size, args.size),
                                          seed=cfg.seed)
    samples = dataio.read_manifest(manifest)
    print(f"wrote {len(samples)} samples under {args.out}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def _check_raw(manifest: str) -> None:
    """Raise DataError if a manifest holds a stage record: its images went
    through the pipeline already, and running it again, or mixing synthetic
    rows with them, would feed the model images no raw manifest gives."""
    if dataio.read_stages(manifest) is not None:
        raise DataError(f"{manifest}: already preprocessed (it holds a stage "
                        f"record); give the raw manifest instead")


def _check_outputs(manifest: str, samples: list, out: str) -> None:
    """Raise DataError naming the first bad row if preprocess or augment,
    which write each row's image and mask at its manifest-relative path
    under out and the manifest as out/manifest.tsv, would write outside out
    or over an input: a row path that is absolute or leads out of the
    manifest's directory, an output that resolves to the manifest or to a
    file a row reads, or a row written where the new manifest goes. A
    repeated path is allowed. Each directory is resolved once, and a row's
    file is its resolved directory plus its name: a link at the file's own
    path is not followed."""
    base = os.path.dirname(os.path.abspath(manifest))
    real = functools.cache(lambda root, folder: os.path.realpath(os.path.join(root, folder)))
    rows = [(s, field, path, os.path.split(path)) for s in samples
            for field in ("image", "mask") if (path := getattr(s, field))]
    inputs = {os.path.split(os.path.realpath(manifest))} | {
        (real(base, folder), name) for *_, (folder, name) in rows}
    dst = os.path.join(out, "manifest.tsv")
    for s, field, path, (folder, name) in rows:
        if os.path.isabs(path) or os.path.normpath(path).split(os.sep)[0] == os.pardir:
            raise DataError(f"{manifest}:{s.line}: {field} {path} lies "
                            f"outside the manifest's directory")
        written = (real(out, folder), name)
        if written in inputs:
            raise DataError(f"{manifest}:{s.line}: writing {field} {path} to "
                            f"{os.path.join(out, path)} would overwrite an input")
        if written == (real(out, ""), "manifest.tsv"):
            raise DataError(f"{manifest}:{s.line}: {field} {path} would be "
                            f"written to {dst}, where the manifest goes")
    if os.path.split(os.path.realpath(dst)) in inputs:
        raise DataError(f"{manifest}: writing the manifest to {dst} would "
                        f"overwrite an input")


def _output(out: str, path: str) -> str:
    """out/path, with its directory made."""
    dst = os.path.join(out, path)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    return dst


@contextlib.contextmanager
def _staging(out: str):
    """Yield a new directory beside out (its resolved path, so on out's
    file system) for a command to write its files into as it goes. When
    the block ends, each file moves to the same path under out
    (os.replace); if the block raises, the staging directory, and every
    directory made for it, is removed, so a failed run leaves out, and
    what lies around it, as it was."""
    parent, name = os.path.split(os.path.realpath(out))
    made = parent  # the outermost missing directory above the staging, if any
    while not os.path.exists(os.path.dirname(made)):
        made = os.path.dirname(made)
    made = None if os.path.exists(made) else made
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}.tmp.", dir=parent)
    try:
        yield tmp
        for folder, _, files in os.walk(tmp):
            dst = os.path.join(out, os.path.relpath(folder, tmp))
            os.makedirs(dst, exist_ok=True)
            for file in files:
                os.replace(os.path.join(folder, file), os.path.join(dst, file))
    except BaseException:
        shutil.rmtree(made or tmp, ignore_errors=True)
        raise
    shutil.rmtree(tmp)


def cmd_preprocess(args, cfg: RunConfig) -> int:
    pre_cfg = cfg.preprocess_config()
    _check_raw(args.manifest)
    samples = dataio.read_manifest(args.manifest)
    if not samples:
        raise DataError(f"{args.manifest}: no samples to preprocess")
    _check_outputs(args.manifest, samples, args.out)
    with _staging(args.out) as tmp:
        for chunk in dataio.read_chunks(args.manifest, samples, pre_cfg,
                                        masks_required=False):
            for s, processed, mask in zip(chunk.samples, chunk.images, chunk.masks):
                im.write_image(_output(tmp, s.image), processed)
                if s.mask is not None:
                    im.write_image(_output(tmp, s.mask), mask)
    dataio.write_staged_manifest(os.path.join(args.out, "manifest.tsv"), samples,
                                 pre_cfg)
    print(f"preprocessed {len(samples)} images into {args.out}")
    return EXIT_OK


def cmd_gan_train(args, cfg: RunConfig) -> int:
    gan_cfg = cfg.gan_config()
    _check_raw(args.manifest)
    samples = dataio.read_manifest(args.manifest)
    if not samples:
        raise DataError(f"{args.manifest}: no samples to train on")
    stack = dataio.read_images(args.manifest, samples, gan_cfg.image_size)
    labels = np.asarray([s.label for s in samples])
    params, history = gn.train_gan(gn.to_unit_range(stack), labels, gan_cfg,
                                   seed=cfg.seed)
    dp.save_gan(args.out, params)
    d0, g0 = history[0]
    d1, g1 = history[-1]
    print(f"trained {gan_cfg.epochs} epochs on {len(samples)} samples")
    print(f"d_loss {d0:.4f} -> {d1:.4f}, g_loss {g0:.4f} -> {g1:.4f}")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_augment(args, cfg: RunConfig) -> int:
    params = dp.load_gan(args.gan)
    if params.config.class_count != len(synthdata.CLASS_NAMES):
        raise DataError(f"{args.gan}: GAN has {params.config.class_count} classes, "
                        f"expected {len(synthdata.CLASS_NAMES)}")
    _check_raw(args.manifest)
    samples = dataio.read_manifest(args.manifest)
    if not samples:
        raise DataError(f"{args.manifest}: nothing to rebalance")
    _check_outputs(args.manifest, samples, args.out)
    # every row is checked, one image at a time; synthetic images take the
    # first one's size
    out_size = [pixels.shape[:2] for pixels in
                dataio.image_rows(args.manifest, samples)][0]
    counts = np.bincount([s.label for s in samples],
                         minlength=len(synthdata.CLASS_NAMES))
    target = int(counts.max())
    chunks = gn.rebalance(counts, target, params, seed=cfg.seed, out_size=out_size)

    base = os.path.dirname(os.path.abspath(args.manifest))
    records = list(samples)
    # a row of an earlier augment's output keeps its synthetic/ name, so new
    # images skip every name a row already holds
    taken = {os.path.normpath(rel) for s in samples for rel in (s.image, s.mask) if rel}
    synth_index = 0
    with _staging(args.out) as tmp:
        for label, images in chunks:
            name = synthdata.CLASS_NAMES[label]
            for pixels in images:
                while True:
                    rel = os.path.join("synthetic", f"{name}_{synth_index:04d}.ppm")
                    synth_index += 1
                    if rel not in taken:
                        break
                im.write_image(_output(tmp, rel), pixels)
                records.append(dataio.Sample(image=rel, label=label, synthetic=True))
            del images, pixels  # the next chunk is made without this one
    # the generator has run to the end, so the originals, which stay first
    # and in order in the manifest, are copied straight to out
    for s in samples:
        for rel in filter(None, (s.image, s.mask)):
            shutil.copyfile(os.path.join(base, rel), _output(args.out, rel))
    manifest = os.path.join(args.out, "manifest.tsv")
    dataio.write_manifest(manifest, records)
    print(f"balanced {len(samples)} samples to {len(records)} "
          f"({len(records) - len(samples)} synthetic) at {target} per class")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_pretrain(args, cfg: RunConfig) -> int:
    pre_cfg = cfg.preprocess_config()
    samples = dataio.read_manifest(args.manifest)
    if len(samples) < 2:
        raise DataError(f"{args.manifest}: pretraining needs at least 2 "
                        f"samples, got {len(samples)}")
    staged = dataio.check_stages(args.manifest, pre_cfg)
    images = dataio.read_images(args.manifest, samples, pre_cfg.target_size, staged)
    if not staged:
        images = im.preprocess_batch(images, pre_cfg)
    ssl_cfg = cfg.contrastive_config()
    params, history = pt.pretrain(images, ssl_cfg,
                                  backbone_cfg=cfg.backbone_config(),
                                  seed=cfg.seed, normalize=pre_cfg.normalize)
    dp.save_model(args.out, params)
    print(f"pretrained {ssl_cfg.epochs} epochs on {len(images)} images")
    print(f"nt-xent {history[0]:.4f} -> {history[-1]:.4f}")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    data, _ = dataio.load_dataset(args.manifest, cfg.preprocess_config())
    train_cfg = cfg.train_config()
    params = None
    if args.init:
        params, init_heads, _ = dp.load_model(args.init)
        if init_heads is not None:
            raise ContractError(f"{args.init} is a full model, not a "
                                f"pretraining checkpoint")
        if params.config != train_cfg.backbone:
            raise ContractError("pretrained checkpoint architecture does not "
                                "match the configured preset")
    plan = tr.stratified_folds(data.labels, k=cfg.folds_k, seed=cfg.seed)
    train_idx, val_idx = plan.split(0)
    result = tr.train(data, train_cfg, train_idx=train_idx, val_idx=val_idx,
                      params=params)
    report = tr.evaluate(result.params, result.heads, data, indices=val_idx)
    os.makedirs(args.out, exist_ok=True)
    dp.save_model(os.path.join(args.out, "model.hwdm"), result.params,
                  result.heads)
    paths = tr.emit_plot_data(result.history, report, args.out)
    print(f"trained {train_cfg.epochs} epochs on {train_idx.size} samples "
          f"(validating on {val_idx.size})")
    print(f"best epoch {result.best_epoch}: val loss {result.best_val_loss:.4f}")
    print(f"val accuracy {report.accuracy:.4f}, mean IoU {report.mean_iou:.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    print(f"checkpoint: {os.path.join(args.out, 'model.hwdm')}")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    params, heads, flags = dp.load_model(args.model)
    if heads is None:
        raise ContractError(f"{args.model} has no heads; train it first")
    pre_cfg = cfg.preprocess_config(params.config.image_size)
    samples, chunks = dataio.open_dataset(args.manifest, pre_cfg)
    report = tr.evaluate(params, heads, (chunk.train_data(pre_cfg.normalize)
                                         for chunk in chunks))
    paths = tr.emit_plot_data([], report, args.out)
    print(f"evaluated {len(samples)} samples")
    print(f"accuracy {report.accuracy:.4f}, mean IoU {report.mean_iou:.4f}")
    print(f"macro F1 {report.macro[2]:.4f}, weighted F1 {report.weighted[2]:.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    return EXIT_OK


def cmd_quantize(args, cfg: RunConfig) -> int:
    entries, flags = dp.read_checkpoint(args.model)
    if args.prune_fraction:
        dp.prune_magnitude(entries, args.prune_fraction)
    q = dp.quantize_entries(entries)
    dp.write_checkpoint(args.out, q, flags=flags | dp.FLAG_QUANTIZED)
    n = sum(1 for k in q if not k.startswith("meta."))
    print(f"quantized {n} tensors -> {args.out}")
    return EXIT_OK


def cmd_prune(args, cfg: RunConfig) -> int:
    entries, flags = dp.read_checkpoint(args.model)
    masks = dp.prune_magnitude(entries, args.fraction)
    zeroed = sum(int((~m).sum()) for m in masks.values())
    total = sum(m.size for m in masks.values())
    if not total:
        raise ContractError(f"{args.model} has no weights to prune")
    dp.write_checkpoint(args.out, entries, flags=flags)
    print(f"pruned {zeroed}/{total} weights "
          f"({100.0 * zeroed / total:.1f}%) -> {args.out}")
    return EXIT_OK


def cmd_infer(args, cfg: RunConfig) -> int:
    params, heads, _ = dp.load_model(args.model)  # int8 entries dequantize
    if heads is None:
        raise ContractError(f"{args.model} has no heads; train it first")
    img = im.read_image(args.image)
    if img.shape[2] != 3:
        raise DataError(f"{args.image}: expected a color image")
    x = im.preprocess(img, cfg.preprocess_config(params.config.image_size))
    pred = hd.predict(params, heads, T.const(x[None]))
    probs = pred.class_probs.data[0]

    names = synthdata.CLASS_NAMES
    print(f"class: {names[pred.labels[0]]}")
    for k in np.argsort(probs)[::-1]:
        print(f"p({names[k]}) = {float(probs[k]):.4f}")
    print(f"growth: {float(pred.growth.data[0]):.4f}")
    mask = np.argmax(pred.seg_mask.data[0], axis=0)
    fractions = [(names[k], float((mask == k).mean()))
                 for k in range(len(names))]
    summary = ", ".join(f"{name} {100.0 * frac:.1f}%"
                        for name, frac in fractions if frac > 0)
    print(f"mask: {summary}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
