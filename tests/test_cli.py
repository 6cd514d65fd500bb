"""End-to-end command surface: exit codes, determinism, artifact wiring."""

import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

import weedhybrid.backbone as bb
import weedhybrid.cli as cli
import weedhybrid.dataio as dio
import weedhybrid.deploy as dp
import weedhybrid.gan as gn
import weedhybrid.heads as hd
import weedhybrid.imaging as im
from weedhybrid.synthdata import CLASS_NAMES

from helpers import checkpoint_bytes, peak_traced_bytes

TINY_CONF = """\
seed = 5
folds.k = 2
optimizer.epochs = 3
optimizer.lr = 0.002
optimizer.batch = 8
gan.epochs = 2
gan.image_size = 16
gan.latent_dim = 12
gan.base_channels = 6
gan.batch = 8
ssl.epochs = 2
ssl.batch_pairs = 4
ssl.projection_dim = 8
"""


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus config file shared by the slower commands."""
    root = tmp_path_factory.mktemp("cli")
    conf = root / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    data = root / "data"
    rc = cli.main(["gen-data", "--out", str(data), "--per-class", "4",
                   "--size", "16", "--seed", "5"])
    assert rc == 0
    return {"root": root, "conf": str(conf),
            "manifest": str(data / "manifest.tsv"), "data": data}


# ---------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error():
    assert cli.main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["transmogrify"]) == 1


def test_unknown_flag_is_usage_error():
    assert cli.main(["gen-data", "--out", "x", "--frobnicate"]) == 1


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_bad_config_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("optimizer.lr = sideways\n", encoding="utf-8")
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"),
                   "--config", str(conf)])
    assert rc == 1
    assert "optimizer.lr" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"seed = 1\n# \xff\n")
    out = tmp_path / "d"
    rc = cli.main(["gen-data", "--out", str(out), "--config", str(conf)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {conf}: not UTF-8 text: byte 0xff at offset 11\n")
    assert not out.exists()


def test_manifest_that_is_not_utf8_is_data_error(workspace, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    text = (workspace["data"] / "manifest.tsv").read_bytes()
    offset = text.index(b"soil")
    manifest.write_bytes(text[:offset] + b"\xff" + text[offset + 1:])
    out = tmp_path / "run"
    rc = cli.main(["train", "--manifest", str(manifest), "--out", str(out),
                   "--config", workspace["conf"]])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: not UTF-8 text: byte 0xff at offset {offset}\n")
    assert not out.exists()


@pytest.mark.parametrize("key,command", [
    ("optimizer.epochs", "train"), ("gan.epochs", "gan-train"),
    ("ssl.epochs", "pretrain"), ("optimizer.batch", "train"),
    ("gan.batch", "gan-train")])
def test_zero_counts_fail_at_config_load(workspace, tmp_path, capsys, key, command):
    # zero epochs used to train nothing and save it (train) or index an
    # empty loss history (gan-train, pretrain); a zero batch raised from range()
    section, _, field = key.partition(".")
    conf = tmp_path / "zero.conf"
    lines = [line for line in TINY_CONF.splitlines() if not line.startswith(section)]
    conf.write_text("\n".join(lines + [f"{key} = 0"]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main([command, "--manifest", workspace["manifest"], "--out", str(out),
                   "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert (f"{conf}:{len(lines) + 1}: invalid {section} configuration: "
            f"{field} must be >= 1, got 0") in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("channels", [0, -4])
def test_gan_base_channels_below_one_fails_at_config_load(workspace, tmp_path, capsys,
                                                          channels):
    # 0 used to raise ZeroDivisionError in build_gan, -4 a ValueError from
    # NumPy ("negative dimensions"), both as tracebacks out of main
    conf = tmp_path / "gan.conf"
    conf.write_text(TINY_CONF.replace("gan.base_channels = 6",
                                      f"gan.base_channels = {channels}"), encoding="utf-8")
    out = tmp_path / "gan.hwdm"
    rc = cli.main(["gan-train", "--manifest", workspace["manifest"], "--out", str(out),
                   "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert (f"{conf}:9: invalid gan configuration: base_channels must be >= 1, "
            f"got {channels}") in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("line,command", [
    ("loss.w_cls = nan", "train"), ("optimizer.lr = nan", "train"),
    ("optimizer.lr = 0", "train"), ("gan.lr = -1", "gan-train"),
    ("ssl.lr = inf", "pretrain"), ("preprocess.clahe_clip = -inf", "pretrain")])
def test_non_finite_or_non_positive_numbers_fail_at_config_load(workspace, tmp_path,
                                                                capsys, line, command):
    # loss.w_cls = nan passed LossWeights (nan < 0 is False) and escaped
    # train as a NumericError; gan.lr = -1 trained and exited 0;
    # optimizer.lr = nan only diverged, with exit 3
    key = line.partition(" ")[0]
    lines = [kept for kept in TINY_CONF.splitlines() if not kept.startswith(key)]
    conf = tmp_path / "bad.conf"
    conf.write_text("\n".join(lines + [line]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main([command, "--manifest", workspace["manifest"], "--out", str(out),
                   "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{conf}:{len(lines) + 1}: bad value for {key}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train", "eval", "pretrain", "gan-train"])
def test_empty_manifest_is_data_error(tmp_path, capsys, command):
    manifest = tmp_path / "empty.tsv"
    dio.write_manifest(str(manifest), [])
    rng = np.random.default_rng(6)
    cfg = bb.desk_config()
    model = str(tmp_path / "model.hwdm")
    dp.save_model(model, bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    args = [command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    with pytest.warns(UserWarning, match="empty"):
        rc = cli.main(args + (["--model", model] if command == "eval" else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{manifest}: " in err and "samples" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


def test_preprocess_empty_manifest_is_data_error(tmp_path, capsys):
    # it exited 0 with an empty images/ and a staged manifest train refuses
    manifest = tmp_path / "empty.tsv"
    dio.write_manifest(str(manifest), [])
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="empty"):
        rc = cli.main(["preprocess", "--manifest", str(manifest), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {manifest}: no samples to preprocess" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_pretrain_one_sample_is_data_error(workspace, tmp_path, capsys):
    sample = dio.read_manifest(workspace["manifest"])[0]
    (tmp_path / "images").mkdir()
    shutil.copyfile(workspace["data"] / sample.image, tmp_path / sample.image)
    manifest = tmp_path / "one.tsv"
    dio.write_manifest(str(manifest), [dio.Sample(image=sample.image, label=sample.label)])
    rc = cli.main(["pretrain", "--manifest", str(manifest),
                   "--out", str(tmp_path / "pre.hwdm")])
    assert rc == 2
    assert (f"{manifest}: pretraining needs at least 2 samples, got 1"
            in capsys.readouterr().err)


def test_missing_manifest_is_data_error(tmp_path, capsys):
    rc = cli.main(["preprocess", "--manifest", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_checkpoint_is_data_error(tmp_path, capsys):
    bad = tmp_path / "junk.hwdm"
    bad.write_bytes(b"not a checkpoint at all")
    img = tmp_path / "img.ppm"
    rc = cli.main(["infer", "--model", str(bad), "--image", str(img)])
    assert rc == 2


def test_non_finite_backbone_config_is_data_error(tmp_path, capsys):
    model = tmp_path / "nan.hwdm"
    meta = dp.encode_backbone_config(bb.desk_config())
    meta[0] = np.nan
    dp.write_checkpoint(str(model), {"meta.backbone": meta})
    rc = cli.main(["infer", "--model", str(model),
                   "--image", str(tmp_path / "img.ppm")])
    assert rc == 2
    assert "non-finite value in meta.backbone" in capsys.readouterr().err


def test_infer_corrupt_config_fails_before_allocating(tmp_path, capsys):
    rng = np.random.default_rng(3)
    cfg = bb.desk_config()
    entries = dp.model_entries(bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    entries["meta.backbone"][3] = 2**30  # embed_dim: a valid config, wrong entries
    model = tmp_path / "huge.hwdm"
    dp.write_checkpoint(str(model), entries)
    rcs = []
    peak = peak_traced_bytes(lambda: rcs.append(cli.main(
        ["infer", "--model", str(model), "--image", str(tmp_path / "img.ppm")])))
    assert rcs == [2]
    assert "tensor vit.0.0.w_q has shape (32, 8), expected" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("slot,value,message", [
    (4, 0, "num_heads must be >= 1, got 0"),
    (4, -1, "num_heads must be >= 1, got -1"),
    (5, 2, "ViT depth 2, expected 1")],
    ids=["heads-0", "heads-minus-1", "depth-2"])
def test_infer_bad_attention_config_is_data_error(tmp_path, capsys, slot, value,
                                                  message):
    # num_heads 0 raised ZeroDivisionError from embed_dim % num_heads and -1
    # from the Xavier draw of a (32, -32) projection, both as tracebacks
    model = desk_checkpoint(tmp_path / "heads.hwdm")
    entries, flags = dp.read_checkpoint(model)
    entries["meta.backbone"][slot] = value
    dp.write_checkpoint(model, entries, flags)
    rc = cli.main(["infer", "--model", model, "--image", str(tmp_path / "img.ppm")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"invalid backbone config entry: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_negative_seed_flag_is_usage_error(workspace, tmp_path, capsys, command):
    # np.random.default_rng raised ValueError out of main, with or without
    # a config file
    out = tmp_path / "out"
    args = {"gen-data": ["gen-data", "--per-class", "1"],
            "train": ["train", "--manifest", workspace["manifest"]]}[command]
    for extra in ([], ["--config", workspace["conf"]]):
        rc = cli.main(args + ["--out", str(out), "--seed", "-1"] + extra)
        err = capsys.readouterr().err
        assert rc == 1
        assert "seed must be >= 0, got -1" in err
        assert not os.path.exists(out)


def test_negative_seed_in_config_names_its_line(workspace, tmp_path, capsys):
    conf = tmp_path / "seed.conf"
    conf.write_text(TINY_CONF.replace("seed = 5", "seed = -3"), encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["train", "--manifest", workspace["manifest"], "--out", str(out),
                   "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{conf}:1: seed must be >= 0, got -3" in err
    assert not os.path.exists(out)
    # a valid --seed overrides the document's value
    rc = cli.main(["gen-data", "--out", str(out), "--per-class", "1", "--size", "8",
                   "--config", str(conf), "--seed", "2"])
    assert rc == 0


@pytest.mark.parametrize("count", [-1, 0])
def test_gen_data_nonpositive_per_class_is_usage_error(tmp_path, capsys, count):
    # -1 and 0 exited 0 with an empty manifest and a Python warning
    out = tmp_path / "out"
    rc = cli.main(["gen-data", "--out", str(out), "--per-class", str(count)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "per-class sample counts must be >= 0 with a positive total" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("size", [2, 0, -3])
def test_gen_data_small_size_is_usage_error(tmp_path, capsys, size):
    # the size check ran after images/ and masks/ were made under --out
    out = tmp_path / "out"
    rc = cli.main(["gen-data", "--out", str(out), "--per-class", "1",
                   "--size", str(size)])
    assert rc == 1
    assert "image size must be at least 4x4" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_oversized_median_window_fails_at_config_load(tmp_path, capsys):
    conf = tmp_path / "wide.conf"
    conf.write_text("preprocess.median_window = 100001\n", encoding="utf-8")
    rcs = []
    peak = peak_traced_bytes(lambda: rcs.append(cli.main(
        ["preprocess", "--manifest", str(tmp_path / "m.tsv"),
         "--out", str(tmp_path / "out"), "--config", str(conf)])))
    err = capsys.readouterr().err
    assert rcs == [1]
    assert "median window 100001 exceeds the target size" in err
    assert "Traceback" not in err
    assert peak < 1 << 20


def one_image_manifest(tmp_path):
    img = tmp_path / "c.ppm"
    im.write_image(str(img), np.arange(192, dtype=np.uint8).reshape(8, 8, 3))
    manifest = tmp_path / "m.tsv"
    dio.write_manifest(str(manifest),
                       [dio.Sample(image="c.ppm", label=CLASS_NAMES.index("soil"))])
    return str(manifest)


def test_preset_flag_applies_before_config_validation(tmp_path, capsys):
    # a 33-px median window is too wide for desk's 32-px images but fits
    # the paper preset's 224 px, whichever preset the file itself leaves
    conf = tmp_path / "wide.conf"
    conf.write_text("preprocess.median_window = 33\n", encoding="utf-8")
    manifest = one_image_manifest(tmp_path)
    command = ["preprocess", "--manifest", manifest, "--config", str(conf)]
    rc = cli.main(command + ["--out", str(tmp_path / "desk")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{conf}:1: invalid preprocess configuration" in err
    rc = cli.main(command + ["--out", str(tmp_path / "paper"), "--preset", "paper"])
    assert rc == 0, capsys.readouterr().err
    out = im.read_image(str(tmp_path / "paper" / "images" / "c.ppm"))
    assert out.shape[:2] == (224, 224)


def untrained_gan(path):
    """A 16-px four-class GAN checkpoint marked trained, so augment runs it."""
    gan = gn.init_gan(gn.GanConfig(latent_dim=4, image_size=(16, 16),
                                   base_channels=2, label_dim=2),
                      np.random.default_rng(0))
    gan.trained_steps = 1
    dp.save_gan(str(path), gan)


@pytest.mark.parametrize("command", ["preprocess", "gan-train", "augment",
                                     "pretrain", "train", "eval"])
def test_every_manifest_command_rejects_grey_image(tmp_path, capsys, command):
    # every command reads a manifest's images through dataio's row reader,
    # so one channel rule holds for all of them
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--per-class", "3"])
    assert rc == 0
    manifest = str(tmp_path / "d" / "manifest.tsv")
    second = dio.read_manifest(manifest)[1]
    path = str(tmp_path / "d" / second.image)
    grey = im.read_image(path).mean(axis=2).astype(np.uint8)
    im.write_image(path, grey)
    untrained_gan(tmp_path / "gan.hwdm")
    out = str(tmp_path / "out")
    extra = {"augment": ["--gan", str(tmp_path / "gan.hwdm")],
             "eval": ["--model", desk_checkpoint(tmp_path / "model.hwdm")]}
    rc = cli.main([command, "--manifest", manifest, "--out", out,
                   *extra.get(command, [])])
    err = capsys.readouterr().err
    assert rc == 2
    assert (f"{manifest}:{second.line}: expected a color image, got 1 "
            f"channel(s): {second.image}") in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_invalid_utf8_tensor_name_is_data_error(tmp_path, capsys):
    blob = bytearray(checkpoint_bytes({"w": np.ones(3, dtype=np.float32)}))
    blob[blob.index(b"w")] = 0xFF
    model = tmp_path / "badname.hwdm"
    model.write_bytes(bytes(blob))
    rc = cli.main(["quantize", "--model", str(model),
                   "--out", str(tmp_path / "q.hwdm")])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def desk_checkpoint(path, name=None, value=None):
    """A random desk model, with every element of tensor `name` set to
    `value` if a name is given."""
    rng = np.random.default_rng(4)
    cfg = bb.desk_config()
    entries = dp.model_entries(bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    if name is not None:
        entries[name][...] = value
    dp.write_checkpoint(str(path), entries)
    return str(path)


def model_command(command, model, workspace, tmp_path):
    image = str(workspace["data"] / "images" / "soil_0000.ppm")
    return {"infer": ["infer", "--model", model, "--image", image],
            "eval": ["eval", "--manifest", workspace["manifest"],
                     "--model", model, "--out", str(tmp_path / "eval")],
            "quantize": ["quantize", "--model", model,
                         "--out", str(tmp_path / "q.hwdm")]}[command]


@pytest.mark.parametrize("command", ["infer", "eval", "quantize"])
def test_non_finite_checkpoint_entry_is_data_error(workspace, tmp_path, capsys,
                                                   command):
    model = desk_checkpoint(tmp_path / "nan.hwdm", "fusion.w", np.nan)
    rc = cli.main(model_command(command, model, workspace, tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    assert "non-finite value in fusion.w at offset" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "q.hwdm")


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_overflowing_weights_exit_three(workspace, tmp_path, capsys, command):
    model = desk_checkpoint(tmp_path / "big.hwdm", "fusion.w", 3e38)
    rc = cli.main(model_command(command, model, workspace, tmp_path))
    err = capsys.readouterr().err
    assert rc == 3
    assert "backbone diverged" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flag", [("prune", "--fraction"),
                                          ("quantize", "--prune-fraction")],
                         ids=["prune", "quantize"])
def test_pruning_int8_checkpoint_is_usage_error(tmp_path, capsys, command, flag):
    quant = str(tmp_path / "q.hwdm")
    rc = cli.main(["quantize", "--model", desk_checkpoint(tmp_path / "m.hwdm"),
                   "--out", quant])
    assert rc == 0
    capsys.readouterr()
    out = tmp_path / "out.hwdm"
    rc = cli.main([command, "--model", quant, "--out", str(out), flag, "0.5"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: cnn.0.kernel is int8; prune the "
                                       "float checkpoint, then quantize it\n")
    assert not out.exists()


def test_prune_checkpoint_without_weights_is_usage_error(tmp_path, capsys):
    model = str(tmp_path / "meta.hwdm")
    dp.write_checkpoint(model, {"meta.backbone": dp.encode_backbone_config(bb.desk_config())})
    out = tmp_path / "out.hwdm"
    rc = cli.main(["prune", "--model", model, "--out", str(out), "--fraction", "0.5"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {model} has no weights to prune\n"
    assert not out.exists()


def test_checkpoint_dims_past_64_bits_is_data_error(tmp_path, capsys):
    # 65536**4 wraps to 0 in int64 arithmetic; the empty payload must not pass
    model = tmp_path / "wrap.hwdm"
    model.write_bytes(dp.MAGIC + struct.pack("<HHIH", dp.VERSION, dp.FLAG_FULL, 1, 1)
                      + b"w" + struct.pack("<BB4I", 0, 4, *[65536] * 4))
    out = tmp_path / "q.hwdm"
    rc = cli.main(["quantize", "--model", str(model), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: truncated checkpoint at offset ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_divergent_training_exits_three(workspace, tmp_path, capsys):
    conf = tmp_path / "diverge.conf"
    conf.write_text(TINY_CONF.replace("optimizer.lr = 0.002",
                                      "optimizer.lr = 1e12"), encoding="utf-8")
    rc = cli.main(["train", "--manifest", workspace["manifest"],
                   "--out", str(tmp_path / "run"), "--config", str(conf)])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_overflowing_loss_weights_exit_three(workspace, tmp_path, capsys):
    # both weights are valid; their weighted sum overflowed outside every
    # divergence wrapper and escaped cli.main as a traceback
    conf = tmp_path / "weights.conf"
    conf.write_text(TINY_CONF + "loss.w_cls = 1e300\nloss.w_seg = 1e308\n",
                    encoding="utf-8")
    out = tmp_path / "run"
    rc = cli.main(["train", "--manifest", workspace["manifest"], "--out", str(out),
                   "--config", str(conf)])
    assert rc == 3
    assert capsys.readouterr().err == ("error: total diverged: non-finite values "
                                       "(mul produced non-finite values)\n")
    assert not out.exists()


@pytest.mark.parametrize("line,detail", [
    ("ssl.lr = 1e39", "adam_step produced non-finite values"),
    ("ssl.temperature = 1e-300", "mul produced non-finite values")])
def test_divergent_pretrain_exits_three_without_a_checkpoint(workspace, tmp_path,
                                                             capsys, line, detail):
    # ssl.lr = 1e39 is a finite rate, so the config takes it; Adam's first
    # update overflowed float32, pretrain exited 0, and train --init refused
    # the inf weights it had written
    conf = tmp_path / "diverge.conf"
    conf.write_text(TINY_CONF + line + "\n", encoding="utf-8")
    out = tmp_path / "pre.hwdm"
    rc = cli.main(["pretrain", "--manifest", workspace["manifest"], "--out", str(out),
                   "--config", str(conf)])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: contrastive diverged: non-finite "
                                       f"values ({detail})\n")
    assert not out.exists()


# ---------------------------------------------------------------- gen-data


def test_gen_data_reproducible(tmp_path):
    for sub in ("a", "b"):
        rc = cli.main(["gen-data", "--out", str(tmp_path / sub),
                       "--per-class", "2", "--size", "16", "--seed", "9"])
        assert rc == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_gen_data_seed_matters(tmp_path):
    cli.main(["gen-data", "--out", str(tmp_path / "a"), "--per-class", "2",
              "--size", "16", "--seed", "1"])
    cli.main(["gen-data", "--out", str(tmp_path / "b"), "--per-class", "2",
              "--size", "16", "--seed", "2"])
    assert dir_bytes(tmp_path / "a") != dir_bytes(tmp_path / "b")


# ---------------------------------------------------------------- preprocess


def test_preprocess_deterministic(workspace, tmp_path):
    for sub in ("p1", "p2"):
        rc = cli.main(["preprocess", "--manifest", workspace["manifest"],
                       "--out", str(tmp_path / sub),
                       "--config", workspace["conf"]])
        assert rc == 0
    first, second = dir_bytes(tmp_path / "p1"), dir_bytes(tmp_path / "p2")
    assert first == second
    samples = dio.read_manifest(str(tmp_path / "p1" / "manifest.tsv"))
    assert len(samples) == 16


@pytest.mark.parametrize("mask,message", [
    (np.full((16, 16, 3), 9, np.uint8), "mask must be single-channel"),
    (np.full((16, 16), 9, np.uint8), "mask value 9 outside the class vocabulary")],
    ids=["three-channel", "out-of-vocabulary"])
def test_preprocess_rejects_invalid_mask(workspace, tmp_path, capsys, mask, message):
    sample = dio.read_manifest(workspace["manifest"])[0]
    (tmp_path / "images").mkdir()
    shutil.copyfile(workspace["data"] / sample.image, tmp_path / "images" / "a.ppm")
    im.write_image(str(tmp_path / "bad_mask.pnm"), mask)
    manifest = tmp_path / "manifest.tsv"
    dio.write_manifest(str(manifest), [dio.Sample(
        image="images/a.ppm", label=sample.label, mask="bad_mask.pnm")])
    rc = cli.main(["preprocess", "--manifest", str(manifest),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["image", "mask"])
def test_preprocess_rejects_two_sources_with_one_name(workspace, tmp_path, capsys, field):
    # a/x.* and other/x.* would both be written as images/x.* (masks/x.*)
    first, second = dio.read_manifest(workspace["manifest"])[:2]
    rows = []
    for sub, s in (("a", first), ("other", second)):
        names = {"image": f"{sub}/x.ppm", "mask": f"{sub}/x_mask.pgm"}
        if field == "mask":
            names["image"] = f"{sub}_x.ppm"
        for key, rel in names.items():
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            shutil.copyfile(workspace["data"] / getattr(s, key), tmp_path / rel)
        rows.append(dio.Sample(label=s.label, growth=s.growth, **names))
    manifest = tmp_path / "manifest.tsv"
    dio.write_manifest(str(manifest), rows)
    out = tmp_path / "out"
    rc = cli.main(["preprocess", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # line 1 is the header
    assert f"manifest.tsv:3: {field} other/x" in err
    assert "on line 2" in err
    assert not out.exists()


def test_preprocess_allows_a_repeated_source(workspace, tmp_path):
    sample = dio.read_manifest(workspace["manifest"])[0]
    manifest = tmp_path / "manifest.tsv"
    dio.write_manifest(str(manifest), [sample, sample])
    for rel in (sample.image, sample.mask):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(workspace["data"] / rel, tmp_path / rel)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="duplicate image path"):
        rc = cli.main(["preprocess", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        assert len(dio.read_manifest(str(out / "manifest.tsv"))) == 2


def test_preprocess_refuses_to_overwrite_its_inputs(tmp_path, capsys):
    # --out the manifest's own directory exited 0 after replacing every
    # source image with its processed copy and rewriting the manifest
    data = tmp_path / "data"
    rc = cli.main(["gen-data", "--out", str(data), "--per-class", "1", "--size", "16"])
    assert rc == 0
    before = dir_bytes(data)
    capsys.readouterr()
    rc = cli.main(["preprocess", "--manifest", str(data / "manifest.tsv"),
                   "--out", str(data)])
    assert rc == 2
    # line 1 is the header
    first = dio.read_manifest(str(data / "manifest.tsv"))[0]
    assert capsys.readouterr().err == (
        f"error: {data / 'manifest.tsv'}:2: writing image {first.image} to "
        f"{data / 'images' / os.path.basename(first.image)} would overwrite an input\n")
    assert dir_bytes(data) == before

    # with the sources moved under raw/, only the manifest collides
    (data / "raw").mkdir()
    raw = []
    for s in dio.read_manifest(str(data / "manifest.tsv")):
        moved = {field: os.path.join("raw", os.path.basename(getattr(s, field)))
                 for field in ("image", "mask")}
        for field, rel in moved.items():
            os.rename(data / getattr(s, field), data / rel)
        raw.append(dio.Sample(label=s.label, growth=s.growth, **moved))
    dio.write_manifest(str(data / "manifest.tsv"), raw)
    before = dir_bytes(data)
    rc = cli.main(["preprocess", "--manifest", str(data / "manifest.tsv"),
                   "--out", str(data)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {data / 'manifest.tsv'}: writing the manifest to "
        f"{data / 'manifest.tsv'} would overwrite an input\n")
    assert dir_bytes(data) == before


# ---------------------------------------------------------------- preprocessed manifests


@pytest.fixture(scope="module")
def preprocessed(workspace):
    """preprocess's output manifest over the workspace, at the tiny config."""
    out = workspace["root"] / "preprocessed"
    rc = cli.main(["preprocess", "--manifest", workspace["manifest"],
                   "--out", str(out), "--config", workspace["conf"]])
    assert rc == 0
    return str(out / "manifest.tsv")


def test_preprocessed_output_trains_as_the_raw_manifest(
        workspace, preprocessed, tmp_path, capsys, monkeypatch):
    # every consumer ran the pipeline again on preprocess's output, so its
    # model inputs differed from the raw manifest's and so did the model
    def runs(manifest, sub):
        out = tmp_path / sub
        commands = {
            "train": ["--manifest", manifest, "--out", str(out / "run")],
            "eval": ["--manifest", manifest, "--model", str(out / "run" / "model.hwdm"),
                     "--out", str(out / "eval")],
            "pretrain": ["--manifest", manifest, "--out", str(out / "pre.hwdm")]}
        stdout = {}
        for command, args in commands.items():
            assert cli.main([command, *args, "--config", workspace["conf"]]) == 0
            stdout[command] = capsys.readouterr().out.replace(str(out), "OUT")
        return stdout, dir_bytes(out)

    raw = runs(workspace["manifest"], "raw")

    def no_second_pass(*args):
        raise AssertionError("a recorded manifest ran through the pipeline again")

    monkeypatch.setattr(im, "preprocess_batch", no_second_pass)
    assert runs(preprocessed, "staged") == raw


@pytest.mark.parametrize("command", ["train", "eval", "pretrain"])
@pytest.mark.parametrize("setting,message", [
    ("preprocess.gamma = 1.5", "the run's gamma 1.5 disagrees with the recorded gamma 1.0"),
    ("preprocess.clahe_tile = 4",
     "the run's clahe_tile 4 disagrees with the recorded clahe_tile 8")])
def test_a_config_disagreeing_with_the_stage_record_exits_two(
        workspace, preprocessed, trained, tmp_path, capsys, command, setting, message):
    conf = tmp_path / "other.conf"
    conf.write_text(TINY_CONF + setting + "\n", encoding="utf-8")
    out = tmp_path / "out"
    model = ["--model", trained["model"]] if command == "eval" else []
    rc = cli.main([command, "--manifest", preprocessed, "--out", str(out), *model,
                   "--config", str(conf)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {preprocessed}: {message}\n"
    assert not out.exists()


def test_a_preset_disagreeing_with_the_stage_record_exits_two(
        workspace, preprocessed, tmp_path, capsys):
    rc = cli.main(["train", "--manifest", preprocessed, "--out", str(tmp_path / "out"),
                   "--config", workspace["conf"], "--preset", "paper"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {preprocessed}: the run's target_size 224x224 disagrees with "
        f"the recorded target_size 32x32\n")


@pytest.mark.parametrize("command", ["preprocess", "augment", "gan-train"])
def test_a_recorded_manifest_is_not_staged_again(
        workspace, preprocessed, gan_checkpoint, tmp_path, capsys, command):
    # a second pipeline pass, a GAN that learned from processed images, or
    # synthetic rows beside processed originals would give images no raw
    # manifest gives
    source = os.path.dirname(preprocessed)
    before = dir_bytes(source)
    out = tmp_path / "out"
    gan = ["--gan", gan_checkpoint] if command == "augment" else []
    rc = cli.main([command, "--manifest", preprocessed, "--out", str(out), *gan,
                   "--config", workspace["conf"]])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {preprocessed}: already preprocessed (it holds a stage "
        f"record); give the raw manifest instead\n")
    assert not out.exists()
    assert dir_bytes(source) == before


# ---------------------------------------------------------------- gan + augment


@pytest.fixture(scope="module")
def gan_checkpoint(workspace):
    path = str(workspace["root"] / "gan.hwdm")
    rc = cli.main(["gan-train", "--manifest", workspace["manifest"],
                   "--out", path, "--config", workspace["conf"]])
    assert rc == 0
    return path


def test_gan_checkpoint_flags(gan_checkpoint):
    _, flags = dp.read_checkpoint(gan_checkpoint)
    assert flags & dp.FLAG_GAN
    params = dp.load_gan(gan_checkpoint)
    assert params.trained_steps > 0


def test_augment_balances_and_keeps_originals(workspace, gan_checkpoint,
                                              tmp_path):
    # an imbalanced source: drop most samples of two classes
    src = dio.read_manifest(workspace["manifest"])
    keep = [s for s in src if s.label_name in ("soil", "soybean")]
    keep += [s for s in src if s.label_name == "grass"][:2]
    keep += [s for s in src if s.label_name == "broadleaf"][:1]
    skewed = tmp_path / "skewed.tsv"
    for s in keep:
        dst = tmp_path / s.image
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(workspace["data"] / s.image, dst)
        if s.mask:
            dst = tmp_path / s.mask
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workspace["data"] / s.mask, dst)
    dio.write_manifest(str(skewed), keep)

    out = tmp_path / "balanced"
    rc = cli.main(["augment", "--manifest", str(skewed), "--gan",
                   gan_checkpoint, "--out", str(out), "--seed", "3"])
    assert rc == 0
    balanced = dio.read_manifest(str(out / "manifest.tsv"))
    counts = {name: 0 for name in CLASS_NAMES}
    for s in balanced:
        counts[s.label_name] += 1
    assert len(set(counts.values())) == 1, counts
    # originals come first, bit-identical, in order
    originals = [s for s in balanced if not s.synthetic]
    assert [(s.image, s.label) for s in originals] == [
        (s.image, s.label) for s in keep]
    for s in originals:
        with open(tmp_path / s.image, "rb") as fh:
            src_bytes = fh.read()
        with open(out / s.image, "rb") as fh:
            assert fh.read() == src_bytes, s.image
    synth = [s for s in balanced if s.synthetic]
    assert len(synth) == len(balanced) - len(keep)
    assert all(s.label_name in ("grass", "broadleaf") for s in synth)


def test_augment_rejects_empty_gan_steps(workspace, gan_checkpoint, tmp_path,
                                         capsys):
    entries, flags = dp.read_checkpoint(gan_checkpoint)
    entries["meta.gan_steps"] = np.zeros(0, dtype=np.float32)
    bad = tmp_path / "gan.hwdm"
    dp.write_checkpoint(str(bad), entries, flags)
    rc = cli.main(["augment", "--manifest", workspace["manifest"], "--gan",
                   str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "meta.gan_steps holds 0 values, expected 1" in capsys.readouterr().err


@pytest.mark.parametrize("classes", [3, 5])
def test_augment_rejects_gan_with_other_class_count(workspace, tmp_path, capsys, classes):
    cfg = gn.GanConfig(latent_dim=4, class_count=classes, image_size=(16, 16),
                       base_channels=2, label_dim=2)
    params = gn.init_gan(cfg, np.random.default_rng(0))
    params.trained_steps = 1   # rebalance refuses an untrained generator
    gan = tmp_path / "gan.hwdm"
    dp.save_gan(str(gan), params)
    out = tmp_path / "out"
    rc = cli.main(["augment", "--manifest", workspace["manifest"], "--gan", str(gan),
                   "--out", str(out)])
    assert rc == 2
    assert f"GAN has {classes} classes, expected {len(CLASS_NAMES)}" in capsys.readouterr().err
    assert not out.exists()


def test_augment_with_an_overflowing_generator_exits_three(workspace, tmp_path, capsys):
    # rebalance ran generate outside any divergence wrapper, so the
    # generator's NumericError escaped cli.main as a traceback
    cfg = gn.GanConfig(latent_dim=4, image_size=(16, 16), base_channels=2, label_dim=2)
    params = gn.init_gan(cfg, np.random.default_rng(0))
    params.trained_steps = 3
    params.g.fc_w.data[...] = 3e38
    gan = tmp_path / "gan.hwdm"
    dp.save_gan(str(gan), params)
    src = dio.read_manifest(workspace["manifest"])
    keep = [s for s in src if s.label_name in ("soil", "soybean")]
    assert len(keep) == 8
    for s in keep:
        for rel in (s.image, s.mask):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workspace["data"] / rel, tmp_path / rel)
    manifest = tmp_path / "manifest.tsv"
    dio.write_manifest(str(manifest), keep)
    rc = cli.main(["augment", "--manifest", str(manifest), "--gan", str(gan),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: generator diverged: non-finite values")
    assert "Traceback" not in err


def test_augment_holds_one_original_at_a_time(tmp_path):
    # 39 random 224-px originals and one synthetic image: augment decodes
    # each original to check it, keeps only the first one's size, and
    # copies the files, so its peak is one original, the synthetic stack
    # and the resize of a generated 16-px image. Holding every decoded
    # original costs 39 of them (about 6 MB) on top.
    size, one = 224, 224 * 224 * 3
    rng = np.random.default_rng(0)
    samples = []
    for label, count in enumerate([10, 10, 10, 9]):
        for i in range(count):
            name = f"{CLASS_NAMES[label]}_{i}.ppm"
            im.write_image(str(tmp_path / name),
                           rng.integers(0, 256, (size, size, 3), dtype=np.uint8))
            samples.append(dio.Sample(image=name, label=label))
    dio.write_manifest(str(tmp_path / "m.tsv"), samples)
    untrained_gan(tmp_path / "gan.hwdm")
    small = np.zeros((16, 16, 3), dtype=np.uint8)
    resize = peak_traced_bytes(lambda: im.resize_bilinear(small, (size, size)))
    rcs = []
    peak = peak_traced_bytes(lambda: rcs.append(cli.main([
        "augment", "--manifest", str(tmp_path / "m.tsv"), "--gan",
        str(tmp_path / "gan.hwdm"), "--out", str(tmp_path / "out")])))
    assert rcs == [0]
    assert len(dio.read_manifest(str(tmp_path / "out" / "manifest.tsv"))) == 40
    # an original is read as its file's bytes, then as its pixels
    original, synthetic = 2 * one, 1 * one
    assert peak < original + synthetic + resize + (1 << 19)


def test_augment_keeps_synthetic_rows_it_copies(workspace, gan_checkpoint, tmp_path):
    # an earlier augment's output already holds synthetic/broadleaf_0000.ppm,
    # the name the first new broadleaf image took: it overwrote the copy,
    # and the manifest listed the path twice
    src = dio.read_manifest(workspace["manifest"])
    soil = [s for s in src if s.label_name == "soil"][:2]
    broadleaf = next(s for s in src if s.label_name == "broadleaf")
    old = os.path.join("synthetic", "broadleaf_0000.ppm")
    copies = [(s.image, s.image) for s in soil] + [(s.mask, s.mask) for s in soil]
    for rel, from_rel in copies + [(old, broadleaf.image)]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(workspace["data"] / from_rel, tmp_path / rel)
    manifest = tmp_path / "manifest.tsv"
    dio.write_manifest(str(manifest), soil + [
        dio.Sample(image=old, label=broadleaf.label, synthetic=True)])
    out = tmp_path / "balanced"
    rc = cli.main(["augment", "--manifest", str(manifest), "--gan", gan_checkpoint,
                   "--out", str(out)])
    assert rc == 0
    balanced = dio.read_manifest(str(out / "manifest.tsv"))
    images = [s.image for s in balanced]
    assert len(balanced) == 8 and len(set(images)) == 8, images
    assert (out / old).read_bytes() == (workspace["data"] / broadleaf.image).read_bytes()
    assert sorted(os.listdir(out / "synthetic")) == sorted(
        os.path.basename(s.image) for s in balanced if s.synthetic)


@pytest.mark.parametrize("field", ["image", "mask"])
@pytest.mark.parametrize("outside", ["parent", "absolute"])
def test_augment_rejects_paths_outside_the_manifest_directory(
        workspace, gan_checkpoint, tmp_path, capsys, field, outside):
    # augment copies each original to its relative path under --out: a row
    # ../images/x.ppm exited 0 after writing beside --out, and an absolute
    # path exited 2 (SameFileError) after creating --out
    first, second = dio.read_manifest(workspace["manifest"])[:2]
    lists = tmp_path / "lists"
    names = {"image": second.image, "mask": second.mask}
    for s, root in ((first, lists), (second, lists), (second, tmp_path / "src")):
        for rel in (s.image, s.mask):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workspace["data"] / rel, root / rel)
    names[field] = (os.path.join(os.pardir, "src", names[field])
                    if outside == "parent" else str(tmp_path / "src" / names[field]))
    manifest = lists / "manifest.tsv"
    dio.write_manifest(str(manifest), [
        first, dio.Sample(label=second.label, growth=second.growth, **names)])
    out = tmp_path / "run" / "balanced"
    rc = cli.main(["augment", "--manifest", str(manifest), "--gan", gan_checkpoint,
                   "--out", str(out)])
    assert rc == 2
    # line 1 is the header
    assert (f"manifest.tsv:3: {field} {names[field]} lies outside the "
            f"manifest's directory") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------- pretrain/train


@pytest.fixture(scope="module")
def trained(workspace):
    pre = str(workspace["root"] / "pre.hwdm")
    rc = cli.main(["pretrain", "--manifest", workspace["manifest"],
                   "--out", pre, "--config", workspace["conf"]])
    assert rc == 0
    out = str(workspace["root"] / "run")
    rc = cli.main(["train", "--manifest", workspace["manifest"], "--out", out,
                   "--config", workspace["conf"], "--init", pre])
    assert rc == 0
    return {"pre": pre, "run": out,
            "model": os.path.join(out, "model.hwdm")}


def test_pretrain_honours_normalize(workspace, trained, tmp_path):
    # pretraining scales its views as train and eval scale their inputs
    conf = tmp_path / "raw.conf"
    conf.write_text(TINY_CONF + "preprocess.normalize = false\n", encoding="utf-8")
    raw = tmp_path / "raw.hwdm"
    rc = cli.main(["pretrain", "--manifest", workspace["manifest"],
                   "--out", str(raw), "--config", str(conf)])
    assert rc == 0
    with open(trained["pre"], "rb") as fh:
        standardized = fh.read()
    assert raw.read_bytes() != standardized


def test_pretrain_checkpoint_flags(trained):
    _, flags = dp.read_checkpoint(trained["pre"])
    assert flags == dp.FLAG_PRETRAIN


def test_train_outputs_exist(trained):
    for name in ("model.hwdm", "history.csv", "confusion.csv", "report.csv"):
        assert os.path.exists(os.path.join(trained["run"], name)), name
    _, flags = dp.read_checkpoint(trained["model"])
    assert flags == dp.FLAG_FULL


def test_train_reproducible(workspace, trained, tmp_path):
    out = tmp_path / "again"
    rc = cli.main(["train", "--manifest", workspace["manifest"],
                   "--out", str(out), "--config", workspace["conf"],
                   "--init", trained["pre"]])
    assert rc == 0
    assert dir_bytes(out) == dir_bytes(trained["run"])


def test_eval_deterministic(workspace, trained, tmp_path):
    outputs = []
    for sub in ("e1", "e2"):
        rc = cli.main(["eval", "--manifest", workspace["manifest"],
                       "--model", trained["model"],
                       "--out", str(tmp_path / sub),
                       "--config", workspace["conf"]])
        assert rc == 0
        outputs.append(dir_bytes(tmp_path / sub))
    assert outputs[0] == outputs[1]


def test_train_rejects_full_model_as_init(workspace, trained, tmp_path,
                                          capsys):
    rc = cli.main(["train", "--manifest", workspace["manifest"],
                   "--out", str(tmp_path / "x"), "--config", workspace["conf"],
                   "--init", trained["model"]])
    assert rc == 1
    assert "full model" in capsys.readouterr().err


# ---------------------------------------------------------------- deploy cmds


def test_quantize_prune_infer_chain(workspace, trained, tmp_path, capsys):
    quant = str(tmp_path / "quant.hwdm")
    rc = cli.main(["quantize", "--model", trained["model"], "--out", quant])
    assert rc == 0
    _, flags = dp.read_checkpoint(quant)
    assert flags & dp.FLAG_QUANTIZED

    pruned = str(tmp_path / "pruned.hwdm")
    rc = cli.main(["prune", "--model", trained["model"], "--out", pruned,
                   "--fraction", "0.3"])
    assert rc == 0
    entries, _ = dp.read_checkpoint(pruned)
    weights = np.concatenate([v.reshape(-1) for k, v in entries.items()
                              if not k.startswith("meta.")])
    assert (weights == 0).mean() >= 0.29

    capsys.readouterr()
    image = str(workspace["data"] / "images" / "soil_0000.ppm")
    for model in (trained["model"], quant):
        rc = cli.main(["infer", "--model", model, "--image", image,
                       "--config", workspace["conf"]])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("class: ")
        assert "growth:" in text and "mask:" in text
        assert all(f"p({name})" in text for name in CLASS_NAMES)


def test_infer_reads_float_checkpoint_once(workspace, trained, monkeypatch, capsys):
    reads = []
    real = dp.read_checkpoint

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(dp, "read_checkpoint", counting)
    image = str(workspace["data"] / "images" / "soil_0000.ppm")
    rc = cli.main(["infer", "--model", trained["model"], "--image", image,
                   "--config", workspace["conf"]])
    assert rc == 0
    assert reads == [trained["model"]]


def test_paper_infer_holds_one_model_while_it_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(34)
    cfg = bb.paper_config()
    model = str(tmp_path / "paper.hwdm")
    dp.save_model(model, bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    image = str(tmp_path / "img.ppm")
    im.write_image(image, rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
    held = []
    predict = hd.predict

    def measured(params, heads, x):
        held.append(tracemalloc.get_traced_memory()[0])
        return predict(params, heads, x)

    monkeypatch.setattr(hd, "predict", measured)
    rcs = []
    peak_traced_bytes(lambda: rcs.append(cli.main(["infer", "--model", model,
                                                   "--image", image])))
    assert rcs == [0] and len(held) == 1
    # the float32 parameters, one file's worth, and the 224x224 input; the
    # entries read from the file were a second copy of the model
    assert held[0] < 1.2 * os.path.getsize(model)


def test_prune_bad_fraction_is_usage_error(trained, tmp_path, capsys):
    rc = cli.main(["prune", "--model", trained["model"],
                   "--out", str(tmp_path / "x.hwdm"), "--fraction", "1.5"])
    assert rc == 1


def test_infer_deterministic(workspace, trained, tmp_path, capsys):
    image = str(workspace["data"] / "images" / "grass_0001.ppm")
    texts = []
    for _ in range(2):
        rc = cli.main(["infer", "--model", trained["model"], "--image", image,
                       "--config", workspace["conf"]])
        assert rc == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
