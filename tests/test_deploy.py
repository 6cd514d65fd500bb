"""Checkpoints, magnitude pruning, int8 quantization, quantized inference."""

import hashlib
import os
import struct

import numpy as np
import pytest

import weedhybrid.backbone as bb
import weedhybrid.deploy as dp
import weedhybrid.gan as gn
import weedhybrid.heads as hd
import weedhybrid.tensor as T
from weedhybrid.errors import ContractError, FormatError

from helpers import checkpoint_bytes, decode_bytes, named_leaves, peak_traced_bytes
from oracles import dequantize_whole, quantize_scalar


def tiny_model(seed=0):
    cfg = bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                            num_heads=1, cnn_channels=(2,), gcn_dims=(4,),
                            fusion_dim=8)
    rng = np.random.default_rng(seed)
    return bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng)


# ---------------------------------------------------------------- quantize


def test_quantize_zero_tensor():
    qt = dp.quantize(np.zeros(5, dtype=np.float32))
    assert qt.scale == 1.0
    assert qt.codes.dtype == np.int8
    np.testing.assert_array_equal(qt.codes, 0)
    np.testing.assert_array_equal(dp.dequantize(qt), 0.0)


def test_quantize_reference_vector():
    qt = dp.quantize(np.array([0.1, -0.5, 1.0], dtype=np.float32))
    assert abs(qt.scale - 1.0 / 127.0) < 1e-12
    np.testing.assert_array_equal(qt.codes, [13, -64, 127])


def test_quantize_max_element_saturates():
    rng = np.random.default_rng(0)
    for trial in range(10):
        arr = rng.standard_normal(20).astype(np.float32)
        qt = dp.quantize(arr)
        peak = np.argmax(np.abs(arr))
        assert abs(int(qt.codes[peak])) == 127, trial
        err = abs(float(dp.dequantize(qt)[peak]) - float(arr[peak]))
        assert err <= qt.scale / 2, trial


def test_quantize_error_bound_exhaustive():
    rng = np.random.default_rng(1)
    for trial in range(30):
        shape = tuple(rng.integers(1, 6, size=int(rng.integers(1, 4))))
        arr = (rng.standard_normal(shape)
               * 10.0 ** float(rng.integers(-3, 4))).astype(np.float32)
        qt = dp.quantize(arr)
        err = np.abs(dp.dequantize(qt).astype(np.float64) - arr.astype(np.float64))
        assert err.max() <= qt.scale / 2, (trial, err.max(), qt.scale)


def test_quantize_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for trial in range(25):
        vals = rng.standard_normal(int(rng.integers(1, 12))).astype(np.float32)
        qt = dp.quantize(vals)
        want_codes, want_scale = quantize_scalar(list(vals))
        assert abs(qt.scale - want_scale) < 1e-15, trial
        np.testing.assert_array_equal(qt.codes, want_codes)


def test_quantize_preserves_shape():
    qt = dp.quantize(np.ones((2, 3, 4), dtype=np.float32))
    assert qt.shape == (2, 3, 4)
    assert dp.dequantize(qt).shape == (2, 3, 4)


@pytest.mark.parametrize("scale", [0.0123, 1e-30, 3.3e-3, 7 / 127, 1.0, 3e38 / 127])
def test_dequantize_matches_the_whole_array_oracle(scale):
    codes = np.random.default_rng(8).integers(-127, 128, (37, 53)).astype(np.int8)
    codes[0, :3] = (-127, 0, 127)
    qt = dp.QuantizedTensor(codes=codes, scale=scale)
    got = dp.dequantize(qt)
    assert got.dtype == np.float32 and got.shape == codes.shape
    assert got.tobytes() == dequantize_whole(qt).tobytes()


def test_dequantize_holds_no_float64_copy():
    # the whole-array form held a float64 copy beside its float32 result:
    # 6.75 MiB for a 768x768 tensor, three times the result
    codes = np.random.default_rng(9).integers(-127, 128, (768, 768)).astype(np.int8)
    qt = dp.QuantizedTensor(codes=codes, scale=0.01)
    peak = peak_traced_bytes(lambda: dp.dequantize(qt))
    assert peak < 1.25 * codes.size * 4


def test_quantize_paper_weight_in_one_work_array():
    # the paper preset's vit.w_e: 768x768 float32, 2.25 MiB
    w = bb.init_backbone(bb.paper_config(), np.random.default_rng(0)).vit.w_e.data
    out = []
    peak = peak_traced_bytes(lambda: out.append(dp.quantize(w)))
    # one 4.5 MiB float64 work array, a sign mask and the codes; five
    # full-size float64 temporaries took 23.1 MiB
    assert peak < 8 << 20
    assert out[0].scale == 0.0013855086771521982
    assert hashlib.sha256(out[0].codes.tobytes()).hexdigest() == (
        "7d993ecb9d2f53c6265bd519b3d6fb27ccac183365fc86dfa7e387999d8e327e")


# ---------------------------------------------------------------- prune


def named_single(values):
    return {"w": np.array(values, dtype=np.float32)}


def test_prune_zero_fraction_is_identity():
    params = named_single([1.0, -4.0, 2.0, -3.0])
    masks = dp.prune_magnitude(params, 0.0)
    np.testing.assert_array_equal(params["w"], [1, -4, 2, -3])
    assert masks["w"].all()


def test_prune_half_reference():
    params = named_single([1.0, -4.0, 2.0, -3.0])
    masks = dp.prune_magnitude(params, 0.5)
    np.testing.assert_array_equal(params["w"], [0, -4, 0, -3])
    np.testing.assert_array_equal(masks["w"], [False, True, False, True])


def test_prune_skips_meta_entries():
    meta = np.array([1.0, 0.5, 2.0], dtype=np.float32)
    params = named_single([1.0, -4.0]) | {"meta.backbone": meta.copy()}
    masks = dp.prune_magnitude(params, 0.5)
    assert list(masks) == ["w"]
    assert params["meta.backbone"].tobytes() == meta.tobytes()


def test_prune_survivors_are_top_magnitudes():
    rng = np.random.default_rng(3)
    for trial in range(20):
        vals = rng.standard_normal(int(rng.integers(4, 40)))
        frac = float(rng.uniform(0, 0.95))
        params = named_single(vals)
        masks = dp.prune_magnitude(params, frac)
        k = int(frac * len(vals))
        # independent sort-based oracle over (|w|, index)
        order = sorted(range(len(vals)), key=lambda i: (abs(vals[i]), i))
        dropped = set(order[:k])
        for i, kept in enumerate(masks["w"]):
            assert kept == (i not in dropped), (trial, i)
            expect = 0.0 if i in dropped else vals[i]
            assert params["w"][i] == np.float32(expect), (trial, i)


def test_prune_ties_break_by_index():
    params = named_single([1.0, 1.0, 1.0, 1.0])
    dp.prune_magnitude(params, 0.5)
    np.testing.assert_array_equal(params["w"], [0, 0, 1, 1])


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.9])
def test_prune_matches_stable_argsort_with_ties_and_signed_zeros(frac):
    rng = np.random.default_rng(5)
    # few distinct magnitudes, both signs and both zeros: most elements tie
    vals = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5], size=(7, 31))
    vals = vals.astype(np.float32)
    params = {"w": vals.copy()}
    masks = dp.prune_magnitude(params, frac)
    flat = vals.reshape(-1)
    drop = np.argsort(np.abs(flat), kind="stable")[:int(frac * flat.size)]
    want = np.ones(flat.size, dtype=bool)
    want[drop] = False
    np.testing.assert_array_equal(masks["w"].reshape(-1), want)
    expect = np.where(want, flat, np.float32(0)).reshape(vals.shape)
    assert params["w"].tobytes() == expect.tobytes()


def test_prune_growing_fraction_zeroes_superset():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(30)
    a = named_single(vals.copy())
    dp.prune_magnitude(a, 0.2)
    zeros_first = set(np.flatnonzero(a["w"] == 0))
    dp.prune_magnitude(a, 0.6)
    zeros_second = set(np.flatnonzero(a["w"] == 0))
    assert zeros_first <= zeros_second


def test_prune_rejects_bad_fraction():
    with pytest.raises(ContractError):
        dp.prune_magnitude(named_single([1.0]), 1.0)
    with pytest.raises(ContractError):
        dp.prune_magnitude(named_single([1.0]), -0.1)


def test_prune_rejects_int8_tensor_before_zeroing():
    params = named_single([1.0, -4.0]) | {"q": dp.quantize(np.ones(2))}
    with pytest.raises(ContractError, match="q is int8; prune the float checkpoint"):
        dp.prune_magnitude(params, 0.5)
    np.testing.assert_array_equal(params["w"], [1, -4])


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip_bit_exact():
    rng = np.random.default_rng(5)
    entries = {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b.nested.name": rng.standard_normal(7).astype(np.float32),
        "scalar": np.float32(3.5).reshape(()),
        "quant": dp.quantize(rng.standard_normal(9).astype(np.float32)),
    }
    blob = checkpoint_bytes(entries, flags=dp.FLAG_FULL | dp.FLAG_QUANTIZED)
    loaded, flags = decode_bytes(blob)
    assert flags == dp.FLAG_FULL | dp.FLAG_QUANTIZED
    assert list(loaded) == list(entries)
    np.testing.assert_array_equal(loaded["a"], entries["a"])
    np.testing.assert_array_equal(loaded["b.nested.name"], entries["b.nested.name"])
    np.testing.assert_array_equal(loaded["scalar"], entries["scalar"])
    assert isinstance(loaded["quant"], dp.QuantizedTensor)
    np.testing.assert_array_equal(loaded["quant"].codes, entries["quant"].codes)
    assert loaded["quant"].scale == np.float32(entries["quant"].scale)


def test_checkpoint_empty_is_valid():
    blob = checkpoint_bytes({}, flags=dp.FLAG_PRETRAIN)
    loaded, flags = decode_bytes(blob)
    assert loaded == {}
    assert flags == dp.FLAG_PRETRAIN


def test_checkpoint_bad_magic():
    blob = bytearray(checkpoint_bytes({"a": np.zeros(2, dtype=np.float32)}))
    blob[0:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        decode_bytes(bytes(blob))


def test_checkpoint_bad_version():
    blob = bytearray(checkpoint_bytes({}))
    blob[4] = 99
    with pytest.raises(FormatError, match="version"):
        decode_bytes(bytes(blob))


def test_checkpoint_truncation_names_offset():
    blob = checkpoint_bytes({"a": np.zeros((2, 2), dtype=np.float32)})
    for cut in (2, 6, 10, 14, len(blob) - 3):
        with pytest.raises(FormatError, match="offset"):
            decode_bytes(blob[:cut])


def test_checkpoint_trailing_bytes_rejected():
    blob = checkpoint_bytes({})
    with pytest.raises(FormatError, match="trailing"):
        decode_bytes(blob + b"\x00")


def test_checkpoint_invalid_utf8_name_names_offset():
    blob = bytearray(checkpoint_bytes({"ab": np.zeros(2, dtype=np.float32)}))
    name_at = blob.index(b"ab")
    blob[name_at] = 0xFF
    with pytest.raises(FormatError, match=f"offset {name_at}"):
        decode_bytes(bytes(blob))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected_with_offset(bad):
    blob = checkpoint_bytes({"fusion.w": np.array([1.0, 2.0, bad, 4.0],
                                                  dtype=np.float32)})
    at = len(blob) - 16 + 2 * 4  # third value of the last payload
    with pytest.raises(FormatError, match=rf"fusion\.w at offset {at}$"):
        decode_bytes(blob)


def test_infinite_int8_scale_rejected_with_offset():
    qt = dp.QuantizedTensor(codes=np.array([1, -2], dtype=np.int8), scale=np.inf)
    blob = checkpoint_bytes({"w": qt}, flags=dp.FLAG_FULL | dp.FLAG_QUANTIZED)
    at = len(blob) - 2 - 5  # scale and zero point precede the two codes
    with pytest.raises(FormatError, match=rf"scale for w at offset {at}$"):
        decode_bytes(blob)


def test_unknown_tensor_kind_names_the_kind_byte():
    blob = bytearray(checkpoint_bytes({"w": np.zeros((2, 3), dtype=np.float32)}))
    at = 12 + 2 + 1  # header, name length, name "w"
    blob[at] = 7
    with pytest.raises(FormatError, match=rf"unknown tensor kind 7 for w at offset {at}$"):
        decode_bytes(bytes(blob))


@pytest.mark.parametrize("kind", [0, 1], ids=["float32", "int8"])
def test_checkpoint_dims_past_64_bits_are_truncation(kind):
    # 65536**4 == 2**64 wraps to 0 in int64, which would let the empty
    # payload pass the length check
    blob = (dp.MAGIC + struct.pack("<HHIH", dp.VERSION, dp.FLAG_FULL, 1, 1) + b"w"
            + struct.pack("<BB4I", kind, 4, *[65536] * 4)
            + (struct.pack("<fb", 1.0, 0) if kind else b""))
    with pytest.raises(FormatError, match=f"truncated checkpoint at offset {len(blob)}"):
        decode_bytes(blob)


def test_checkpoint_file_roundtrip_atomic(tmp_path):
    rng = np.random.default_rng(6)
    entries = {"w": rng.standard_normal((4, 4)).astype(np.float32)}
    path = str(tmp_path / "model.hwdm")
    dp.write_checkpoint(path, entries, flags=dp.FLAG_FULL)
    loaded, flags = dp.read_checkpoint(path)
    np.testing.assert_array_equal(loaded["w"], entries["w"])
    assert flags == dp.FLAG_FULL
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_read_paper_checkpoint_holds_one_copy_that_prune_can_zero(tmp_path):
    rng = np.random.default_rng(33)
    cfg = bb.paper_config()
    path = str(tmp_path / "paper.hwdm")
    dp.save_model(path, bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    read = []
    peak = peak_traced_bytes(lambda: read.append(dp.read_checkpoint(path)))
    # each payload's array and one tensor's finiteness mask; keeping the
    # bytes, a sliced copy of each payload and a copy of each entry took 2.08x
    assert peak < 1.2 * os.path.getsize(path)
    entries, _ = read[0]
    w = entries["vit.w_e"]
    assert w.flags.writeable
    masks = dp.prune_magnitude({"vit.w_e": w}, 0.5)
    assert (w[~masks["vit.w_e"]] == 0).all() and (~masks["vit.w_e"]).sum() == w.size // 2
    # entries from a file or from memory own writable, aligned arrays
    blob = checkpoint_bytes({"w": np.ones(3, np.float32),
                             "q": dp.quantize(np.ones(3, np.float32))})
    for loaded in (entries, decode_bytes(blob)[0]):
        for name, value in loaded.items():
            arr = value.codes if isinstance(value, dp.QuantizedTensor) else value
            assert arr.flags.writeable and arr.flags.aligned, name
            assert arr.base is None or arr.base.base is None, name


def test_load_paper_model_holds_one_copy(tmp_path):
    rng = np.random.default_rng(34)
    cfg = bb.paper_config()
    path = str(tmp_path / "paper.hwdm")
    dp.save_model(path, bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    loaded = []
    peak = peak_traced_bytes(lambda: loaded.append(dp.load_model(path)))
    # the model adopts the arrays it reads; a whole-file buffer alive beside
    # an aligned copy of each tensor took 2.0x
    assert peak < 1.2 * os.path.getsize(path)
    assert loaded[0][2] == dp.FLAG_FULL


def test_save_paper_model_streams_from_the_parameters(tmp_path):
    rng = np.random.default_rng(35)
    cfg = bb.paper_config()
    params, head_params = bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng)
    path = str(tmp_path / "paper.hwdm")
    # the parameters exist before tracing starts; joining a serialized copy
    # of them took 12.8 MiB
    assert peak_traced_bytes(lambda: dp.save_model(path, params, head_params)) < 1 << 20
    assert os.path.getsize(path) > sum(t.data.nbytes for t in T.leaves((params, head_params)))


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "model.hwdm"
    entries = {"w": np.ones(3, np.float32), "x" * 65536: np.ones(2, np.float32)}
    with pytest.raises(ContractError, match="tensor name too long"):
        dp.write_checkpoint(str(path), entries)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------- model bridge


def test_backbone_config_roundtrip():
    cfg = bb.BackboneConfig(image_size=(16, 8), patch_size=4, embed_dim=6,
                            num_heads=2, cnn_channels=(3, 5), gcn_dims=(7,),
                            fusion_dim=12, attention_reduction=3)
    assert dp.decode_backbone_config(dp.encode_backbone_config(cfg)) == cfg


@pytest.mark.parametrize("depth", [0, 2])
def test_backbone_config_depth_other_than_one_rejected(depth):
    # slot 5 is the ViT depth; the model has one attention stage
    vals = dp.encode_backbone_config(bb.desk_config())
    assert vals[5] == 1
    vals[5] = depth
    with pytest.raises(FormatError, match=f"ViT depth {depth}, expected 1"):
        dp.decode_backbone_config(vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_backbone_config_rejected(bad):
    params, _ = tiny_model()
    vals = dp.encode_backbone_config(params.config)
    vals[3] = bad
    with pytest.raises(FormatError, match="backbone config"):
        dp.decode_backbone_config(vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gan_config_rejected(bad):
    entries = dp.gan_entries(gn.init_gan(gn.GanConfig(
        latent_dim=3, class_count=2, image_size=(4, 4), base_channels=2,
        label_dim=2), np.random.default_rng(0)))
    entries["meta.gan"][0] = bad
    with pytest.raises(FormatError, match="gan config"):
        dp.gan_from_entries(entries)


@pytest.mark.parametrize("steps", [[], [1.0, 2.0]], ids=["empty", "two-values"])
def test_gan_steps_entry_must_hold_one_value(steps):
    entries = dp.gan_entries(gn.init_gan(gn.GanConfig(
        latent_dim=3, class_count=2, image_size=(4, 4), base_channels=2,
        label_dim=2), np.random.default_rng(0)))
    entries["meta.gan_steps"] = np.asarray(steps, dtype=np.float32)
    with pytest.raises(FormatError, match=f"meta.gan_steps holds {len(steps)} values"):
        dp.gan_from_entries(entries)


def test_model_save_load_bit_exact(tmp_path):
    params, head_params = tiny_model(seed=7)
    path = str(tmp_path / "full.hwdm")
    dp.save_model(path, params, head_params)
    loaded, loaded_heads, flags = dp.load_model(path)
    assert flags == dp.FLAG_FULL
    assert loaded.config == params.config
    for (name, orig), back in zip(
            named_leaves(bb.build_backbone, params.config, params)
            + named_leaves(hd.build_heads, params.config, head_params),
            T.leaves((loaded, loaded_heads)), strict=True):
        assert back.data.tobytes() == orig.data.tobytes(), name


def test_pretrain_only_checkpoint_has_no_heads(tmp_path):
    params, _ = tiny_model(seed=8)
    path = str(tmp_path / "pre.hwdm")
    dp.save_model(path, params)
    loaded, loaded_heads, flags = dp.load_model(path)
    assert flags == dp.FLAG_PRETRAIN
    assert loaded_heads is None
    for (name, orig), back in zip(named_leaves(bb.build_backbone, params.config, params),
                                  T.leaves(loaded), strict=True):
        assert back.data.tobytes() == orig.data.tobytes(), name


def test_model_missing_tensor_rejected():
    params, head_params = tiny_model(seed=9)
    entries = dp.model_entries(params, head_params)
    del entries["head.cls_w"]
    with pytest.raises(FormatError, match="head.cls_w"):
        dp.model_from_entries(entries)


def _all_tensors(params, head_params=None):
    """Every backbone and head tensor with its checkpoint name."""
    out = named_leaves(bb.build_backbone, params.config, params)
    if head_params is not None:
        out += named_leaves(hd.build_heads, params.config, head_params)
    return out


@pytest.mark.parametrize("kind", ["full", "pretrain-only", "int8"])
def test_loaded_model_is_saved_model(kind):
    cfg = bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                            num_heads=2, cnn_channels=(2,), gcn_dims=(4,),
                            fusion_dim=8)
    rng = np.random.default_rng(20)
    params = bb.init_backbone(cfg, rng)
    head_params = None if kind == "pretrain-only" else hd.init_heads(cfg, rng)
    entries = dp.model_entries(params, head_params)
    if kind == "int8":
        entries = dp.quantize_entries(entries)
    loaded, loaded_heads = dp.model_from_entries(entries)
    assert loaded.config == cfg
    assert (loaded_heads is None) == (head_params is None)
    saved, back = _all_tensors(params, head_params), _all_tensors(loaded, loaded_heads)
    assert [n for n, _ in saved] == [n for n, _ in back]
    for (name, orig), (_, t) in zip(saved, back):
        want = orig.data.astype(np.float32)
        if kind == "int8":
            want = dp.dequantize(entries[name])
        assert t.requires_grad, name
        assert t.data.dtype == np.float32, name
        assert t.data.tobytes() == want.tobytes(), name


def test_loaders_draw_no_random_model(monkeypatch):
    params, head_params = tiny_model(seed=21)
    model = dp.model_entries(params, head_params)
    gan = dp.gan_entries(gn.init_gan(gn.GanConfig(
        latent_dim=3, class_count=2, image_size=(4, 4), base_channels=2,
        label_dim=2), np.random.default_rng(22)))

    def refuse(*args, **kwargs):
        raise AssertionError("a loader drew a random model")

    for module, name in ((bb, "init_backbone"), (hd, "init_heads"), (gn, "init_gan")):
        monkeypatch.setattr(module, name, refuse)
    loaded, loaded_heads = dp.model_from_entries(model)
    assert loaded_heads.cls_w.data.tobytes() == head_params.cls_w.data.tobytes()
    assert dp.gan_entries(dp.gan_from_entries(gan)).keys() == gan.keys()


def test_init_backbone_bytes_are_pinned():
    # SHA-256 of the desk model drawn from seed 0: initialization draws and
    # their order are part of every seeded artifact
    rng = np.random.default_rng(0)
    cfg = bb.desk_config()
    blob = checkpoint_bytes(dp.model_entries(bb.init_backbone(cfg, rng),
                                             hd.init_heads(cfg, rng)))
    assert hashlib.sha256(blob).hexdigest() == (
        "166568b6f21c1a42344afa6f24d2734613e1ca682d8648774723b0f74cc4443d")
    blob = checkpoint_bytes(dp.gan_entries(
        gn.init_gan(gn.GanConfig(), np.random.default_rng(0))))
    assert hashlib.sha256(blob).hexdigest() == (
        "21c231e13061d6d5afcc92e355c4cc85053f66b4edd85ea46471ecb7d8efbd50")


def test_saved_files_are_pinned(tmp_path):
    # the streamed files carry the bytes test_init_backbone_bytes_are_pinned pins
    rng = np.random.default_rng(0)
    cfg = bb.desk_config()
    model, gan = tmp_path / "desk.hwdm", tmp_path / "gan.hwdm"
    dp.save_model(str(model), bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    assert hashlib.sha256(model.read_bytes()).hexdigest() == (
        "166568b6f21c1a42344afa6f24d2734613e1ca682d8648774723b0f74cc4443d")
    dp.save_gan(str(gan), gn.init_gan(gn.GanConfig(), np.random.default_rng(0)))
    blob = bytearray(gan.read_bytes())
    assert blob[6:8] == struct.pack("<H", dp.FLAG_GAN)
    blob[6:8] = struct.pack("<H", dp.FLAG_FULL)  # the flags the pinned bytes carry
    assert hashlib.sha256(blob).hexdigest() == (
        "21c231e13061d6d5afcc92e355c4cc85053f66b4edd85ea46471ecb7d8efbd50")


@pytest.mark.parametrize("index,value,first_bad", [
    (3, 2**30, "vit.0.0.w_q"),            # embed_dim
    (8, 2**30, "fusion.w"),               # fusion_dim
    (0, 2**20, "vit.e_pos"),              # image height: 2**34 patches
    (11, 2**30, "cnn.1.kernel")],         # second conv's channels
    ids=["embed_dim", "fusion_dim", "image_h", "cnn_channels"])
def test_corrupt_backbone_config_fails_before_allocating(index, value, first_bad):
    rng = np.random.default_rng(23)
    cfg = bb.desk_config()
    entries = dp.model_entries(bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng))
    entries["meta.backbone"][index] = value
    dp.decode_backbone_config(entries["meta.backbone"])  # a valid config

    def load():
        with pytest.raises(FormatError, match=rf"tensor {first_bad} has shape .*, expected"):
            dp.model_from_entries(entries)

    assert peak_traced_bytes(load) < 1 << 20


def test_corrupt_gan_config_fails_before_allocating():
    entries = dp.gan_entries(gn.init_gan(gn.GanConfig(
        latent_dim=3, class_count=2, image_size=(4, 4), base_channels=2,
        label_dim=2), np.random.default_rng(24)))
    entries["meta.gan"][0] = 2**30  # latent_dim

    def load():
        with pytest.raises(FormatError, match=r"tensor gan.g_fc_w has shape .*, expected"):
            dp.gan_from_entries(entries)

    assert peak_traced_bytes(load) < 1 << 20


def test_quantize_entries_skips_meta():
    params, head_params = tiny_model(seed=10)
    q = dp.quantize_entries(dp.model_entries(params, head_params))
    assert isinstance(q["meta.backbone"], np.ndarray)
    assert all(isinstance(v, dp.QuantizedTensor)
               for k, v in q.items() if not k.startswith("meta."))


# ---------------------------------------------------------------- inference


def test_quantized_forward_requires_flag(tmp_path):
    params, head_params = tiny_model(seed=11)
    path = str(tmp_path / "float.hwdm")
    dp.save_model(path, params, head_params)
    with pytest.raises(ContractError, match="quantized"):
        dp.quantized_forward(path, np.zeros((1, 3, 8, 8), dtype=np.float32))


def test_quantized_forward_prediction(tmp_path):
    params, head_params = tiny_model(seed=12)
    q = dp.quantize_entries(dp.model_entries(params, head_params))
    path = str(tmp_path / "quant.hwdm")
    dp.write_checkpoint(path, q, flags=dp.FLAG_FULL | dp.FLAG_QUANTIZED)
    rng = np.random.default_rng(13)
    image = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    pred = dp.quantized_forward(path, image)
    assert pred.class_probs.shape == (1, hd.NUM_CLASSES)
    assert abs(float(pred.class_probs.data[0].sum()) - 1.0) < 1e-5
    assert pred.seg_mask.shape == (1, hd.NUM_CLASSES, 8, 8)
    assert 0 <= pred.labels[0] < hd.NUM_CLASSES
    again = dp.quantized_forward(path, image)
    np.testing.assert_array_equal(pred.class_probs.data, again.class_probs.data)


def test_quantized_forward_close_to_float():
    params, head_params = tiny_model(seed=14)
    entries = dp.model_entries(params, head_params)
    q = dp.quantize_entries(entries)
    rng = np.random.default_rng(15)
    drift = 0.0
    for _ in range(5):
        image = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        fparams, fheads = dp.model_from_entries(entries)
        float_pred = hd.predict(fparams, fheads, T.const(image))
        q_pred = dp.quantized_forward((q, dp.FLAG_FULL | dp.FLAG_QUANTIZED), image)
        delta = np.abs(q_pred.class_probs.data - float_pred.class_probs.data).max()
        assert np.isfinite(delta)
        drift = max(drift, float(delta))
    assert drift < 0.15, drift
