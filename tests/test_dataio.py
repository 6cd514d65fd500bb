"""Manifest parsing, validation errors, and dataset loading."""

import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weedhybrid.dataio as dio
import weedhybrid.imaging as im
import weedhybrid.synthdata as sd
from helpers import peak_traced_bytes
from weedhybrid.errors import DataError


def make_files(tmp_path, names, size=(8, 8), channels=3):
    rng = np.random.default_rng(0)
    for name in names:
        shape = size + (channels,)
        arr = rng.integers(0, 256, shape, dtype=np.uint8)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        im.write_image(str(path), arr)


def write_lines(tmp_path, lines):
    path = tmp_path / "manifest.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_roundtrip_preserves_records(tmp_path):
    make_files(tmp_path, ["a.ppm", "b.ppm"])
    make_files(tmp_path, ["a_mask.pgm"], channels=1)
    records = [
        dio.Sample(image="a.ppm", label=0, mask="a_mask.pgm", growth=0.25),
        dio.Sample(image="b.ppm", label=3, synthetic=True),
    ]
    path = str(tmp_path / "manifest.tsv")
    dio.write_manifest(path, records)
    back = dio.read_manifest(path)
    assert len(back) == 2
    assert (back[0].image, back[0].label, back[0].mask) == ("a.ppm", 0, "a_mask.pgm")
    assert back[0].growth == pytest.approx(0.25)
    assert not back[0].synthetic
    assert (back[1].image, back[1].label, back[1].mask) == ("b.ppm", 3, None)
    assert back[1].growth is None
    assert back[1].synthetic


def test_labels_are_written_by_name(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = str(tmp_path / "manifest.tsv")
    dio.write_manifest(path, [dio.Sample(image="x.ppm", label=sd.SOIL_ID, growth=0.5)])
    assert Path(path).read_text(encoding="utf-8").splitlines()[1] == \
        "x.ppm\tsoil\t-\t0.500000\t0"
    back = dio.read_manifest(path)
    assert back[0].label == sd.SOIL_ID
    assert back[0].label_name == "soil"


def test_comments_and_blank_lines_skipped(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = write_lines(tmp_path, [
        "# heading comment", "",
        "x.ppm\tsoil\t-\t-\t0",
        "   # indented comment"])
    assert len(dio.read_manifest(path)) == 1


@pytest.mark.parametrize("read", [dio.read_manifest, dio.read_stages])
def test_bytes_that_are_not_utf8_name_file_and_offset(tmp_path, read):
    make_files(tmp_path, ["x.ppm"])
    path = tmp_path / "manifest.tsv"
    path.write_bytes(b"# image\tlabel\nx.ppm\tso\xffil\t-\t-\t0\n")
    with pytest.raises(DataError) as info:
        read(str(path))
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xff at offset 22"


def test_crlf_and_cr_line_endings_read_as_newlines(tmp_path):
    make_files(tmp_path, ["x.ppm", "y.ppm"])
    path = tmp_path / "manifest.tsv"
    path.write_bytes(b"# h\r\nx.ppm\tsoil\t-\t-\t0\r\ry.ppm\tgrass\t-\t-\t1\r")
    samples = dio.read_manifest(str(path))
    assert [(s.image, s.label_name, s.synthetic, s.line) for s in samples] == [
        ("x.ppm", "soil", False, 2), ("y.ppm", "grass", True, 4)]


def test_wrong_field_count_names_line(tmp_path):
    path = write_lines(tmp_path, ["# header", "only\ttwo"])
    with pytest.raises(DataError, match=":2:"):
        dio.read_manifest(path)


def test_unknown_label_names_line(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = write_lines(tmp_path, ["x.ppm\tsoil\t-\t-\t0",
                                  "x.ppm\tdandelion\t-\t-\t0"])
    with pytest.raises(DataError, match=":2:.*dandelion"):
        dio.read_manifest(path)


def test_missing_image_names_line(tmp_path):
    path = write_lines(tmp_path, ["ghost.ppm\tsoil\t-\t-\t0"])
    with pytest.raises(DataError, match=":1:.*ghost.ppm"):
        dio.read_manifest(path)


def test_missing_mask_names_line(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = write_lines(tmp_path, ["x.ppm\tsoil\tghost.pgm\t-\t0"])
    with pytest.raises(DataError, match=":1:.*ghost.pgm"):
        dio.read_manifest(path)


def test_bad_growth_values(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = write_lines(tmp_path, ["x.ppm\tsoil\t-\tlots\t0"])
    with pytest.raises(DataError, match=":1:.*growth"):
        dio.read_manifest(path)
    path = write_lines(tmp_path, ["x.ppm\tsoil\t-\t1.5\t0"])
    with pytest.raises(DataError, match=":1:.*growth"):
        dio.read_manifest(path)


def test_bad_synthetic_flag(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = write_lines(tmp_path, ["x.ppm\tsoil\t-\t-\tmaybe"])
    with pytest.raises(DataError, match=":1:.*synthetic"):
        dio.read_manifest(path)


def test_duplicate_paths_warn_but_keep_both(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = write_lines(tmp_path, ["x.ppm\tsoil\t-\t-\t0",
                                  "x.ppm\tgrass\t-\t-\t0"])
    with pytest.warns(UserWarning, match="duplicate"):
        samples = dio.read_manifest(path)
    assert len(samples) == 2


def test_empty_manifest_warns(tmp_path):
    path = write_lines(tmp_path, ["# just a header"])
    with pytest.warns(UserWarning, match="empty"):
        assert dio.read_manifest(path) == []


# ---------------------------------------------------------------- stage records


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(size=st.tuples(st.integers(1, 4096), st.integers(1, 4096)),
       window=st.integers(0, 40), tile=st.integers(1, 64), clip=POSITIVE,
       gamma=POSITIVE, beta=st.floats(allow_nan=False, allow_infinity=False))
def test_stage_record_round_trips_exactly(size, window, tile, clip, gamma, beta):
    window = min(2 * window + 1, min(size) - 1 + min(size) % 2)  # odd, fits
    cfg = im.PreprocessConfig(target_size=size, median_window=window,
                              clahe_tile=tile, clahe_clip=clip, gamma=gamma,
                              beta=beta)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "manifest.tsv")
        dio.write_staged_manifest(path, [], cfg)
        record = dio.read_stages(path)
        assert dio.check_stages(path, cfg)
    assert list(record) == ["target_size", "median_window", "clahe_tile",
                            "clahe_clip", "gamma", "beta"]
    assert record["target_size"] == size
    assert (record["median_window"], record["clahe_tile"]) == (window, tile)
    for key, value in (("clahe_clip", clip), ("gamma", gamma), ("beta", beta)):
        assert record[key].hex() == value.hex(), key


RECORD = ("# preprocessed target_size=8x8 median_window=1 clahe_tile=4 "
          "clahe_clip=2.0 gamma=1.0 beta=0.0")


@pytest.mark.parametrize("lines,message", [
    ([RECORD + " sharpen=2"], ":1: unknown stage record field 'sharpen=2'"),
    ([RECORD + " gamma"], ":1: unknown stage record field 'gamma'"),
    ([RECORD.replace(" beta=0.0", "")], ":1: stage record is missing beta"),
    ([RECORD.replace("gamma=1.0", "gamma=abc")],
     ":1: bad value for stage gamma: 'abc'"),
    ([RECORD.replace("gamma=1.0", "gamma=nan")],
     ":1: bad value for stage gamma: 'nan'"),
    ([RECORD.replace("median_window=1", "median_window=1.0")],
     ":1: bad value for stage median_window: '1.0'"),
    ([RECORD.replace("8x8", "8")], ":1: bad value for stage target_size: '8'"),
    ([RECORD.replace("8x8", "0x8")], ":1: bad value for stage target_size: '0x8'"),
    ([RECORD.replace("8x8", "8x8x3")], ":1: bad value for stage target_size: '8x8x3'"),
    ([RECORD + " beta=1.0"], ":1: stage beta is recorded twice"),
    ([RECORD, "# image\tlabel", RECORD],
     ":3: a second stage record (the first is on line 1)"),
], ids=["unknown-key", "no-value", "missing-key", "non-numeric", "nan",
        "float-for-int", "one-side", "zero-side", "three-sides", "repeated-key",
        "second-record"])
def test_malformed_stage_record_names_the_line(tmp_path, lines, message):
    path = write_lines(tmp_path, lines)
    with pytest.raises(DataError) as info:
        dio.read_stages(path)
    assert str(info.value) == path + message


def test_comments_are_records_only_under_their_marker(tmp_path):
    path = write_lines(tmp_path, ["# not preprocessed", "# image\tlabel",
                                  "#preprocessed-ish files"])
    assert dio.read_stages(path) is None
    assert not dio.check_stages(path, small_cfg())


@pytest.mark.parametrize("change,message", [
    (dict(gamma=1.5), "the run's gamma 1.5 disagrees with the recorded gamma 1.0"),
    (dict(target_size=(16, 8)),
     "the run's target_size 16x8 disagrees with the recorded target_size 8x8"),
    (dict(median_window=3), "the run's median_window 3 disagrees with the "
                            "recorded median_window 1")])
def test_check_stages_names_the_disagreeing_key(tmp_path, change, message):
    path = write_lines(tmp_path, [RECORD])
    assert dio.check_stages(path, small_cfg())
    # normalize is applied on use, so it is not a recorded stage
    assert dio.check_stages(path, dataclasses.replace(small_cfg(), normalize=False))
    with pytest.raises(DataError) as info:
        dio.check_stages(path, dataclasses.replace(small_cfg(), **change))
    assert str(info.value) == f"{path}: {message}"


# ---------------------------------------------------------------- loading


def small_cfg():
    return im.PreprocessConfig(target_size=(8, 8), median_window=1,
                               clahe_tile=4, clahe_clip=2.0)


def test_load_dataset_from_generated(tmp_path):
    manifest = sd.generate_dataset(str(tmp_path), {"soil": 2, "grass": 2},
                                   size=(8, 8), seed=3)
    data, samples = dio.load_dataset(manifest, small_cfg())
    assert data.images.shape == (4, 3, 8, 8) and len(data.images) == 4
    assert data.images[[0, 2]].dtype == np.float32
    assert data.images[[0, 2]].shape == (2, 3, 8, 8)
    assert sorted(data.labels.tolist()) == [1, 1, 2, 2]
    assert data.masks.shape == (4, 8, 8)
    assert np.all((0 <= data.growth) & (data.growth <= 1))
    assert len(samples) == 4


def test_load_dataset_holds_masks_as_uint8(tmp_path):
    # int64 masks held eight bytes per pixel where a class id needs one:
    # 131 KB of the 341 KB that 16 rows at 32 px held
    manifest = sd.generate_dataset(str(tmp_path), {"soil": 8, "grass": 8},
                                   size=(32, 32), seed=3)
    loaded = []
    held = peak_traced_bytes(
        lambda: loaded.append(dio.load_dataset(manifest, im.PreprocessConfig(
            target_size=(32, 32)))), held=True)
    data, samples = loaded[0]
    assert data.masks.dtype == np.uint8
    assert dio.read_mask(manifest, samples[0], (32, 32)).dtype == np.uint8
    assert held < 4 * np.prod(data.images.shape) + 4 * data.masks.size


def test_load_dataset_holds_paper_rows_as_uint8(tmp_path):
    # float32 model values held 652 KB per 224-px row; one uint8 stack,
    # scaled per batch, holds the image and mask bytes, about 200 KB
    manifest = sd.generate_dataset(str(tmp_path), {"soil": 2, "grass": 2},
                                   size=(224, 224), seed=3)
    loaded = []
    held = peak_traced_bytes(
        lambda: loaded.append(dio.load_dataset(manifest, im.PreprocessConfig())),
        held=True)
    data, _ = loaded[0]
    assert held <= 1.25 * (np.prod(data.images.shape) + data.masks.nbytes)


def test_load_dataset_checks_recorded_image_sizes(tmp_path):
    make_files(tmp_path, ["a.ppm"])
    make_files(tmp_path, ["b.ppm"], size=(16, 16))
    im.write_image(str(tmp_path / "m.pgm"), np.zeros((8, 8), dtype=np.uint8))
    path = write_lines(tmp_path, [RECORD, "a.ppm\tsoil\tm.pgm\t-\t0",
                                  "b.ppm\tsoil\tm.pgm\t-\t0"])
    with pytest.raises(DataError) as info:
        dio.load_dataset(path, small_cfg())
    assert str(info.value) == (f"{path}:3: image b.ppm is 16x16, not the "
                               f"recorded target size 8x8")


def test_load_dataset_growth_fallback_from_mask(tmp_path):
    make_files(tmp_path, ["img.ppm"])
    mask = np.full((8, 8), sd.SOIL_ID, dtype=np.uint8)
    mask[:4, :] = 1  # top half grass
    im.write_image(str(tmp_path / "m.pgm"), mask)
    path = write_lines(tmp_path, ["img.ppm\tgrass\tm.pgm\t-\t0"])
    data, _ = dio.load_dataset(path, small_cfg())
    assert data.growth[0] == pytest.approx(0.5)


def test_load_dataset_requires_masks(tmp_path):
    make_files(tmp_path, ["img.ppm"])
    path = write_lines(tmp_path, ["img.ppm\tgrass\t-\t-\t0"])
    with pytest.raises(DataError, match=":1:.*mask"):
        dio.load_dataset(path, small_cfg())


def test_load_dataset_reports_the_first_bad_row(tmp_path):
    # the mask-less first row fails before the grey second row is seen,
    # and with a valid first row the grey second row fails
    make_files(tmp_path, ["a.ppm"])
    make_files(tmp_path, ["g.pgm", "m.pgm"], channels=1)
    im.write_image(str(tmp_path / "soil.pgm"), np.zeros((8, 8), dtype=np.uint8))
    grey = "g.pgm\tgrass\tm.pgm\t-\t0"
    path = write_lines(tmp_path, ["a.ppm\tgrass\t-\t-\t0", grey])
    with pytest.raises(DataError) as info:
        dio.load_dataset(path, small_cfg())
    assert str(info.value) == (f"{path}:1: sample has no mask (required by "
                               f"train and eval): a.ppm")
    path = write_lines(tmp_path, ["a.ppm\tgrass\tsoil.pgm\t-\t0", grey])
    with pytest.raises(DataError) as info:
        dio.load_dataset(path, small_cfg())
    assert str(info.value) == (f"{path}:2: expected a color image, got 1 "
                               f"channel(s): g.pgm")


def test_a_row_without_a_mask_fails_before_any_image_is_read(tmp_path):
    # a missing mask is a property of the manifest, so train and eval refuse
    # it before reading, or preprocessing, the rows above it
    make_files(tmp_path, ["g.pgm", "m.pgm"], channels=1)
    make_files(tmp_path, ["a.ppm"])
    path = write_lines(tmp_path, ["g.pgm\tgrass\tm.pgm\t-\t0",
                                  "a.ppm\tgrass\t-\t-\t0"])
    with pytest.raises(DataError) as info:
        dio.load_dataset(path, small_cfg())
    assert str(info.value) == (f"{path}:2: sample has no mask (required by "
                               f"train and eval): a.ppm")


def test_load_dataset_rejects_out_of_vocab_mask(tmp_path):
    make_files(tmp_path, ["img.ppm"])
    mask = np.full((8, 8), 9, dtype=np.uint8)
    im.write_image(str(tmp_path / "m.pgm"), mask)
    path = write_lines(tmp_path, ["img.ppm\tgrass\tm.pgm\t-\t0"])
    with pytest.raises(DataError, match=":1:.*mask value"):
        dio.load_dataset(path, small_cfg())


def test_mask_nearest_resize_preserves_ids(tmp_path):
    make_files(tmp_path, ["img.ppm"], size=(16, 16))
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[:, 8:] = 3
    im.write_image(str(tmp_path / "m.pgm"), mask)
    path = write_lines(tmp_path, ["img.ppm\tbroadleaf\tm.pgm\t-\t0"])
    data, _ = dio.load_dataset(path, small_cfg())
    assert set(np.unique(data.masks[0])) == {0, 3}
    np.testing.assert_array_equal(data.masks[0][:, :4], 0)
    np.testing.assert_array_equal(data.masks[0][:, 4:], 3)


@pytest.mark.parametrize("size", [(12, 10), (6, 5), (24, 17)])
def test_read_mask_resamples_only_to_another_size(tmp_path, size):
    mask = np.random.default_rng(6).integers(0, 4, (12, 10), dtype=np.uint8)
    make_files(tmp_path, ["img.ppm"], size=(12, 10))
    im.write_image(str(tmp_path / "m.pgm"), mask[:, :, None])
    path = write_lines(tmp_path, ["img.ppm\tbroadleaf\tm.pgm\t-\t0"])
    got = dio.read_mask(path, dio.read_manifest(path)[0], size)
    want = mask if size == mask.shape else dio._resize_mask_nearest(mask, size)
    assert got.shape == size and got.dtype == np.uint8
    assert got.tobytes() == want.tobytes()


def test_resize_mask_identity_when_same_size():
    rng = np.random.default_rng(5)
    mask = rng.integers(0, 4, (8, 8))
    np.testing.assert_array_equal(dio._resize_mask_nearest(mask, (8, 8)), mask)
