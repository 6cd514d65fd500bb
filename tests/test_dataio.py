"""Manifest parsing, validation errors, and dataset loading."""

import numpy as np
import pytest

import weedhybrid.dataio as dio
import weedhybrid.imaging as im
import weedhybrid.synthdata as sd
from weedhybrid.errors import DataError


def make_files(tmp_path, names, size=(8, 8), channels=3):
    rng = np.random.default_rng(0)
    for name in names:
        shape = size + (channels,)
        arr = rng.integers(0, 256, shape, dtype=np.uint8)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        im.write_image(str(path), im.ImageU8.from_array(arr))


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


def test_tuple_records_and_label_names(tmp_path):
    make_files(tmp_path, ["x.ppm"])
    path = str(tmp_path / "manifest.tsv")
    dio.write_manifest(path, [("x.ppm", "soil", None, 0.5, False)])
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


# ---------------------------------------------------------------- loading


def small_cfg():
    return im.PreprocessConfig(target_size=(8, 8), median_window=1,
                               clahe_tile=4, clahe_clip=2.0)


def test_load_dataset_from_generated(tmp_path):
    manifest = sd.generate_dataset(str(tmp_path), {"soil": 2, "grass": 2},
                                   size=(8, 8), seed=3)
    data, samples = dio.load_dataset(manifest, small_cfg())
    assert data.images.shape == (4, 3, 8, 8)
    assert data.images.dtype == np.float32
    assert sorted(data.labels.tolist()) == [1, 1, 2, 2]
    assert data.masks.shape == (4, 8, 8)
    assert np.all((0 <= data.growth) & (data.growth <= 1))
    assert len(samples) == 4


def test_load_dataset_growth_fallback_from_mask(tmp_path):
    make_files(tmp_path, ["img.ppm"])
    mask = np.full((8, 8), sd.SOIL_ID, dtype=np.uint8)
    mask[:4, :] = 1  # top half grass
    im.write_image(str(tmp_path / "m.pgm"), im.ImageU8.from_array(mask))
    path = write_lines(tmp_path, ["img.ppm\tgrass\tm.pgm\t-\t0"])
    data, _ = dio.load_dataset(path, small_cfg())
    assert data.growth[0] == pytest.approx(0.5)


def test_load_dataset_requires_masks(tmp_path):
    make_files(tmp_path, ["img.ppm"])
    path = write_lines(tmp_path, ["img.ppm\tgrass\t-\t-\t0"])
    with pytest.raises(DataError, match=":1:.*mask"):
        dio.load_dataset(path, small_cfg())


def test_load_dataset_reports_the_first_bad_row(tmp_path):
    # every row is checked in order before any image is preprocessed, so
    # the mask-less first row fails before the grey second row is seen, and
    # with a valid first row the grey second row fails
    make_files(tmp_path, ["a.ppm"])
    make_files(tmp_path, ["g.pgm", "m.pgm"], channels=1)
    im.write_image(str(tmp_path / "soil.pgm"),
                   im.ImageU8.from_array(np.zeros((8, 8), dtype=np.uint8)))
    grey = "g.pgm\tgrass\tm.pgm\t-\t0"
    path = write_lines(tmp_path, ["a.ppm\tgrass\t-\t-\t0", grey])
    with pytest.raises(DataError) as info:
        dio.load_dataset(path, small_cfg())
    assert str(info.value) == (f"{path}:1: sample has no mask (required for "
                               f"training): a.ppm")
    path = write_lines(tmp_path, ["a.ppm\tgrass\tsoil.pgm\t-\t0", grey])
    with pytest.raises(DataError) as info:
        dio.load_dataset(path, small_cfg())
    assert str(info.value) == (f"{path}:2: expected a color image, got 1 "
                               f"channel(s): g.pgm")


def test_load_dataset_rejects_out_of_vocab_mask(tmp_path):
    make_files(tmp_path, ["img.ppm"])
    mask = np.full((8, 8), 9, dtype=np.uint8)
    im.write_image(str(tmp_path / "m.pgm"), im.ImageU8.from_array(mask))
    path = write_lines(tmp_path, ["img.ppm\tgrass\tm.pgm\t-\t0"])
    with pytest.raises(DataError, match=":1:.*mask value"):
        dio.load_dataset(path, small_cfg())


def test_mask_nearest_resize_preserves_ids(tmp_path):
    make_files(tmp_path, ["img.ppm"], size=(16, 16))
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[:, 8:] = 3
    im.write_image(str(tmp_path / "m.pgm"), im.ImageU8.from_array(mask))
    path = write_lines(tmp_path, ["img.ppm\tbroadleaf\tm.pgm\t-\t0"])
    data, _ = dio.load_dataset(path, small_cfg())
    assert set(np.unique(data.masks[0])) == {0, 3}
    np.testing.assert_array_equal(data.masks[0][:, :4], 0)
    np.testing.assert_array_equal(data.masks[0][:, 4:], 3)


def test_resize_mask_identity_when_same_size():
    rng = np.random.default_rng(5)
    mask = rng.integers(0, 4, (8, 8))
    np.testing.assert_array_equal(dio._resize_mask_nearest(mask, (8, 8)), mask)
