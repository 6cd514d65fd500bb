"""Synthetic dataset generator: textures, masks, growth, manifests."""

import hashlib
import os

import numpy as np
import pytest

import weedhybrid.dataio as dio
import weedhybrid.imaging as im
import weedhybrid.synthdata as sd
from oracles import smooth_noise_rolled
from weedhybrid.errors import ContractError


def test_class_vocabulary():
    assert sd.CLASS_NAMES == ("broadleaf", "grass", "soil", "soybean")
    assert sd.CLASS_NAMES == tuple(sorted(sd.CLASS_NAMES))
    assert sd.SOIL_ID == 2


def test_imbalance_counts_match_600_split():
    assert sd.IMBALANCE_COUNTS == {"broadleaf": 48, "grass": 138,
                                   "soil": 126, "soybean": 288}
    assert sum(sd.IMBALANCE_COUNTS.values()) == 600
    assert sd.IMBALANCE_COUNTS["soybean"] == round(0.48 * 600)
    assert sd.IMBALANCE_COUNTS["grass"] == round(0.23 * 600)
    assert sd.IMBALANCE_COUNTS["soil"] == round(0.21 * 600)
    assert sd.IMBALANCE_COUNTS["broadleaf"] == round(0.08 * 600)


@pytest.mark.parametrize("label", range(4))
def test_sample_shapes_and_mask_consistency(label):
    img, mask, growth = sd.generate_sample(label, (32, 32),
                                           np.random.default_rng([7, label]))
    assert img.shape == (32, 32, 3)
    assert mask.shape == (32, 32, 1)
    arr = mask[:, :, 0]
    foreground = arr != sd.SOIL_ID
    # every foreground pixel carries the sample's own class id
    assert set(np.unique(arr[foreground])) <= {label}
    assert growth == pytest.approx(foreground.mean())
    assert 0.0 <= growth <= 1.0


def test_soil_sample_is_pure_background():
    img, mask, growth = sd.generate_sample(sd.SOIL_ID, (24, 24),
                                           np.random.default_rng(8))
    assert growth == 0.0
    np.testing.assert_array_equal(mask, sd.SOIL_ID)


@pytest.mark.parametrize("label", [0, 1, 3])
def test_vegetation_classes_have_foreground(label):
    for trial in range(5):
        _, mask, growth = sd.generate_sample(label, (32, 32),
                                             np.random.default_rng([9, label, trial]))
        assert growth > 0.0, trial
        assert growth < 0.95, trial


def test_sample_deterministic():
    a = sd.generate_sample(1, (16, 16), np.random.default_rng(10))
    b = sd.generate_sample(1, (16, 16), np.random.default_rng(10))
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    assert a[2] == b[2]


def test_sample_rejects_bad_label_and_size():
    with pytest.raises(ContractError):
        sd.generate_sample(4, (16, 16), np.random.default_rng(0))
    with pytest.raises(ContractError):
        sd.generate_sample(0, (2, 2), np.random.default_rng(0))


@pytest.mark.parametrize("passes", [1, 2, 3])
@pytest.mark.parametrize("size", [(4, 4), (4, 7), (7, 4), (17, 23), (32, 32),
                                  (224, 224)])
def test_smooth_noise_matches_the_rolled_filter(size, passes):
    for seed in (0, 1, 29):
        got = sd._smooth_noise(np.random.default_rng(seed), size, passes)
        want = smooth_noise_rolled(np.random.default_rng(seed), size, passes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), seed


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_dataset_reproducible_byte_for_byte(tmp_path):
    counts = {"broadleaf": 2, "grass": 1, "soil": 3, "soybean": 2}
    sd.generate_dataset(str(tmp_path / "a"), counts, size=(16, 16), seed=4)
    sd.generate_dataset(str(tmp_path / "b"), counts, size=(16, 16), seed=4)
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert a == b
    assert len(a) == 8 * 2 + 1  # images + masks + manifest


def tree_sha256(root):
    digest = hashlib.sha256()
    for rel, data in sorted(dir_bytes(root).items()):
        digest.update(rel.encode() + b"\0" + data)
    return digest.hexdigest()


@pytest.mark.parametrize("size,seed,expected", [
    ((32, 32), 3, "2dd2f60a6b94ffe67e0e616b2c99020eebc3bed841863e63a5cc414e8cb548e4"),
    ((17, 23), 5, "2ca8073eb284abab846fa6f7654b33901374b2e0fa417783ad9b3fbd217c53c8"),
], ids=["32x32", "17x23"])
def test_dataset_bytes_are_pinned(tmp_path, size, seed, expected):
    # two samples of every class; any changed byte of an image, a mask or
    # the manifest changes the digest
    sd.generate_dataset(str(tmp_path), 2, size=size, seed=seed)
    assert tree_sha256(tmp_path) == expected


@pytest.mark.parametrize("counts,message", [
    ({"weed": 2}, "unknown class 'weed'"),
    ({7: 2}, "unknown class 7"),
    ({-1: 2}, "unknown class -1"),
    ({True: 2}, "unknown class True"),
    ({"soil": 2.5}, "the count of soil must be an integer, got 2.5"),
    ({"soil": True}, "the count of soil must be an integer, got True"),
    ({"soil": "2"}, "the count of soil must be an integer, got '2'"),
    ({"grass": -1}, r"must be >= 0 with a positive total, got \[0, -1, 0, 0\]"),
    ({"soil": 0}, r"must be >= 0 with a positive total, got \[0, 0, 0, 0\]"),
    ({"soil": 2, 2: 3}, "class soil is counted twice"),
], ids=["unknown-name", "index-past-end", "negative-index", "bool-key",
        "float-count", "bool-count", "text-count", "negative-count", "zero-total",
        "repeated-class"])
def test_bad_counts_raise_before_out_dir_exists(tmp_path, counts, message):
    out = tmp_path / "out"
    with pytest.raises(ContractError, match=message):
        sd.generate_dataset(str(out), counts, size=(8, 8))
    assert not out.exists()


def test_dataset_accepts_integer_indices_and_numpy_counts(tmp_path):
    manifest = sd.generate_dataset(str(tmp_path), {np.int64(1): np.int64(2), 3: 1},
                                   size=(8, 8))
    labels = [s.label_name for s in dio.read_manifest(manifest)]
    assert labels == ["grass", "grass", "soybean"]


def test_dataset_seed_changes_content(tmp_path):
    sd.generate_dataset(str(tmp_path / "a"), {"soil": 2}, size=(16, 16), seed=1)
    sd.generate_dataset(str(tmp_path / "b"), {"soil": 2}, size=(16, 16), seed=2)
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert a != b


def test_dataset_manifest_loads(tmp_path):
    manifest = sd.generate_dataset(str(tmp_path), {"grass": 3, "soybean": 1},
                                   size=(16, 16), seed=6)
    samples = dio.read_manifest(manifest)
    assert len(samples) == 4
    labels = [s.label_name for s in samples]
    assert labels.count("grass") == 3 and labels.count("soybean") == 1
    for s in samples:
        assert not s.synthetic
        assert s.mask is not None
        img = im.read_image(str(tmp_path / s.image))
        assert img.shape[:2] == (16, 16)


def test_dataset_integer_count_applies_to_all_classes(tmp_path):
    manifest = sd.generate_dataset(str(tmp_path), 2, size=(16, 16), seed=7)
    samples = dio.read_manifest(manifest)
    assert len(samples) == 8
    per = {name: 0 for name in sd.CLASS_NAMES}
    for s in samples:
        per[s.label_name] += 1
    assert all(v == 2 for v in per.values())
