"""Key = value run configuration: parsing, validation, sub-config builders."""

import dataclasses
import os
import re

import pytest

import weedhybrid.backbone as bb
import weedhybrid.config as cf
from weedhybrid.errors import DataError

DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "data-formats.md")

# every key at a valid value other than its default -> the field's value
NON_DEFAULT = {
    "seed": ("5", 5), "preset": ("paper", "paper"), "folds.k": ("3", 3),
    "preprocess.median_window": ("5", 5), "preprocess.clahe_tile": ("4", 4),
    "preprocess.clahe_clip": ("3.0", 3.0), "preprocess.gamma": ("1.5", 1.5),
    "preprocess.beta": ("0.1", 0.1), "preprocess.normalize": ("false", False),
    "loss.w_cls": ("0.6", 0.6), "loss.w_seg": ("0.4", 0.4),
    "loss.w_growth": ("0.1", 0.1), "optimizer.lr": ("0.01", 0.01),
    "optimizer.epochs": ("3", 3), "optimizer.batch": ("4", 4),
    "gan.latent_dim": ("8", 8), "gan.epochs": ("2", 2), "gan.lr": ("0.001", 0.001),
    "gan.batch": ("4", 4), "gan.base_channels": ("8", 8),
    "gan.image_size": ("16", (16, 16)), "ssl.temperature": ("0.2", 0.2),
    "ssl.projection_dim": ("8", 8), "ssl.epochs": ("2", 2), "ssl.lr": ("0.01", 0.01),
    "ssl.batch_pairs": ("4", 4),
}


def test_defaults():
    cfg = cf.RunConfig()
    assert cfg.seed == 0
    assert cfg.preset == "desk"
    assert cfg.train_config().lr == pytest.approx(2e-3)
    assert cfg.loss_weights().alpha == pytest.approx(0.5)
    assert cfg.loss_weights().beta == pytest.approx(0.3)
    assert cfg.loss_weights().gamma == pytest.approx(0.2)
    assert cfg.gan_config().epochs == 50
    assert cfg.contrastive_config().temperature == pytest.approx(0.5)
    assert cfg.folds_k == 5


def test_parse_overrides():
    cfg = cf.parse_config("""
# a comment
seed = 9
preset = paper

optimizer.lr = 0.0001
gan.epochs = 7
ssl.batch_pairs = 3
preprocess.normalize = false
""")
    assert cfg.seed == 9
    assert cfg.preset == "paper"
    assert cfg.train_config().lr == pytest.approx(1e-4)
    assert cfg.gan_config().epochs == 7
    assert cfg.contrastive_config().batch_pairs == 3
    assert cfg.preprocess_config().normalize is False


def test_unknown_key_names_line():
    with pytest.raises(DataError, match=":3:.*mystery"):
        cf.parse_config("seed = 1\n\nmystery.knob = 5\n")


def test_duplicate_key_names_both_lines():
    with pytest.raises(DataError, match=":4:.*line 2"):
        cf.parse_config("# x\nseed = 1\n# y\nseed = 2\n")


def test_bad_value_names_line():
    with pytest.raises(DataError, match=":1:.*optimizer.lr"):
        cf.parse_config("optimizer.lr = fast\n")
    with pytest.raises(DataError, match=":2:"):
        cf.parse_config("seed = 0\npreset = huge\n")


def test_missing_equals_names_line():
    with pytest.raises(DataError, match=":2:"):
        cf.parse_config("seed = 1\njust some words\n")


def test_constraint_violation_is_attributed():
    # 30 is not a multiple of 4, which the GAN generator needs
    with pytest.raises(DataError, match=":1:.*gan"):
        cf.parse_config("gan.image_size = 30\n")
    with pytest.raises(DataError, match="ssl"):
        cf.parse_config("ssl.temperature = -1\n")
    with pytest.raises(DataError, match="folds.k"):
        cf.parse_config("folds.k = 1\n")
    with pytest.raises(DataError, match="loss"):
        cf.parse_config("loss.w_cls = -0.5\n")


def test_violation_names_the_failing_key_line():
    # epochs = 0 breaks a constraint on its own: its line, not the
    # section's first (the batch key on line 2)
    with pytest.raises(DataError, match=r"^<config>:3: invalid optimizer.*epochs"):
        cf.parse_config("seed = 1\noptimizer.batch = 4\noptimizer.epochs = 0\n")
    with pytest.raises(DataError, match=r"^<config>:3: invalid gan.*base_channels"):
        cf.parse_config("seed = 1\ngan.epochs = 3\ngan.base_channels = 0\n")
    # a 33-px window is too wide for the document's desk preset (32 px)
    with pytest.raises(DataError, match=r"^<config>:4: invalid preprocess"):
        cf.parse_config("preset = desk\npreprocess.gamma = 2\n\n"
                        "preprocess.median_window = 33\n")


def test_cross_field_contradiction_names_the_section_line():
    # each weight may be 0 alone; all three at 0 leave no loss to train
    with pytest.raises(DataError, match=r"^<config>:2: invalid loss.*positive"):
        cf.parse_config("seed = 1\nloss.w_cls = 0\nloss.w_seg = 0\nloss.w_growth = 0\n")


@pytest.mark.parametrize("line", ["loss.w_cls = nan", "preprocess.gamma = inf",
                                  "ssl.temperature = -inf", "optimizer.lr = 0",
                                  "gan.lr = -1", "ssl.lr = nan"])
def test_non_finite_and_non_positive_rates_name_their_line(line):
    key = line.partition(" ")[0]
    with pytest.raises(DataError, match=rf"^<config>:2: bad value for {key}"):
        cf.parse_config(f"seed = 1\n{line}\n")


def test_builders_carry_values():
    cfg = cf.parse_config("optimizer.epochs = 11\nloss.w_seg = 0.4\nseed = 2\n")
    tc = cfg.train_config()
    assert tc.epochs == 11
    assert tc.seed == 2
    assert tc.weights.beta == pytest.approx(0.4)
    assert tc.backbone == bb.desk_config()
    gc = cfg.gan_config()
    assert gc.image_size == (32, 32)
    cc = cfg.contrastive_config()
    assert cc.temperature == pytest.approx(0.5)


def test_preset_switches_backbone_and_preprocess():
    desk = cf.parse_config("preset = desk\n")
    paper = cf.parse_config("preset = paper\n")
    assert desk.backbone_config() == bb.desk_config()
    assert paper.backbone_config() == bb.paper_config()
    assert desk.preprocess_config().target_size == tuple(bb.desk_config().image_size)
    assert paper.preprocess_config().target_size == (224, 224)


def test_load_config_names_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="run.conf:1"):
        cf.load_config(str(path))
    path.write_text("seed = 3\n", encoding="utf-8")
    assert cf.load_config(str(path)).seed == 3


def test_load_config_names_the_first_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.conf"
    path.write_bytes("seed = 3\n# caf\u00e9 \n".encode() + b"\xc3(\n")
    with pytest.raises(DataError) as info:
        cf.load_config(str(path))
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xc3 at offset 18"


def test_every_key_names_a_field_of_its_section_config():
    assert set(NON_DEFAULT) == set(cf._KEYS)
    default = cf.RunConfig()
    for key, (section, name, _) in cf._KEYS.items():
        built = default if section is None else cf._BUILDERS[section](default)
        assert name in {f.name for f in dataclasses.fields(built)}, key


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_changes_exactly_its_field(key):
    section, name, _ = cf._KEYS[key]
    text, value = NON_DEFAULT[key]
    build = (lambda cfg: cfg) if section is None else cf._BUILDERS[section]
    before = dataclasses.asdict(build(cf.RunConfig()))
    after = dataclasses.asdict(build(cf.parse_config(f"{key} = {text}\n")))
    assert after[name] == value
    assert {f for f in before if before[f] != after[f]} == {name}


def test_a_document_setting_every_key_reaches_every_field():
    cfg = cf.parse_config("".join(f"{key} = {text}\n"
                                  for key, (text, _) in NON_DEFAULT.items()))
    for key, (section, name, _) in cf._KEYS.items():
        built = cfg if section is None else cf._BUILDERS[section](cfg)
        assert getattr(built, name) == NON_DEFAULT[key][1], key


def test_documented_keys_match_the_table():
    with open(DOC, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    listing = text.split("`weedhybrid/config.py`:")[1].split("Model geometry")[0]
    documented = set()
    for item in re.findall(r"`([^`]+)`", listing):
        grouped = re.fullmatch(r"(\w+)\.\{(.*)\}", item)
        documented |= ({f"{grouped[1]}.{name.strip()}" for name in grouped[2].split(",")}
                       if grouped else {item})
    assert documented == set(cf._KEYS)
