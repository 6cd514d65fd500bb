"""Package-wide contracts: batch-only model entry points, resolvable public
names with callers, and the functions the benchmark's traced run times."""

import ast
import importlib
import json
import os
import pkgutil
import types

import numpy as np
import pytest

import weedhybrid
import weedhybrid.backbone as bb
import weedhybrid.deploy as dp
import weedhybrid.gan as gn
import weedhybrid.heads as hd
import weedhybrid.tensor as T
from weedhybrid.errors import DimensionError

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")

CFG = bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                        num_heads=1, cnn_channels=(4,), gcn_dims=(4,),
                        fusion_dim=8)
PARAMS = bb.init_backbone(CFG, np.random.default_rng(0))
HEADS = hd.init_heads(CFG, np.random.default_rng(1))
GAN = gn.init_gan(gn.GanConfig(latent_dim=6, class_count=3, image_size=(8, 8),
                               base_channels=4, label_dim=5),
                  np.random.default_rng(2))
QUANTIZED = (dp.quantize_entries(dp.model_entries(PARAMS, HEADS)),
             dp.FLAG_FULL | dp.FLAG_QUANTIZED)

# Each entry calls one batch-only function with the unbatched form of a
# valid input: only the leading batch axis is missing.
UNBATCHED = {
    "backbone.cnn_forward": lambda: bb.cnn_forward(T.zeros((3, 8, 8)), PARAMS),
    "backbone.patch_embed": lambda: bb.patch_embed(T.zeros((3, 8, 8)),
                                                   PARAMS.vit, CFG),
    "backbone.multi_head_self_attention":
        lambda: bb.multi_head_self_attention(T.zeros((4, 4)), PARAMS.vit),
    "backbone.vit_forward": lambda: bb.vit_forward(T.zeros((3, 8, 8)),
                                                   PARAMS.vit, CFG),
    "backbone.channel_attention":
        lambda: bb.channel_attention(T.zeros(CFG.concat_dim), PARAMS.attention),
    "backbone.fuse_final": lambda: bb.fuse_final(
        T.zeros(CFG.concat_dim), T.zeros(CFG.gcn_dims[-1]), PARAMS.fusion),
    "backbone.backbone_forward":
        lambda: bb.backbone_forward(T.zeros((3, 8, 8)), PARAMS),
    "heads.classify_head": lambda: hd.classify_head(T.zeros(8), HEADS),
    "heads.cross_entropy": lambda: hd.cross_entropy(T.Tensor([0.25] * 4), 1),
    "heads.segment_head": lambda: hd.segment_head(T.zeros((4, 4, 4)), HEADS),
    "heads.dice_loss": lambda: hd.dice_loss(T.zeros((4, 8, 8)),
                                            T.zeros((4, 8, 8))),
    "heads.growth_head": lambda: hd.growth_head(T.zeros(8), HEADS),
    "heads.predict": lambda: hd.predict(PARAMS, HEADS, T.zeros((3, 8, 8))),
    "deploy.quantized_forward":
        lambda: dp.quantized_forward(QUANTIZED, np.zeros((3, 8, 8), np.float32)),
    "gan.generate": lambda: gn.generate(T.zeros(6), 0, GAN),
    "gan.discriminate": lambda: gn.discriminate(T.zeros((3, 8, 8)), 0, GAN),
    "tensor.conv2d": lambda: T.conv2d(T.zeros((3, 8, 8)), T.zeros((4, 3, 3, 3))),
    "tensor.conv_transpose2d":
        lambda: T.conv_transpose2d(T.zeros((3, 4, 4)), T.zeros((3, 2, 2, 2))),
    "tensor.avg_pool2d": lambda: T.avg_pool2d(T.zeros((3, 8, 8))),
    "tensor.upsample_bilinear2d":
        lambda: T.upsample_bilinear2d(T.zeros((3, 4, 4)), (8, 8)),
}


@pytest.mark.parametrize("name", sorted(UNBATCHED))
def test_unbatched_input_raises_dimension_error(name):
    # DimensionError subclasses ValueError, so a bare ValueError or an
    # IndexError from unpacking a shape escapes this check and fails it.
    with pytest.raises(DimensionError):
        UNBATCHED[name]()


def _modules():
    return [importlib.import_module(f"weedhybrid.{m.name}")
            for m in pkgutil.iter_modules(weedhybrid.__path__)]


def test_every_all_entry_resolves():
    for module in _modules():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"


def _traced_functions():
    """module.function behind each timed per-layer metric of the benchmark."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = set()
    for metric in spec["per_layer"]:
        base, _, stat = metric["name"].rpartition(".")
        if stat in ("s", "self_s", "calls"):
            names.add(base)
    skip = ("cli.", "trace.")
    return sorted(n for n in names
                  if not n.startswith(skip) and n != "tensor.Tape.backward")


def test_traced_benchmark_functions_exist():
    names = _traced_functions()
    assert "heads.predict" in names and "deploy.quantized_forward" in names
    for name in names:
        module_name, fn_name = name.split(".", 1)
        module = importlib.import_module(f"weedhybrid.{module_name}")
        fn = getattr(module, fn_name, None)
        assert isinstance(fn, types.FunctionType), f"{name} is not a function"
        assert fn.__module__ == module.__name__, f"{name} is not defined there"
        assert not fn_name.startswith("_"), f"{name} is not public"


# Public functions nothing in src/weedhybrid calls, each with why it stays.
UNCALLED_PUBLIC = {
    "gan.discriminate": "the discriminator's probability D(x|y), counterpart "
                        "of gan.generate; training scores its logit directly "
                        "for a stable loss",
}


def _src_references():
    """(module, name) pairs referenced anywhere in the package source."""
    refs = set()
    for info in pkgutil.iter_modules(weedhybrid.__path__):
        path = os.path.join(os.path.dirname(weedhybrid.__file__), f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        aliases = {}  # local name -> sibling module, from "from . import x"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        refs.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add((info.name, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_public_function_has_a_caller():
    refs = _src_references()
    allowed = set(_traced_functions()) | set(UNCALLED_PUBLIC)
    orphans = []
    for module in _modules():
        short = module.__name__.rpartition(".")[2]
        for name in getattr(module, "__all__", ()):
            if (isinstance(getattr(module, name), types.FunctionType)
                    and (short, name) not in refs
                    and f"{short}.{name}" not in allowed):
                orphans.append(f"{short}.{name}")
    assert orphans == [], f"public functions with no caller in the package: {orphans}"
    stale = [n for n in UNCALLED_PUBLIC if tuple(n.split(".", 1)) in refs]
    assert stale == [], f"allowlisted functions that now have callers: {stale}"
