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
    "tensor.attention":
        lambda: T.attention(T.zeros((4, 4)), PARAMS.vit.heads),
    "tensor.conv2d": lambda: T.conv2d(T.zeros((3, 8, 8)), T.zeros((4, 3, 3, 3))),
    "tensor.conv_transpose2d":
        lambda: T.conv_transpose2d(T.zeros((3, 4, 4)), T.zeros((3, 2, 2, 2))),
    "tensor.avg_pool2d": lambda: T.avg_pool2d(T.zeros((3, 8, 8))),
    "tensor.conv_relu_pool2d": lambda: T.conv_relu_pool2d(
        T.zeros((3, 8, 8)), T.zeros((4, 3, 3, 3)), T.zeros(4)),
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
    "tensor.default_dtype": "the float64 storage mode the finite-difference "
                            "gradient checks run in",
}


def _src_trees():
    """(module, AST) for each module of the package source."""
    for info in pkgutil.iter_modules(weedhybrid.__path__):
        path = os.path.join(os.path.dirname(weedhybrid.__file__), f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            yield info.name, ast.parse(fh.read())


def _src_references():
    """(module, name) pairs referenced anywhere in the package source."""
    refs = set()
    for module, tree in _src_trees():
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
                refs.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_public_function_has_a_caller():
    # every public top-level function a module defines, listed in its
    # __all__ or not
    refs = _src_references()
    allowed = set(_traced_functions()) | set(UNCALLED_PUBLIC)
    orphans = []
    for module in _modules():
        short = module.__name__.rpartition(".")[2]
        for name, fn in vars(module).items():
            if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                    and fn.__module__ == module.__name__
                    and (short, name) not in refs
                    and f"{short}.{name}" not in allowed):
                orphans.append(f"{short}.{name}")
    assert orphans == [], f"public functions with no caller in the package: {orphans}"
    stale = [n for n in UNCALLED_PUBLIC if tuple(n.split(".", 1)) in refs]
    assert stale == [], f"allowlisted functions that now have callers: {stale}"


def test_every_private_definition_has_a_reference():
    # a module-level private function or class nothing in the package names
    # is dead code (a helper left behind when its caller went)
    refs = _src_references()
    orphans = [f"{module}.{node.name}" for module, tree in _src_trees() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and (module, node.name) not in refs]
    assert orphans == [], f"private definitions nothing in the package references: {orphans}"


def _owned_nodes():
    """(module, top-level definition owning it or None, node) for every node
    of the package source."""
    for module, tree in _src_trees():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                yield module, owner, node


def _short_name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_one_step_and_one_divergence_rule():
    # train, pretrain and gan_train_step step only through
    # training.optimizer_step, and a NumericError becomes a DivergenceError
    # only in errors.diverges_as: a hand-written step or handler would be a
    # second copy of the rule to keep in line
    sites = {"Tape()": [], "adam_step()": [], "DivergenceError()": [],
             "except NumericError": []}
    for module, owner, node in _owned_nodes():
        if isinstance(node, ast.Call) and f"{_short_name(node.func)}()" in sites:
            sites[f"{_short_name(node.func)}()"].append(f"{module}.{owner}")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if {"NumericError", "ArithmeticError"} & {_short_name(c) for c in caught}:
                sites["except NumericError"].append(f"{module}.{owner}")
    assert sites == {"Tape()": ["training.optimizer_step"],
                     "adam_step()": ["training.optimizer_step"],
                     "DivergenceError()": ["errors.diverges_as"],
                     "except NumericError": ["errors.diverges_as"]}


def test_one_epoch_order():
    # train, pretrain and train_gan order their epochs only through
    # training.epoch_order; a trainer shuffling for itself would be another
    # copy of the epoch rule
    sites = sorted(f"{module}.{owner}" for module, owner, node in _owned_nodes()
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "permutation")
    assert sites == ["training.epoch_order", "training.stratified_folds"]


def test_one_scaling_site():
    # model values are scaled on use: by the staged-image view for train,
    # eval and infer, and by pretraining for its views; a float copy of a
    # whole set made anywhere else would be a second, unbounded path
    sites = sorted(f"{module}.{owner}" for module, owner, node in _owned_nodes()
                   if isinstance(node, ast.Call)
                   and _short_name(node.func) == "to_model_tensor")
    assert sites == ["imaging.StagedImages", "pretrain.pretrain"]


def test_text_is_read_only_through_read_text():
    # a text-mode open decodes as it reads, so a byte that is not UTF-8
    # raises UnicodeDecodeError, which no command turns into an exit code;
    # dataio.read_text reads bytes and raises DataError instead
    sites = []
    for module, owner, node in _owned_nodes():
        if isinstance(node, ast.Call) and _short_name(node.func) in ("open", "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            text = mode.value if isinstance(mode, ast.Constant) else "unknown r"
            if "b" not in text and ("r" in text or "+" in text):
                sites.append(f"{module}.{owner}")
    assert sites == []


def test_images_are_read_only_through_the_row_reader():
    # every command that reads a manifest's images reads them through
    # dataio.image_rows, so which images are refused and how a row becomes
    # pixels is decided once; masks and infer's one image are the others
    sites = sorted(f"{module}.{owner}" for module, owner, node in _owned_nodes()
                   if isinstance(node, ast.Call)
                   and _short_name(node.func) == "read_image")
    assert sites == ["cli.cmd_infer", "dataio.image_rows", "dataio.read_mask"]
