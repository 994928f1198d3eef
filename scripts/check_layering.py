#!/usr/bin/env python
"""Import-direction lint for the layered architecture.

The stack (see docs/ARCHITECTURE.md) is, bottom to top::

    faults / obs / pipeline-leaves / store
        →  nn / city / graph / boosting / data / metrics
        →  resilience
        →  core / baselines  →  pipeline
        →  experiments | serve   (siblings, no cross-import)

Rules enforced (each import must point *down* the stack):

1. ``repro.pipeline.seeding``, ``repro.pipeline.forecast`` and
   ``repro.faults`` are dependency-free leaves: they import no other
   ``repro`` module. They are the sanctioned exceptions that let every
   layer share the central RNG policy, the forecast protocol and the
   fault-injection hooks without an import cycle.
2. The substrate layers (``nn``, ``obs``, ``city``, ``graph``,
   ``boosting``, ``data``, ``metrics``) must not import ``resilience``,
   ``core``, ``baselines``, ``experiments`` or any non-leaf ``pipeline``
   module.
3. ``resilience`` sits just above the substrate: it may import ``nn``,
   ``obs``, ``repro.faults`` and the pipeline leaves, but never
   ``core``/``baselines``, non-leaf ``pipeline`` modules,
   ``experiments`` or ``serve`` (the pipeline builds *on* recovery, not
   the other way around).
4. The model layers (``core``, ``baselines``) must not import
   ``experiments`` or non-leaf ``pipeline`` modules.
5. ``pipeline`` must not import ``experiments``.
6. ``experiments`` must not import ``baselines`` or ``core``: every model
   is constructed through the pipeline registry + RunSpec.
7. ``serve`` sits beside ``experiments`` at the top of the stack: it may
   import ``pipeline``, ``obs`` and the substrate, but never
   ``experiments`` — and, like experiments, never ``core``/``baselines``
   directly (models come from the registry). ``experiments`` must not
   import ``serve`` either: offline and online stay decoupled.
8. ``repro.obs.drift`` is a dependency-free leaf like ``repro.faults``:
   pure detector math (stdlib only), so any layer — including a future
   online fine-tune trigger — can score drift without pulling in the rest
   of ``obs``. The runlog/metrics wiring lives in ``repro.serve.monitor``.
9. ``serve`` must not import ``repro.obs.report``: report is the offline
   run-log renderer; the online path exposes state through
   ``repro.obs.serve_metrics`` instead.
10. ``repro.nn.fusion`` is a pure executor below the model layers: it may
    import only ``repro.nn.ops``, ``repro.nn.engine`` and
    ``repro.nn.tensor``. Fused kernels replay op chains the models build;
    if fusion ever imported a layer or a model, the "bit-equivalent
    replacement for an existing subgraph" contract would become circular.
11. ``repro.store`` is the self-contained window/feature-store leaf
    package: its modules may import only the stdlib, numpy and each other
    — any layer may build on the store, the store builds on nothing. And
    window slicing *routes through it*: the stride-trick primitives
    (``sliding_window_view`` / ``as_strided``) are banned outside
    ``repro/store/``, and ``repro.data.windows`` (the eager compat shim)
    must import the store rather than re-deriving window math.
12. ``repro.serve.gateway`` is the HTTP edge: it speaks stdlib on one side
    and ``repro.serve`` on the other. Its ``repro`` imports must all live
    under ``repro.serve`` (observability surfaces are re-exported through
    ``repro.serve.shard``) and its external imports must be stdlib — not
    even numpy, so the wire format stays plain JSON lists. ``serve.shard``
    itself is bound by the ordinary serve rules (rule 7): never
    ``experiments``, never ``core``/``baselines``.
13. ``repro.serve.adapt`` (the online fine-tune loop) reaches training
    machinery only through two defined seams: its ``pipeline`` imports are
    restricted to ``repro.pipeline.loading`` / ``repro.pipeline.spec``
    (models are rebuilt and warm-started exactly the way the serving
    loader does — never via the runner or the registry directly), and its
    recovery imports to the ``repro.resilience`` package surface. This
    keeps the adaptation loop swappable against the offline funnel: both
    train through the same recovery policy and build through the same
    loading path.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src", "repro")

PIPELINE_LEAVES = {"repro.pipeline.seeding", "repro.pipeline.forecast"}
# Dependency-free leaf *modules* directly under repro (importable from any
# layer; themselves import no repro code).
ROOT_LEAVES = {"repro.faults"}
# Dependency-free leaves nested inside a substrate package (rule 8).
NESTED_LEAVES = {"repro.obs.drift"}
SUBSTRATE = {"nn", "obs", "city", "graph", "boosting", "data", "metrics"}
MODEL_LAYERS = {"core", "baselines"}
# Rule 10: the fused-kernel executor may touch only the op/engine/tensor
# surfaces of its own package.
NN_FUSION_ALLOWED = {"repro.nn.ops", "repro.nn.engine", "repro.nn.tensor"}
# Rule 11: the window/feature store is a leaf package (stdlib + numpy only)
# and the only owner of the stride-trick primitives.
STORE_EXTERNAL_ALLOWED = {"numpy", "__future__"}
STRIDE_TRICK_NAMES = {"sliding_window_view", "as_strided"}
# Rule 12: the HTTP gateway is stdlib + repro.serve only.
GATEWAY_MODULE = "repro.serve.gateway"
# Rule 13: the online-adaptation loop touches training machinery only
# through the loading/spec and resilience-package seams.
ADAPT_MODULE = "repro.serve.adapt"
ADAPT_PIPELINE_ALLOWED = {"repro.pipeline.loading", "repro.pipeline.spec"}
ADAPT_RESILIENCE_ALLOWED = {"repro.resilience"}


def _module_name(path: str, base: str) -> str:
    relative = os.path.relpath(path, base)
    name = relative[: -len(".py")].replace(os.sep, ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _imported_modules(path: str):
    """Absolute ``repro.*`` module names a file imports.

    ``from repro.pipeline import seeding`` resolves to
    ``repro.pipeline.seeding`` (plus the package itself) so leaf imports
    can be told apart from registry/runner imports.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    imported.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports are not used in this repo
                continue
            if node.module and node.module.startswith("repro"):
                if node.module in ("repro", "repro.pipeline", "repro.obs", "repro.nn"):
                    # Resolve the imported names so leaf submodules
                    # (faults, seeding/forecast) can be told apart from
                    # package-level / top-of-stack imports — `from repro
                    # import faults` must lint as repro.faults, not as the
                    # unclassifiable bare package.
                    for alias in node.names:
                        imported.add(f"{node.module}.{alias.name}")
                else:
                    imported.add(node.module)
    return imported


def _external_imports(path: str):
    """Top-level names of all non-``repro`` modules a file imports."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root != "repro":
                    imported.add(root)
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            root = node.module.split(".")[0]
            if root != "repro":
                imported.add(root)
    return imported


def _stride_trick_uses(path: str):
    """Stride-trick identifiers (rule 11) referenced anywhere in a file."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in STRIDE_TRICK_NAMES:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in STRIDE_TRICK_NAMES:
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.split(".")[-1]
                if name in STRIDE_TRICK_NAMES:
                    used.add(name)
    return used


def _subpackage(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _is_nonleaf_pipeline(module: str) -> bool:
    if _subpackage(module) != "pipeline":
        return False
    if module in PIPELINE_LEAVES:
        return False
    # "repro.pipeline" itself only eagerly loads the leaves (PEP 562 lazy
    # init), so importing the package from a low layer is leaf-equivalent.
    # Anything deeper (registry, spec, runner, checkpoint) is top-of-stack.
    return module != "repro.pipeline"


def check(source_root: str = SOURCE_ROOT):
    base = os.path.dirname(source_root)  # the directory holding `repro/`
    violations = []
    for directory, _subdirs, files in os.walk(source_root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            module = _module_name(path, base)
            layer = _subpackage(module)
            imported = _imported_modules(path)
            location = os.path.relpath(path, base)

            if layer == "store":
                # Rule 11a: the store is a leaf — stdlib + numpy only.
                for external in sorted(_external_imports(path) - STORE_EXTERNAL_ALLOWED):
                    if external not in sys.stdlib_module_names:
                        violations.append(
                            f"{location}: imports {external} "
                            "(repro.store allows only the stdlib and numpy)"
                        )
            else:
                # Rule 11b: stride-trick window primitives live in the store.
                for name in sorted(_stride_trick_uses(path)):
                    violations.append(
                        f"{location}: uses {name} "
                        "(window stride tricks live only in repro.store)"
                    )

            if module == GATEWAY_MODULE:
                # Rule 12a: the gateway's non-repro imports must be stdlib.
                for external in sorted(_external_imports(path)):
                    if external not in sys.stdlib_module_names:
                        violations.append(
                            f"{location}: imports {external} "
                            "(serve.gateway allows only stdlib externals — "
                            "the wire format is plain JSON)"
                        )

            def forbid(condition, target, rule):
                if condition:
                    violations.append(f"{location}: imports {target} ({rule})")

            for target in sorted(imported):
                target_layer = _subpackage(target)
                if module in ROOT_LEAVES or module in NESTED_LEAVES:
                    forbid(
                        True,
                        target,
                        f"{module} is a dependency-free leaf (numpy/stdlib only)",
                    )
                elif module in PIPELINE_LEAVES:
                    forbid(
                        target not in PIPELINE_LEAVES and target != "repro.pipeline",
                        target,
                        "pipeline leaves must be dependency-free",
                    )
                elif module == "repro.nn.fusion":
                    forbid(
                        target not in NN_FUSION_ALLOWED,
                        target,
                        "nn.fusion is a pure executor: it may import only "
                        "nn.ops/nn.engine/nn.tensor",
                    )
                elif layer == "store":
                    forbid(
                        target_layer != "store",
                        target,
                        "repro.store is a self-contained leaf: it imports "
                        "only stdlib/numpy and its own modules",
                    )
                elif layer in SUBSTRATE:
                    forbid(
                        target_layer in MODEL_LAYERS | {"experiments", "serve", "resilience"},
                        target,
                        f"substrate layer '{layer}' must not import model/top layers",
                    )
                    forbid(
                        _is_nonleaf_pipeline(target),
                        target,
                        f"substrate layer '{layer}' may only use pipeline leaves",
                    )
                elif layer == "resilience":
                    forbid(
                        target_layer
                        in MODEL_LAYERS | {"experiments", "serve", "pipeline"}
                        and not (
                            target in PIPELINE_LEAVES or target == "repro.pipeline"
                        ),
                        target,
                        "resilience may import only nn/obs/faults and pipeline leaves",
                    )
                elif layer in MODEL_LAYERS:
                    forbid(
                        target_layer in {"experiments", "serve"},
                        target,
                        f"model layer '{layer}' must not import top layers",
                    )
                    forbid(
                        _is_nonleaf_pipeline(target),
                        target,
                        f"model layer '{layer}' may only use pipeline leaves",
                    )
                elif layer == "pipeline":
                    forbid(
                        target_layer in {"experiments", "serve"},
                        target,
                        "pipeline must not import top layers (experiments/serve)",
                    )
                elif layer == "experiments":
                    forbid(
                        target_layer in MODEL_LAYERS,
                        target,
                        "experiments construct models via the pipeline registry only",
                    )
                    forbid(
                        target_layer == "serve",
                        target,
                        "experiments (offline) must not import serve (online)",
                    )
                elif layer == "serve":
                    # Rule 12b: the gateway reaches everything (obs, numpy
                    # types) through repro.serve re-exports, nothing else.
                    forbid(
                        module == GATEWAY_MODULE
                        and not target.startswith("repro.serve"),
                        target,
                        "serve.gateway imports only repro.serve "
                        "(obs surfaces are re-exported via serve.shard)",
                    )
                    forbid(
                        target_layer == "experiments",
                        target,
                        "serve (online) must not import experiments (offline)",
                    )
                    forbid(
                        target_layer in MODEL_LAYERS,
                        target,
                        "serve constructs models via the pipeline registry only",
                    )
                    forbid(
                        target == "repro.obs.report",
                        target,
                        "serve exposes live state via obs.serve_metrics, "
                        "not the offline report renderer",
                    )
                    # Rule 13: adaptation's training access goes through
                    # two seams, nothing else.
                    forbid(
                        module == ADAPT_MODULE
                        and target_layer == "pipeline"
                        and target not in ADAPT_PIPELINE_ALLOWED,
                        target,
                        "serve.adapt reaches the pipeline only through the "
                        "loading/spec seams",
                    )
                    forbid(
                        module == ADAPT_MODULE
                        and target_layer == "resilience"
                        and target not in ADAPT_RESILIENCE_ALLOWED,
                        target,
                        "serve.adapt reaches recovery only through the "
                        "repro.resilience package surface",
                    )
    # Rule 11c (positive): the eager compat shim routes through the store
    # instead of re-deriving window math.
    windows_shim = os.path.join(source_root, "data", "windows.py")
    if os.path.exists(windows_shim):
        shim_imports = _imported_modules(windows_shim)
        if not any(
            target == "repro.store" or target.startswith("repro.store.")
            for target in shim_imports
        ):
            violations.append(
                "repro/data/windows.py: does not import repro.store "
                "(window slicing must route through the store)"
            )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print(f"{len(violations)} layering violation(s):")
        for line in violations:
            print(f"  {line}")
        return 1
    print("layering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
