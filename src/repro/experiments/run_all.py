"""Command-line entry point: regenerate every paper artifact.

Usage::

    python -m repro.experiments.run_all --profile smoke --output results/

Writes one text file per artifact plus a combined ``summary.txt`` and a
machine-readable ``results.json``. Training checkpoints autosave under
``<output>/checkpoints/``; ``--resume`` skips artifacts whose result file
already exists and restarts interrupted training runs from their newest
checkpoint. ``--only`` restricts the model comparison to a subset (the
BikeCAP-only ablation artifacts run only when BikeCAP is included).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import time
from typing import Dict, Optional, Sequence

_LOGGER = logging.getLogger(__name__)

from repro.experiments.fig1 import run_fig1
from repro.experiments.fig7 import run_fig7
from repro.experiments.profiles import get_profile
from repro.experiments.runner import ExperimentContext
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.nn.divergence import DivergenceError
from repro.obs.artifacts import atomic_write_json, atomic_write_text
from repro.pipeline import registry


def _mean_std_tree(results) -> Dict:
    """Convert nested MeanStd values to JSON-friendly dicts."""
    if hasattr(results, "mean") and hasattr(results, "std"):
        return {"mean": results.mean, "std": results.std}
    if isinstance(results, dict):
        return {str(key): _mean_std_tree(value) for key, value in results.items()}
    return results


def _resolve_only(only, profile) -> Optional[list]:
    """Validate ``--only`` names against the registry and the profile."""
    if only is None:
        return None
    names = [name.strip() for name in only.split(",")] if isinstance(only, str) else list(only)
    names = [name for name in names if name]
    for name in names:
        registry.model_entry(name)  # raises ValueError with the known names
    if not names:
        raise ValueError("--only was given but named no models")
    return names


def run_all(
    profile_name: str,
    output_dir: str,
    verbose: bool = True,
    dtype: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    resume: bool = False,
    jobs: int = 1,
) -> Dict:
    """Run every artifact at the named profile; returns the JSON payload.

    ``dtype`` (``float32`` | ``float64``) selects the substrate precision
    for the whole run; ``None`` keeps the process dtype (float32 unless
    ``REPRO_DTYPE`` says otherwise). ``only`` restricts to a
    comma-separated (or listed) subset of registered models; ``resume`` skips finished
    artifacts and continues interrupted training from the autosaved
    checkpoints. ``jobs > 1`` trains repeated-seed runs concurrently in
    worker processes with identical results.
    """
    from repro.nn import config as nn_config

    if dtype is not None:
        nn_config.set_dtype(dtype)
    profile = get_profile(profile_name)
    only = _resolve_only(only, profile)
    os.makedirs(output_dir, exist_ok=True)
    context = ExperimentContext(
        profile,
        checkpoint_dir=os.path.join(output_dir, "checkpoints"),
        resume=resume,
        jobs=jobs,
    )

    payload: Dict = {
        "profile": profile.name,
        "dtype": nn_config.dtype().__name__,
    }
    if resume:
        # Carry finished artifacts' numbers over so results.json stays
        # complete even when this invocation skips them.
        previous = os.path.join(output_dir, "results.json")
        if os.path.exists(previous):
            try:
                with open(previous) as handle:
                    stale = json.load(handle)
                stale.pop("profile", None)
                stale.pop("dtype", None)
                stale.pop("engine_mode", None)
                payload.update(stale)
            except (OSError, ValueError):
                pass

    table3_models = [m for m in profile.models if only is None or m in only]
    include_bikecap = only is None or "BikeCAP" in only
    sections = []

    started = time.time()
    artifacts = [
        ("fig1", lambda: run_fig1(profile=profile, city=context.city)),
    ]
    if table3_models:
        artifacts.append(
            (
                "table3",
                lambda: run_table3(
                    profile=profile, context=context, models=table3_models, verbose=verbose
                ),
            )
        )
    if include_bikecap:
        artifacts.extend(
            [
                ("fig7", lambda: run_fig7(profile=profile, context=context, verbose=verbose)),
                ("table4", lambda: run_table4(profile=profile, context=context, verbose=verbose)),
                ("table5", lambda: run_table5(profile=profile, context=context, verbose=verbose)),
            ]
        )
    for name, runner in artifacts:
        artifact_path = os.path.join(output_dir, f"{name}.txt")
        if resume and os.path.exists(artifact_path):
            with open(artifact_path) as handle:
                rendered = handle.read().rstrip("\n")
            sections.append(rendered + f"\n[{name}: resumed from existing result]")
            if verbose:
                _LOGGER.info("[%s skipped: %s exists]", name, artifact_path)
            continue
        artifact_start = time.time()
        try:
            result = runner()
        except DivergenceError as exc:
            # One unrecoverable divergence must not take down the other
            # artifacts: record the failure, keep the file absent (so a
            # --resume retries this artifact), and move on.
            elapsed = time.time() - artifact_start
            failure = f"[{name} FAILED after {elapsed:.1f}s: {exc}]"
            sections.append(failure)
            payload.setdefault("failures", {})[name] = str(exc)
            _LOGGER.warning("%s", failure)
            continue
        elapsed = time.time() - artifact_start
        rendered = result.render()
        sections.append(rendered + f"\n[{name}: {elapsed:.1f}s]")
        atomic_write_text(artifact_path, rendered + "\n")
        if hasattr(result, "results"):
            payload[name] = _mean_std_tree(result.results)
        if name == "table3":
            payload["table3_degradation_mae"] = result.degradation("MAE")
            payload["table3_degradation_rmse"] = result.degradation("RMSE")
        if name == "fig1":
            payload[name] = {
                "morning_subway_lag": result.morning_subway_lag,
                "morning_bike_lag": result.morning_bike_lag,
                "evening_subway_lag": result.evening_subway_lag,
                "evening_bike_lag": result.evening_bike_lag,
            }
        if verbose:
            _LOGGER.info("[%s done in %.1fs]", name, elapsed)

    summary = "\n\n".join(sections) + f"\n\ntotal: {time.time() - started:.1f}s\n"
    atomic_write_text(os.path.join(output_dir, "summary.txt"), summary)
    atomic_write_text(
        os.path.join(output_dir, "results.json"),
        json.dumps(payload, indent=2, default=str) + "\n",
    )
    if verbose:
        _LOGGER.info("%s", summary)
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default=None, help="smoke | default | paper (default: env REPRO_PROFILE or smoke)")
    parser.add_argument("--output", default="results", help="output directory")
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default=None,
        help="substrate precision; the reported tables ran in float64 "
        "(default: env REPRO_DTYPE or float32)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for repeated-seed sweeps (1 = serial; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated registered model names; restricts the comparison "
        "(ablation artifacts run only when BikeCAP is included)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip artifacts whose result file exists; resume interrupted "
        "training from the newest checkpoint in <output>/checkpoints/",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()
    if not args.quiet:
        # CLI progress goes through logging so library use (and -q pytest
        # runs) stays silent unless a handler is configured.
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    run_all(
        args.profile or os.environ.get("REPRO_PROFILE", "smoke"),
        args.output,
        verbose=not args.quiet,
        dtype=args.dtype,
        only=args.only,
        resume=args.resume,
        jobs=args.jobs,
    )


if __name__ == "__main__":
    main()
