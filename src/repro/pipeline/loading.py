"""Rebuild a trained forecaster from a spec plus a checkpoint — no training.

:func:`repro.pipeline.runner.execute` is the offline funnel (build, train,
evaluate); this module is its online counterpart: given the :class:`RunSpec`
that produced a run and the checkpoint it autosaved, reconstruct the exact
forecaster so a serving process can answer requests without ever touching
the training loop. The spec's dtype is applied while the model
is constructed (parameters adopt the ambient dtype at creation time), and
the checkpoint's weights are restored with the same strict name/shape
validation the trainer uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.pipeline import checkpoint as ckpt
from repro.pipeline import registry
from repro.pipeline.runner import _engine_overrides
from repro.pipeline.spec import RunSpec


def _resolve_geometry(
    spec: RunSpec, history: Optional[int], horizon: Optional[int]
) -> Tuple[int, int]:
    history = history if history is not None else spec.history
    horizon = horizon if horizon is not None else spec.horizon
    if history is None or horizon is None:
        raise ValueError(
            f"RunSpec(model={spec.model!r}) does not pin history/horizon; "
            "pass them explicitly to load_forecaster"
        )
    return history, horizon


def load_forecaster(
    spec: RunSpec,
    checkpoint_path: Optional[str] = None,
    *,
    grid_shape,
    num_features: int,
    history: Optional[int] = None,
    horizon: Optional[int] = None,
):
    """Instantiate the model a spec describes and restore its checkpoint.

    ``grid_shape``/``num_features`` (and ``history``/``horizon`` when the
    spec leaves them unset) describe the window geometry the model was
    trained on — the same values a :class:`BikeDemandDataset` carries.
    With ``checkpoint_path`` set the archive's serving weights (best
    validation snapshot when tracked, else the last autosave) are loaded;
    non-neural models have no weights to restore and reject a checkpoint
    loudly instead of ignoring it.
    """
    history, horizon = _resolve_geometry(spec, history, horizon)
    with _engine_overrides(spec):
        forecaster = registry.create(
            spec.model,
            history,
            horizon,
            tuple(grid_shape),
            num_features,
            seed=spec.seed,
            **spec.hparams,
        )
        if checkpoint_path is not None:
            if not registry.is_neural(spec.model):
                raise ValueError(
                    f"{spec.model} is not a neural model; it has no weights "
                    "to restore from a checkpoint"
                )
            checkpoint = ckpt.load_checkpoint(checkpoint_path)
            checkpoint.restore_serving_model(forecaster.model)
    return forecaster


def warm_start_forecaster(
    spec: RunSpec,
    *,
    grid_shape,
    num_features: int,
    history: Optional[int] = None,
    horizon: Optional[int] = None,
    source_model=None,
    checkpoint_path: Optional[str] = None,
    lr: Optional[float] = None,
):
    """A fresh forecaster carrying the serving weights, ready to fine-tune.

    The online-adaptation seam: build the spec's model exactly as
    :func:`load_forecaster` would, then copy weights either from a live
    serving model (``source_model`` — a :class:`repro.nn.layers.Module`,
    cloned via its ``state_dict`` so fine-tuning never touches the serving
    parameters) or from a checkpoint archive (``checkpoint_path``).
    Exactly one source must be given. ``lr`` overrides the fine-tune
    learning rate; non-neural specs have no weights to warm-start and are
    rejected loudly.
    """
    if (source_model is None) == (checkpoint_path is None):
        raise ValueError(
            "warm_start_forecaster needs exactly one of source_model or "
            "checkpoint_path"
        )
    if not registry.is_neural(spec.model):
        raise ValueError(
            f"{spec.model} is not a neural model; there are no weights to "
            "warm-start a fine-tune from"
        )
    forecaster = load_forecaster(
        spec,
        checkpoint_path,
        grid_shape=grid_shape,
        num_features=num_features,
        history=history,
        horizon=horizon,
    )
    if source_model is not None:
        # state_dict() returns copies, so the candidate's parameters are
        # fully decoupled from the live model's; load_state_dict validates
        # names/shapes strictly and bumps the engine weight version.
        forecaster.model.load_state_dict(source_model.state_dict())
    if lr is not None:
        forecaster.trainer.optimizer.lr = float(lr)
    return forecaster


__all__ = ["load_forecaster", "warm_start_forecaster"]
