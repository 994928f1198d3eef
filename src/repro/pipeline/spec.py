"""Declarative run specifications.

A :class:`RunSpec` is the single serializable description of one training
run: which registered model, which window geometry, how long to train, the
optimizer settings, the dtype and the seed. Experiment
scripts build specs; :func:`repro.pipeline.runner.execute` turns a spec
plus a dataset into a trained, evaluated forecaster. Because a spec
round-trips through a plain dict (and JSON), every run log can embed the
exact recipe that produced it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.pipeline import forecast


@dataclass
class RunSpec:
    """One run of one model: everything needed to reproduce it.

    ``history``/``horizon`` are optional; when set they are validated
    against the dataset at execution time (a mismatched spec fails loudly
    instead of silently training on different windows than it claims).
    ``hparams`` are passed to the registered factory on top of its declared
    defaults; ``dtype`` of ``None`` means "use the process dtype" (see
    :mod:`repro.nn.config`).
    """

    model: str
    history: Optional[int] = None
    horizon: Optional[int] = None
    epochs: int = 10
    seed: int = 0
    hparams: Dict[str, Any] = field(default_factory=dict)
    dtype: Optional[str] = None
    tag: Optional[str] = None
    # Divergence-recovery options (repro.resilience.RecoveryPolicy.from_dict
    # keys, e.g. {"max_retries": 3, "lr_backoff": 0.25}); None means the
    # runner's defaults. Kept as a plain dict so specs stay JSON-round-trip
    # without this layer importing upward into resilience.
    resilience: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("RunSpec.model must be a non-empty model name")
        if self.epochs < 0:
            raise ValueError(f"RunSpec.epochs must be >= 0, got {self.epochs}")
        self.hparams = dict(self.hparams)
        if self.resilience is not None:
            if not isinstance(self.resilience, dict):
                raise ValueError(
                    "RunSpec.resilience must be a dict of RecoveryPolicy options "
                    f"or None, got {type(self.resilience).__name__}"
                )
            self.resilience = dict(self.resilience)

    # ------------------------------------------------------------------
    def with_overrides(self, **changes: Any) -> "RunSpec":
        """A copy with fields replaced; ``hparams`` merge instead of replace."""
        hparams = changes.pop("hparams", None)
        merged = dict(self.hparams)
        if hparams:
            merged.update(hparams)
        return dataclasses.replace(self, hparams=merged, **changes)

    def label(self, default_horizon: Optional[int] = None) -> str:
        """Default run-log/checkpoint label: ``<model>-pts<horizon>``."""
        horizon = self.horizon if self.horizon is not None else default_horizon
        base = self.model if horizon is None else f"{self.model}-pts{horizon}"
        return f"{base}-{self.tag}" if self.tag else base

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["hparams"] = dict(self.hparams)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"RunSpec does not understand fields: {unknown}")
        if "model" not in data:
            raise ValueError("RunSpec dict needs a 'model' field")
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("RunSpec JSON must decode to an object")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def validate_against(self, dataset) -> None:
        """Fail loudly when the spec disagrees with the dataset geometry."""
        if self.history is not None and self.history != dataset.history:
            raise ValueError(
                f"RunSpec(model={self.model!r}) declares history={self.history} "
                f"but the dataset has history={dataset.history}"
            )
        if self.horizon is not None and self.horizon != dataset.horizon:
            raise ValueError(
                f"RunSpec(model={self.model!r}) declares horizon={self.horizon} "
                f"but the dataset has horizon={dataset.horizon}"
            )


__all__ = ["RunSpec"]

# Re-exported so spec consumers can name protocols without another import.
RECURSIVE = forecast.RECURSIVE
DIRECT = forecast.DIRECT
