"""Shared interface for all comparison models.

Every forecaster consumes normalized history windows ``(N, h, G1, G2, F)``
and produces normalized multi-step bike pick-up demand ``(N, p, G1, G2)``.

The paper's protocol (Sec. IV-B) distinguishes two families:

- *autoregressive* models (XGBoost, LSTM, convLSTM, PredRNN, PredRNN++)
  predict a single next step and are rolled forward recursively, feeding
  their own predictions back as inputs — the source of accumulated error;
- *direct* models (STGCN, STSGCN, BikeCAP) emit all ``p`` steps at once.

The roll-forward loop itself lives in :mod:`repro.pipeline.forecast` (one
implementation for every model and for the teacher-forcing diagnostics);
``RecursiveFrameForecaster`` binds it to a next-frame predictor.

:class:`SupervisedForecaster` is the shared trainer-backed skeleton: every
neural model plugs in a Module and a ``training_arrays`` hook and inherits
``fit`` — including full-state checkpoint/resume — and the batched no-grad
forward pass, instead of hand-rolling its own loop.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import BikeDemandDataset
from repro.nn import Trainer
from repro.nn import config as nn_config
from repro.nn.layers.base import Module
from repro.nn.tensor import Tensor
from repro.pipeline import forecast

# Canonical implementation lives in the pipeline's protocol module; kept
# here as a re-export because every baseline historically imports it from
# ``repro.baselines.base``.
clip_normalized = forecast.clip_normalized


class Forecaster(abc.ABC):
    """Abstract multi-step forecaster."""

    name: str = "forecaster"

    def __init__(self, history: int, horizon: int, grid_shape, num_features: int):
        self.history = history
        self.horizon = horizon
        self.grid_shape = tuple(grid_shape)
        self.num_features = num_features

    @abc.abstractmethod
    def fit(
        self,
        dataset: BikeDemandDataset,
        epochs: int = 10,
        verbose: bool = False,
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[object] = None,
        observers: Optional[Sequence] = None,
    ) -> Dict:
        """Train on the dataset's train split; returns a history dict.

        ``checkpoint_path``/``resume_from`` enable full-state autosave and
        bit-exact resume for trainer-backed models (``resume_from`` takes a
        path or an in-memory ``TrainingCheckpoint``); ``observers`` are
        :class:`~repro.obs.observers.TrainingObserver` instances attached
        to the training loop (how ``repro.resilience`` watches a fit).
        Models without an iterative training loop accept and ignore all
        three.
        """

    @abc.abstractmethod
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Map ``(N, h, G1, G2, F)`` windows to ``(N, p, G1, G2)`` pick-ups."""

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        expected = (self.history,) + self.grid_shape + (self.num_features,)
        if x.shape[1:] != expected:
            raise ValueError(f"{self.name}: expected windows of shape (N, {expected}), got {x.shape}")
        return x


class SupervisedForecaster(Forecaster):
    """Forecaster backed by an autograd ``Module`` and the shared Trainer.

    Subclasses pass their model up and implement :meth:`training_arrays`;
    ``fit`` (checkpointable), and the batched no-grad forward are defined
    once here so every neural baseline trains through the identical loop.
    """

    def __init__(
        self,
        history: int,
        horizon: int,
        grid_shape,
        num_features: int,
        model: Module,
        lr: float = 1e-3,
        batch_size: int = 32,
        loss: str = "l1",
        seed: int = 0,
    ):
        super().__init__(history, horizon, grid_shape, num_features)
        self.model = model
        self.batch_size = batch_size
        self.seed = seed
        self.trainer = Trainer(model, loss=loss, lr=lr, batch_size=batch_size, seed=seed)

    #: Direct models whose ``training_arrays`` are exactly the dataset's
    #: supervised split pairs can stream them from the window store instead
    #: (bit-identical batches; O(batch) window memory). Recursive/frame
    #: models derive shifted targets and keep the eager path.
    streams_supervised_pairs: bool = False

    @abc.abstractmethod
    def training_arrays(
        self, dataset: BikeDemandDataset
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """``(train_x, train_y, val_x, val_y)`` arrays for ``Trainer.fit``."""

    def training_source(self, dataset: BikeDemandDataset):
        """Store batch source for streamed epochs, or None for eager arrays.

        Streaming engages when the model trains on the plain supervised
        pairs (``streams_supervised_pairs``) *and* the dataset is
        store-backed and marked ``streaming`` — the trainer then pulls
        shuffled batches straight from the chunked store.
        """
        if not self.streams_supervised_pairs:
            return None
        if not getattr(dataset, "streaming", False) or getattr(dataset, "store", None) is None:
            return None
        return dataset.train_source()

    def fit(
        self,
        dataset: BikeDemandDataset,
        epochs: int = 10,
        verbose: bool = False,
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[object] = None,
        observers: Optional[Sequence] = None,
    ) -> Dict:
        source = self.training_source(dataset)
        if source is not None:
            train_x, train_y = source, None
            val_x, val_y = dataset.val_view(), None
        else:
            train_x, train_y, val_x, val_y = self.training_arrays(dataset)
        history = self.trainer.fit(
            train_x,
            train_y,
            epochs=epochs,
            val_x=val_x,
            val_y=val_y,
            verbose=verbose,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            observers=observers,
        )
        return history.as_dict()

    def batched_forward(self, inputs: np.ndarray, postprocess=None) -> np.ndarray:
        """No-grad batched model outputs, concatenated along the batch axis.

        ``postprocess`` maps each batch's raw output before concatenation
        (e.g. slicing the final frame of a sequence prediction).
        """
        outputs = []
        with nn_config.no_grad():
            for start in range(0, len(inputs), self.batch_size):
                out = self.model(Tensor(inputs[start : start + self.batch_size])).data
                outputs.append(postprocess(out) if postprocess is not None else out)
        return np.concatenate(outputs, axis=0)


class RecursiveFrameForecaster(Forecaster):
    """Autoregressive multi-step protocol over single-step frame predictors.

    Subclasses implement :meth:`predict_next_frame`, which maps a history
    window to the *entire* next feature frame ``(N, G1, G2, F)``. Multi-step
    prediction rolls it forward through
    :func:`repro.pipeline.forecast.recursive_forecast` — exactly the
    recursion the paper describes for its baselines, and exactly where
    their errors accumulate.
    """

    @abc.abstractmethod
    def predict_next_frame(self, x: np.ndarray) -> np.ndarray:
        """Predict the full feature frame at ``t+1`` from ``(N, h, G1, G2, F)``."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        return forecast.recursive_forecast(
            self.predict_next_frame, x, self.horizon, target_feature=self.target_feature
        )

    @property
    def target_feature(self) -> int:
        return 0  # bike pick-ups, by the FEATURE_NAMES convention


def training_targets_next_frame(dataset: BikeDemandDataset) -> np.ndarray:
    """Next-frame targets for single-step training: x shifted by one slot.

    For window ``x = [t-h+1 … t]`` the target frame is the full feature map
    at ``t+1``. We reconstruct it from the *next* window's last slot; the
    final window (which has no successor inside the split) is dropped by the
    caller.
    """
    x = dataset.split.train_x
    return x[1:, -1]
