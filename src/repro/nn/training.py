"""Mini-batch training loop shared by every neural model in the repo.

Mirrors the paper's setup: batch size 32, Adam(lr=1e-3), L1 loss, no
learning-rate or weight decay (Sec. IV-C). Epoch count is configurable so
tests/benchmarks can run CI-scale while ``REPRO_PROFILE=paper`` scales up.

Progress reporting goes through the observer API (``repro.obs.observers``):
``fit`` notifies each observer's ``on_fit_start`` / ``on_epoch`` /
``on_eval`` / ``on_early_stop`` / ``on_fit_end`` hooks, and additionally
emits ``epoch`` / ``eval`` / ``early_stop`` events to any open structured
run logger (``repro.obs.runlog``). ``verbose=True`` is sugar for appending
a :class:`~repro.obs.observers.ConsoleObserver`.

``fit`` also supports full-state checkpointing (``checkpoint_path=`` /
``resume_from=``): weights, optimizer moments, the shuffle RNG's position
and early-stop bookkeeping round-trip through one ``.npz`` file so an
interrupted run resumes bit-exactly (see :mod:`repro.nn.serialization`).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import faults
from repro.nn import config, engine, serialization
from repro.nn.divergence import DivergenceError
from repro.nn.layers.base import Module
from repro.nn.losses import get_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.obs import metrics as obs_metrics
from repro.obs import runlog, tracing
from repro.obs.observers import ConsoleObserver, TrainingObserver
from repro.pipeline import seeding
from repro.store.windows import shuffled_batch_indices


@dataclass
class TrainingHistory:
    """Per-epoch loss curves plus wall-clock accounting."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    @property
    def best_val_loss(self) -> float:
        return min(self.val_loss) if self.val_loss else float("nan")

    @property
    def best_epoch(self) -> Optional[int]:
        """1-based epoch with the lowest val loss (train loss if no val)."""
        curve = self.val_loss or self.train_loss
        if not curve:
            return None
        return int(np.argmin(curve)) + 1

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    def as_dict(self) -> Dict[str, object]:
        return {
            "train_loss": list(self.train_loss),
            "val_loss": list(self.val_loss),
            "epoch_seconds": list(self.epoch_seconds),
            "best_epoch": self.best_epoch,
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrainingHistory":
        """Rebuild curves saved by :meth:`as_dict` (checkpoint resume)."""
        return cls(
            train_loss=[float(v) for v in payload.get("train_loss", [])],
            val_loss=[float(v) for v in payload.get("val_loss", [])],
            epoch_seconds=[float(v) for v in payload.get("epoch_seconds", [])],
        )


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
):
    """Yield ``(x, y)`` mini-batches, shuffled when an rng is given.

    The index schedule is shared with the window store's streamed batches
    (:func:`repro.store.windows.shuffled_batch_indices`), so an in-memory
    epoch and a store-backed epoch consume the RNG identically and yield
    bit-identical batch sequences.
    """
    for index in shuffled_batch_indices(len(inputs), batch_size, rng):
        yield inputs[index], targets[index]


def _is_batch_source(candidate: object) -> bool:
    """Trainer batch-source protocol: ``num_samples`` + ``batches(...)``.

    Satisfied by :class:`repro.store.WindowView` /
    :class:`repro.store.WindowIterator`; epochs then stream chunk-by-chunk
    from the store instead of holding every window in memory.
    """
    return hasattr(candidate, "batches") and hasattr(candidate, "num_samples")


def _shard_slices(count: int, shards: int) -> List[slice]:
    """Contiguous, balanced shard slices (np.array_split layout)."""
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    slices = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


class Trainer:
    """Train a Module mapping input arrays to target arrays, with Adam at ``lr``.

    The model's ``forward`` must accept a Tensor batch and return a Tensor
    batch with the same shape as the targets.
    """

    def __init__(
        self,
        model: Module,
        loss: str = "l1",
        lr: float = 1e-3,
        batch_size: int = 32,
        max_grad_norm: Optional[float] = 5.0,
        seed: Optional[int] = None,
    ):
        self.model = model
        self.loss_name = loss if isinstance(loss, str) else getattr(loss, "__name__", "custom")
        self.loss_fn: Callable = get_loss(loss) if isinstance(loss, str) else loss
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.batch_size = batch_size
        self.max_grad_norm = max_grad_norm
        self.seed = seed
        # Seeded trainers get a private stream (bit-compatible with the old
        # default_rng call); unseeded ones share the process generator so a
        # single seeding.seed_everything() pins the whole run.
        self.rng = seeding.rng(seed) if seed is not None else seeding.global_rng()
        # Last good in-memory resume point, refreshed at fit start and each
        # epoch end; repro.resilience rolls back to it after a divergence
        # without requiring a checkpoint file.
        self.last_checkpoint: Optional[serialization.TrainingCheckpoint] = None

    def _run_info(self, epochs: int, train_count: int, val_count: int) -> Dict:
        return {
            "model": type(self.model).__name__,
            "parameters": self.model.num_parameters(),
            "loss": self.loss_name,
            "epochs": epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "train_samples": train_count,
            "val_samples": val_count,
            "dtype": np.dtype(config.dtype()).name,
            "engine_mode": config.engine_mode(),
            "num_threads": config.num_threads(),
        }

    def fit(
        self,
        train_x: Union[np.ndarray, object],
        train_y: Optional[np.ndarray] = None,
        epochs: int = 1,
        val_x: Optional[np.ndarray] = None,
        val_y: Optional[np.ndarray] = None,
        verbose: bool = False,
        patience: Optional[int] = None,
        observers: Optional[Sequence[TrainingObserver]] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[Union[str, serialization.TrainingCheckpoint]] = None,
    ) -> TrainingHistory:
        """Run the training loop; early-stops on validation loss if asked.

        ``checkpoint_path`` autosaves a full resume point (weights +
        optimizer + RNG + epoch bookkeeping) every ``checkpoint_every``
        epochs; ``resume_from`` restores one — from a path or directly from
        an in-memory :class:`~repro.nn.serialization.TrainingCheckpoint`
        (how the recovery policy rolls back) — and continues mid-training
        bit-exactly: the resumed run's weights and loss curves match an
        uninterrupted run to the last bit.

        ``train_x`` may also be a *batch source* (``num_samples`` +
        ``batches(batch_size, rng)``, e.g. a ``repro.store`` window view)
        with ``train_y=None``: each epoch then streams batches from the
        chunked store, bit-identical to the in-memory loop because the
        source consumes ``self.rng`` through the same shuffle schedule.
        ``val_x`` may likewise be a view exposing ``arrays()``.
        """
        streaming = train_y is None and _is_batch_source(train_x)
        if train_y is None and not streaming:
            raise TypeError(
                "fit() needs target arrays, or a batch source "
                "(num_samples + batches()) as train_x with train_y=None"
            )
        if val_x is not None and val_y is None and hasattr(val_x, "arrays"):
            val_x, val_y = val_x.arrays()
        train_count = train_x.num_samples if streaming else len(train_x)
        watchers: List[TrainingObserver] = list(observers) if observers else []
        if verbose:
            watchers.append(ConsoleObserver())
        history = TrainingHistory()
        best_val = float("inf")
        best_state = None
        stale = 0
        start_epoch = 0
        if resume_from is not None:
            if isinstance(resume_from, serialization.TrainingCheckpoint):
                checkpoint = resume_from
            else:
                checkpoint = serialization.load_checkpoint(resume_from)
            start_epoch, best_val, stale, best_state = self._restore_checkpoint(checkpoint)
            history = TrainingHistory.from_dict(checkpoint.history)
            if checkpoint.stopped:
                # The interrupted run had already early-stopped: it ended
                # holding its best weights, so finish the same way.
                if best_state is not None:
                    self.model.load_state_dict(best_state)
                return history
        run_info = self._run_info(
            epochs, train_count, len(val_x) if val_x is not None else 0
        )
        if start_epoch:
            run_info["resumed_at_epoch"] = start_epoch
        for watcher in watchers:
            watcher.on_fit_start(run_info)
        self.last_checkpoint = self._capture(start_epoch, history, best_val, stale, best_state)
        step = 0
        for epoch in range(start_epoch, epochs):
            start = time.perf_counter()
            epoch_losses = []
            stopped_early = False
            if streaming:
                epoch_batches = train_x.batches(self.batch_size, rng=self.rng)
            else:
                epoch_batches = iterate_minibatches(
                    train_x, train_y, self.batch_size, rng=self.rng
                )
            with tracing.span("train.epoch", epoch=epoch + 1):
                for batch_x, batch_y in epoch_batches:
                    with tracing.span("train.step", step=step + 1, epoch=epoch + 1):
                        try:
                            loss = self.train_step(batch_x, batch_y)
                        except DivergenceError as exc:
                            if exc.step is None and exc.epoch is None:
                                # Substrate raisers (clip_grad_norm) don't
                                # know the loop position; re-raise with it
                                # for the recovery policy's rollback record.
                                raise DivergenceError(
                                    exc.reason,
                                    str(exc),
                                    step=step + 1,
                                    epoch=epoch + 1,
                                    value=exc.value,
                                ) from exc
                            raise
                    epoch_losses.append(loss)
                    step += 1
                    if watchers:
                        step_info = {"step": step, "epoch": epoch + 1, "loss": loss}
                        for watcher in watchers:
                            watcher.on_step(step_info)
                history.train_loss.append(float(np.mean(epoch_losses)))
                history.epoch_seconds.append(time.perf_counter() - start)

                if val_x is not None and val_y is not None:
                    with tracing.span("train.eval", epoch=epoch + 1):
                        val = self.evaluate(val_x, val_y)
                    history.val_loss.append(val)
                    eval_info = {"epoch": epoch + 1, "val_loss": val}
                    for watcher in watchers:
                        watcher.on_eval(eval_info)
                    runlog.emit("eval", **eval_info)
                    if val < best_val - 1e-9:
                        best_val = val
                        stale = 0
                        if patience is not None:
                            best_state = self.model.state_dict()
                    else:
                        stale += 1
                        if patience is not None and stale > patience:
                            stopped_early = True

            epoch_info = {
                "epoch": epoch + 1,
                "epochs": epochs,
                "train_loss": history.train_loss[-1],
                "val_loss": history.val_loss[-1] if history.val_loss else None,
                "seconds": history.epoch_seconds[-1],
            }
            for watcher in watchers:
                watcher.on_epoch(epoch_info)
            runlog.emit("epoch", **epoch_info)

            self.last_checkpoint = self._capture(
                epoch + 1, history, best_val, stale, best_state, stopped=stopped_early
            )
            if checkpoint_path is not None and (
                (epoch + 1) % checkpoint_every == 0
                or stopped_early
                or epoch + 1 == epochs
            ):
                serialization.write_checkpoint(checkpoint_path, self.last_checkpoint)

            if stopped_early:
                stop_info = {
                    "epoch": epoch + 1,
                    "patience": patience,
                    "best_val_loss": best_val,
                    "best_epoch": history.best_epoch,
                }
                for watcher in watchers:
                    watcher.on_early_stop(stop_info)
                runlog.emit("early_stop", **stop_info)
                if best_state is not None:
                    self.model.load_state_dict(best_state)
                break
        end_info = {
            "epochs_run": len(history.train_loss),
            "best_epoch": history.best_epoch,
            "best_val_loss": history.best_val_loss,
            "total_seconds": history.total_seconds,
        }
        for watcher in watchers:
            watcher.on_fit_end(end_info)
        return history

    # ------------------------------------------------------------------
    # Full-state checkpointing.
    # ------------------------------------------------------------------
    def _capture(
        self,
        epoch: int,
        history: TrainingHistory,
        best_val: float = float("inf"),
        stale: int = 0,
        best_state=None,
        stopped: bool = False,
        extra: Optional[Dict] = None,
    ) -> serialization.TrainingCheckpoint:
        """Snapshot this trainer's exact position as an in-memory checkpoint."""
        payload = {"seed": self.seed}
        if extra:
            payload.update(extra)
        return serialization.build_checkpoint(
            self.model,
            optimizer=self.optimizer,
            epoch=epoch,
            history=history.as_dict() if isinstance(history, TrainingHistory) else history,
            best_val=best_val,
            stale=stale,
            stopped=stopped,
            rng_state=seeding.get_state(self.rng),
            best_state=best_state,
            loss=self.loss_name,
            extra=payload,
        )

    def save_checkpoint(
        self,
        path: str,
        epoch: int,
        history: TrainingHistory,
        best_val: float = float("inf"),
        stale: int = 0,
        best_state=None,
        stopped: bool = False,
        extra: Optional[Dict] = None,
    ) -> None:
        """Write a resume point capturing this trainer's exact position."""
        serialization.write_checkpoint(
            path,
            self._capture(
                epoch,
                history,
                best_val=best_val,
                stale=stale,
                best_state=best_state,
                stopped=stopped,
                extra=extra,
            ),
        )

    def _restore_checkpoint(self, checkpoint: serialization.TrainingCheckpoint):
        """Load model/optimizer/RNG state; returns (epoch, best_val, stale, best_state)."""
        checkpoint.restore_model(self.model)
        if checkpoint.optimizer_state is not None:
            checkpoint.restore_optimizer(self.optimizer)
        if checkpoint.rng_state is not None:
            seeding.set_state(self.rng, checkpoint.rng_state)
        return checkpoint.epoch, checkpoint.best_val, checkpoint.stale, checkpoint.best_state

    def train_step(self, batch_x: np.ndarray, batch_y: np.ndarray) -> float:
        """One optimizer update; returns the batch loss.

        The batch runs as one piece or as shards, as the model's
        ``batch_shards`` hook decides (:meth:`_batch_loss`); a one-shard
        model takes the plain serial step, bit for bit.
        """
        self.optimizer.zero_grad()
        loss_value = self._batch_loss(batch_x, batch_y, backward=True)
        faults.poison_gradients(self.optimizer.parameters)
        if self.max_grad_norm is not None:
            clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        return loss_value

    def _batch_loss(
        self, batch_x: np.ndarray, batch_y: np.ndarray, backward: bool
    ) -> float:
        """Mean loss of one batch; ``backward`` also leaves its gradients in ``.grad``.

        One shard is the plain forward (and backward) over the whole batch.
        More split the batch into contiguous, balanced shards that
        :func:`repro.nn.engine.run_shards` runs side by side when two CPUs
        are usable. Each shard backpropagates into a private gradient sink,
        and the sinks merge in shard order with sample-count weights, so the
        bits depend on the model, seed and data, never on the host or on
        thread scheduling. The loss is the sample-weighted mean of the shard
        losses: the full-batch mean up to summation order.
        """
        count = len(batch_x)
        slices = _shard_slices(count, self.model.batch_shards(batch_x.shape))
        if len(slices) == 1:
            prediction = self.model(Tensor(batch_x))
            loss = self.loss_fn(prediction, Tensor(batch_y))
            if backward:
                loss.backward()
            return float(loss.data)

        def run_shard(part: slice):
            prediction = self.model(Tensor(batch_x[part]))
            loss = self.loss_fn(prediction, Tensor(batch_y[part]))
            sink: Dict = {}
            if backward:
                loss.backward(sink=sink)
            return float(loss.data), sink

        results = engine.run_shards([functools.partial(run_shard, part) for part in slices])
        weights = [(part.stop - part.start) / count for part in slices]
        loss_value = 0.0
        for weight, (shard_loss, _) in zip(weights, results):
            loss_value += weight * shard_loss
        if backward:
            obs_metrics.counter("train_sharded_steps_total").inc()
            for param in self.optimizer.parameters:
                total = None
                for weight, (_, sink) in zip(weights, results):
                    grad = sink.get(id(param))
                    if grad is None:
                        continue
                    contribution = grad * weight
                    total = contribution if total is None else total + contribution
                if total is not None:
                    param.grad = total if param.grad is None else param.grad + total
        return loss_value

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over a dataset without building autograd graphs.

        Batches shard exactly as training steps do (:meth:`_batch_loss`).
        """
        losses = []
        weights = []
        with config.no_grad():
            for batch_x, batch_y in iterate_minibatches(inputs, targets, self.batch_size):
                losses.append(self._batch_loss(batch_x, batch_y, backward=False))
                weights.append(len(batch_x))
        return float(np.average(losses, weights=weights))

    def predict(self, inputs: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Batched forward pass returning a numpy array."""
        batch_size = batch_size or self.batch_size
        outputs = []
        with config.no_grad():
            for start in range(0, len(inputs), batch_size):
                batch = Tensor(inputs[start : start + batch_size])
                outputs.append(self.model(batch).data)
        return np.concatenate(outputs, axis=0)
