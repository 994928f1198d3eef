"""The unified window/feature store: one chunked, lazy dataflow.

A :class:`WindowStore` owns the growing ``(T, G1, G2, F)`` demand tensor
as fixed-size time chunks (:class:`~repro.store.chunks.ChunkBuffer`) and
hands out *lazy* supervised windows over it:

- ``extend(slots)`` appends aggregated slots — the training loader, the
  streaming city simulator and live serve ingestion all call the same
  method;
- the scaler (:class:`~repro.store.normalization.MinMaxScaler`) is fitted
  incrementally chunk by chunk (``partial_fit``), bit-identical to one
  whole-tensor ``fit``;
- window ``i`` is normalized + clipped *at materialization time* from the
  raw slots ``[i, i + history + horizon)`` — normalization is elementwise,
  so normalize-then-window equals window-then-normalize bitwise and lazy
  batches match the eager ``make_windows`` path exactly (pinned by tests);
- ``split_views`` partitions the window range chronologically with the
  same boundaries as ``repro.data.splits.chronological_split``;
- :class:`WindowIterator` streams ``(X, Y)`` batches holding only
  ``O(batch)`` windows in memory.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.store.chunks import DEFAULT_CHUNK_SLOTS, ChunkBuffer
from repro.store.normalization import MinMaxScaler
from repro.store.windows import (
    lazy_window_view,
    shuffled_batch_indices,
    split_bounds,
    supervised_pairs,
    window_count,
)


class WindowStore:
    """Chunked, incrementally-normalized store of supervised windows."""

    def __init__(
        self,
        history: int,
        horizon: int,
        target_feature: int = 0,
        chunk_slots: int = DEFAULT_CHUNK_SLOTS,
        scaler: Optional[MinMaxScaler] = None,
        normalize: bool = True,
        clip_min: Optional[float] = 0.0,
        dtype=np.float64,
    ):
        if history < 1 or horizon < 1:
            raise ValueError("history and horizon must be positive")
        self.history = int(history)
        self.horizon = int(horizon)
        self.target_feature = int(target_feature)
        self.scaler = scaler if scaler is not None else MinMaxScaler()
        self.normalize = normalize
        self.clip_min = clip_min
        self._chunks = ChunkBuffer(chunk_slots=chunk_slots, dtype=dtype)

    # ---------------------------------------------------------------- shape

    @property
    def num_slots(self) -> int:
        return len(self._chunks)

    @property
    def num_windows(self) -> int:
        """Windows whose full history *and* horizon have materialized."""
        return window_count(self.num_slots, self.history, self.horizon)

    @property
    def frame_shape(self) -> Optional[Tuple[int, ...]]:
        return self._chunks.frame_shape

    @property
    def grid_shape(self) -> Tuple[int, int]:
        frame = self._require_frame()
        return (frame[0], frame[1])

    @property
    def num_features(self) -> int:
        return self._require_frame()[2]

    def _require_frame(self) -> Tuple[int, ...]:
        if self._chunks.frame_shape is None:
            raise RuntimeError("store is empty: extend() slots before querying shape")
        return self._chunks.frame_shape

    # --------------------------------------------------------------- append

    def extend(self, slots: np.ndarray, update_scaler: bool = False) -> int:
        """Append ``(n, G1, G2, F)`` aggregated slots; return n.

        ``update_scaler=True`` folds the new raw slots into the running
        scaler statistics (``partial_fit``) — the live-ingestion refresh
        path. Offline dataset builds instead fit once on the training range
        (:meth:`fit_scaler`) to keep normalization leakage-free.

        Non-finite slots raise ``ValueError`` before anything is appended:
        one NaN folded into the running min/max would poison the scaler for
        good.
        """
        slots = np.asarray(slots)
        if slots.ndim == 3:
            slots = slots[np.newaxis]
        if slots.ndim != 4:
            raise ValueError(f"expected (n, G1, G2, F) slots, got shape {slots.shape}")
        if not np.isfinite(slots).all():
            raise ValueError("slots must hold finite values only (got NaN or inf)")
        appended = self._chunks.extend(slots)
        if update_scaler and appended:
            self.scaler.partial_fit(self.raw_slots(self.num_slots - appended))
        return appended

    def fit_scaler(self, slots: Optional[int] = None) -> MinMaxScaler:
        """(Re)fit the scaler on the first ``slots`` raw slots (default all).

        Plain min-max streams ``partial_fit`` chunk by chunk — never
        materializing the range — with bit-exact parity to a whole-range
        ``fit``. The robust quantile is a rank statistic, so quantile mode
        gathers the range and fits eagerly.
        """
        stop = self.num_slots if slots is None else min(int(slots), self.num_slots)
        stop = max(stop, 1)
        if self.scaler.quantile is not None:
            return self.scaler.fit(self.raw_slots(0, stop))
        fresh = MinMaxScaler()
        for piece in self._iter_raw(0, stop):
            fresh.partial_fit(piece)
        self.scaler.minimum = fresh.minimum
        self.scaler.maximum = fresh.maximum
        self.scaler.count = fresh.count
        return self.scaler

    def _iter_raw(self, start: int, stop: int) -> Iterator[np.ndarray]:
        """Zero-copy pieces of raw slots ``[start, stop)``, chunk by chunk."""
        cursor = 0
        for view in self._chunks.chunk_views():
            chunk_end = cursor + len(view)
            if chunk_end > start and cursor < stop:
                yield view[max(start - cursor, 0) : min(stop, chunk_end) - cursor]
            cursor = chunk_end
            if cursor >= stop:
                break

    # ----------------------------------------------------------------- raw

    def raw_slots(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Raw (denormalized) slots ``[start, stop)``."""
        stop = self.num_slots if stop is None else stop
        return self._chunks.gather(start, stop)

    def raw_window(self, index: int) -> np.ndarray:
        """Raw history window ``index``: slots ``[index, index + history)``."""
        return self._chunks.gather(index, index + self.history)

    def latest_raw_window(self) -> Optional[np.ndarray]:
        """The most recent full history window, or None if too few slots."""
        if self.num_slots < self.history:
            return None
        return self._chunks.gather(self.num_slots - self.history, self.num_slots)

    # ------------------------------------------------------------- windows

    def _prepare(self, slots: np.ndarray) -> np.ndarray:
        """Normalize + clip a raw slot span exactly like the eager path."""
        if not self.normalize:
            return slots
        normalized = self.scaler.transform(slots)
        if self.clip_min is not None:
            normalized = np.clip(normalized, self.clip_min, None)
        return normalized

    def windows(
        self,
        start: int = 0,
        stop: Optional[int] = None,
        stride: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize windows ``[start, stop)`` as ``(X, Y)`` arrays.

        Gathers only the covering slot span, normalizes it, then slices
        through the zero-copy window view — identical values to windowing
        the whole normalized tensor eagerly.
        """
        stop = self.num_windows if stop is None else stop
        self._check_window_range(start, stop)
        if stop == start:
            return self._empty_x(), self._empty_y()
        span = self._prepare(
            self._chunks.gather(start, stop - 1 + self.history + self.horizon)
        )
        return supervised_pairs(
            span, self.history, self.horizon, self.target_feature, stride=stride
        )

    def windows_x(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """History windows only (no targets) — the forecast-decode input."""
        stop = self.num_windows if stop is None else stop
        self._check_window_range(start, stop)
        if stop == start:
            return self._empty_x()
        span = self._prepare(self._chunks.gather(start, stop - 1 + self.history))
        return np.ascontiguousarray(lazy_window_view(span, self.history))

    def windows_y(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Target horizons only."""
        stop = self.num_windows if stop is None else stop
        self._check_window_range(start, stop)
        if stop == start:
            return self._empty_y()
        span = self._prepare(
            self._chunks.gather(start + self.history, stop - 1 + self.history + self.horizon)
        )
        return np.ascontiguousarray(
            lazy_window_view(span[:, :, :, self.target_feature], self.horizon)
        )

    def windows_at(self, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize an arbitrary (e.g. shuffled) batch of windows.

        Holds only ``O(len(indices))`` windows: each index gathers its own
        ``history + horizon`` slot span (a zero-copy chunk view in the
        common case) and normalizes just that span.
        """
        indices = np.asarray(indices, dtype=np.intp)
        frame = self._require_frame()
        grid = frame[:2]
        x = np.empty((len(indices), self.history, *frame), dtype=self._chunks.dtype)
        y = np.empty((len(indices), self.horizon, *grid), dtype=self._chunks.dtype)
        for row, index in enumerate(indices):
            index = int(index)
            self._check_window_range(index, index + 1)
            span = self._prepare(
                self._chunks.gather(index, index + self.history + self.horizon)
            )
            x[row] = span[: self.history]
            y[row] = span[self.history :, :, :, self.target_feature]
        return x, y

    def _check_window_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= self.num_windows:
            raise IndexError(
                f"window range [{start}, {stop}) out of bounds for "
                f"{self.num_windows} windows"
            )

    def _empty_x(self) -> np.ndarray:
        frame = self._require_frame()
        return np.empty((0, self.history, *frame), dtype=self._chunks.dtype)

    def _empty_y(self) -> np.ndarray:
        frame = self._require_frame()
        return np.empty((0, self.horizon, *frame[:2]), dtype=self._chunks.dtype)

    # --------------------------------------------------------------- views

    def view(self, start: int = 0, stop: Optional[int] = None) -> "WindowView":
        stop = self.num_windows if stop is None else stop
        self._check_window_range(start, stop)
        return WindowView(self, start, stop)

    def split_views(
        self, ratios: Tuple[float, float, float] = (0.6, 0.2, 0.2)
    ) -> Tuple["WindowView", "WindowView", "WindowView"]:
        """Chronological train/val/test views (same bounds as the eager split)."""
        count = self.num_windows
        train_end, val_end = split_bounds(count, ratios)
        return (
            WindowView(self, 0, train_end),
            WindowView(self, train_end, val_end),
            WindowView(self, val_end, count),
        )

    @classmethod
    def from_tensor(
        cls,
        tensor: np.ndarray,
        history: int,
        horizon: int,
        target_feature: int = 0,
        chunk_slots: int = DEFAULT_CHUNK_SLOTS,
        scaler: Optional[MinMaxScaler] = None,
        fit_slots: Optional[int] = None,
        normalize: bool = True,
    ) -> "WindowStore":
        """Build a store from an in-memory ``(T, G1, G2, F)`` tensor.

        Slots are appended chunk by chunk; with ``normalize`` and no
        pre-fitted ``scaler``, the scaler is fitted on the first
        ``fit_slots`` raw slots (default: all).
        """
        tensor = np.asarray(tensor)
        store = cls(
            history,
            horizon,
            target_feature=target_feature,
            chunk_slots=chunk_slots,
            scaler=scaler,
            normalize=normalize,
        )
        for start in range(0, tensor.shape[0], store._chunks.chunk_slots):
            store.extend(tensor[start : start + store._chunks.chunk_slots])
        if normalize and not store.scaler.fitted:
            store.fit_scaler(fit_slots)
        return store


class LazyWindows:
    """Sliceable, lazily-materialized window sequence over a view.

    Supports ``len``, integer indexing and contiguous slicing — the full
    protocol ``pipeline.forecast`` decoding needs — materializing only the
    slice requested. ``np.asarray`` materializes everything.
    """

    def __init__(self, view: "WindowView", part: str):
        if part not in ("x", "y"):
            raise ValueError(f"part must be 'x' or 'y', got {part!r}")
        self._view = view
        self._part = part

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, key):
        view = self._view
        if isinstance(key, slice):
            start, stop, step = key.indices(len(view))
            if step != 1:
                raise ValueError("LazyWindows slices must be contiguous (step 1)")
            return self._materialize(view.start + start, view.start + max(stop, start))
        index = int(key)
        if index < 0:
            index += len(view)
        if not 0 <= index < len(view):
            raise IndexError(f"window {key} out of range for {len(view)} windows")
        return self._materialize(view.start + index, view.start + index + 1)[0]

    def _materialize(self, start: int, stop: int) -> np.ndarray:
        store = self._view.store
        if self._part == "x":
            return store.windows_x(start, stop)
        return store.windows_y(start, stop)

    def __array__(self, dtype=None, copy=None):
        arrays = self._materialize(self._view.start, self._view.stop)
        return arrays if dtype is None else arrays.astype(dtype)


class WindowView:
    """A contiguous range ``[start, stop)`` of a store's windows."""

    def __init__(self, store: WindowStore, start: int, stop: int):
        self.store = store
        self.start = int(start)
        self.stop = int(stop)

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def num_samples(self) -> int:
        return len(self)

    @property
    def x(self) -> LazyWindows:
        return LazyWindows(self, "x")

    @property
    def targets(self) -> LazyWindows:
        return LazyWindows(self, "y")

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize the whole view as eager ``(X, Y)`` arrays."""
        return self.store.windows(self.start, self.stop)

    def raw_x(self) -> np.ndarray:
        """The view's *raw* (denormalized) history windows, stacked.

        What an online caller would actually send: demand counts straight
        from the store's chunks, before any normalization. Serving layers
        use this instead of re-slicing windows themselves.
        """
        if len(self) == 0:
            return np.empty(
                (0, self.store.history, *self.store._require_frame()),
                dtype=self.store._chunks.dtype,
            )
        span = self.store.raw_slots(self.start, self.stop - 1 + self.store.history)
        return np.ascontiguousarray(lazy_window_view(span, self.store.history))

    def batches(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream ``(X, Y)`` batches, shuffled exactly like the eager loop.

        Consumes ``rng`` identically to ``iterate_minibatches`` so a
        streamed epoch is bit-identical to an in-memory one.
        """
        for indices in shuffled_batch_indices(len(self), batch_size, rng):
            yield self.store.windows_at(self.start + indices)


class WindowIterator:
    """Re-iterable ``(X, Y)`` batch stream over a view.

    Satisfies the trainer's batch-source protocol (``num_samples`` +
    ``batches``) and doubles as a plain unshuffled iterable for evaluation
    sweeps; memory stays ``O(batch)`` either way.
    """

    def __init__(
        self,
        view: WindowView,
        batch_size: int = 32,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.view = view
        self.batch_size = int(batch_size)
        self.rng = rng

    @property
    def num_samples(self) -> int:
        return len(self.view)

    def batches(
        self, batch_size: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        return self.view.batches(batch_size or self.batch_size, rng if rng is not None else self.rng)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        return self.view.batches(self.batch_size, self.rng)
