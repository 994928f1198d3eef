"""Convolution primitives: conv2d/conv3d and their transposes.

Implementation strategy
-----------------------
Every kernel works channels-first on the padded input and computes exact
adjoints: the input gradient is the transpose of the forward operator, and
transposed convolution is literally that adjoint, so its forward reuses the
input-gradient kernel and its backward reuses the forward convolution —
verified by finite differences.

Two strategies, chosen from the kernel volume alone
---------------------------------------------------
- **direct** (volume < ``FFT_MIN_KERNEL_VOLUME`` = 48): plain slicing plus
  one ``np.matmul`` per sample. Each direction expands only the operand
  with fewer channels by the kernel taps. The forward is im2col then GEMM
  when ``C_in ≤ C_out``, otherwise GEMM then a shifted-plane add. The
  input gradient is GEMM then col2im when ``C_in ≤ C_out``, otherwise the
  forward of the zero-stuffed gradient with the flipped kernel, padded
  only as far as the unpadded input needs. The weight gradient reuses the
  im2col columns the forward captured.
- **fft** (volume ≥ 48, i.e. the pyramid kernels): frequency-domain
  convolution via ``scipy.fft``, whose cost scales with the *input* volume
  only. Kernel FFTs are cached across calls while the weights are
  unchanged, and the padded-input FFT computed on the forward pass is
  reused by the weight gradient of the same op.

The direct kernels bound their transients by walking the batch in chunks.
Every FFT runs with ``workers=1``: parallelism comes from batch shards
(:func:`repro.nn.engine.run_shards`), and FFT threads would compete with
them.

Data layout is channels-first: ``(N, C, D, H, W)`` for 3-D and
``(N, C, H, W)`` for 2-D. 3-D kernels are ``(C_out, C_in, kD, kH, kW)``;
transposed kernels are ``(C_in, C_out, kD, kH, kW)``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import config, engine
from repro.nn.tensor import Tensor, as_tensor, make_op

PadSpec = Union[int, Sequence[int], Sequence[Tuple[int, int]]]
_Pads = Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]


def normalize_stride(stride, dims: int) -> Tuple[int, ...]:
    if isinstance(stride, int):
        return (stride,) * dims
    stride = tuple(int(s) for s in stride)
    if len(stride) != dims:
        raise ValueError(f"stride must have {dims} entries, got {stride}")
    return stride


def normalize_pads(padding: PadSpec, dims: int) -> Tuple[Tuple[int, int], ...]:
    """Normalize padding to per-axis (before, after) pairs.

    Accepts an int (same everywhere), a sequence of ints (symmetric per
    axis), or a sequence of (before, after) pairs (asymmetric — used for the
    causal temporal padding of the pyramid convolution).
    """
    if isinstance(padding, int):
        return ((padding, padding),) * dims
    padding = list(padding)
    if len(padding) != dims:
        raise ValueError(f"padding must have {dims} entries, got {padding}")
    pairs = []
    for item in padding:
        if isinstance(item, int):
            pairs.append((item, item))
        else:
            before, after = item
            pairs.append((int(before), int(after)))
    return tuple(pairs)


def same_padding(kernel_size: Sequence[int]) -> Tuple[int, ...]:
    """Symmetric 'same' padding for odd kernels at stride 1."""
    pads = []
    for k in kernel_size:
        if k % 2 == 0:
            raise ValueError(f"'same' padding requires odd kernel sizes, got {k}")
        pads.append((k - 1) // 2)
    return tuple(pads)


# ---------------------------------------------------------------------------
# Low-level numpy kernels (no autograd)
# ---------------------------------------------------------------------------

# Kernels with at least this many taps take the FFT path, all others the
# direct path. The pyramid kernels (5×9×9 = 405, 4×7×7 = 196) sit far above
# it; every other conv in the repository (3×3×3 = 27, 1×3×3, 1×1×1, the
# 5×3×3 = 45 cube of the no-pyramid ablation) sits below.
FFT_MIN_KERNEL_VOLUME = 48


def _use_fft(kernel) -> bool:
    return int(np.prod(kernel)) >= FFT_MIN_KERNEL_VOLUME


def _pad5(x: np.ndarray, pads: _Pads) -> np.ndarray:
    """Zero-pad the spatial axes.

    A negative entry crops that many planes instead (the tight padding of
    :func:`conv3d_input_grad` can ask for it when a pad exceeds kernel − 1).
    """
    if any(p < 0 for pair in pads for p in pair):
        x = x[(slice(None), slice(None)) + tuple(
            slice(max(-before, 0), x.shape[2 + i] - max(-after, 0))
            for i, (before, after) in enumerate(pads)
        )]
        pads = tuple((max(before, 0), max(after, 0)) for before, after in pads)
    if all(p == (0, 0) for p in pads):
        return x
    shape = x.shape[:2] + tuple(
        x.shape[2 + i] + pads[i][0] + pads[i][1] for i in range(3)
    )
    buffer = np.zeros(shape, x.dtype)
    interior = (slice(None), slice(None)) + tuple(
        slice(pads[i][0], pads[i][0] + x.shape[2 + i]) for i in range(3)
    )
    buffer[interior] = x
    return buffer


def _view_identity(arr: np.ndarray) -> Tuple:
    """Cache key for a (possibly viewed) kernel: root object + view layout.

    Kernels arrive as flip/transpose *views* rebuilt on every call, so the
    view object's own identity is useless as a key; the root buffer plus the
    view's memory layout pins down exactly which values the view reads.
    """
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    return root, (
        arr.shape,
        arr.strides,
        arr.__array_interface__["data"][0],
        np.dtype(arr.dtype).str,
    )


def _kernel_rfftn(w: np.ndarray, spatial: Tuple[int, ...], flip: bool) -> np.ndarray:
    """(Cached) FFT of a conv kernel zero-extended to the padded-input size."""
    from scipy import fft as sfft

    root, layout = _view_identity(w)

    def build() -> np.ndarray:
        kernel = w[:, :, ::-1, ::-1, ::-1] if flip else w
        return sfft.rfftn(kernel, s=spatial, axes=(2, 3, 4), workers=1)

    return engine.kernel_fft(root, (tuple(spatial), flip) + layout, build)


def _conv3d_forward_fft(
    xp: np.ndarray, w: np.ndarray, stride, capture: Optional[dict] = None
) -> np.ndarray:
    """Valid 3-D cross-correlation of a padded input via FFT."""
    from scipy import fft as sfft

    spatial = xp.shape[2:]
    kernel = w.shape[2:]
    fx = sfft.rfftn(xp, s=spatial, axes=(2, 3, 4), workers=1)
    if capture is not None:
        capture["fx"] = fx
        capture["fx_spatial"] = spatial
    fw = _kernel_rfftn(w, spatial, flip=True)
    product = engine.einsum("ncdhw,ocdhw->nodhw", fx, fw)
    full = sfft.irfftn(product, s=spatial, axes=(2, 3, 4), workers=1)
    # The valid-correlation region of a circular convolution with
    # S = padded-input size starts at kernel−1 (wraparound only pollutes
    # indices below that).
    out = full[:, :, kernel[0] - 1 :, kernel[1] - 1 :, kernel[2] - 1 :]
    return np.ascontiguousarray(out[:, :, :: stride[0], :: stride[1], :: stride[2]])


def _stuff_stride(gout: np.ndarray, stride) -> np.ndarray:
    """Zero-stuff ``gout`` back onto the stride-1 lattice (no-op at stride 1)."""
    if stride == (1, 1, 1):
        return gout
    stuffed_shape = tuple((gout.shape[2 + i] - 1) * stride[i] + 1 for i in range(3))
    stuffed = np.zeros(gout.shape[:2] + stuffed_shape, gout.dtype)
    stuffed[:, :, :: stride[0], :: stride[1], :: stride[2]] = gout
    return stuffed


def _conv3d_weight_grad_fft(
    xp_spatial: Tuple[int, ...],
    gout: np.ndarray,
    kernel_size,
    stride,
    xp: Optional[np.ndarray] = None,
    fx: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Kernel gradient via the cross-correlation theorem.

    With the output gradient zero-stuffed back onto the stride-1 lattice,
    ``gw[o,c,l] = Σ_{n,t} xp[n,c,t+l] · g[n,o,t]`` for lags ``l < kernel`` —
    no wraparound because the stuffed output's support plus the maximum lag
    stays inside the padded input extent.

    ``fx`` (if given) is the forward pass's ``rfftn`` of the same padded
    input, reused instead of transforming ``xp`` again.
    """
    from scipy import fft as sfft

    spatial = tuple(xp_spatial)
    gout = _stuff_stride(gout, tuple(stride))
    if fx is None:
        fx = sfft.rfftn(xp, s=spatial, axes=(2, 3, 4), workers=1)
    fg = sfft.rfftn(gout, s=spatial, axes=(2, 3, 4), workers=1)
    corr = sfft.irfftn(
        engine.einsum("ncdhw,nodhw->ocdhw", fx, np.conj(fg)),
        s=spatial,
        axes=(2, 3, 4),
        workers=1,
    )
    kd, kh, kw = kernel_size
    return np.ascontiguousarray(corr[:, :, :kd, :kh, :kw])


def _tap_windows(kernel, stride, out_spatial) -> list:
    """Per kernel tap (C order), the strided slice of the padded input that
    the tap reads across all output positions."""
    return [
        (slice(None), slice(None)) + tuple(
            slice(offset, offset + step * (size - 1) + 1, step)
            for offset, step, size in zip(tap, stride, out_spatial)
        )
        for tap in np.ndindex(*kernel)
    ]


# The direct kernels walk the batch in chunks whose tap-expanded operand is
# about this size: it stays in cache between the copy and the GEMM, and no
# transient grows with the batch.
_CHUNK_BYTES = 1 << 21


def _sample_chunks(batch: int, expanded_per_sample: int, itemsize: int) -> list:
    step = max(1, _CHUNK_BYTES // (expanded_per_sample * itemsize))
    return [slice(start, start + step) for start in range(0, batch, step)]


def _im2col(xp: np.ndarray, windows, out_spatial, out: Optional[np.ndarray] = None):
    """Channels-first columns ``(n, C·taps, positions)`` of a padded input."""
    batch, channels = xp.shape[:2]
    if out is None:
        out = np.empty(
            (batch, channels * len(windows), int(np.prod(out_spatial))), xp.dtype
        )
    planes = out.reshape((batch, channels, len(windows)) + tuple(out_spatial))
    for tap, window in enumerate(windows):
        planes[:, :, tap] = xp[window]
    return out


def _conv3d_forward_direct(
    xp: np.ndarray, w: np.ndarray, stride, capture: Optional[dict] = None
) -> np.ndarray:
    """Valid 3-D cross-correlation with per-sample GEMMs.

    Only the side with fewer channels is expanded by the kernel taps: the
    input into im2col columns when ``C_in ≤ C_out`` (handed to ``capture``
    for the weight gradient), otherwise the GEMM output, one plane per tap
    over the padded grid, which shifted-plane adds then reduce.
    """
    c_out, c_in = w.shape[:2]
    kernel = w.shape[2:]
    batch = xp.shape[0]
    out_spatial = tuple(
        (xp.shape[2 + i] - kernel[i]) // stride[i] + 1 for i in range(3)
    )
    taps = int(np.prod(kernel))
    windows = _tap_windows(kernel, stride, out_spatial)
    dtype = np.result_type(xp, w)
    if c_in <= c_out:
        positions = int(np.prod(out_spatial))
        out = np.empty((batch, c_out, positions), dtype)
        cols = None
        if capture is not None:
            # Kept for the weight gradient, which consumes them.
            cols = capture["cols"] = np.empty(
                (batch, c_in * taps, positions), xp.dtype
            )
        w_rows = w.reshape(c_out, -1)
        for chunk in _sample_chunks(batch, c_in * taps * positions, xp.itemsize):
            block = _im2col(
                xp[chunk], windows, out_spatial, None if cols is None else cols[chunk]
            )
            np.matmul(w_rows, block, out=out[chunk])
        return out.reshape((batch, c_out) + out_spatial)
    padded_positions = int(np.prod(xp.shape[2:]))
    tap_weights = w.reshape(c_out, c_in, taps).transpose(2, 0, 1).reshape(-1, c_in)
    out = np.empty((batch, c_out) + out_spatial, dtype)
    for chunk in _sample_chunks(batch, taps * c_out * padded_positions, xp.itemsize):
        block = out[chunk]
        planes = np.matmul(
            tap_weights, xp[chunk].reshape(-1, c_in, padded_positions)
        ).reshape((-1, taps, c_out) + xp.shape[2:])
        np.copyto(block, planes[:, 0][windows[0]])
        for tap in range(1, taps):
            block += planes[:, tap][windows[tap]]
    return out


def _gemm_weight_grad(gout: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``Σ_n gout[n] · cols[n]ᵀ``: the ``(C_out, C_in·taps)`` kernel gradient."""
    batch, c_out = gout.shape[:2]
    return np.matmul(
        gout.reshape(batch, c_out, -1), cols.transpose(0, 2, 1)
    ).sum(axis=0)


def _col2im_input_grad(
    gout: np.ndarray, w: np.ndarray, x_spatial, stride, pads: _Pads
) -> np.ndarray:
    """Input gradient as GEMM then col2im: the adjoint of im2col + GEMM."""
    c_out, c_in = w.shape[:2]
    kernel = w.shape[2:]
    batch = gout.shape[0]
    out_spatial = gout.shape[2:]
    taps = int(np.prod(kernel))
    windows = _tap_windows(kernel, stride, out_spatial)
    padded = tuple(x_spatial[i] + pads[i][0] + pads[i][1] for i in range(3))
    grad = np.zeros((batch, c_in) + padded, np.result_type(gout, w))
    w_cols = w.reshape(c_out, -1).T
    flat = gout.reshape(batch, c_out, -1)
    for chunk in _sample_chunks(batch, c_in * taps * flat.shape[2], grad.itemsize):
        block = grad[chunk]
        planes = np.matmul(w_cols, flat[chunk]).reshape(
            (-1, c_in, taps) + tuple(out_spatial)
        )
        for tap, window in enumerate(windows):
            block[window] += planes[:, :, tap]
    return grad[(slice(None), slice(None)) + tuple(
        slice(pads[i][0], pads[i][0] + x_spatial[i]) for i in range(3)
    )]


def conv3d_forward(
    x: np.ndarray, w: np.ndarray, stride, pads: _Pads, _capture: Optional[dict] = None
) -> np.ndarray:
    """Plain 3-D cross-correlation. x:(N,C,D,H,W), w:(O,C,kd,kh,kw).

    ``_capture`` (optional) receives the intermediates the weight gradient
    reuses: the padded-input FFT (``fx``) or the im2col columns (``cols``).
    """
    stride = tuple(stride)
    xp = _pad5(x, pads)
    if _use_fft(w.shape[2:]):
        return _conv3d_forward_fft(xp, w, stride, capture=_capture)
    return _conv3d_forward_direct(xp, w, stride, capture=_capture)


def conv3d_weight_grad(
    x: np.ndarray,
    gout: np.ndarray,
    kernel_size,
    stride,
    pads: _Pads,
    _captured: Optional[dict] = None,
) -> np.ndarray:
    """Gradient of conv3d w.r.t. the kernel.

    ``_captured`` (optional) carries forward-pass intermediates for the same
    op — the padded-input FFT (``fx``) or the im2col columns (``cols``) —
    which this contraction reuses instead of recomputing.
    """
    stride = tuple(stride)
    kernel_size = tuple(kernel_size)
    captured = _captured or {}
    if _use_fft(kernel_size):
        padded_spatial = tuple(
            x.shape[2 + i] + pads[i][0] + pads[i][1] for i in range(3)
        )
        fx = captured.get("fx")
        if fx is not None and captured.get("fx_spatial") == padded_spatial:
            return _conv3d_weight_grad_fft(
                padded_spatial, gout, kernel_size, stride, fx=fx
            )
        return _conv3d_weight_grad_fft(
            padded_spatial, gout, kernel_size, stride, xp=_pad5(x, pads)
        )
    grad_shape = (gout.shape[1], -1) + kernel_size
    # Popped, so a second backward through the same graph rebuilds them.
    cols = captured.pop("cols", None)
    if cols is not None:
        return _gemm_weight_grad(gout, cols).reshape(grad_shape)
    xp = _pad5(x, pads)
    out_spatial = gout.shape[2:]
    windows = _tap_windows(kernel_size, stride, out_spatial)
    expanded = x.shape[1] * len(windows) * int(np.prod(out_spatial))
    grad = sum(
        _gemm_weight_grad(gout[chunk], _im2col(xp[chunk], windows, out_spatial))
        for chunk in _sample_chunks(x.shape[0], expanded, xp.itemsize)
    )
    return grad.reshape(grad_shape)


def conv3d_input_grad(
    gout: np.ndarray,
    w: np.ndarray,
    x_spatial,
    stride,
    pads: _Pads,
    _capture: Optional[dict] = None,
) -> np.ndarray:
    """Gradient of conv3d w.r.t. its input (the adjoint convolution).

    ``x_spatial`` is the (D, H, W) of the *unpadded* input whose gradient is
    required; this also serves as the forward pass of transposed convolution.
    With ``C_in ≤ C_out`` on the direct path it is GEMM then col2im;
    otherwise it is the forward convolution of the zero-stuffed gradient with
    the flipped, channel-swapped kernel, padded exactly as far as the
    unpadded input region needs. ``_capture`` goes to that forward.
    """
    stride = tuple(stride)
    kernel = w.shape[2:]
    for i in range(3):
        padded = x_spatial[i] + pads[i][0] + pads[i][1]
        if padded < (gout.shape[2 + i] - 1) * stride[i] + kernel[i]:
            raise ValueError("inconsistent shapes for conv3d_input_grad")
    if not _use_fft(kernel) and w.shape[1] <= w.shape[0]:
        return _col2im_input_grad(gout, w, x_spatial, stride, pads)
    stuffed = _stuff_stride(gout, stride)
    tight_pads = tuple(
        (kernel[i] - 1 - pads[i][0], pads[i][0] + x_spatial[i] - stuffed.shape[2 + i])
        for i in range(3)
    )
    flipped = np.flip(w, axis=(2, 3, 4)).transpose(1, 0, 2, 3, 4)  # (C_in, C_out, k)
    return conv3d_forward(stuffed, flipped, (1, 1, 1), tight_pads, _capture=_capture)


# ---------------------------------------------------------------------------
# Autograd ops
# ---------------------------------------------------------------------------

def conv3d(
    x,
    w,
    b=None,
    stride=1,
    padding: PadSpec = 0,
    weight_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """3-D convolution. ``weight_mask`` (if given) is a fixed binary mask
    multiplied into the kernel — this is how the pyramid kernel gates its
    weights while keeping a dense convolution code path."""
    x, w = as_tensor(x), as_tensor(w)
    b = as_tensor(b) if b is not None else None
    stride3 = normalize_stride(stride, 3)
    pads = normalize_pads(padding, 3)
    w_eff = engine.masked_weight(w.data, weight_mask) if weight_mask is not None else w.data
    capture: Optional[dict] = (
        {} if config.grad_enabled() and w.requires_grad else None
    )
    data = conv3d_forward(x.data, w_eff, stride3, pads, _capture=capture)
    if b is not None:
        data = data + b.data[None, :, None, None, None]

    x_spatial = x.shape[2:]
    kernel = w.shape[2:]

    def backward(grad):
        gx = gw = gb = None
        if x.requires_grad:
            gx = conv3d_input_grad(grad, w_eff, x_spatial, stride3, pads)
        if w.requires_grad:
            gw = conv3d_weight_grad(
                x.data, grad, kernel, stride3, pads, _captured=capture
            )
            if weight_mask is not None:
                gw = gw * weight_mask
        if b is not None and b.requires_grad:
            gb = grad.sum(axis=(0, 2, 3, 4))
        grads = [gx, gw]
        if b is not None:
            grads.append(gb)
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return make_op(data, parents, backward)


def conv_transpose3d(
    x,
    w,
    b=None,
    stride=1,
    padding: PadSpec = 0,
    output_padding=0,
) -> Tensor:
    """3-D transposed convolution (the exact adjoint of :func:`conv3d`).

    ``w`` has shape ``(C_in, C_out, kD, kH, kW)``. Output spatial size is
    ``(D - 1) * stride - pad_before - pad_after + kernel + output_padding``.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = as_tensor(b) if b is not None else None
    stride3 = normalize_stride(stride, 3)
    pads = normalize_pads(padding, 3)
    opads = normalize_stride(output_padding, 3)
    out_spatial = tuple(
        (x.shape[2 + i] - 1) * stride3[i]
        - pads[i][0]
        - pads[i][1]
        + w.shape[2 + i]
        + opads[i]
        for i in range(3)
    )
    for i, size in enumerate(out_spatial):
        if size <= 0:
            raise ValueError(f"non-positive transposed-conv output size {size} on axis {i}")

    # The transpose's forward is the input-gradient of a conv whose weight is
    # w viewed as (O=C_in, C=C_out, k...) and whose input has out_spatial.
    # With C_in < C_out on the direct path that is a flipped-kernel forward
    # whose im2col columns of x (the narrow side) the weight gradient reuses.
    kernel = w.shape[2:]
    capture: Optional[dict] = (
        {} if config.grad_enabled() and w.requires_grad and not _use_fft(kernel) else None
    )
    data = conv3d_input_grad(x.data, w.data, out_spatial, stride3, pads, _capture=capture)
    if b is not None:
        data = data + b.data[None, :, None, None, None]

    def backward(grad):
        gx = gw = gb = None
        grad_capture: Optional[dict] = {} if w.requires_grad else None
        if x.requires_grad:
            gx = conv3d_forward(grad, w.data, stride3, pads, _capture=grad_capture)
        if w.requires_grad:
            cols = capture.pop("cols", None) if capture else None
            if cols is not None:
                # The flipped-kernel forward's weight gradient, flipped back.
                flipped = _gemm_weight_grad(grad, cols).reshape(
                    (grad.shape[1], -1) + kernel
                )
                gw = np.ascontiguousarray(
                    np.flip(flipped, axis=(2, 3, 4)).transpose(1, 0, 2, 3, 4)
                )
            else:
                gw = conv3d_weight_grad(
                    grad, x.data, kernel, stride3, pads, _captured=grad_capture
                )
        if b is not None and b.requires_grad:
            gb = grad.sum(axis=(0, 2, 3, 4))
        grads = [gx, gw]
        if b is not None:
            grads.append(gb)
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return make_op(data, parents, backward)


def conv2d(x, w, b=None, stride=1, padding: PadSpec = 0) -> Tensor:
    """2-D convolution on the 3-D kernels with a unit depth axis.

    A single autograd node: the depth axis is added/removed on the raw
    arrays rather than through ``expand_dims``/``squeeze`` ops, so each conv
    layer costs one graph node per step instead of three.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = as_tensor(b) if b is not None else None
    stride3 = (1,) + normalize_stride(stride, 2)
    pads3 = ((0, 0),) + normalize_pads(padding, 2)
    x5 = x.data[:, :, None]  # (N, C, 1, H, W) view
    w5 = w.data[:, :, None]  # (O, C, 1, kH, kW) view
    capture: Optional[dict] = (
        {} if config.grad_enabled() and w.requires_grad else None
    )
    data5 = conv3d_forward(x5, w5, stride3, pads3, _capture=capture)
    data = data5[:, :, 0]
    if b is not None:
        data = data + b.data[None, :, None, None]

    x_spatial = x5.shape[2:]
    kernel = w5.shape[2:]

    def backward(grad):
        grad5 = grad[:, :, None]
        gx = gw = gb = None
        if x.requires_grad:
            gx = conv3d_input_grad(grad5, w5, x_spatial, stride3, pads3)[:, :, 0]
        if w.requires_grad:
            gw = conv3d_weight_grad(
                x5, grad5, kernel, stride3, pads3, _captured=capture
            )[:, :, 0]
        if b is not None and b.requires_grad:
            gb = grad.sum(axis=(0, 2, 3))
        grads = [gx, gw]
        if b is not None:
            grads.append(gb)
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return make_op(data, parents, backward)
