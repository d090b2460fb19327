"""Differentiable primitive operations.

Every function takes/returns :class:`repro.tensor.Tensor` and records
a closure implementing the vector-Jacobian product.  Shapes follow
numpy broadcasting; convolutions use NCHW layout via im2col so the
heavy lifting stays inside BLAS matmuls.

The one domain-specific primitive is :func:`sign_ste` — binarization
with a straight-through estimator — which is the algorithmic core of
the binary Bayesian networks in the NeuSpin paper (Sec. III-A: "the
standard matrix-vector multiplications are replaced with XNOR
operations", which requires ±1 weights trained with an STE).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import bitpack
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled, _unbroadcast

Axis = Union[None, int, Tuple[int, ...]]

__all__ = [
    # elementwise / nonlinearities
    "add", "sub", "mul", "div", "power", "exp", "log", "sqrt", "absolute",
    "relu", "leaky_relu", "sigmoid", "tanh", "hardtanh", "sign_ste",
    "where", "maximum", "clip",
    # linear algebra / reductions / shape
    "matmul", "sum", "mean", "var", "max_reduce",
    "reshape", "transpose", "concat", "getitem", "pad2d",
    # convolution / pooling and the shared kernel substrate
    "conv2d", "max_pool2d", "avg_pool2d", "upsample2d",
    "im2col", "col2im",
    "conv_plan_cache_stats", "clear_conv_plan_cache",
    # softmax family
    "softmax", "log_softmax", "softmax_cross_entropy",
]


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad)
        if b.requires_grad:
            b.accumulate_grad(grad)

    return Tensor.from_op(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad)
        if b.requires_grad:
            b.accumulate_grad(-grad)

    return Tensor.from_op(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * b.data)
        if b.requires_grad:
            b.accumulate_grad(grad * a.data)

    return Tensor.from_op(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad / b.data)
        if b.requires_grad:
            b.accumulate_grad(-grad * a.data / (b.data ** 2))

    return Tensor.from_op(out_data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    out_data = a.data ** exponent

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * exponent * a.data ** (exponent - 1))

    return Tensor.from_op(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * out_data)

    return Tensor.from_op(out_data, (a,), backward)


def log(a, eps: float = 0.0) -> Tensor:
    """Natural log; pass ``eps`` to stabilize near-zero inputs."""
    a = as_tensor(a)
    shifted = a.data + eps
    out_data = np.log(shifted)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad / shifted)

    return Tensor.from_op(out_data, (a,), backward)


def sqrt(a, eps: float = 0.0) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data + eps)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * 0.5 / np.maximum(out_data, 1e-300))

    return Tensor.from_op(out_data, (a,), backward)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * np.sign(a.data))

    return Tensor.from_op(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Nonlinearities
# ----------------------------------------------------------------------
def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * mask)

    return Tensor.from_op(out_data, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * np.where(mask, 1.0, negative_slope))

    return Tensor.from_op(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * (1.0 - out_data ** 2))

    return Tensor.from_op(out_data, (a,), backward)


def hardtanh(a, low: float = -1.0, high: float = 1.0) -> Tensor:
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)
    mask = (a.data > low) & (a.data < high)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * mask)

    return Tensor.from_op(out_data, (a,), backward)


def sign_ste(a, clip: float = 1.0) -> Tensor:
    """Binarize to ±1 with a straight-through estimator.

    Forward: ``sign(x)`` with ``sign(0) := +1`` so weights always map to
    a valid MTJ state (P or AP — the devices have exactly two stable
    states, paper Sec. II-D).  Backward: the gradient passes through
    unchanged inside ``|x| <= clip`` and is zeroed outside, i.e. the
    hard-tanh STE used by BinaryNet-style training.
    """
    a = as_tensor(a)
    out_data = np.where(a.data >= 0, 1.0, -1.0)
    if not (is_grad_enabled() and a.requires_grad):
        # Inference fast path: the STE window mask is backward-only
        # bookkeeping — skip it and the tape node.
        return Tensor(out_data)
    mask = np.abs(a.data) <= clip

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * mask)

    return Tensor.from_op(out_data, (a,), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select ``a`` where ``condition`` else ``b``; condition is constant."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.where(cond, grad, 0.0))
        if b.requires_grad:
            b.accumulate_grad(np.where(cond, 0.0, grad))

    return Tensor.from_op(out_data, (a, b), backward)


def maximum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.where(take_a, grad, 0.0))
        if b.requires_grad:
            b.accumulate_grad(np.where(take_a, 0.0, grad))

    return Tensor.from_op(out_data, (a, b), backward)


def clip(a, low: float, high: float) -> Tensor:
    """Clamp values; gradient flows only through unclipped entries."""
    return hardtanh(a, low, high)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b.accumulate_grad(_unbroadcast(gb, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _expand_reduced(grad: np.ndarray, shape: tuple, axis: Axis,
                    keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape)


def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_expand_reduced(grad, a.data.shape, axis, keepdims))

    return Tensor.from_op(out_data, (a,), backward)


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(out_data.size, 1)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            expanded = _expand_reduced(grad, a.data.shape, axis, keepdims)
            a.accumulate_grad(expanded / count)

    return Tensor.from_op(out_data, (a,), backward)


def var(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Biased variance (divides by N), matching batch-norm semantics."""
    mu = mean(a, axis=axis, keepdims=True)
    centered = sub(a, mu)
    sq = mul(centered, centered)
    return mean(sq, axis=axis, keepdims=keepdims)


def max_reduce(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    expanded_out = a.data.max(axis=axis, keepdims=True)
    mask = a.data == expanded_out
    # Split gradient evenly across ties (rare with float data).
    counts = mask.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            g = grad if keepdims else np.expand_dims(grad, axis)
            a.accumulate_grad(mask * g / counts)

    return Tensor.from_op(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad.reshape(a.data.shape))

    return Tensor.from_op(out_data, (a,), backward)


def transpose(a, axes: Optional[tuple] = None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.transpose(grad, inverse))

    return Tensor.from_op(out_data, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor.accumulate_grad(grad[tuple(index)])

    return Tensor.from_op(out_data, tuple(tensors), backward)


def getitem(a, index) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a.accumulate_grad(full)

    return Tensor.from_op(out_data, (a,), backward)


def pad2d(a, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    a = as_tensor(a)
    if padding == 0:
        return a
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    out_data = np.pad(a.data, pad_width)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad[:, :, padding:-padding, padding:-padding])

    return Tensor.from_op(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Convolution / pooling via im2col — with cached index plans
# ----------------------------------------------------------------------
class _PlanCache:
    """Bounded memo of im2col gather/scatter index plans.

    Every convolution, pooling window and col2im scatter derives its
    fancy-index arrays purely from the spatial geometry ``(h, w, kh,
    kw, stride)``.  Monte-Carlo inference re-runs the same geometry T
    times per prediction (and serving re-runs it per flush), so the
    plans are memoized here and rebuilt only when a new geometry
    appears.  LRU-bounded: a long-lived process cycling through many
    input shapes evicts the least recently used plan instead of
    growing without limit.
    """

    def __init__(self, max_plans: int = 128):
        self.max_plans = max_plans
        self._plans: OrderedDict = OrderedDict()
        # Shared across sharded-serving threads: the lock keeps LRU
        # bookkeeping (move_to_end after a concurrent eviction) and
        # the hit/build counters coherent.
        self._lock = threading.Lock()
        self.hits = 0
        self.builds = 0
        self.evictions = 0

    def get(self, key: tuple, build):
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.builds += 1
        plan = build()
        with self._lock:
            self._plans[key] = plan
            if len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = self.builds = self.evictions = 0


_conv_plans = _PlanCache()


def conv_plan_cache_stats() -> Dict[str, int]:
    """Counters of the shared im2col/pooling plan cache.

    ``builds`` counts index-plan constructions (cache misses); a warm
    steady state — every MC pass, scheduler flush, or training step on
    already-seen geometry — performs zero builds.  The CI bench gate
    and the plan-cache tests assert exactly that.
    """
    return {
        "plans": len(_conv_plans),
        "hits": _conv_plans.hits,
        "builds": _conv_plans.builds,
        "evictions": _conv_plans.evictions,
    }


def clear_conv_plan_cache() -> None:
    """Drop all memoized index plans (and reset the counters)."""
    _conv_plans.clear()


def _build_im2col_indices(h: int, w: int, kh: int, kw: int, stride: int,
                          dilation: int = 1):
    span_h = (kh - 1) * dilation + 1
    span_w = (kw - 1) * dilation + 1
    out_h = (h - span_h) // stride + 1
    out_w = (w - span_w) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"kernel ({kh}x{kw}, dilation {dilation}) does not fit the "
            f"{h}x{w} input")
    i0 = np.repeat(dilation * np.arange(kh), kw)
    j0 = np.tile(dilation * np.arange(kw), kh)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    # The plan is shared across callers: freeze it so an accidental
    # in-place edit cannot corrupt every later forward.
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols, out_h, out_w


def _im2col_indices(h: int, w: int, kh: int, kw: int, stride: int,
                    dilation: int = 1):
    return _conv_plans.get(
        (h, w, kh, kw, stride, dilation),
        lambda: _build_im2col_indices(h, w, kh, kw, stride, dilation))


def _flat_gather_indices(h: int, w: int, kh: int, kw: int,
                         stride: int, dilation: int = 1) -> np.ndarray:
    """Flattened (row·w + col) gather plan over an (…, h·w) view —
    the ``np.take`` form of the im2col plan, memoized alongside it."""
    def build():
        rows, cols, _, _ = _im2col_indices(h, w, kh, kw, stride, dilation)
        flat = np.ascontiguousarray((rows * w + cols).ravel())
        flat.setflags(write=False)
        return flat
    return _conv_plans.get(("flat", h, w, kh, kw, stride, dilation), build)


def _is_exact_ternary(x: np.ndarray) -> bool:
    """True when every element is exactly −1, 0, or +1 (sign outputs,
    possibly dropout-masked) — the precondition for the exact-integer
    float32 inference routes.  Probes a small prefix first so
    real-valued data short-circuits without a full scan."""
    flat = x.reshape(-1)
    probe = flat[:64]
    if not ((probe == 1.0) | (probe == -1.0) | (probe == 0.0)).all():
        return False
    return bool(((flat == 1.0) | (flat == -1.0) | (flat == 0.0)).all())


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, dilation: int = 1):
    """(N, C, H, W) -> (N, C*kh*kw, out_h*out_w) patch matrix."""
    n, c, h, w = x.shape
    rows, cols, out_h, out_w = _im2col_indices(h, w, kh, kw, stride, dilation)
    patches = x[:, :, rows, cols]                     # (N, C, kh*kw, L)
    return patches.reshape(n, c * kh * kw, -1), out_h, out_w


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int,
           dilation: int = 1):
    """Adjoint of :func:`im2col` (scatter-add patches back)."""
    n, c, h, w = x_shape
    rows, cols_idx, out_h, out_w = _im2col_indices(h, w, kh, kw, stride,
                                                   dilation)
    cols = cols.reshape(n, c, kh * kw, -1)
    x = np.zeros(x_shape, dtype=cols.dtype)
    np.add.at(x, (slice(None), slice(None), rows, cols_idx), cols)
    return x


# Per-thread scratch arena for the inference kernels.  The big
# intermediates (channel-first padded image, GEMM-layout patch matrix,
# GEMM output, and on the CIM analog route the wordline drive masks,
# conductance GEMMs and ADC codes) are reused across calls with the
# same geometry, which avoids the large-allocation churn (mmap + page
# faults each call) that otherwise dominates pass-stacked forwards and
# per-pass read-noise loops alike.  Thread-local so sharded serving
# replicas running on a thread pool never share a buffer.  Ownership
# rule: an arena buffer never outlives the stage that filled it — every
# stage output is a fresh array.
_conv_scratch = threading.local()


def _conv_scratch_buffers(key: tuple, shapes):
    cache = getattr(_conv_scratch, "cache", None)
    if cache is None:
        cache = _conv_scratch.cache = OrderedDict()
    bufs = cache.get(key)
    if bufs is None:
        bufs = shapes()
        cache[key] = bufs
        if len(cache) > 32:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return bufs


def _gather_padded_patches(x: np.ndarray, kh: int, kw: int, stride: int,
                           padding: int, dilation: int, dtype: np.dtype,
                           tag: str = "conv"):
    """Arena-backed im2col gather straight into GEMM layout.

    Writes the (N, C, H, W) image interior into a zero-bordered
    channel-first scratch buffer (one pass, casting on the fly — the
    implicit zero-pad), then gathers it with the memoized flat index
    plan into a ``(C, KH·KW·L, N)`` patch slab.  Both buffers live in
    the per-thread scratch arena; ``padding`` is part of their key
    because the pad buffer relies on its border never being written,
    which an unpadded call with the same (h, w) would violate.  The
    border stays zero across reuses because only the interior is ever
    written.  Returns ``(patch_slab, out_h, out_w)``; a flat
    ``(C·KH·KW, L·N)`` view of the slab is a valid GEMM operand whose
    unfolded row axis is channel-major.  Callers with distinct
    consumption patterns pass their own ``tag`` so their slabs never
    alias.
    """
    n, c, h0, w0 = x.shape
    h, w = h0 + 2 * padding, w0 + 2 * padding
    _, _, out_h, out_w = _im2col_indices(h, w, kh, kw, stride, dilation)
    flat_idx = _flat_gather_indices(h, w, kh, kw, stride, dilation)
    key = (tag, n, c, h, w, kh, kw, stride, padding, dilation, dtype.str)
    xtl, patch_slab = _conv_scratch_buffers(
        key, lambda: (
            np.zeros((c, h, w, n), dtype=dtype),
            np.empty((c, kh * kw * out_h * out_w, n), dtype=dtype),
        ))
    interior = (slice(None),
                slice(padding, h - padding), slice(padding, w - padding))
    np.copyto(xtl[interior], x.transpose(1, 2, 3, 0))
    np.take(xtl.reshape(c, h * w, n), flat_idx, axis=1, out=patch_slab)
    return patch_slab, out_h, out_w


def _conv2d_infer(x: np.ndarray, weight: np.ndarray,
                  bias: Optional[np.ndarray], stride: int,
                  padding: int, dilation: int = 1,
                  groups: int = 1,
                  use_bitpack: Optional[bool] = None,
                  packed_weights=None) -> np.ndarray:
    """Inference conv kernel: gather straight into GEMM layout.

    Bit-identical to the im2col/einsum training path on binary data
    (the exact-integer route below) and identical to float64 rounding
    (1–2 ulp, from BLAS regrouping the reduction) on real-valued
    data; batched-vs-sequential MC parity always holds bitwise
    because both strategies run this same kernel.  Several times
    faster than the einsum path on the pass-stacked shapes, through
    three mechanisms:

    * the patch matrix is gathered by one ``np.take`` directly into
      the ``(C·KH·KW, L·N)`` layout a single BLAS call consumes — no
      batched einsum, no intermediate transpose copy, and the zero-pad
      happens implicitly by writing the image interior into a
      zero-bordered channel-first scratch buffer;
    * all large intermediates live in a per-thread scratch arena
      (see :data:`_conv_scratch`) reused across calls with the same
      geometry, sidestepping large-allocation churn;
    * binary (XNOR) convs take an *exact-integer* float32 route: when
      the kernel is ±1 and the activations are in {−1, 0, +1} (sign
      outputs, possibly dropout-masked), every partial sum is a small
      integer, which float32 represents exactly — half the memory
      traffic, bit-identical float64 results.  This is the software
      shadow of the paper's XNOR-popcount MAC: integer-exact
      arithmetic is what makes the crossbar readout (and this
      shortcut) lossless.

    Within the exact route, ``use_bitpack`` selects the bit-packed
    XNOR/popcount kernel of :mod:`repro.tensor.bitpack` (None = auto,
    True = force, False = float32 GEMM): the im2col slab is packed
    column-major into sign/active planes and each group's GEMM becomes
    a word-loop popcount, with bit-identical integer partial sums.
    ``packed_weights`` is a per-group list of pre-packed kernel
    operands (see :func:`repro.tensor.bitpack.pack_weight_groups`);
    when omitted under a forced route the kernel is packed per call,
    which is correct but costs more than the GEMV it replaces — the
    auto heuristic therefore only ever takes the packed route with
    pre-packed weights.
    """
    c_out, c_in_pg, kh, kw = weight.shape
    # Exact-integer route: products are ±x and |sum| <= C·KH·KW, far
    # inside float32's 2^24 exact-integer range.
    w_flat = weight.reshape(-1)
    exact_binary = (
        np.abs(w_flat).max(initial=0.0) == 1.0
        and np.abs(w_flat).min(initial=1.0) == 1.0
        and _is_exact_ternary(x))
    dtype = np.dtype(np.float32 if exact_binary else x.dtype)
    n, c, h0, w0 = x.shape
    if c != c_in_pg * groups:
        raise ValueError(
            f"input has {c} channels, weight expects {c_in_pg * groups} "
            f"({c_in_pg} per group x {groups} groups)")
    gather_buf, out_h, out_w = _gather_padded_patches(
        x, kh, kw, stride, padding, dilation, dtype)
    f_g, ln = c_in_pg * kh * kw, out_h * out_w * n
    (out_buf,) = _conv_scratch_buffers(
        ("conv_out", c_out, ln, dtype.str),
        lambda: (np.empty((c_out, ln), dtype=dtype),))
    packed = False
    if exact_binary:
        if use_bitpack is None:
            packed = (packed_weights is not None
                      and bitpack.packed_route_beneficial(
                          ln, f_g, c_out // groups))
        else:
            packed = bool(use_bitpack)
    if packed:
        if packed_weights is None:
            packed_weights = bitpack.pack_weight_groups(weight, groups)
        grouped_in = gather_buf.reshape(groups, f_g, ln)
        grouped_out = out_buf.reshape(groups, c_out // groups, ln)
        for g in range(groups):
            bitpack.packed_mvm(bitpack.pack_ternary_cols(grouped_in[g]),
                               packed_weights[g], out=grouped_out[g],
                               col_major=True)
    elif groups == 1:
        np.matmul(weight.reshape(c_out, -1).astype(dtype),
                  gather_buf.reshape(f_g, ln), out=out_buf)
    else:
        # Block-diagonal GEMM: the gather buffer's unfolded row axis is
        # channel-major, so each group's rows are one contiguous slab.
        np.matmul(weight.reshape(groups, c_out // groups, f_g).astype(dtype),
                  gather_buf.reshape(groups, f_g, ln),
                  out=out_buf.reshape(groups, c_out // groups, ln))
    out = np.ascontiguousarray(
        out_buf.reshape(c_out, out_h * out_w, n).transpose(2, 0, 1),
        dtype=np.float64).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0,
           dilation: int = 1, groups: int = 1) -> Tensor:
    """2-D convolution in NCHW layout.

    ``weight`` has shape (C_out, C_in/groups, KH, KW); ``groups``
    splits input and output channels into that many independent
    convolutions (depthwise when ``groups == C_in``), and ``dilation``
    spreads the kernel taps ``dilation`` pixels apart (à-trous
    convolution).  Implemented as im2col + matmul, which is also
    exactly how the CIM crossbar mapping strategy ① of Fig. 1 unrolls
    kernels into crossbar columns — the deployed
    :class:`repro.cim.CimConv2d` reuses the same im2col (and the same
    memoized index plans).  Inference (``no_grad``) takes a faster
    single-GEMM kernel with the same bit-level results — see
    :func:`_conv2d_infer`.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    c_out, c_in_pg, kh, kw = weight.data.shape
    if groups < 1 or dilation < 1:
        raise ValueError("groups and dilation must be >= 1")
    if c_out % groups:
        raise ValueError(f"out_channels {c_out} not divisible by "
                         f"groups {groups}")
    if x.data.shape[1] != c_in_pg * groups:
        raise ValueError(
            f"input has {x.data.shape[1]} channels, weight expects "
            f"{c_in_pg * groups} ({c_in_pg} per group x {groups} groups)")
    if not (is_grad_enabled()
            and (x.requires_grad or weight.requires_grad
                 or (bias is not None and as_tensor(bias).requires_grad))):
        bias_data = None if bias is None else as_tensor(bias).data
        return Tensor(_conv2d_infer(x.data, weight.data, bias_data,
                                    stride, padding, dilation, groups))
    if padding:
        x_padded = pad2d(x, padding)
    else:
        x_padded = x

    n = x_padded.data.shape[0]
    cols, out_h, out_w = im2col(x_padded.data, kh, kw, stride, dilation)
    c_out_pg, f_g = c_out // groups, c_in_pg * kh * kw
    if groups == 1:
        w_mat = weight.data.reshape(c_out, -1)        # (C_out, C_in*kh*kw)
        out = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
    else:
        # Channel-major unfolded rows: each group's patch rows are one
        # contiguous slab of the im2col matrix.
        w_mat = weight.data.reshape(groups, c_out_pg, f_g)
        cols_g = cols.reshape(n, groups, f_g, -1)
        out = np.einsum("gof,ngfl->ngol", w_mat, cols_g, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x_padded, weight) if bias is None else (x_padded, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, -1)         # (N, C_out, L)
        if groups > 1:
            grad_mat = grad_mat.reshape(n, groups, c_out_pg, -1)
        if weight.requires_grad:
            if groups == 1:
                gw = np.einsum("nol,nfl->of", grad_mat, cols, optimize=True)
            else:
                gw = np.einsum("ngol,ngfl->gof", grad_mat, cols_g,
                               optimize=True)
            weight.accumulate_grad(gw.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x_padded.requires_grad:
            if groups == 1:
                gcols = np.einsum("of,nol->nfl", w_mat, grad_mat,
                                  optimize=True)
            else:
                gcols = np.einsum("gof,ngol->ngfl", w_mat, grad_mat,
                                  optimize=True).reshape(n, groups * f_g, -1)
            gx = col2im(gcols, x_padded.data.shape, kh, kw, stride, dilation)
            x_padded.accumulate_grad(gx)

    return Tensor.from_op(out, parents, backward)


def _max_pool2d_infer(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Inference pooling kernel: plain windowed max.

    No argmax pooling plan, no take_along_axis gather, no backward
    closure — bit-identical to the gradient path's forward (argmax
    selects the same maximal element).  When the activations are sign
    outputs (±1, possibly 0 under a channel mask) the window gather
    additionally runs in float32 — exact for those values, half the
    memory traffic on the pass-stack.
    """
    n, c, h, w = x.shape
    dtype = np.dtype(np.float32 if _is_exact_ternary(x) else x.dtype)
    _, _, out_h, out_w = _im2col_indices(h, w, kernel, kernel, stride)
    flat_idx = _flat_gather_indices(h, w, kernel, kernel, stride)
    k2, length = kernel * kernel, out_h * out_w
    key = ("pool", n * c, h, w, kernel, stride, dtype.str)
    (gather_buf,) = _conv_scratch_buffers(
        key, lambda: (
            np.empty((n * c, k2 * length), dtype=dtype),
        ))
    np.take(x.reshape(n * c, h * w).astype(dtype, copy=False), flat_idx,
            axis=1, out=gather_buf)
    out = gather_buf.reshape(n * c, k2, length).max(axis=1)
    return out.astype(np.float64).reshape(n, c, out_h, out_w)


def max_pool2d(x, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    x = as_tensor(x)
    stride = stride or kernel
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(_max_pool2d_infer(x.data, kernel, stride))
    n, c, h, w = x.data.shape
    cols, out_h, out_w = im2col(
        x.data.reshape(n * c, 1, h, w), kernel, kernel, stride)
    cols = cols.reshape(n * c, kernel * kernel, -1)
    arg = cols.argmax(axis=1)                          # (N*C, L)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = out.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            gcols = np.zeros_like(cols)
            np.put_along_axis(
                gcols, arg[:, None, :],
                grad.reshape(n * c, 1, -1), axis=1)
            gx = col2im(gcols.reshape(n * c, kernel * kernel, -1),
                        (n * c, 1, h, w), kernel, kernel, stride)
            x.accumulate_grad(gx.reshape(n, c, h, w))

    return Tensor.from_op(out_data, (x,), backward)


def avg_pool2d(x, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    x = as_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.data.shape
    cols, out_h, out_w = im2col(
        x.data.reshape(n * c, 1, h, w), kernel, kernel, stride)
    cols = cols.reshape(n * c, kernel * kernel, -1)
    out_data = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    k2 = kernel * kernel

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = np.repeat(grad.reshape(n * c, 1, -1), k2, axis=1) / k2
            gx = col2im(g, (n * c, 1, h, w), kernel, kernel, stride)
            x.accumulate_grad(gx.reshape(n, c, h, w))

    return Tensor.from_op(out_data, (x,), backward)


def upsample2d(x, factor: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of NCHW tensors.

    The decoder primitive for the segmentation models (the paper's
    SpinBayes evaluation includes semantic segmentation).  Backward
    sums each output block's gradient back to its source pixel.
    """
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError("upsample2d expects (N, C, H, W)")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n, c, h, w = x.data.shape
    # Single-copy expansion: a strided broadcast view materialized by
    # one reshape, instead of repeat()'s two sequential copies.
    out_data = np.ascontiguousarray(np.broadcast_to(
        x.data[:, :, :, None, :, None],
        (n, c, h, factor, w, factor))).reshape(
            n, c, h * factor, w * factor)
    if not (is_grad_enabled() and x.requires_grad):
        # Inference fast path: no backward closure, no tape node.
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = grad.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5))
            x.accumulate_grad(g)

    return Tensor.from_op(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def _softmax_np(z: np.ndarray, axis: int) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    out_data = _softmax_np(a.data, axis)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a.accumulate_grad(out_data * (grad - dot))

    return Tensor.from_op(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(
                grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor.from_op(out_data, (a,), backward)


def softmax_cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and int ``labels`` (N,).

    Fused for numerical stability; the classification loss used by
    every NeuSpin method's training objective.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.data.shape[0]
    probs = _softmax_np(logits.data, axis=-1)
    nll = -np.log(np.maximum(probs[np.arange(n), labels], 1e-300))
    out_data = np.asarray(nll.mean())

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(n), labels] -= 1.0
            logits.accumulate_grad(grad * g / n)

    return Tensor.from_op(out_data, (logits,), backward)
