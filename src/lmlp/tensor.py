"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float64 by default, float32 for training runs).
An op with several tensor operands needs them in one dtype and raises
``UsageError`` on a mix; a number or array operand takes the tensor's dtype.
Every differentiable operation hangs a graph node on the tensor it returns:
a sequence number, its operands' nodes (or the requires-grad leaves
themselves) and a vector-Jacobian callback. A node holds only what backward
reads, never an output or operand tensor, so a forward array that no vjp
reads is freed as soon as the caller drops it; GELU, for one, keeps its
derivative factor instead of its input. The graph is owned by its outputs
and freed with the loss, and nothing needs a reset. ``backward`` on a scalar
loss runs the operations reachable from the loss in exact reverse execution
order and accumulates gradients into the leaves.

Model layers map onto few, coarse ops: ``matmul`` is a dense layer over one
chosen axis, ``layer_norm`` normalizes one chosen axis, and ``attention`` is
a whole multi-head softmax attention. Each is one recorded node and copies
no operand into a permuted layout.

The engine refuses to propagate NaN/Inf: by default any operation whose
result is non-finite raises ``NonFiniteError`` naming the op. The training
loop and the sampler run each step through ``_checked_once``, which
switches these per-op checks off for the step and checks once where it
ends: the loss and the flat gradient, or the new sampler state. When that
check fails, it runs the step again with the checks on, and the
``NonFiniteError`` it raises names the step and the op. Inside those loops
a non-finite value that reaches neither the loss, nor a gradient, nor the
sampler state is therefore no error: in training almost every forward
value is read by some vjp, where 0 * inf = NaN, but the tokens that
``narrow`` drops before the sampler's head are such a value.

Grad mode (``no_grad``), the finiteness checks and MAC counters
(``count_macs``) are per thread. The second core has one holder at a
time: ``_second_core()`` gives it, without waiting, to a caller that asks
while no one holds it, the process may run on two CPUs and numpy's
OpenBLAS runs on one thread (``OPENBLAS_NUM_THREADS=1``). An OpenBLAS with
threads of its own already uses the second core, and splitting on top of
it was slower. The holder is one large float32 op, which runs its upper
half on the one worker thread, or one guided ``diffusion.sample`` call,
which forks a helper process for its unconditional forwards (see
``diffusion._Helper``). Four kinds of float32 op may run as two halves:

- ``matmul`` of at least 2^25 MACs in one GEMM: output-column blocks;
- ``attention`` of at least two heads and 2^25 MACs: head ranges;
- ``gelu`` of at least 2^19 elements: flat element ranges;
- ``layer_norm`` over the trailing axis of at least 2^19 elements: row
  blocks, cut on a multiple of 16 rows.

The results are bitwise those of the serial op. Each half does its op's
whole job on its part, bias add and finiteness check included. The
worker's half takes the calling thread's finiteness checks and nothing
else: the caller counts the op's MACs and records its node. An op that
asks while the second core is held, such as one inside either forward of
a guided step, runs whole. Desk-scale ops stay below every size, desk
attention has one head, and the backward ops always run serially.
Importing the module starts no thread; the worker starts with the first
split.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    """Operand extents do not fit the operation."""


class UsageError(ValueError):
    """Every usage mistake: a bad config value, argument or op call (bad
    index, non-scalar loss, ...). The message names the key or argument."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


# ---------------------------------------------------------------------------
# recording order, grad mode, MAC instrumentation
# ---------------------------------------------------------------------------

# Numbers recorded ops in execution order, across graphs; never reset.
_SEQUENCE = itertools.count()


class _ThreadState(threading.local):
    """Grad mode, finiteness checks and open MAC counters: each thread sets
    and sees its own."""

    def __init__(self):
        self.grad_enabled = True
        self.checks = True
        self.mac_counters: list[MacCounter] = []


_STATE = _ThreadState()


@contextmanager
def no_grad():
    """Disable recording inside the block, in the calling thread only."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


class MacCounter:
    """Accumulates multiply-accumulate counts of executed matmuls."""

    def __init__(self):
        self.total = 0


@contextmanager
def count_macs():
    """Count matmul MACs (M*K*N per contraction, times batch) that the calling
    thread executes inside."""
    counter = MacCounter()
    _STATE.mac_counters.append(counter)
    try:
        yield counter
    finally:
        _STATE.mac_counters.pop()


def _note_macs(n: int) -> None:
    for counter in _STATE.mac_counters:
        counter.total += n


def _check_finite(arr: np.ndarray, op: str) -> None:
    if _STATE.checks and not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


# Neither is in __all__: the benchmark's tracer wraps every name there as an op.
@contextmanager
def _unchecked():
    """Skip every op's finiteness check inside the block, in the calling
    thread only, for a caller that checks what the block yields itself.
    numpy passes overflow, invalid results and division by zero on silently,
    so a non-finite value reaches that check, not a ``RuntimeWarning``."""
    prev = _STATE.checks
    _STATE.checks = False
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    finally:
        _STATE.checks = prev


def _checked_once(what: str, step, args: tuple, finite):
    """``step(*args)``, run unchecked, if ``finite`` accepts its result; the
    test runs unchecked too, so an overflow in it is a rejection, not a
    warning. Otherwise the step runs again from ``args`` with every op
    checked, and the ``NonFiniteError`` raised names ``what`` and the
    replay's op error. A ``NonFiniteError`` that ``finite`` raises names a
    cause no op has and is raised under ``what`` without a replay."""
    with _unchecked():
        result = step(*args)
        try:
            accepted = finite(result)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{what}: {exc}") from exc
    if accepted:
        return result
    try:
        step(*args)
    except NonFiniteError as exc:
        raise NonFiniteError(f"{what}: {exc}") from exc
    raise NonFiniteError(f"{what} produced a non-finite value")


# ---------------------------------------------------------------------------
# the second core: one holder at a time, and a worker thread for op halves
# ---------------------------------------------------------------------------

# Work from which a float32 op runs as two halves on two threads. Measured on
# a 2-core x86_64 (AVX-512) with numpy 2.4 and its OpenBLAS on one thread:
# split, a 334x512x2048 GEMM went from 8-10 to 6 ms and GELU on 334x2048
# elements from 5.7 to 4.3 ms, but splitting from 2^23 MACs and 2^17
# elements cut desk-scale guided sampling from ~24 to ~17 images/s. The
# largest desk-scale GEMM is 11M MACs and the desk GELU 172k elements, so
# desk-scale ops stay serial; the smallest reference-point GEMM is 57M MACs.
# One GEMM this large also keeps both halves far above OpenBLAS's
# small-matrix path (about 10^6 MACs), whose results differ from the
# blocked kernel's. Attention splits by heads from the same MAC count; the
# reference point's 8-head attention is 114M MACs. GELU and a trailing-axis
# layer norm split from 2^19 output elements: the largest desk-scale one has
# 344k (A3's expansion), and A3's gate norm at the reference point has 684k.
# add, sub, mul and narrow run whole: splitting A3's gate product saved
# 0.5-1.3% of A3's reference forward over 300 in-process pairs, too little
# for a benchmark run to resolve, and A3 read 20.1 ms with whole narrows
# against 20.2 ms with split ones, fresh process per side. float64 ops run
# whole; no workload runs them at the reference point. A layer norm cuts its
# rows on a multiple of 16: _weighted_sum's gemv sums rows in groups of 4,
# and a 334x2048 norm cut at row 167 changed rows 164, 165 and 333, while
# every cut on a multiple of 4 was bitwise the whole call.
_SPLIT_MIN_MACS = 1 << 25
_SPLIT_MIN_ELEMENTS = 1 << 19


@functools.cache
def _blas_thread_query():
    """The loaded OpenBLAS's get-num-threads function, or None if none is found."""
    try:
        from numpy._core import _multiarray_umath

        blas_user = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        query = getattr(blas_user, name, None)
        if query is not None:
            query.argtypes = []
            query.restype = ctypes.c_int
            return query
    return None


def _second_core_free() -> bool:
    """Whether the process may use a second core (``_second_core``): it
    may run on two CPUs and OpenBLAS runs on one thread. With OpenBLAS on
    two threads, a 334x512x2048 float32 GEMM took 6.3-6.5 ms whole and
    6.8-7.6 ms split over two threads on top (2-core x86_64, medians of 60
    calls). It does not look at load: beside a test run the split
    334x512->2048 dense layer took 9.3-10.2 ms against 4.3 ms quiet, but no
    serial run was measured to beat it there, and a load reading is stale
    by the time the halves run."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    query = _blas_thread_query()
    return query is not None and query() == 1


def _forget_worker() -> None:
    """Drop the worker thread and free the second core; a forked child has
    none of its parent's threads."""
    global _worker, _worker_slot
    _worker, _worker_slot = None, threading.Lock()


_forget_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


@contextmanager
def _second_core():
    """Yield True while the caller holds the second core, False if it does
    not: it holds it when ``_second_core_free()`` holds and no one else
    does; it never waits. Only the holder starts work on the worker thread
    or forks a sampling helper, so a large op inside the block runs whole."""
    held = _second_core_free() and _worker_slot.acquire(blocking=False)
    try:
        yield held
    finally:
        if held:
            _worker_slot.release()


def _by_halves(fn, n: int, dtype, large: bool, align: int = 1) -> None:
    """Run ``fn(0, n)`` with numpy's floating-point errors ignored; ``fn``
    checks what it writes. A float32 op that its caller marks large, when it
    gets the second core, runs ``fn(half, n)`` on the worker thread and
    ``fn(0, half)`` here, where ``half`` is ``n // 2`` rounded down to a
    multiple of ``align``. It returns once both halves have finished, and
    raises this thread's error before the worker's. The worker takes only
    the caller's finiteness checks: no half counts MACs or records a node."""
    global _worker

    def part(lo, hi):
        with np.errstate(all="ignore"):
            fn(lo, hi)

    if dtype != np.float32 or not large:
        return part(0, n)
    with _second_core() as held:
        if not held:
            return part(0, n)
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(1, thread_name_prefix="lmlp-split")
        half, checks = n // 2 // align * align, _STATE.checks

        def upper():
            _STATE.checks = checks
            part(half, n)

        future = _worker.submit(upper)
        try:
            part(0, half)
        finally:
            error = future.exception()  # wait for it even when part raised
        if error is not None:
            raise error


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------

class _Node:
    """One recorded operation: what backward needs of it, and nothing else.

    ``parents`` holds, per operand, its node if it was recorded, the operand
    itself if it is a requires-grad leaf, and None if it needs no gradient.
    """

    __slots__ = ("seq", "parents", "vjp")

    def __init__(self, operands, vjp):
        self.seq = next(_SEQUENCE)
        self.parents = tuple(
            p._node if p._node is not None else (p if p.requires_grad else None)
            for p in operands
        )
        self.vjp = vjp


class Tensor:
    """Contiguous N-d array with an optional gradient of the same shape."""

    # _node is None except on recorded outputs
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        # a value that overflows the dtype casts to inf, which the check names
        with np.errstate(over="ignore"):
            arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        arr = np.ascontiguousarray(arr)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @classmethod
    def _make(cls, arr: np.ndarray, op: str) -> "Tensor":
        """Engine-internal constructor: one finiteness check, no copies."""
        _check_finite(arr, op)
        return cls._wrap(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Engine-internal constructor for a result its op has already checked."""
        out = cls.__new__(cls)
        out.data = np.ascontiguousarray(arr)
        out.grad = None
        out.requires_grad = False
        out._node = None
        return out

    # -- introspection ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise UsageError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def mean(self) -> "Tensor":
        return tensor_mean(self)

    def backward(self) -> None:
        backward(self)


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


def _check_one_dtype(op: str, operands) -> None:
    """An op computes in one dtype; it never promotes a float32 operand."""
    dtypes = [t.dtype for t in operands]
    if any(d != dtypes[0] for d in dtypes):
        raise UsageError(f"{op} needs one dtype, got {', '.join(map(str, dtypes))}")


def _check_axis(op: str, axis: int, ndim: int) -> int:
    """``axis`` in [-ndim, ndim), as an index in [0, ndim)."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op} axis {axis} is out of range for rank {ndim}")
    return axis % ndim


def _recording(operands: tuple[Tensor, ...]) -> bool:
    """Whether an operation on ``operands`` is recorded."""
    return _STATE.grad_enabled and any(p.requires_grad for p in operands)


def _attach(out: Tensor, operands: tuple[Tensor, ...], vjp) -> Tensor:
    out.requires_grad = True
    out._node = _Node(operands, vjp)
    return out


def _record(out: Tensor, operands: tuple[Tensor, ...], vjp) -> Tensor:
    return _attach(out, operands, vjp) if _recording(operands) else out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g_ext, t_ext) in enumerate(zip(grad.shape, shape)):
        if t_ext == 1 and g_ext != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return np.ascontiguousarray(grad)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


def _elementwise_operands(a, b, op: str):
    """Both operands as tensors; a number or array takes the other tensor's dtype."""
    a = _as_tensor(a, b.dtype if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a.dtype)
    _check_one_dtype(op, (a, b))
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"elementwise shapes {a.shape} and {b.shape} do not align")
    return a, b


def add(a, b) -> Tensor:
    a, b = _elementwise_operands(a, b, "add")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = a.data + b.data
    out = Tensor._make(raw, "add")
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _elementwise_operands(a, b, "sub")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = a.data - b.data
    out = Tensor._make(raw, "sub")
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _elementwise_operands(a, b, "mul")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = a.data * b.data
    out = Tensor._make(raw, "mul")
    # Each operand is read only for the other one's gradient.
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _record(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def _fold_rows(t: np.ndarray) -> np.ndarray:
    """(N, n, C) -> (n, N*C): the mapped extent first, every other one folded."""
    return np.swapaxes(t, 0, 1).reshape(t.shape[1], -1)


# Sums over one extent of a small tensor run several times faster as BLAS
# products against a vector than as numpy reductions.

def _weighted_sum(a: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """sum_i weights[i] * a[..., i] (axis=-1) or a[..., i, :] (axis=-2), keepdims."""
    if axis == -1:
        return (a.reshape(-1, a.shape[-1]) @ weights).reshape(a.shape[:-1] + (1,))
    return np.matmul(weights, a)[..., None, :]


def _sum_except(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over every extent but ``axis`` (-1 or -2): shape (a.shape[axis],)."""
    if axis == -1:
        rows = a.reshape(-1, a.shape[-1])
        return np.ones(rows.shape[0], dtype=a.dtype) @ rows
    stacked = a.reshape(-1, a.shape[-2], a.shape[-1])
    return (stacked @ np.ones(a.shape[-1], dtype=a.dtype)).sum(axis=0)


def matmul(x: Tensor, weight: Tensor, bias: Tensor, axis: int) -> Tensor:
    """Dense layer: ``weight`` of shape (out, in) and ``bias`` of shape (out,).

    ``axis=-1`` maps the trailing extent, y = x W^T + b; ``axis=-2`` maps the
    second-to-last extent, y = W x + b[:, None]. Either way it is one recorded
    op, and its vjp returns dx, dW and db with dW from a single GEMM.
    """
    if axis not in (-1, -2):
        raise ShapeError(f"dense axis must be -1 or -2, got {axis}")
    if bias is None:
        raise UsageError("the dense form needs a bias")
    x = _as_tensor(x, weight.dtype)
    _check_one_dtype("matmul", (x, weight, bias))
    if weight.ndim != 2:
        raise ShapeError(f"dense weight must be rank 2, got {weight.shape}")
    out_dim, in_dim = weight.shape
    if x.ndim < -axis or x.shape[axis] != in_dim:
        raise ShapeError(f"dense weight {weight.shape} does not fit axis {axis} of {x.shape}")
    if bias.shape != (out_dim,):
        raise ShapeError(f"dense bias {bias.shape} does not fit weight {weight.shape}")
    w = weight.data
    # rows * in * out MACs, where rows is the product of every other extent
    _note_macs(x.size * out_dim)
    # Output features [lo, hi) are a column block of one GEMM, and column
    # blocks of a float32 GEMM this large are bitwise equal to the whole GEMM
    # (row blocks and float64 ones were not), so the split changes no bit.
    if axis == -1:
        x_in = x.data.reshape(-1, in_dim)
        y = np.empty((x_in.shape[0], out_dim), w.dtype)
        out_shape = x.shape[:-1] + (out_dim,)
        gemm_macs = x.size * out_dim

        def features(lo, hi):
            block = y[:, lo:hi]
            np.matmul(x_in, w[lo:hi].T, out=block)
            block += bias.data[lo:hi]
            _check_finite(block, "matmul")
    else:
        cols = x.shape[-1]
        x_in = x.data.reshape(-1, in_dim, cols)
        y = np.empty((x_in.shape[0], out_dim, cols), w.dtype)
        out_shape = x.shape[:-2] + (out_dim, cols)
        gemm_macs = in_dim * out_dim * cols

        def features(lo, hi):
            block = y[:, lo:hi]
            np.matmul(w[lo:hi], x_in, out=block)
            block += bias.data[lo:hi, None]
            _check_finite(block, "matmul")
    _by_halves(features, out_dim, y.dtype, gemm_macs >= _SPLIT_MIN_MACS)
    out = Tensor._wrap(y.reshape(out_shape))
    x_shape = x.shape
    # as in mul, no dx for an input that needs no gradient, such as the image
    # patches and time features that the backbone embeds
    need_dx = x.requires_grad

    def vjp(g):
        if axis == -1:
            g_out = g.reshape(-1, out_dim)
            dx = (g_out @ w).reshape(x_shape) if need_dx else None
            dw = g_out.T @ x_in
            db = _sum_except(g_out, -1)
        else:
            g_out = g.reshape(-1, out_dim, cols)
            dx = np.matmul(w.T, g_out).reshape(x_shape) if need_dx else None
            dw = _fold_rows(g_out) @ _fold_rows(x_in).T
            db = _sum_except(g_out, -2)
        return dx, dw, db

    return _record(out, (x, weight, bias), vjp)


# ---------------------------------------------------------------------------
# shape movement
# ---------------------------------------------------------------------------

def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation of rank {x.ndim}")
    out = Tensor._make(np.transpose(x.data, axes), "permute")
    inverse = np.argsort(axes)

    def vjp(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return _record(out, (x,), vjp)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}")
    out = Tensor._make(x.data.reshape(shape), "reshape")
    old_shape = x.shape

    def vjp(g):
        return (np.ascontiguousarray(g.reshape(old_shape)),)

    return _record(out, (x,), vjp)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    axis = _check_axis("concat", axis, parts[0].ndim)
    _check_one_dtype("concat", parts)
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis
        ):
            raise ShapeError("concat operands differ outside the joined axis")
    out = Tensor._make(np.concatenate([p.data for p in parts], axis=axis), "concat")
    sizes = [p.shape[axis] for p in parts]

    def vjp(g):
        grads = []
        start = 0
        for length in sizes:
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, start + length)
            grads.append(np.ascontiguousarray(g[tuple(index)]))
            start += length
        return tuple(grads)

    return _record(out, tuple(parts), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    axis = _check_axis("narrow", axis, x.ndim)
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of bounds for extent {x.shape[axis]}"
        )
    index = (slice(None),) * axis + (slice(start, start + length),)
    # checked once copied: a check of the strided slice itself was slower
    out = Tensor._make(x.data[index].copy(), "narrow")
    in_shape = x.shape

    def vjp(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _record(out, (x,), vjp)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Look up rows of a 2-d table; gradient scatters back into the table."""
    if table.ndim != 2:
        raise ShapeError("gather_rows table must be rank 2")
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise UsageError("gather_rows ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise UsageError(f"token id out of range [0, {table.shape[0]})")
    out = Tensor._make(table.data[ids], "gather_rows")
    table_shape = table.shape

    def vjp(g):
        gt = np.zeros(table_shape, dtype=g.dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

# Float32 GELU. For a = |x|, u = Phi(-a) = erfc(a / sqrt 2) / 2 is written
# t * exp(R(s) - a^2 / 2) with t = 1 / (2 + 2pa) and s = pa / (1 + pa), so
# one polynomial R on s in [0, 1) covers every a, and the negative tail
# never cancels. R(s) = log(erfcx(a / sqrt 2) * (1 + pa)) was fitted in
# float64 by weighted minimax (Lawson's algorithm), allowing an error of
# 2^-24 * max(1, -log(2u)), the rounding of the float32 exponent; the
# coefficients were rounded to float32 one at a time from the highest,
# refitting the lower ones.
_GELU32_P = 0.4
_GELU32_R = tuple(np.float32(c) for c in (   # coefficients of s^1 .. s^8
    -0.9947177, -0.3588494, 0.037207168, 0.18225345,
    -0.05962334, 0.35534117, -0.46764463, 0.16389947,
))
_GELU32_INV_P = np.float32(1.0 / _GELU32_P)
_GELU32_HALF_INV_P = np.float32(0.5 / _GELU32_P)
_LOG_SQRT_2PI = np.float32(0.5 * math.log(2.0 * math.pi))
# The kernel makes ~30 passes over its operands. In blocks of this many
# elements its four operands take 1 MB and stay in a core's L2 cache.
_GELU32_BLOCK = 1 << 16


def _gelu32(x: np.ndarray, with_factor: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """x * Phi(x) of a float32 array, checked finite, and, if asked, its
    derivative factor Phi(x) + x * phi(x), block by block."""
    out = np.empty_like(x)
    factor = np.empty_like(x) if with_factor else None
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    flat_factor = None if factor is None else factor.reshape(-1)

    def elements(lo, hi):
        # A half of a split call hands the GIL to the other half at every
        # ufunc call, so it walks twice the block and makes half the calls.
        block = _GELU32_BLOCK if hi - lo == flat_x.size else 2 * _GELU32_BLOCK
        # scratch rows: t, and Phi when the factor is not kept
        scratch = np.empty((2, min(hi - lo, block)), dtype=np.float32)
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            size = stop - start
            cdf = flat_factor[start:stop] if with_factor else scratch[1, :size]
            _gelu32_block(flat_x[start:stop], flat_out[start:stop], cdf,
                          scratch[0, :size], with_factor)
            _check_finite(flat_out[start:stop], "gelu")

    _by_halves(elements, flat_x.size, x.dtype, flat_x.size >= _SPLIT_MIN_ELEMENTS)
    return out, factor


def _gelu32_block(x, out, cdf, t, with_factor: bool) -> None:
    """Write x * Phi(x) into ``out`` and Phi(x), or with ``with_factor`` the
    derivative factor Phi(x) + x * phi(x), into ``cdf``; ``t`` is scratch."""
    np.abs(x, out=out)
    np.add(out, _GELU32_INV_P, out=t)
    np.divide(out, t, out=out)                       # s = pa / (1 + pa)
    np.divide(_GELU32_HALF_INV_P, t, out=t)          # t = 1 / (2 + 2pa)
    np.multiply(out, _GELU32_R[-1], out=cdf)
    for coef in _GELU32_R[-2::-1]:
        cdf += coef
        cdf *= out                                   # R(s), Horner's rule
    np.multiply(x, np.float32(-0.5), out=out)
    out *= x                                         # overflows to -inf for huge |x|
    cdf += out
    np.exp(cdf, out=cdf)
    cdf *= t                                         # u = erfc(|x| / sqrt 2) / 2
    # Phi = min(max(x, 0) + u, 1 - u): u for x < 0 (u <= 1/2), and 1 - u for
    # x >= 0, because there x >= erf(x / sqrt 2) = 1 - 2u.
    np.maximum(x, np.float32(0.0), out=out)
    out += cdf
    np.subtract(np.float32(1.0), cdf, out=cdf)
    np.minimum(out, cdf, out=cdf)
    np.multiply(x, cdf, out=out)
    if with_factor:
        # Phi + x * phi, with phi = exp(-x^2 / 2 - log sqrt(2 pi))
        np.multiply(x, np.float32(-0.5), out=t)
        t *= x
        t -= _LOG_SQRT_2PI
        np.exp(t, out=t)
        t *= x
        cdf += t


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit x * Phi(x) (erf form, no tanh fit).

    float64 evaluates Phi = (1 + erf(x / sqrt 2)) / 2 with scipy's erf.
    float32 evaluates Phi from numpy ufuncs only (see ``_gelu32_block``):
    against a float64 reference on float32 inputs in [-12, 12], the tested
    error is at most 2^-22 |x| for gelu and 2^-22 for its derivative, and
    the negative tail keeps a relative error near 1e-5 down to x = -13.

    A recorded call computes the derivative factor Phi + x * phi in the
    forward and keeps only that, not x or Phi; its vjp is g times the factor.
    """
    x = _as_tensor(x, None)
    x_data = x.data
    recording = _recording((x,))
    if x_data.dtype == np.float32:
        out, factor = _gelu32(x_data, recording)
        out = Tensor._wrap(out)
    else:
        # Imported here: float64 is the only path that needs scipy, and importing
        # scipy.special at module level would more than double lmlp's import time.
        from scipy import special

        cdf = 0.5 * (1.0 + special.erf(x_data * (1.0 / math.sqrt(2.0))))
        out = Tensor._make(x_data * cdf, "gelu")
        if recording:
            pdf = np.exp(-0.5 * x_data * x_data) * (1.0 / math.sqrt(2.0 * math.pi))
            factor = cdf + x_data * pdf
    if not recording:
        return out

    def vjp(g):
        return (g * factor,)

    return _attach(out, (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x, None)
    pos = x.data >= 0
    s = np.empty_like(x.data)
    s[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    s[~pos] = ex / (1.0 + ex)
    out = Tensor._make(s, "sigmoid")

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _record(out, (x,), vjp)


_NORM_EPS = 1e-6  # added to the variance before its square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, axis: int = -1) -> Tensor:
    """Normalize one extent (the trailing one, or with ``axis=-2`` the one
    before it) to zero mean / unit (population) variance, then apply the
    learned affine map. The extent is ``gain``'s length, and ``x``, ``gain``
    and ``bias`` share one dtype."""
    if axis not in (-1, -2):
        raise ShapeError(f"layer_norm axis must be -1 or -2, got {axis}")
    if gain.ndim != 1 or bias.shape != gain.shape:
        raise ShapeError(f"gain {gain.shape} and bias {bias.shape} must be one vector shape")
    n = gain.shape[0]
    if n == 0:
        raise ShapeError("cannot normalize an empty extent")
    if x.ndim < -axis or x.shape[axis] != n:
        raise ShapeError(f"layer_norm expected extent {n} on axis {axis}, got {x.shape}")
    _check_one_dtype("layer_norm", (x, gain, bias))
    average = np.full(n, 1.0 / n, dtype=x.dtype)
    affine_shape = (n,) if axis == -1 else (n, 1)
    gain_data = gain.data.reshape(affine_shape)
    bias_data = bias.data.reshape(affine_shape)
    # Row i holds the slices normalized together: (rows, n) with axis=-1,
    # and (rows, n, C) with axis=-2.
    folded = x.data.reshape((-1, n) if axis == -1 else (-1, n, x.shape[-1]))
    x_hat = np.empty_like(folded)
    inv = np.empty(folded.shape[:1] + (1,) + folded.shape[2:], x.dtype)
    y = np.empty_like(folded)

    def rows(lo, hi):
        part, x_hat_part, y_part = folded[lo:hi], x_hat[lo:hi], y[lo:hi]
        np.subtract(part, _weighted_sum(part, average, axis), out=x_hat_part)
        # the squares go into y's rows, which are written only after
        np.multiply(x_hat_part, x_hat_part, out=y_part)
        variance = _weighted_sum(y_part, average, axis)
        inv[lo:hi] = 1.0 / np.sqrt(variance + _NORM_EPS)
        x_hat_part *= inv[lo:hi]
        np.multiply(x_hat_part, gain_data, out=y_part)
        y_part += bias_data
        _check_finite(y_part, "layer_norm")

    # a cut on a multiple of 16 rows keeps _weighted_sum's gemv bitwise
    _by_halves(rows, len(folded), y.dtype, axis == -1 and y.size >= _SPLIT_MIN_ELEMENTS,
               align=16)
    out = Tensor._wrap(y.reshape(x.shape))
    x_shape = x.shape
    gain_average = gain.data / n

    def vjp(g):
        # dx = inv * (dx_hat - mean(dx_hat) - x_hat * mean(dx_hat * x_hat)),
        # with dx_hat = g * gain; both means are sums of g weighted by gain / n.
        g = g.reshape(x_hat.shape)
        g_x_hat = g * x_hat
        d_gain = _sum_except(g_x_hat, axis)
        d_bias = _sum_except(g, axis)
        dx = g * gain_data
        dx -= _weighted_sum(g, gain_average, axis)
        dx -= x_hat * _weighted_sum(g_x_hat, gain_average, axis)
        dx *= inv
        return dx.reshape(x_shape), d_gain, d_bias

    return _record(out, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """(B, L, D) -> a (B, heads, L, D / heads) view; head h holds channels
    [h * D / heads, (h + 1) * D / heads)."""
    batch, seq, dim = t.shape
    return t.reshape(batch, seq, heads, dim // heads).transpose(0, 2, 1, 3)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax attention over (B, L, D) queries, keys and values.

    Per head, out = softmax(q k^T / sqrt(D / heads)) v over the key axis.
    Heads are split and joined as strided views of the (B, L, D) arrays, so
    nothing is copied into a head-major layout. One recorded op; its vjp
    returns dq, dk and dv in (B, L, D) layout. It counts 2 * B * L^2 * D
    MACs: the logits and the weighted sum of values. In float32, with at
    least two heads and 2^25 MACs, the forward may run as two halves of the
    heads.
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention needs equal (B, L, D) operands, got "
                         f"{q.shape}, {k.shape} and {v.shape}")
    batch, seq, dim = q.shape
    if heads < 1 or dim % heads:
        raise ShapeError(f"embed_dim {dim} does not split into {heads} heads")
    _check_one_dtype("attention", (q, k, v))
    q_h, k_h, v_h = (_split_heads(t.data, heads) for t in (q, k, v))
    scale = np.asarray(1.0 / math.sqrt(dim // heads), dtype=q.dtype)
    macs = 2 * batch * seq * seq * dim
    _note_macs(macs)
    weights = np.empty((batch, heads, seq, seq), q.dtype)
    y = np.empty_like(q.data)
    y_h = _split_heads(y, heads)

    # Each head's GEMMs and row-wise softmax are the same whichever heads run
    # beside it, so a split by heads changes no bit.
    def head_range(lo, hi):
        w = weights[:, lo:hi]
        np.matmul(q_h[:, lo:hi], k_h[:, lo:hi].swapaxes(-1, -2), out=w)
        w *= scale
        _check_finite(w, "attention")
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, v_h[:, lo:hi], out=y_h[:, lo:hi])
        _check_finite(y_h[:, lo:hi], "attention")

    _by_halves(head_range, heads, y.dtype, heads >= 2 and macs >= _SPLIT_MIN_MACS)
    out = Tensor._wrap(y)

    def vjp(g):
        g_h = _split_heads(g, heads)
        dv = np.empty_like(g)
        np.matmul(weights.swapaxes(-1, -2), g_h, out=_split_heads(dv, heads))
        # softmax backward, then the logit scale
        d_logits = np.matmul(g_h, v_h.swapaxes(-1, -2))
        d_logits -= (d_logits * weights).sum(axis=-1, keepdims=True)
        d_logits *= weights
        d_logits *= scale
        dq, dk = np.empty_like(g), np.empty_like(g)
        np.matmul(d_logits, k_h, out=_split_heads(dq, heads))
        np.matmul(d_logits.swapaxes(-1, -2), q_h, out=_split_heads(dk, heads))
        return dq, dk, dv

    return _record(out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# reductions and backward
# ---------------------------------------------------------------------------

def tensor_sum(x: Tensor) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.data.sum()
    out = Tensor._make(np.asarray(total, dtype=x.dtype), "sum")
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        return (np.full(shape, g, dtype=dtype),)

    return _record(out, (x,), vjp)


def tensor_mean(x: Tensor) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        average = x.data.mean()
    out = Tensor._make(np.asarray(average, dtype=x.dtype), "mean")
    shape, dtype, size = x.shape, x.dtype, x.size

    def vjp(g):
        return (np.full(shape, g / size, dtype=dtype),)

    return _record(out, (x,), vjp)


def _graph_nodes(loss: Tensor) -> list[_Node]:
    """The recorded operations reachable from ``loss``, latest first."""
    nodes, pending = {}, [loss._node]
    while pending:
        node = pending.pop()
        if isinstance(node, _Node) and id(node) not in nodes:
            nodes[id(node)] = node
            pending.extend(node.parents)
    return sorted(nodes.values(), key=lambda node: node.seq, reverse=True)


def backward(loss: Tensor) -> None:
    """Add into ``grad``, in place, on every requires-grad leaf reachable from
    the scalar loss; a leaf without a ``grad`` gets a copy, never a shared array.

    The walk visits the operations reachable from the loss in exact reverse
    execution order, so every node's adjoint is complete before its vjp runs,
    and adjoints and leaf gradients are summed in a fixed order.
    """
    if loss.size != 1:
        raise UsageError("backward needs a scalar loss")
    if not loss.requires_grad:
        raise UsageError("loss is not connected to any requires_grad tensor")
    ones = np.ones_like(loss.data)
    if loss._node is None:
        _accumulate(loss, ones)
        return
    adjoint: dict[int, np.ndarray] = {id(loss._node): ones}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in _graph_nodes(loss):
            g = adjoint.pop(id(node))
            grads = node.vjp(g)
            for parent, grad in zip(node.parents, grads):
                if parent is None:
                    continue
                # every adjoint is checked when it is made, so one passed on
                # unchanged (add's vjp) needs no second check
                if grad is not g:
                    _check_finite(grad, node.vjp.__qualname__.split(".")[0] + " backward")
                if isinstance(parent, _Node):
                    prev = adjoint.get(id(parent))
                    if prev is not None:
                        grad = prev + grad
                        _check_finite(grad, "adjoint sum")
                    adjoint[id(parent)] = grad
                else:
                    _accumulate(parent, grad)


def _accumulate(leaf: Tensor, grad: np.ndarray) -> None:
    if leaf.grad is None:
        leaf.grad = grad.copy()
    else:
        leaf.grad += grad
        _check_finite(leaf.grad, "leaf gradient sum")


__all__ = [
    "DEFAULT_DTYPE",
    "MacCounter",
    "NonFiniteError",
    "ShapeError",
    "Tensor",
    "UsageError",
    "add",
    "attention",
    "backward",
    "concat",
    "count_macs",
    "gather_rows",
    "gelu",
    "layer_norm",
    "matmul",
    "mul",
    "narrow",
    "no_grad",
    "permute",
    "reshape",
    "sigmoid",
    "sub",
    "tensor_mean",
    "tensor_sum",
]
