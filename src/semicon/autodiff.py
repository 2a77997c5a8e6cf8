"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records one forward computation as an append-only list of
primitive ops (define-by-run); ``backward`` replays it in reverse to
accumulate gradients. Tensors are plain ``numpy.float64`` arrays.

A tape records what depends on a ``param``: a ``param`` and every op
with a recorded operand get a node; a ``const`` and every value computed
from constants alone get a ``Var`` with ``idx`` None and no node. So
``backward``, ``matmul`` and ``mul`` compute no gradient for a value
without a node, and a forward with no ``param`` (``models.encode``)
records nothing. A node holds no value: its ``Var`` holds that, and each
vjp closure keeps only the arrays its gradient needs, so an intermediate
that no vjp keeps dies with its ``Var``.

A tape is confined to the thread that made it; threads that compute at
once each use their own tape. Apart from ``sgd_step`` (which mutates its
own parameter arrays in place) everything here is a pure function of its
inputs.

No vjp closure holds a ``Var``, so a tape is never part of a reference
cycle: it is freed by reference count the moment its step (or its
``models.encode`` slice) ends, not by a later cyclic-GC pass.

Freeing a whole tape at once empties the top of the heap every step.
With glibc's default dynamic thresholds, the allocator then returns
those pages to the OS and the next step faults them back in, which
costs more than the step's arithmetic on small models. So on import
this module fixes the process's own glibc allocator thresholds, and
keeps every thread on the one main heap (``_keep_heap_warm``); where
there is no ``mallopt`` (not glibc) it does nothing.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

Array = np.ndarray


def as_f64(data) -> Array:
    return np.asarray(data, dtype=np.float64)


@dataclass
class _Node:
    op: str
    parents: tuple[int | None, ...]  # None: the parent has no node
    # maps the gradient at this node to gradients of the parents (None
    # in a slot whose parent has no node); None for leaves
    vjp: Callable[[Array], tuple[Array | None, ...]] | None


class Var:
    """One value computed on a tape, and its node there (``idx`` is None
    for a value that depends on no param)."""

    __slots__ = ("tape", "idx", "data")

    def __init__(self, tape: "Tape", idx: int | None, data: Array):
        self.tape = tape
        self.idx = idx
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        op = "constant" if self.idx is None else self.tape.nodes[self.idx].op
        return f"Var(#{self.idx} {op} shape={self.data.shape})"


class Tape:
    """Append-only record of the part of one forward pass that depends
    on a ``param``.

    Parent ids always precede a node, so node order is already
    topological and the backward sweep visits each node exactly once.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def _append(self, op: str, parents: Sequence[Var], value: Array, vjp) -> Var:
        if op != "param" and all(p.idx is None for p in parents):
            return Var(self, None, value)
        nodes = self.nodes
        nodes.append(_Node(op, tuple(p.idx for p in parents), vjp))
        return Var(self, len(nodes) - 1, value)

    def param(self, data) -> Var:
        """Record a trainable leaf."""
        return self._append("param", (), as_f64(data), None)

    def const(self, data) -> Var:
        """Record a non-trainable leaf (inputs, masks)."""
        return self._append("const", (), as_f64(data), None)


def _record(op: str, parents: Sequence[Var], value: Array, vjp) -> Var:
    tape = parents[0].tape
    for p in parents[1:]:
        if p.tape is not tape:
            raise ShapeError(f"{op}: operands recorded on different tapes")
    return tape._append(op, parents, value, vjp)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _require_2d(op: str, x: Var) -> None:
    if x.data.ndim != 2:
        raise ShapeError(f"{op}: expected a 2-D tensor, got shape {x.shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Var, b: Var) -> Var:
    _require_2d("matmul", a)
    _require_2d("matmul", b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.data, b.data
    out = av @ bv
    need_a, need_b = a.idx is not None, b.idx is not None

    def vjp(g: Array):
        return (g @ bv.T if need_a else None,
                av.T @ g if need_b else None)

    return _record("matmul", (a, b), out, vjp)


def add(a: Var, b: Var) -> Var:
    ash, bsh = a.shape, b.shape
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {ash} and {bsh} do not broadcast") from None

    def vjp(g: Array):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _record("add", (a, b), out, vjp)


def mul(a: Var, b: Var) -> Var:
    """Elementwise product; used with constant 0/1 masks for selection."""
    ash, bsh = a.shape, b.shape
    av, bv = a.data, b.data
    try:
        out = av * bv
    except ValueError:
        raise ShapeError(f"mul: shapes {ash} and {bsh} do not broadcast") from None

    need_a, need_b = a.idx is not None, b.idx is not None

    def vjp(g: Array):
        return (_unbroadcast(g * bv, ash) if need_a else None,
                _unbroadcast(g * av, bsh) if need_b else None)

    return _record("mul", (a, b), out, vjp)


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return _record("scale", (a,), a.data * c, lambda g: (g * c,))


def exp(a: Var) -> Var:
    out = np.exp(a.data)
    return _record("exp", (a,), out, lambda g: (g * out,))


def log(a: Var) -> Var:
    av = a.data
    return _record("log", (a,), np.log(av), lambda g: (g / av,))


def relu(a: Var) -> Var:
    av = a.data
    return _record("relu", (a,), np.maximum(av, 0.0), lambda g: (g * (av > 0.0),))


def row_sum(a: Var) -> Var:
    _require_2d("row_sum", a)
    out = a.data.sum(axis=1, keepdims=True)
    shape = a.shape

    def vjp(g: Array):
        return (np.broadcast_to(g, shape).copy(),)

    return _record("row_sum", (a,), out, vjp)


def row_max(a: Var) -> Var:
    _require_2d("row_max", a)
    av = a.data
    out = av.max(axis=1, keepdims=True)
    arg = av.argmax(axis=1)

    def vjp(g: Array):
        ga = np.zeros_like(av)
        ga[np.arange(av.shape[0]), arg] = g[:, 0]
        return (ga,)

    return _record("row_max", (a,), out, vjp)


def l2_normalize_rows(a: Var) -> Var:
    """Scale each row to unit L2 norm; zero rows pass through unchanged."""
    _require_2d("l2_normalize_rows", a)
    av = a.data
    norms = np.linalg.norm(av, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    out = av / safe

    def vjp(g: Array):
        # d(x/r)/dx applied to g: (g - y * <g, y>) / r, identity on zero rows
        inner = (g * out).sum(axis=1, keepdims=True)
        return ((g - out * inner) / safe,)

    return _record("l2_normalize_rows", (a,), out, vjp)


def gram(a: Var) -> Var:
    """Pairwise dot-product matrix A @ A.T."""
    _require_2d("gram", a)
    av = a.data
    return _record("gram", (a,), av @ av.T, lambda g: ((g + g.T) @ av,))


def gather(a: Var, indices: Array) -> Var:
    """Select entries of `a` by flat index; output has the indices' shape."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather: indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.size):
        raise ShapeError(
            f"gather: index out of range for tensor of size {a.data.size}"
        )
    av = a.data

    def vjp(g: Array):
        ga = np.zeros(av.size)
        np.add.at(ga, idx.ravel(), g.ravel())
        return (ga.reshape(av.shape),)

    return _record("gather", (a,), av.ravel()[idx], vjp)


def _require_4d(op: str, x: Var) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{op}: expected an NHWC tensor, got shape {x.shape}")


def im2col(a: Var, k: int, p: int) -> Var:
    """Patch matrix of a valid k x k convolution over an NHWC tensor,
    rows grouped by p x p pool offset.

    Row block i*p + j holds, in (b, py, px) order, the (ki, kj, channel)
    window at conv output (py*p + i, px*p + j) of image b; outputs that
    no pool window covers get no row. `matmul` with a (k*k*c, out_c)
    kernel matrix convolves, and `block_max` over the p*p blocks pools.
    """
    _require_4d("im2col", a)
    n, h, w, c = a.shape
    if k < 1 or p < 1 or h - k + 1 < p or w - k + 1 < p:
        raise ShapeError(f"im2col: no {p}x{p} pool of valid {k}x{k} windows "
                         f"in shape {a.shape}")
    ph, pw = (h - k + 1) // p, (w - k + 1) // p

    def patches(values: Array) -> Array:
        windows = sliding_window_view(values, (k, k), axis=(1, 2))  # n, oh, ow, c, k, k
        windows = windows[:, :ph * p, :pw * p].reshape(n, ph, p, pw, p, c, k, k)
        return windows.transpose(2, 4, 0, 1, 3, 6, 7, 5).reshape(-1, k * k * c)

    out = patches(a.data)

    def vjp(g: Array):
        # col2im: bincount adds each pixel's contributions in patch-matrix
        # order, as a flat-index scatter of the patch rows would
        pixel = patches(np.arange(n * h * w * c).reshape(n, h, w, c))
        ga = np.bincount(pixel.ravel(), weights=g.ravel(), minlength=n * h * w * c)
        return (ga.reshape(n, h, w, c),)

    return _record("im2col", (a,), out, vjp)


def block_max(a: Var, q: int) -> Var:
    """Elementwise maximum over the q contiguous row blocks of a 2-D tensor.

    The output is a running maximum over the blocks in order; a NaN in
    any block makes its output NaN. On a tie `np.maximum` keeps its
    second operand, so the running maximum is passed second and a
    -0.0 / 0.0 tie keeps the earlier value, sign bit included
    (`test_maxpool2d_routes_ties_to_first_maximum[signed_zero]` pins
    this). The gradient goes to the first maximum, one whole block at a
    time; the other entries get the gradient times 0.
    """
    _require_2d("block_max", a)
    if q < 1 or a.shape[0] % q:
        raise ShapeError(f"block_max: {a.shape[0]} rows do not split into {q} blocks")
    blocks = a.data.reshape(q, -1, a.shape[1])
    out = blocks[0].copy()
    for block in blocks[1:]:
        np.maximum(block, out, out=out)  # out second: it wins ties

    def vjp(g: Array):
        ga = np.empty(blocks.shape)
        free = np.ones(out.shape, dtype=bool)
        for block, gb in zip(blocks, ga):
            hit = free & (block == out)
            np.multiply(g, hit, out=gb)  # g * 0 off the first maximum
            free ^= hit
        return (ga.reshape(-1, ga.shape[2]),)

    return _record("block_max", (a,), out, vjp)


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return _record("reshape", (a,), a.data.reshape(shape),
                   lambda g: (g.reshape(old),))


def total_sum(a: Var) -> Var:
    out = np.asarray(a.data.sum())
    shape = a.shape
    return _record("total_sum", (a,), out,
                   lambda g: (np.full(shape, float(g)),))


def mean(a: Var) -> Var:
    n = a.data.size
    out = np.asarray(a.data.mean())
    shape = a.shape
    return _record("mean", (a,), out,
                   lambda g: (np.full(shape, float(g) / n),))


# ---------------------------------------------------------------------------
# backward pass, SGD, gradient checking
# ---------------------------------------------------------------------------

def backward(root: Var) -> dict[int, Array]:
    """Gradients of a scalar root with respect to every node it reaches.

    Returns a map node-id -> gradient array (same shape as the node's
    value). Values computed from constants alone (inputs, masks) have no
    node, so they get no entry and no vjp runs for them. Leaves the tape
    untouched; raises on a root that depends on no param or is not a
    scalar.
    """
    if root.idx is None:
        raise ShapeError("backward: the root depends on no param")
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    nodes = root.tape.nodes
    grads: dict[int, Array] = {root.idx: np.ones_like(root.data)}
    for i in range(root.idx, -1, -1):
        g = grads.get(i)
        node = nodes[i]
        if g is None or node.vjp is None:
            continue
        for pid, pg in zip(node.parents, node.vjp(g)):
            if pid is None:
                continue
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    return grads


def sgd_step(params: Sequence[Array], grads: Sequence[Array],
             learning_rate: float) -> Sequence[Array]:
    """Vanilla steepest descent: p <- p - lr * g, in place.

    No momentum, no weight decay.
    """
    if len(params) != len(grads):
        raise ShapeError(
            f"sgd_step: {len(params)} params vs {len(grads)} grads"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(
                f"sgd_step: param shape {p.shape} vs grad shape {g.shape}"
            )
        p -= learning_rate * g
    return params


def grads_for(grad_map: dict[int, Array], vars: Sequence[Var]) -> list[Array]:
    """Pull gradients for specific nodes, zeros where none flowed."""
    return [grad_map.get(v.idx, np.zeros(v.shape)) for v in vars]


# ---------------------------------------------------------------------------
# allocator
# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD = -1  # glibc malloc.h
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_heap_warm() -> None:
    """Keep freed tape memory in this process's heap for the next step.

    Serves blocks of up to 32 MB (glibc's 64-bit ceiling for this
    setting) from the heap rather than from fresh mappings, and returns
    free heap top to the OS only past 1 GB. Both are set because setting
    either one alone turns off glibc's dynamic thresholds. Allows one
    arena, so the threads of ``models.encode`` allocate from the same
    heap instead of each keeping an arena of its own warm. Does nothing
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; TypeError on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


_keep_heap_warm()
