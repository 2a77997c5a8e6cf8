"""Encoders and the projection head.

Two desk-scale encoders: an MLP for synthetic vector streams and a small
two-conv-block network for 32x32x3 images. The projection head is an MLP
with one hidden layer, a ReLU, and a row-normalized output (default size
128). Parameters live in a name -> float64 array mapping; training binds
them onto a tape as params; evaluation (`encode`) binds them as
constants, so its tapes record nothing, and spreads the slices of a
large batch over the CPUs this process may use.

Projections are L2-normalized before any similarity is taken; the head is
dropped at test time and only encoder latents reach the classifier.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import ShapeError

# input values per encode slice: 42 CIFAR images (about 14 MB of
# transient arrays, most of it block 1's patch matrix), or 4096 rows of
# width 32
ENCODE_SLICE_VALUES = 1 << 17

# the conv encoder's fixed geometry: valid KERNEL x KERNEL convolutions,
# each followed by POOL x POOL max-pooling
KERNEL = 3
POOL = 2


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int
    hidden: tuple[int, ...] = (64,)
    out_dim: int = 64


@dataclass(frozen=True)
class ConvSpec:
    """Two valid 3x3 conv + ReLU + 2x2 max-pool blocks, then a dense layer."""

    in_shape: tuple[int, int, int] = (3, 32, 32)  # channels, height, width
    channels: tuple[int, int] = (8, 16)
    out_dim: int = 160


def bind(tape: Tape, params: Mapping[str, np.ndarray]) -> dict[str, Var]:
    """Register parameters as tape leaves, in sorted-name order."""
    return {name: tape.param(params[name]) for name in sorted(params)}


def _linear(x: Var, bound: Mapping[str, Var], w: str, b: str) -> Var:
    return ad.add(ad.matmul(x, bound[w]), bound[b])


@dataclass
class Encoder:
    spec: MlpSpec | ConvSpec
    params: dict[str, np.ndarray]

    @property
    def out_dim(self) -> int:
        return self.spec.out_dim

    def prepare(self, batch: np.ndarray) -> np.ndarray:
        """Shape-check a raw batch and lay it out for `apply`."""
        batch = ad.as_f64(batch)
        if isinstance(self.spec, MlpSpec):
            if batch.ndim != 2 or batch.shape[1] != self.spec.in_dim:
                raise ShapeError(
                    f"encoder expects (batch, {self.spec.in_dim}), got {batch.shape}"
                )
            return batch
        c, h, w = self.spec.in_shape
        if batch.ndim != 4 or batch.shape[1:] != (c, h, w):
            raise ShapeError(
                f"encoder expects (batch, {c}, {h}, {w}), got {batch.shape}"
            )
        return np.ascontiguousarray(batch.transpose(0, 2, 3, 1))  # NCHW -> NHWC

    def apply(self, bound: Mapping[str, Var], x: Var) -> Var:
        if isinstance(self.spec, MlpSpec):
            return self._apply_mlp(bound, x)
        return self._apply_conv(bound, x)

    def _apply_mlp(self, bound: Mapping[str, Var], x: Var) -> Var:
        h = x
        n_layers = len(self.spec.hidden) + 1
        for i in range(n_layers):
            h = _linear(h, bound, f"enc/w{i}", f"enc/b{i}")
            if i < n_layers - 1:
                h = ad.relu(h)
        return h

    def _apply_conv(self, bound: Mapping[str, Var], x: Var) -> Var:
        act = x
        for block, out_c in enumerate(self.spec.channels, start=1):
            n, h, w, _ = act.shape
            conv = ad.relu(_linear(ad.im2col(act, KERNEL), bound,
                                   f"enc/c{block}_w", f"enc/c{block}_b"))
            conv = ad.reshape(conv, (n, h - KERNEL + 1, w - KERNEL + 1, out_c))
            act = ad.maxpool2d(conv, POOL)
        n, h, w, c = act.shape
        flat = ad.reshape(act, (n, h * w * c))
        return _linear(flat, bound, "enc/dense_w", "enc/dense_b")


@dataclass
class ProjectionHead:
    params: dict[str, np.ndarray]

    def apply(self, bound: Mapping[str, Var], h: Var) -> Var:
        hidden = ad.relu(_linear(h, bound, "proj/w1", "proj/b1"))
        return ad.l2_normalize_rows(_linear(hidden, bound, "proj/w2", "proj/b2"))


def _uniform_fan_in(rng: np.random.Generator, fan_in: int,
                    shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(seed: int, spec: MlpSpec | ConvSpec,
                head_hidden: int | None = None,
                proj_dim: int = 128) -> tuple[Encoder, ProjectionHead]:
    """Deterministic init: weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    if isinstance(spec, MlpSpec):
        dims = (spec.in_dim, *spec.hidden, spec.out_dim)
        for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            params[f"enc/w{i}"] = _uniform_fan_in(rng, fi, (fi, fo))
            params[f"enc/b{i}"] = np.zeros((1, fo))
    else:
        c, h, w = spec.in_shape
        in_c = c
        for block, out_c in enumerate(spec.channels, start=1):
            fan_in = KERNEL * KERNEL * in_c
            params[f"enc/c{block}_w"] = _uniform_fan_in(rng, fan_in, (fan_in, out_c))
            params[f"enc/c{block}_b"] = np.zeros((1, out_c))
            h, w = (h - KERNEL + 1) // POOL, (w - KERNEL + 1) // POOL
            in_c = out_c
        flat = h * w * in_c
        params["enc/dense_w"] = _uniform_fan_in(rng, flat, (flat, spec.out_dim))
        params["enc/dense_b"] = np.zeros((1, spec.out_dim))
    enc = Encoder(spec, params)

    hidden = spec.out_dim if head_hidden is None else head_hidden
    head_params = {
        "proj/w1": _uniform_fan_in(rng, spec.out_dim, (spec.out_dim, hidden)),
        "proj/b1": np.zeros((1, hidden)),
        "proj/w2": _uniform_fan_in(rng, hidden, (hidden, proj_dim)),
        "proj/b2": np.zeros((1, proj_dim)),
    }
    return enc, ProjectionHead(head_params)


def encode(enc: Encoder, batch: np.ndarray) -> np.ndarray:
    """Latent rows for a raw batch (parameters bound as constants).

    A batch of more than ENCODE_SLICE_VALUES input values goes through
    the encoder in near-equal slices, so transient memory does not grow
    with the batch. Equal slices keep the smallest one large: BLAS
    rounds a product of one or a few rows differently, and a row's
    latent should not depend on the size of its batch. The slices run
    on a thread pool of at most one worker per usable CPU, each on its
    own tape and into its own rows of the output; slice boundaries do
    not depend on the worker count, so neither do the latents.
    """
    spec = enc.spec
    width = spec.in_dim if isinstance(spec, MlpSpec) else int(np.prod(spec.in_shape))
    rows = max(1, ENCODE_SLICE_VALUES // width)
    if len(batch) <= rows:
        return _encode_slice(enc, batch)
    parts = np.array_split(batch, -(-len(batch) // rows))
    ends = np.cumsum([len(part) for part in parts])
    workers = min(len(parts), _usable_cpus())
    out = np.empty((len(batch), enc.out_dim))

    def fill(first: int) -> None:
        """Slices first, first + workers, ... into their rows of `out`."""
        for k in range(first, len(parts), workers):
            out[ends[k] - len(parts[k]):ends[k]] = _encode_slice(enc, parts[k])

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, range(workers)))
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _encode_slice(enc: Encoder, batch: np.ndarray) -> np.ndarray:
    tape = Tape()
    bound = {name: tape.const(p) for name, p in enc.params.items()}
    return enc.apply(bound, tape.const(enc.prepare(batch))).data
