"""Contrastive objectives over a multiview batch with partial labels.

A batch of b sources (b_l labeled, b_u unlabeled) is expanded to 2b
augmented views. Labeled anchors pull toward every same-class view, with
the whole batch (labeled and unlabeled alike) serving as negatives;
unlabeled anchors pull only toward their own second view. One softmax
pass gives every anchor's loss; the unified objective is the labeled
anchors' sum L_m plus alpha times the unlabeled anchors' sum L_u.
Anchors are summed, not averaged (a per-anchor mean sits behind
``reduction="mean"`` for batch-size-invariant comparisons).

Softmax denominators exclude the anchor itself and are evaluated in log
space with the row max (over the denominator's domain) subtracted as a
constant, which leaves values and gradients unchanged but keeps the loss
finite down to very small temperatures.

The losses take projections (or logits) as a tape ``Var`` and return
a scalar ``Var`` on the same tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var

GALPHA_CHOICES = ("unlabeled", "labeled")
REDUCTIONS = ("sum", "mean")


@dataclass(frozen=True)
class MultiviewIndex:
    """View bookkeeping for a 2b multiview batch.

    labels: class id per view (-1 when unlabeled); pair: index of the
    other view of the same source.
    """

    labels: np.ndarray
    pair: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "pair", np.asarray(self.pair, dtype=np.int64))
        n = self.labels.size
        if n % 2 or self.labels.shape != (n,) or self.pair.shape != (n,):
            raise ValueError("multiview index arrays must share an even length")
        i = np.arange(n)
        if np.any(self.pair == i) or np.any(self.pair[self.pair] != i):
            raise ValueError("pair map must be an involution without fixed points")
        if np.any(self.labels != self.labels[self.pair]):
            raise ValueError("paired views must share the label value")

    @classmethod
    def from_sources(cls, source_labels: Sequence[int | None]) -> "MultiviewIndex":
        """Standard layout: rows 0..b-1 first views, b..2b-1 second views."""
        b = len(source_labels)
        if b == 0:
            raise ValueError("multiview batch needs at least one source")
        per_source = np.array(
            [-1 if y is None else int(y) for y in source_labels], dtype=np.int64
        )
        labels = np.concatenate([per_source, per_source])
        pair = (np.arange(2 * b) + b) % (2 * b)
        return cls(labels, pair)

    @property
    def labeled(self) -> np.ndarray:
        return self.labels >= 0

    @property
    def n_views(self) -> int:
        return self.labels.shape[0]


def build_masks(idx: MultiviewIndex) -> np.ndarray:
    """(n, n) bool: [i, j] when view j is a positive for anchor i.

    Same-class views for labeled anchors, the paired view otherwise; no
    anchor is its own positive, and every anchor has its pair (which
    shares its label) as one.
    """
    n = idx.n_views
    pos = np.zeros((n, n), dtype=bool)
    lab = np.flatnonzero(idx.labeled)
    if lab.size:
        pos[np.ix_(lab, lab)] = idx.labels[lab, None] == idx.labels[None, lab]
    unl = np.flatnonzero(~idx.labeled)
    pos[unl, idx.pair[unl]] = True
    np.fill_diagonal(pos, False)
    return pos


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.07
    alpha: float = 1.0
    galpha_on: str = "unlabeled"
    reduction: str = "sum"

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.tau}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.galpha_on not in GALPHA_CHOICES:
            raise ValueError(f"galpha_on must be one of {GALPHA_CHOICES}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"reduction must be one of {REDUCTIONS}")


def _per_anchor_losses(z: Var, positives: np.ndarray, tau: float) -> Var:
    """Column of -mean_{p in P(i)} log softmax(z_i.z_p / tau), shape (n, 1);
    every row of `positives` needs a positive, as `build_masks` ensures."""
    n = z.shape[0]
    tape = z.tape
    logits = ad.scale(ad.gram(z), 1.0 / tau)
    off = logits.data.copy()
    np.fill_diagonal(off, -np.inf)
    # constant shift: cancels exactly in value and gradient
    stab = tape.const(-off.max(axis=1, keepdims=True))
    shifted = ad.add(logits, stab)
    # the diagonal must vanish before exp, not after: exp of the raw
    # diagonal overflows at small tau
    kill_diag = tape.const(np.diag(np.full(n, -np.inf)))
    den = ad.row_sum(ad.exp(ad.add(shifted, kill_diag)))
    log_prob = ad.add(shifted, ad.scale(ad.log(den), -1.0))
    weights = positives / positives.sum(axis=1, keepdims=True)
    return ad.scale(ad.row_sum(ad.mul(log_prob, tape.const(weights))), -1.0)


def _terms(z: Var, idx: MultiviewIndex, mask: np.ndarray,
           cfg: LossConfig) -> tuple[Var, Var]:
    """(L_m, L_u): group sums of one per-anchor column; an empty group is 0."""
    per_anchor = _per_anchor_losses(z, mask, cfg.tau)
    terms = []
    for group in (idx.labeled, ~idx.labeled):
        count = int(group.sum())
        if count == 0:
            terms.append(z.tape.const(0.0))
            continue
        indicator = z.tape.const(group[:, None].astype(np.float64))
        total = ad.total_sum(ad.mul(per_anchor, indicator))
        terms.append(ad.scale(total, 1.0 / count) if cfg.reduction == "mean"
                     else total)
    return terms[0], terms[1]


def loss_mem(z: Var, idx: MultiviewIndex, mask: np.ndarray, cfg: LossConfig) -> Var:
    """Supervised contrastive term L_m over labeled anchors, full-batch negatives."""
    return _terms(z, idx, mask, cfg)[0]


def loss_unlab(z: Var, idx: MultiviewIndex, cfg: LossConfig) -> Var:
    """Self-supervised term L_u over unlabeled anchors; positive is the paired view."""
    return _terms(z, idx, build_masks(idx), cfg)[1]


def semicon(z: Var, idx: MultiviewIndex, mask: np.ndarray, cfg: LossConfig) -> Var:
    """Unified loss: labeled term + alpha * unlabeled term, from one pass.

    ``galpha_on="labeled"`` moves the weight onto the labeled term
    instead (the per-anchor-weight reading of the unified form).
    """
    lm, lu = _terms(z, idx, mask, cfg)
    if cfg.galpha_on == "labeled":
        return ad.add(ad.scale(lm, cfg.alpha), lu)
    return ad.add(lm, ad.scale(lu, cfg.alpha))


def cross_entropy(logits: Var, labels) -> Var:
    """Mean over rows of -log softmax(logits)[label]."""
    n, n_classes = logits.shape
    if n == 0:
        raise ValueError("cross_entropy: empty batch")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range for {n_classes} classes")
    tape = logits.tape
    stab = tape.const(-logits.data.max(axis=1, keepdims=True))
    shifted = ad.add(logits, stab)
    log_den = ad.log(ad.row_sum(ad.exp(shifted)))
    log_prob = ad.add(shifted, ad.scale(log_den, -1.0))
    picked = ad.gather(log_prob, np.arange(n) * n_classes + labels)
    return ad.scale(ad.mean(picked), -1.0)
