"""Reference implementations used as test oracles.

Everything here but the conv encoder follows the defining formulas term
by term, with plain Python loops (or one mask per class, one draw per
reservoir offer) and none of the vectorized or stabilized structure of
the library code. Deliberately slow; use tiny
inputs. The conv encoder builds every convolution and pool from flat
index `gather`s and `row_max`, so its backward is an `np.add.at` scatter.
`expected_steps` is the step-count contract every method is held to,
`loss_value` evaluates a library loss, which takes tape variables, on a
plain array, and `CountingOracle` tallies the labels it hands out.
"""

import math

import numpy as np

from semicon import autodiff as ad
from semicon import models
from semicon.errors import NumericError
from semicon.memory import Oracle


def contrastive_anchor(z, i, positives, tau):
    """-1/|P(i)| sum_{p in P(i)} log(exp(z_i.z_p/tau) / sum_{a != i} exp(z_i.z_a/tau))."""
    n = len(z)
    den = 0.0
    for a in range(n):
        if a != i:
            den += math.exp(float(np.dot(z[i], z[a])) / tau)
    total = 0.0
    for p in positives:
        total += math.log(math.exp(float(np.dot(z[i], z[p])) / tau) / den)
    return -total / len(positives)


def loss_mem(z, labeled, labels, tau):
    """Supervised term: labeled anchors, same-class labeled positives."""
    total = 0.0
    for i in range(len(z)):
        if not labeled[i]:
            continue
        pos = [
            j
            for j in range(len(z))
            if j != i and labeled[j] and labels[j] == labels[i]
        ]
        total += contrastive_anchor(z, i, pos, tau)
    return total


def loss_unlab(z, labeled, pair, tau):
    """Self-supervised term: unlabeled anchors, paired-view positive."""
    total = 0.0
    for i in range(len(z)):
        if labeled[i]:
            continue
        total += contrastive_anchor(z, i, [pair[i]], tau)
    return total


def supcon(z, labels, tau):
    """Fully supervised contrastive loss over every view."""
    return loss_mem(z, [True] * len(z), labels, tau)


def pair_contrastive(z, pair, tau):
    """Every view is an anchor; the only positive is its pair."""
    total = 0.0
    for i in range(len(z)):
        total += contrastive_anchor(z, i, [pair[i]], tau)
    return total


def cross_entropy(logits, labels):
    """Mean over rows of -log softmax(logits)[label]."""
    total = 0.0
    for row, y in zip(logits, labels):
        den = sum(math.exp(float(v)) for v in row)
        total += -math.log(math.exp(float(row[y])) / den)
    return total / len(labels)


def expected_steps(cfg, stream):
    """ceil(N / |B_s|) steps per task; offline makes cfg.epochs passes
    over the whole training set at once."""
    if cfg.method == "offline":
        return cfg.epochs * math.ceil(len(stream.data) / cfg.stream_batch)
    return sum(math.ceil(len(ids) / stream.batch_size) for ids in stream.tasks)


def nearest_mean(x, means):
    """Index of the closest mean by Euclidean distance, lowest index on ties."""
    best, best_d = 0, float("inf")
    for k, m in enumerate(means):
        d = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(x, m)))
        if d < best_d:
            best, best_d = k, d
    return best


def class_means_loop(latents, labels):
    """(class ids, normalized mean of normalized latents) by a boolean mask
    and `mean(axis=0)` per class; zero rows stay zero."""
    labels = np.asarray(labels)
    norms = np.linalg.norm(latents, axis=1, keepdims=True)
    normed = latents / np.where(norms == 0.0, 1.0, norms)
    ids = np.unique(labels)
    means = np.stack([normed[labels == c].mean(axis=0) for c in ids])
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    return ids, means / np.where(norms == 0.0, 1.0, norms)


def reservoir_scalar(capacity, ids, labels, seen, offers, oracle_labels, rng):
    """Algorithm R one offer at a time: (ids, labels, seen, stores).

    `ids` and `labels` list the stored slots in slot order; an offer at
    stream position t < capacity is appended, a later one draws a slot
    uniformly from 0..t and replaces it when the slot is < capacity.
    """
    ids, labels, stores = list(ids), list(labels), 0
    for source in offers:
        if seen < capacity:
            ids.append(int(source))
            labels.append(int(oracle_labels[source]))
            stores += 1
        else:
            j = int(rng.integers(0, seen + 1))
            if j < capacity:
                ids[j] = int(source)
                labels[j] = int(oracle_labels[source])
                stores += 1
        seen += 1
    return ids, labels, seen, stores


class CountingOracle(Oracle):
    """Oracle that tallies every label it hands out."""

    def __init__(self, labels):
        super().__init__(labels)
        object.__setattr__(self, "calls", [0])

    def label(self, source_ids):
        self.calls[0] += np.size(source_ids)
        return super().label(source_ids)


def conv_patch_indices(n, h, w, c, k):
    """Flat NHWC indices shaped (n*oh*ow, k*k*c) for valid k x k windows."""
    oh, ow = h - k + 1, w - k + 1
    bn = np.arange(n).reshape(n, 1, 1, 1, 1, 1)
    ii = (np.arange(oh).reshape(oh, 1) + np.arange(k)).reshape(1, oh, 1, k, 1, 1)
    jj = (np.arange(ow).reshape(ow, 1) + np.arange(k)).reshape(1, 1, ow, 1, k, 1)
    cc = np.arange(c).reshape(1, 1, 1, 1, 1, c)
    idx = ((bn * h + ii) * w + jj) * c + cc
    return np.broadcast_to(idx, (n, oh, ow, k, k, c)).reshape(n * oh * ow, k * k * c)


def pool_window_indices(n, h, w, c, p):
    """Flat NHWC indices shaped (n*ph*pw*c, p*p); trailing rows/cols cropped."""
    ph, pw = h // p, w // p
    bn = np.arange(n).reshape(n, 1, 1, 1, 1, 1)
    ii = (np.arange(ph).reshape(ph, 1) * p + np.arange(p)).reshape(1, ph, 1, 1, p, 1)
    jj = (np.arange(pw).reshape(pw, 1) * p + np.arange(p)).reshape(1, 1, pw, 1, 1, p)
    cc = np.arange(c).reshape(1, 1, 1, c, 1, 1)
    idx = ((bn * h + ii) * w + jj) * c + cc
    return np.broadcast_to(idx, (n, ph, pw, c, p, p)).reshape(n * ph * pw * c, p * p)


def conv_encoder_gather(spec, bound, x):
    """The conv encoder's forward on a tape, from gathers and row_max.

    `x` is the prepared NHWC batch as a tape node; `bound` maps the
    encoder's parameter names to tape nodes.
    """
    c, h, w = spec.in_shape
    k, p = models.KERNEL, models.POOL
    n = x.shape[0]
    act = x
    in_c = c
    for block, out_c in enumerate(spec.channels, start=1):
        patches = ad.reshape(
            ad.gather(act, conv_patch_indices(n, h, w, in_c, k)),
            (n * (h - k + 1) * (w - k + 1), k * k * in_c),
        )
        conv = ad.relu(ad.add(ad.matmul(patches, bound[f"enc/c{block}_w"]),
                              bound[f"enc/c{block}_b"]))
        h, w = h - k + 1, w - k + 1
        conv = ad.reshape(conv, (n, h, w, out_c))
        windows = ad.reshape(
            ad.gather(conv, pool_window_indices(n, h, w, out_c, p)),
            (n * (h // p) * (w // p) * out_c, p * p),
        )
        h, w = h // p, w // p
        act = ad.reshape(ad.row_max(windows), (n, h, w, out_c))
        in_c = out_c
    flat = ad.reshape(act, (n, h * w * in_c))
    return ad.add(ad.matmul(flat, bound["enc/dense_w"]), bound["enc/dense_b"])


def loss_value(loss, x, *args):
    """The float value of `loss(x, *args)` with `x` a constant on a fresh
    tape, which therefore records nothing."""
    return float(loss(ad.Tape().const(x), *args).data)


def finite_diff_check(f, params, step=1e-5):
    """Max relative error between reverse-mode and central differences.

    `f` receives the parameters as tape leaves and must return a scalar
    Var; it is re-evaluated on a fresh tape for every perturbation.
    Error metric per coordinate: |g_ad - g_fd| / max(1, |g_fd|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    params = [ad.as_f64(p).copy() for p in params]

    def evaluate(ps):
        tape = ad.Tape()
        root = f([tape.param(p) for p in ps])
        val = float(root.data)
        if not np.isfinite(val):
            raise NumericError(f"finite_diff_check: f evaluated to {val}")
        return val

    tape = ad.Tape()
    pvars = [tape.param(p) for p in params]
    root = f(pvars)
    if not np.isfinite(root.data).all():
        raise NumericError("finite_diff_check: non-finite forward value")
    analytic = ad.grads_for(ad.backward(root), pvars)

    worst = 0.0
    for k, p in enumerate(params):
        flat_ad = analytic[k].ravel()
        for j in range(p.size):
            orig = p.flat[j]
            p.flat[j] = orig + step
            f_plus = evaluate(params)
            p.flat[j] = orig - step
            f_minus = evaluate(params)
            p.flat[j] = orig
            g_fd = (f_plus - f_minus) / (2.0 * step)
            err = abs(flat_ad[j] - g_fd) / max(1.0, abs(g_fd))
            worst = max(worst, err)
    return worst
