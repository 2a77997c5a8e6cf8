"""Reference implementations used as test oracles.

Everything here but the conv encoder follows the defining formulas term
by term, with plain Python loops and none of the vectorized or
stabilized structure of the library code. Deliberately slow; use tiny
inputs. The conv encoder builds every convolution and pool from flat
index `gather`s and `row_max`, so its backward is an `np.add.at` scatter.
"""

import math

import numpy as np

from semicon import autodiff as ad


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


def nearest_mean(x, means):
    """Index of the closest mean by Euclidean distance, lowest index on ties."""
    best, best_d = 0, float("inf")
    for k, m in enumerate(means):
        d = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(x, m)))
        if d < best_d:
            best, best_d = k, d
    return best


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
    k, p = spec.kernel, spec.pool
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
