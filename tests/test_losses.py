"""Contrastive losses against scalar-loop oracles and closed-form cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from semicon import autodiff as ad
from semicon import losses
from semicon.losses import (
    GALPHA_CHOICES,
    REDUCTIONS,
    LossConfig,
    MultiviewIndex,
    PositiveMask,
    build_masks,
)


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_batch(seed, b_l, b_u, n_classes=3, d=4):
    """Multiview batch with unit-norm projections in the standard layout."""
    rng = np.random.default_rng(seed)
    source_labels = [int(rng.integers(n_classes)) for _ in range(b_l)]
    source_labels += [None] * b_u
    idx = MultiviewIndex.from_sources(source_labels)
    return unit_rows(rng, 2 * (b_l + b_u), d), idx


# ---------------------------------------------------------------------------
# index and mask construction
# ---------------------------------------------------------------------------

def test_from_sources_layout():
    idx = MultiviewIndex.from_sources([0, 1, None])
    assert idx.n_views == 6
    assert np.array_equal(idx.pair, [3, 4, 5, 0, 1, 2])
    assert np.array_equal(idx.labeled, [True, True, False] * 2)
    assert np.array_equal(idx.labels, [0, 1, -1, 0, 1, -1])
    assert idx.b_l == 2 and idx.b_u == 1


def test_index_rejects_bad_pair_map():
    with pytest.raises(ValueError, match="involution"):
        MultiviewIndex(
            labeled=[True, True],
            labels=[0, 0],
            pair=[0, 1],  # fixed points
        )


def test_index_rejects_mismatched_pair_labels():
    with pytest.raises(ValueError, match="label"):
        MultiviewIndex(labeled=[True, True], labels=[0, 1], pair=[1, 0])


def test_mask_single_labeled_source():
    # b=1: the only positive either way is the paired view
    mask = build_masks(MultiviewIndex.from_sources([0]))
    assert np.array_equal(mask.positives, [[False, True], [True, False]])


def test_mask_two_sources_same_class():
    mask = build_masks(MultiviewIndex.from_sources([5, 5]))
    assert np.array_equal(mask.positives.sum(axis=1), [3, 3, 3, 3])
    assert not np.any(np.diag(mask.positives))


def test_mask_mixed_batch_hand_enumerated():
    # sources: one labeled (views 0, 2), one unlabeled (views 1, 3)
    idx = MultiviewIndex.from_sources([7, None])
    expected = np.zeros((4, 4), dtype=bool)
    expected[0, 2] = expected[2, 0] = True  # labeled anchors: same-class views
    expected[1, 3] = expected[3, 1] = True  # unlabeled anchors: their pair
    assert np.array_equal(build_masks(idx).positives, expected)


def test_mask_unlabeled_never_positive_for_labeled():
    z, idx = random_batch(0, b_l=3, b_u=3)
    pos = build_masks(idx).positives
    assert not np.any(pos[np.ix_(idx.anchors_labeled, idx.anchors_unlabeled)])


def test_build_masks_missing_label():
    idx = MultiviewIndex(labeled=[True, True], labels=[-1, -1], pair=[1, 0])
    with pytest.raises(ValueError, match="missing a label"):
        build_masks(idx)


def test_positive_mask_invariants_enforced():
    with pytest.raises(ValueError, match="own positive"):
        PositiveMask(np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="at least one positive"):
        PositiveMask(np.zeros((2, 2), dtype=bool))


def test_loss_config_validation():
    with pytest.raises(ValueError, match="temperature"):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError, match="alpha"):
        LossConfig(alpha=-0.1)
    with pytest.raises(ValueError, match="galpha_on"):
        LossConfig(galpha_on="both")
    with pytest.raises(ValueError, match="reduction"):
        LossConfig(reduction="max")


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_loss_mem_single_source_is_zero():
    z, idx = random_batch(1, b_l=1, b_u=0)
    val = losses.loss_mem(z, idx, build_masks(idx), LossConfig())
    assert val == 0.0


def test_loss_unlab_single_source_is_zero():
    z, idx = random_batch(2, b_l=0, b_u=1)
    assert losses.loss_unlab(z, idx, LossConfig()) == 0.0


@pytest.mark.parametrize("b_l", [2, 3, 5])
def test_loss_mem_identical_projections(b_l):
    # uniform similarities force softmax 1/(2b-1) for every positive
    idx = MultiviewIndex.from_sources([0] * b_l)
    z = np.tile(unit_rows(np.random.default_rng(3), 1, 6), (2 * b_l, 1))
    val = losses.loss_mem(z, idx, build_masks(idx), LossConfig())
    assert val == pytest.approx(2 * b_l * math.log(2 * b_l - 1), rel=1e-12)


@pytest.mark.parametrize("b_u", [2, 4])
def test_loss_unlab_identical_projections(b_u):
    idx = MultiviewIndex.from_sources([None] * b_u)
    z = np.tile(unit_rows(np.random.default_rng(4), 1, 6), (2 * b_u, 1))
    val = losses.loss_unlab(z, idx, LossConfig())
    assert val == pytest.approx(2 * b_u * math.log(2 * b_u - 1), rel=1e-12)


def test_empty_anchor_sets_return_zero():
    z, idx = random_batch(5, b_l=0, b_u=2)
    assert losses.loss_mem(z, idx, build_masks(idx), LossConfig()) == 0.0
    z, idx = random_batch(6, b_l=2, b_u=0)
    assert losses.loss_unlab(z, idx, LossConfig()) == 0.0


def test_cross_entropy_uniform_logits():
    val = losses.cross_entropy(np.zeros((4, 10)), np.array([0, 3, 7, 9]))
    assert val == pytest.approx(math.log(10), rel=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.zeros((3, 5))
    labels = np.array([0, 2, 4])
    logits[np.arange(3), labels] = 1000.0
    assert losses.cross_entropy(logits, labels) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        losses.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match="out of range"):
        losses.cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


# ---------------------------------------------------------------------------
# oracle comparisons
# ---------------------------------------------------------------------------

def test_loss_mem_matches_oracle_mixed_batch():
    # 2 labeled sources of the same class plus 1 unlabeled source
    rng = np.random.default_rng(10)
    idx = MultiviewIndex.from_sources([1, 1, None])
    z = unit_rows(rng, 6, 4)
    got = losses.loss_mem(z, idx, build_masks(idx), LossConfig(tau=0.07))
    want = reference.loss_mem(z, idx.labeled, idx.labels, 0.07)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("seed,b_l,b_u", [(20, 2, 2), (21, 3, 1), (22, 1, 4)])
def test_losses_match_oracles(seed, b_l, b_u):
    z, idx = random_batch(seed, b_l, b_u)
    cfg = LossConfig(tau=0.07)
    lm = losses.loss_mem(z, idx, build_masks(idx), cfg)
    lu = losses.loss_unlab(z, idx, cfg)
    assert lm == pytest.approx(reference.loss_mem(z, idx.labeled, idx.labels, 0.07),
                               rel=1e-10)
    assert lu == pytest.approx(reference.loss_unlab(z, idx.labeled, idx.pair, 0.07),
                               rel=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.18, 1.0, 1.78])
def test_semicon_composition_against_oracles(alpha):
    z, idx = random_batch(30, b_l=2, b_u=3)
    cfg = LossConfig(tau=0.07, alpha=alpha)
    got = losses.semicon(z, idx, build_masks(idx), cfg)
    want = (reference.loss_mem(z, idx.labeled, idx.labels, 0.07)
            + alpha * reference.loss_unlab(z, idx.labeled, idx.pair, 0.07))
    assert got == pytest.approx(want, rel=1e-10)


def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(40)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    got = losses.cross_entropy(logits, labels)
    assert got == pytest.approx(reference.cross_entropy(logits, labels), rel=1e-12)


# ---------------------------------------------------------------------------
# reductions to known losses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.18, 1.0, 1.78])
def test_fully_labeled_batch_reduces_to_supcon(alpha):
    rng = np.random.default_rng(50)
    idx = MultiviewIndex.from_sources([0, 1, 0, 2])
    z = unit_rows(rng, 8, 5)
    got = losses.semicon(z, idx, build_masks(idx), LossConfig(alpha=alpha))
    assert got == pytest.approx(reference.supcon(z, idx.labels, 0.07), rel=1e-10)


def test_fully_unlabeled_batch_reduces_to_pair_contrastive():
    z, idx = random_batch(51, b_l=0, b_u=4)
    got = losses.semicon(z, idx, build_masks(idx), LossConfig(alpha=1.0))
    assert got == pytest.approx(reference.pair_contrastive(z, idx.pair, 0.07),
                                rel=1e-10)


def test_alpha_zero_keeps_unlabeled_negatives():
    # with alpha=0 the unlabeled views are gone from the anchor sum but
    # still crowd the denominators, so the value differs from SupCon
    # computed on the labeled views alone
    z, idx = random_batch(52, b_l=3, b_u=3)
    mixed = losses.semicon(z, idx, build_masks(idx), LossConfig(alpha=0.0))
    lab = idx.anchors_labeled
    labeled_only = reference.supcon(z[lab], idx.labels[lab], 0.07)
    assert mixed == pytest.approx(
        reference.loss_mem(z, idx.labeled, idx.labels, 0.07), rel=1e-10)
    assert abs(mixed - labeled_only) > 1e-3


def test_galpha_on_labeled_moves_the_weight():
    z, idx = random_batch(53, b_l=2, b_u=2)
    mask = build_masks(idx)
    cfg = LossConfig(alpha=0.3, galpha_on="labeled")
    lm = losses.loss_mem(z, idx, mask, LossConfig())
    lu = losses.loss_unlab(z, idx, LossConfig())
    got = losses.semicon(z, idx, mask, cfg)
    assert got == pytest.approx(0.3 * lm + lu, rel=1e-12)


def test_mean_reduction_divides_by_anchor_count():
    z, idx = random_batch(54, b_l=2, b_u=3)
    mask = build_masks(idx)
    sum_cfg = LossConfig()
    mean_cfg = LossConfig(reduction="mean")
    assert losses.loss_mem(z, idx, mask, mean_cfg) == pytest.approx(
        losses.loss_mem(z, idx, mask, sum_cfg) / 4, rel=1e-12)
    assert losses.loss_unlab(z, idx, mean_cfg) == pytest.approx(
        losses.loss_unlab(z, idx, sum_cfg) / 6, rel=1e-12)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    b_l=st.integers(0, 4),
    b_u=st.integers(0, 4),
    tau=st.floats(0.01, 10.0),
    alpha=st.floats(0.0, 3.0),
)
def test_losses_non_negative(seed, b_l, b_u, tau, alpha):
    if b_l + b_u == 0:
        return
    z, idx = random_batch(seed, b_l, b_u)
    cfg = LossConfig(tau=tau, alpha=alpha)
    mask = build_masks(idx)
    assert losses.loss_mem(z, idx, mask, cfg) >= 0.0
    assert losses.loss_unlab(z, idx, cfg) >= 0.0
    assert losses.semicon(z, idx, mask, cfg) >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    b_l=st.integers(1, 4),
    b_u=st.integers(1, 4),
    alpha=st.floats(0.0, 3.0),
)
def test_semicon_decomposes_exactly(seed, b_l, b_u, alpha):
    z, idx = random_batch(seed, b_l, b_u)
    cfg = LossConfig(alpha=alpha)
    mask = build_masks(idx)
    whole = losses.semicon(z, idx, mask, cfg)
    parts = losses.loss_mem(z, idx, mask, cfg) + alpha * losses.loss_unlab(
        z, idx, cfg)
    assert whole == parts


def test_semicon_makes_one_softmax_pass():
    z, idx = random_batch(59, b_l=3, b_u=2)
    tape = ad.Tape()
    losses.semicon(tape.param(z), idx, build_masks(idx), LossConfig(alpha=0.5))
    assert [node.op for node in tape.nodes].count("gram") == 1


@pytest.mark.parametrize("galpha_on", GALPHA_CHOICES)
@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_semicon_gradient_matches_two_pass_sum(galpha_on, reduction):
    # one pass shares a single gram vjp; the separate terms each have one
    z, idx = random_batch(58, b_l=3, b_u=4)
    mask = build_masks(idx)
    cfg = LossConfig(alpha=0.6, galpha_on=galpha_on, reduction=reduction)
    tape = ad.Tape()
    zv = tape.param(z)
    lm = losses.loss_mem(zv, idx, mask, cfg)
    lu = losses.loss_unlab(zv, idx, cfg)
    if galpha_on == "labeled":
        two_pass = ad.add(ad.scale(lm, cfg.alpha), lu)
    else:
        two_pass = ad.add(lm, ad.scale(lu, cfg.alpha))
    one_pass = losses.semicon(zv, idx, mask, cfg)
    assert float(one_pass.data) == float(two_pass.data)
    (want,) = ad.grads_for(ad.backward(two_pass), [zv])
    (got,) = ad.grads_for(ad.backward(one_pass), [zv])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_permutation_equivariance():
    rng = np.random.default_rng(60)
    z, idx = random_batch(61, b_l=3, b_u=2)
    cfg = LossConfig(alpha=0.7)
    base = losses.semicon(z, idx, build_masks(idx), cfg)
    for _ in range(10):
        perm = rng.permutation(idx.n_views)
        inv = np.argsort(perm)
        shuffled = MultiviewIndex(
            labeled=idx.labeled[perm],
            labels=idx.labels[perm],
            pair=inv[idx.pair[perm]],
        )
        got = losses.semicon(z[perm], shuffled, build_masks(shuffled), cfg)
        assert got == pytest.approx(base, rel=1e-10)


def test_stable_at_tiny_temperature():
    z, idx = random_batch(62, b_l=3, b_u=3)
    cfg = LossConfig(tau=1e-3, alpha=1.0)
    val = losses.semicon(z, idx, build_masks(idx), cfg)
    assert math.isfinite(val) and val >= 0.0


def test_tiny_temperature_gradient_is_finite():
    z, idx = random_batch(63, b_l=2, b_u=2)
    mask = build_masks(idx)
    tape = ad.Tape()
    zv = tape.param(z)
    root = losses.semicon(zv, idx, mask, LossConfig(tau=1e-3))
    (grad,) = ad.grads_for(ad.backward(root), [zv])
    assert np.isfinite(grad).all()


def test_monotone_in_alpha():
    z, idx = random_batch(64, b_l=2, b_u=2)
    mask = build_masks(idx)
    vals = [
        losses.semicon(z, idx, mask, LossConfig(alpha=a))
        for a in (0.0, 0.5, 1.0, 2.0)
    ]
    assert losses.loss_unlab(z, idx, LossConfig()) > 0.0
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_var_and_array_paths_agree():
    z, idx = random_batch(65, b_l=2, b_u=1)
    mask = build_masks(idx)
    cfg = LossConfig(alpha=0.5)
    tape = ad.Tape()
    traced = losses.semicon(tape.const(z), idx, mask, cfg)
    assert float(traced.data) == losses.semicon(z, idx, mask, cfg)


def test_semicon_gradient_matches_finite_differences():
    raw = np.random.default_rng(66).normal(size=(8, 4))
    idx = MultiviewIndex.from_sources([0, 1, None, None])
    mask = build_masks(idx)
    cfg = LossConfig(alpha=0.7)

    def f(params):
        return losses.semicon(ad.l2_normalize_rows(params[0]), idx, mask, cfg)

    assert ad.finite_diff_check(f, [raw], step=1e-5) < 1e-6
