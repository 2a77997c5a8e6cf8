"""Tape/backward correctness against central finite differences."""

import gc
import weakref
import zlib

import numpy as np
import pytest

import reference
from semicon import autodiff as ad
from semicon.errors import NumericError, ShapeError


def _fd_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar numpy function."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    for j in range(x.size):
        orig = x.flat[j]
        x.flat[j] = orig + step
        fp = f(x)
        x.flat[j] = orig - step
        fm = f(x)
        x.flat[j] = orig
        g.flat[j] = (fp - fm) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# trivial forward examples
# ---------------------------------------------------------------------------

def test_matmul_identity():
    tape = ad.Tape()
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(tape.const(np.eye(2)), tape.const(x))
    assert np.array_equal(out.data, x)


def test_relu_definition():
    tape = ad.Tape()
    out = ad.relu(tape.const([[-1.0, 0.0, 2.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_l2_normalize_hand_case():
    tape = ad.Tape()
    out = ad.l2_normalize_rows(tape.const([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_zero_row_passthrough():
    tape = ad.Tape()
    out = ad.l2_normalize_rows(tape.const([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0], [1.0, 0.0]])


def test_l2_normalize_unit_norm_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=(5, 4)) + 0.1
        tape = ad.Tape()
        out = ad.l2_normalize_rows(tape.const(x))
        norms = np.linalg.norm(out.data, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_shape_mismatch_names_primitive():
    tape = ad.Tape()
    a = tape.const(np.ones((2, 3)))
    b = tape.const(np.ones((4, 5)))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, b)
    with pytest.raises(ShapeError, match="add"):
        ad.add(tape.const(np.ones((2, 3))), tape.const(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="row_sum"):
        ad.row_sum(tape.const(np.ones(3)))
    with pytest.raises(ShapeError, match="gather"):
        ad.gather(tape.const(np.ones(3)), np.array([5]))
    with pytest.raises(ShapeError, match="reshape"):
        ad.reshape(tape.const(np.ones(3)), (2, 2))
    with pytest.raises(ShapeError, match="im2col"):
        ad.im2col(tape.const(np.ones((2, 3))), 3)
    with pytest.raises(ShapeError, match="im2col"):
        ad.im2col(tape.const(np.ones((1, 2, 5, 1))), 3)
    with pytest.raises(ShapeError, match="maxpool2d"):
        ad.maxpool2d(tape.const(np.ones((1, 1, 4, 1))), 2)


# ---------------------------------------------------------------------------
# trivial backward examples
# ---------------------------------------------------------------------------

def test_backward_sum_is_ones():
    tape = ad.Tape()
    x = tape.param(np.arange(6.0).reshape(2, 3))
    grads = ad.backward(ad.total_sum(x))
    assert np.array_equal(grads[x.idx], np.ones((2, 3)))


def test_backward_dot_self():
    tape = ad.Tape()
    x = tape.param(np.array([[1.0, 2.0]]))
    root = ad.total_sum(ad.mul(x, x))
    grads = ad.backward(root)
    assert np.allclose(grads[x.idx], [[2.0, 4.0]])


def test_backward_rejects_non_scalar_root():
    tape = ad.Tape()
    x = tape.param(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(ad.relu(x))


def test_tape_records_only_what_depends_on_a_param():
    rng = np.random.default_rng(3)
    xv, wv = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))

    def forward(tape, leaf):
        h = ad.matmul(tape.const(xv), leaf(tape, wv))
        return ad.l2_normalize_rows(ad.relu(h))

    recorded, constant = ad.Tape(), ad.Tape()
    want = forward(recorded, ad.Tape.param)
    got = forward(constant, ad.Tape.const)
    assert np.array_equal(got.data, want.data)
    assert got.idx is None and constant.nodes == []
    # the input const gets no node
    assert [n.op for n in recorded.nodes] == [
        "param", "matmul", "relu", "l2_normalize_rows"]


def test_backward_refuses_a_root_that_depends_on_no_param():
    tape = ad.Tape()
    root = ad.total_sum(tape.const(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="backward"):
        ad.backward(root)


def test_backward_skips_nodes_that_depend_on_no_param():
    rng = np.random.default_rng(5)
    xv, wv = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    mask = (rng.normal(size=(4, 2)) > 0).astype(float)
    calls = []

    def spy(g):
        calls.append(g.shape)
        return (g,)

    def grads_of(leaf):
        tape = ad.Tape()
        x, w = leaf(tape, xv), tape.param(wv)
        xs = ad._record("spy", (x,), x.data.copy(), spy)
        h = ad.mul(ad.matmul(ad.relu(xs), w), tape.const(mask))
        return tape, w, ad.backward(ad.total_sum(ad.exp(h)))

    tape, w, pruned = grads_of(ad.Tape.const)
    assert calls == []
    assert all(tape.nodes[i].op not in ("const", "spy", "relu") for i in pruned)
    _, w_full, full = grads_of(ad.Tape.param)
    assert calls == [(4, 3)]
    assert np.array_equal(pruned[w.idx], full[w_full.idx])


def test_matmul_and_mul_skip_the_gradient_of_a_constant_operand():
    rng = np.random.default_rng(9)
    xv, wv = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    mv, g = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))

    def record(leaf):
        tape = ad.Tape()
        x, w, m = leaf(tape, xv), tape.param(wv), leaf(tape, mv)
        h = ad.matmul(x, w)
        return tape, w, h, ad.mul(m, h)

    tape, w, h, y = record(ad.Tape.const)
    assert all(v.idx is not None for v in (w, h, y))
    assert not any(n.op == "const" for n in tape.nodes)
    gx, gw = tape.nodes[h.idx].vjp(g)
    assert gx is None and np.array_equal(gw, xv.T @ g)
    gm, gh = tape.nodes[y.idx].vjp(g)
    assert gm is None and np.array_equal(gh, mv * g)
    # the parameter's gradient is the one computed with every slot live
    _, w_full, _, y_full = record(ad.Tape.param)
    pruned = ad.backward(ad.total_sum(y))[w.idx]
    full = ad.backward(ad.total_sum(y_full))[w_full.idx]
    assert np.array_equal(pruned, full)
    assert np.array_equal(pruned, xv.T @ mv)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("forward", [
    lambda x: ad.total_sum(ad.row_sum(x)),
    ad.mean,
], ids=["total_sum_row_sum", "mean"])
def test_tape_dies_at_del_without_the_cyclic_gc(no_cyclic_gc, forward):
    tape = ad.Tape()
    x = tape.param(np.arange(6.0).reshape(2, 3))
    root = forward(x)
    grads = ad.backward(root)
    alive = weakref.ref(tape)
    del tape, x, root
    assert alive() is None
    assert grads  # gradients outlive their tape


def test_recorded_intermediate_dies_with_its_var(no_cyclic_gc):
    # the add's vjp keeps only shapes, so once the product's Var is gone
    # nothing on the tape holds the product
    rng = np.random.default_rng(7)
    xv, wv = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    bv = rng.normal(size=(1, 2))

    def grads(drop):
        tape = ad.Tape()
        w, b = tape.param(wv), tape.param(bv)
        h = ad.matmul(tape.const(xv), w)
        y = ad.add(h, b)
        product = weakref.ref(h.data)
        if drop:
            del h
        dead = product() is None  # while the tape is alive
        return dead, ad.grads_for(ad.backward(ad.total_sum(ad.exp(y))), [w, b])

    dead, (gw, gb) = grads(drop=True)
    held, kept = grads(drop=False)
    assert dead and not held
    assert np.array_equal(gw, kept[0]) and np.array_equal(gb, kept[1])
    g = np.exp(xv @ wv + bv)
    np.testing.assert_allclose(gw, xv.T @ g, rtol=1e-12)
    np.testing.assert_allclose(gb, g.sum(axis=0, keepdims=True), rtol=1e-12)


def test_heap_setting_sets_both_glibc_thresholds(monkeypatch):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: Libc())
    ad._keep_heap_warm()
    assert sorted(calls) == [(ad._M_ARENA_MAX, 1),
                             (ad._M_MMAP_THRESHOLD, 32 << 20),
                             (ad._M_TRIM_THRESHOLD, 1 << 30)]


def test_heap_setting_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())
    assert ad._keep_heap_warm() is None


# (input rows, pooled row, (row, col) that takes each window's gradient)
MAXPOOL_CASES = {
    # the last row and column fill no window
    "ties": ([[1.0, 3.0, 0.0, 0.0, 9.0],
              [3.0, 2.0, 0.0, 0.0, 9.0],
              [9.0, 9.0, 9.0, 9.0, 9.0]], [3.0, 0.0], [(0, 1), (0, 2)]),
    "last_slot": ([[1.0, 2.0, 5.0, -1.0],
                   [3.0, 4.0, 0.0, 6.0]], [4.0, 6.0], [(1, 1), (1, 3)]),
    "signed_zero": ([[-0.0, 0.0],
                     [-1.0, -2.0]], [-0.0], [(0, 0)]),
}


@pytest.mark.parametrize("case", MAXPOOL_CASES)
def test_maxpool2d_routes_ties_to_first_maximum(case):
    rows, pooled, winners = MAXPOOL_CASES[case]
    x = np.array(rows)[None, :, :, None]
    tape = ad.Tape()
    xv = tape.param(x)
    out = ad.maxpool2d(xv, 2)
    assert np.array_equal(out.data.ravel(), pooled)
    # a -0.0/0.0 tie keeps the first value, sign bit included
    assert np.array_equal(np.signbit(out.data.ravel()), np.signbit(pooled))
    weights = 5.0 + 2.0 * np.arange(len(pooled))
    weighted = ad.mul(out, tape.const(weights.reshape(out.shape)))
    grads = ad.backward(ad.total_sum(weighted))
    want = np.zeros(x.shape)
    for (r, c), wt in zip(winners, weights):
        want[0, r, c, 0] = wt
    assert np.array_equal(grads[xv.idx], want)


@pytest.mark.parametrize("slot", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_maxpool2d_passes_nan_through(slot):
    # a NaN must reach the loss, so the trainer's non-finite check fires
    x = np.array([[1.0, 2.0, 5.0, 6.0],
                  [3.0, 4.0, 7.0, 8.0]])[None, :, :, None]
    x[(0, *slot, 0)] = np.nan
    out = ad.maxpool2d(ad.Tape().const(x), 2)
    assert np.isnan(out.data[0, 0, 0, 0])
    assert out.data[0, 0, 1, 0] == 8.0


@pytest.mark.parametrize("p, h, w", [(1, 5, 3), (2, 7, 5), (3, 8, 7), (3, 11, 9)])
def test_maxpool2d_matches_gather_row_max_bitwise(p, h, w):
    rng = np.random.default_rng(100 * p + h)
    n, c = 3, 2
    # ReLU of a shifted normal: most entries are zero, so whole windows tie
    x = np.maximum(rng.normal(size=(n, h, w, c)) - 1.0, 0.0)
    g = rng.normal(size=(n, h // p, w // p, c))

    def pool_and_grad(pool):
        tape = ad.Tape()
        xv = tape.param(x)
        out = pool(xv)
        grads = ad.backward(ad.total_sum(ad.mul(out, tape.const(g))))
        return out.data, grads[xv.idx]

    out, grad = pool_and_grad(lambda a: ad.maxpool2d(a, p))
    ref_out, ref_grad = pool_and_grad(lambda a: ad.reshape(
        ad.row_max(ad.gather(a, reference.pool_window_indices(n, h, w, c, p))),
        g.shape))
    assert np.array_equal(out, ref_out)
    assert np.array_equal(grad, ref_grad)
    if p > 1:
        assert np.any(out == 0.0)  # some window is all zeros, a p*p-way tie


def test_tape_replay_deterministic():
    def run():
        rng = np.random.default_rng(42)
        tape = ad.Tape()
        x = tape.param(rng.normal(size=(4, 3)))
        w = tape.param(rng.normal(size=(3, 2)))
        root = ad.mean(ad.relu(ad.matmul(x, w)))
        grads = ad.backward(root)
        return root.data.copy(), grads[w.idx].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# per-primitive gradient property tests (central finite differences)
# ---------------------------------------------------------------------------

def _case_matmul(rng):
    n, k, m = rng.integers(1, 5, size=3)
    return [rng.normal(size=(n, k)), rng.normal(size=(k, m))], ad.matmul


def _case_add(rng):
    n, m = rng.integers(1, 5, size=2)
    shape_b = [(n, m), (n, 1), (1, m), ()][rng.integers(0, 4)]
    return [rng.normal(size=(n, m)), rng.normal(size=shape_b)], ad.add


def _case_mul(rng):
    n, m = rng.integers(1, 5, size=2)
    shape_b = [(n, m), (n, 1), (1, m)][rng.integers(0, 3)]
    return [rng.normal(size=(n, m)), rng.normal(size=shape_b)], ad.mul


def _case_scale(rng):
    c = float(rng.normal())
    return [rng.normal(size=(3, 2))], lambda a: ad.scale(a, c)


def _case_exp(rng):
    return [rng.normal(size=(2, 3))], ad.exp


def _case_log(rng):
    return [rng.uniform(0.5, 3.0, size=(2, 3))], ad.log


def _case_relu(rng):
    x = rng.normal(size=(3, 4))
    x += np.sign(x) * 1e-2  # keep away from the kink
    return [x], ad.relu


def _case_row_sum(rng):
    return [rng.normal(size=(3, 4))], ad.row_sum


def _case_row_max(rng):
    return [rng.normal(size=(3, 4))], ad.row_max


def _case_l2_normalize(rng):
    x = rng.normal(size=(3, 4))
    x[np.linalg.norm(x, axis=1) < 0.3] += 1.0
    return [x], ad.l2_normalize_rows


def _case_gram(rng):
    return [rng.normal(size=(4, 3))], ad.gram


def _case_gather(rng):
    x = rng.normal(size=(3, 4))
    idx = rng.integers(0, x.size, size=(2, 5))
    return [x], lambda a: ad.gather(a, idx)


def _case_im2col(rng):
    k = int(rng.integers(1, 4))
    n, c = rng.integers(1, 3, size=2)
    h, w = rng.integers(k, k + 3, size=2)
    return [rng.normal(size=(n, h, w, c))], lambda a: ad.im2col(a, k)


def _case_maxpool2d(rng):
    p = int(rng.integers(1, 4))
    n, c = rng.integers(1, 3, size=2)
    h, w = rng.integers(p, 2 * p + 2, size=2)
    # distinct values spaced far wider than the difference step
    x = 0.01 * rng.permutation(n * h * w * c).reshape(n, h, w, c)
    return [x], lambda a: ad.maxpool2d(a, p)


def _case_reshape(rng):
    return [rng.normal(size=(3, 4))], lambda a: ad.reshape(a, (2, 6))


def _case_mean(rng):
    return [rng.normal(size=(3, 4))], ad.mean


def _case_total_sum(rng):
    return [rng.normal(size=(3, 4))], ad.total_sum


PRIMITIVE_CASES = {
    "matmul": _case_matmul,
    "add": _case_add,
    "mul": _case_mul,
    "scale": _case_scale,
    "exp": _case_exp,
    "log": _case_log,
    "relu": _case_relu,
    "row_sum": _case_row_sum,
    "row_max": _case_row_max,
    "l2_normalize_rows": _case_l2_normalize,
    "gram": _case_gram,
    "gather": _case_gather,
    "im2col": _case_im2col,
    "maxpool2d": _case_maxpool2d,
    "reshape": _case_reshape,
    "mean": _case_mean,
    "total_sum": _case_total_sum,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    # crc32, not hash(): str hashes change with PYTHONHASHSEED per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        inputs, op = PRIMITIVE_CASES[name](rng)
        # random linear functional of the output makes the root scalar
        tape = ad.Tape()
        pvars = [tape.param(x) for x in inputs]
        out = op(*pvars)
        w = rng.normal(size=out.data.shape)
        root = ad.total_sum(ad.mul(out, tape.const(w)))
        grads = ad.backward(root)

        for k, x in enumerate(inputs):
            def f(xk, k=k):
                t = ad.Tape()
                vs = [t.const(v) if i != k else t.const(xk)
                      for i, v in enumerate(inputs)]
                return float(ad.total_sum(ad.mul(op(*vs), t.const(w))).data)

            g_fd = _fd_gradient(f, np.asarray(x, dtype=np.float64))
            g_ad = grads.get(pvars[k].idx, np.zeros(np.shape(x)))
            denom = np.maximum(1.0, np.abs(g_fd))
            assert np.max(np.abs(g_ad - g_fd) / denom) < 1e-6, name


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def test_sgd_zero_gradient_is_noop():
    p = [np.array([1.0])]
    ad.sgd_step(p, [np.array([0.0])], 0.1)
    assert np.array_equal(p[0], [1.0])


def test_sgd_single_step():
    p = [np.array([1.0])]
    ad.sgd_step(p, [np.array([1.0])], 0.1)
    assert np.allclose(p[0], [0.9])


def test_sgd_hand_case():
    p = [np.array([2.0, -2.0])]
    ad.sgd_step(p, [np.array([10.0, -10.0])], 0.1)
    assert np.allclose(p[0], [1.0, -1.0])


def test_sgd_mutates_in_place_and_validates():
    p = np.zeros(3)
    out = ad.sgd_step([p], [np.ones(3)], 0.5)
    assert out[0] is p
    with pytest.raises(ShapeError):
        ad.sgd_step([np.zeros(3)], [np.zeros(4)], 0.1)
    with pytest.raises(ShapeError):
        ad.sgd_step([np.zeros(3)], [], 0.1)


# ---------------------------------------------------------------------------
# finite_diff_check itself
# ---------------------------------------------------------------------------

def test_finite_diff_check_quadratic():
    def f(pvars):
        return ad.total_sum(ad.mul(pvars[0], pvars[0]))

    err = reference.finite_diff_check(f, [np.array([[3.0]])], step=1e-5)
    assert err < 1e-8


def test_finite_diff_check_constant():
    def f(pvars):
        return ad.total_sum(ad.scale(pvars[0], 0.0))

    err = reference.finite_diff_check(f, [np.array([[1.0, 2.0]])], step=1e-5)
    assert err == 0.0


def test_finite_diff_check_rejects_non_finite():
    def f(pvars):
        return ad.total_sum(ad.log(pvars[0]))

    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        reference.finite_diff_check(f, [np.array([[-1.0]])])


def test_finite_diff_check_composite():
    rng = np.random.default_rng(3)

    def f(pvars):
        h = ad.relu(ad.matmul(pvars[0], pvars[1]))
        z = ad.l2_normalize_rows(ad.matmul(h, pvars[2]))
        return ad.mean(ad.gram(z))

    params = [rng.normal(size=(3, 4)), rng.normal(size=(4, 5)),
              rng.normal(size=(5, 2))]
    assert reference.finite_diff_check(f, params) < 1e-6
