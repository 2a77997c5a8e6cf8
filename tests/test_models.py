import numpy as np
import pytest

from semicon import autodiff as ad
from semicon import models
from semicon.errors import ShapeError

MLP = models.MlpSpec(in_dim=6, hidden=(8,), out_dim=5)
TINY_CONV = models.ConvSpec(in_shape=(2, 12, 12), channels=(2, 3),
                            kernel=3, pool=2, out_dim=5)


def test_init_deterministic_and_seed_sensitive():
    enc1, proj1 = models.init_params(11, MLP)
    enc2, proj2 = models.init_params(11, MLP)
    enc3, _ = models.init_params(12, MLP)
    for k in enc1.params:
        assert np.array_equal(enc1.params[k], enc2.params[k])
    for k in proj1.params:
        assert np.array_equal(proj1.params[k], proj2.params[k])
    assert any(not np.array_equal(enc1.params[k], enc3.params[k])
               for k in enc1.params)


def test_init_fan_in_bound():
    spec = models.MlpSpec(in_dim=100, hidden=(), out_dim=4)
    enc, _ = models.init_params(0, spec)
    w = enc.params["enc/w0"]
    assert np.all(np.abs(w) <= 0.1)
    assert np.array_equal(enc.params["enc/b0"], np.zeros((1, 4)))


def test_zero_weight_encoder_maps_to_zero():
    enc, _ = models.init_params(0, MLP)
    for k in enc.params:
        enc.params[k][:] = 0.0
    h = models.encode(enc, np.random.default_rng(0).normal(size=(4, 6)))
    assert np.array_equal(h, np.zeros((4, 5)))


def test_encode_row_count_and_shape_errors():
    enc, _ = models.init_params(3, MLP)
    h = models.encode(enc, np.ones((7, 6)))
    assert h.shape == (7, 5)
    with pytest.raises(ShapeError):
        models.encode(enc, np.ones((7, 4)))


def test_encode_bit_identical_across_runs():
    enc, _ = models.init_params(5, MLP)
    x = np.random.default_rng(1).normal(size=(3, 6))
    assert np.array_equal(models.encode(enc, x), models.encode(enc, x))


def test_projection_rows_unit_norm_and_default_width():
    enc, proj = models.init_params(2, models.MlpSpec(in_dim=4, hidden=(6,), out_dim=8))
    assert proj.spec.out_dim == 128
    h = models.encode(enc, np.random.default_rng(2).normal(size=(5, 4)))
    z = models.project(proj, h)
    assert z.shape == (5, 128)
    assert np.all(np.abs(np.linalg.norm(z, axis=1) - 1.0) < 1e-12)


def test_projection_zero_rows_pass_through():
    _, proj = models.init_params(4, MLP)
    z = models.project(proj, np.zeros((3, 5)))
    assert np.array_equal(z, np.zeros((3, proj.spec.out_dim)))


def test_conv_encoder_shapes():
    enc, _ = models.init_params(0, TINY_CONV)
    x = np.random.default_rng(0).normal(size=(4, 2, 12, 12))
    h = models.encode(enc, x)
    assert h.shape == (4, 5)
    with pytest.raises(ShapeError):
        models.encode(enc, np.ones((4, 2, 10, 10)))


def test_conv_encoder_gradients():
    enc, proj = models.init_params(9, TINY_CONV, head_hidden=4, proj_dim=3)
    x = np.random.default_rng(9).normal(size=(2, 2, 12, 12))
    prepared = enc.prepare(x)
    names = sorted(enc.params) + sorted(proj.params)
    values = [enc.params[n] for n in sorted(enc.params)]
    values += [proj.params[n] for n in sorted(proj.params)]

    def f(pvars):
        bound = dict(zip(names, pvars))
        tape = pvars[0].tape
        z = proj.apply(bound, enc.apply(bound, tape.const(prepared)))
        return ad.mean(ad.gram(z))

    assert ad.finite_diff_check(f, values) < 1e-6


def test_mlp_forward_matches_plain_numpy():
    enc, proj = models.init_params(13, MLP)
    x = np.random.default_rng(13).normal(size=(6, 6))
    h = x
    for i in range(2):
        h = h @ enc.params[f"enc/w{i}"] + enc.params[f"enc/b{i}"]
        if i == 0:
            h = np.maximum(h, 0.0)
    assert np.allclose(models.encode(enc, x), h, atol=1e-12)
    hid = np.maximum(h @ proj.params["proj/w1"] + proj.params["proj/b1"], 0.0)
    z = hid @ proj.params["proj/w2"] + proj.params["proj/b2"]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    assert np.allclose(models.project(proj, models.encode(enc, x)), z, atol=1e-12)
