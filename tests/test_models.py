import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference
from semicon import autodiff as ad
from semicon import models
from semicon.errors import ShapeError

MLP = models.MlpSpec(in_dim=6, hidden=(8,), out_dim=5)
TINY_CONV = models.ConvSpec(in_shape=(2, 12, 12), channels=(2, 3), out_dim=5)


def project(proj, h):
    """Projection rows of latents `h`, on a fresh tape."""
    tape = ad.Tape()
    return proj.apply(models.bind(tape, proj.params), tape.const(h)).data


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
    enc, proj = models.init_params(3, MLP)
    h = models.encode(enc, np.ones((7, 6)))
    assert h.shape == (7, 5)
    with pytest.raises(ShapeError):
        models.encode(enc, np.ones((7, 4)))
    with pytest.raises(ShapeError, match="matmul"):  # latent of the wrong width
        project(proj, np.ones((7, 4)))


def test_encode_bit_identical_across_runs():
    enc, _ = models.init_params(5, MLP)
    x = np.random.default_rng(1).normal(size=(3, 6))
    assert np.array_equal(models.encode(enc, x), models.encode(enc, x))


def test_projection_rows_unit_norm_and_default_width():
    enc, proj = models.init_params(2, models.MlpSpec(in_dim=4, hidden=(6,), out_dim=8))
    h = models.encode(enc, np.random.default_rng(2).normal(size=(5, 4)))
    z = project(proj, h)
    assert z.shape == (5, 128)
    assert np.all(np.abs(np.linalg.norm(z, axis=1) - 1.0) < 1e-12)


def test_projection_zero_rows_pass_through():
    _, proj = models.init_params(4, MLP)
    z = project(proj, np.zeros((3, 5)))
    assert np.array_equal(z, np.zeros((3, 128)))


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

    assert reference.finite_diff_check(f, values) < 1e-6


def _encoder_and_head_grads(enc, proj, prepared, forward):
    """Latents and the gradient of every encoder and head parameter of
    mean(gram(z)), with the encoder's forward given by `forward`."""
    tape = ad.Tape()
    bound = models.bind(tape, {**enc.params, **proj.params})
    h = forward(bound, tape.const(prepared))
    root = ad.mean(ad.gram(proj.apply(bound, h)))
    return h.data, ad.grads_for(ad.backward(root), list(bound.values()))


CONV_REFERENCE_CASES = pytest.mark.parametrize("spec, n", [
    (models.ConvSpec(), 40),
    # 11x11 and 3x3 conv maps: both pools drop their last row and column
    (dataclasses.replace(TINY_CONV, in_shape=(2, 13, 13)), 6),
])


def _conv_case(spec, n):
    """Encoder and head with nonzero conv biases, and a prepared batch."""
    enc, proj = models.init_params(21, spec, head_hidden=8, proj_dim=4)
    rng = np.random.default_rng(21)
    for block in range(1, len(spec.channels) + 1):
        bias = enc.params[f"enc/c{block}_b"]
        bias[:] = rng.uniform(-0.1, 0.1, size=bias.shape)
    return enc, proj, enc.prepare(rng.uniform(size=(n, *spec.in_shape)))


@CONV_REFERENCE_CASES
def test_conv_encoder_matches_gather_reference_bitwise(spec, n):
    enc, proj, prepared = _conv_case(spec, n)
    h, grads = _encoder_and_head_grads(enc, proj, prepared, enc.apply)
    h_ref, grads_ref = _encoder_and_head_grads(
        enc, proj, prepared,
        lambda bound, x: reference.conv_encoder_gather(spec, bound, x))
    assert np.array_equal(h, h_ref)
    assert np.array_equal(models.encode(enc, prepared.transpose(0, 3, 1, 2)), h_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert np.array_equal(g, g_ref)


@CONV_REFERENCE_CASES
def test_pooling_before_bias_and_relu_changes_no_latent(spec, n, monkeypatch):
    enc, proj, prepared = _conv_case(spec, n)
    h, grads = _encoder_and_head_grads(enc, proj, prepared, enc.apply)
    pooled = []  # the defining order's pool windows, one row per window
    row_max = ad.row_max

    def spy(a):
        pooled.append(a.data)
        return row_max(a)

    monkeypatch.setattr(ad, "row_max", spy)
    h_ref, grads_ref = _encoder_and_head_grads(
        enc, proj, prepared,
        lambda bound, x: reference.conv_encoder_relu_first(spec, bound, x))
    assert np.array_equal(h, h_ref)
    # only the order of the summed patch rows differs
    for g, g_ref in zip(grads, grads_ref):
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    if spec == models.ConvSpec():  # ReLU zeros tie inside pool windows
        assert np.any((pooled[0] == 0.0).all(axis=1))


@pytest.mark.parametrize("spec", [MLP, TINY_CONV])
def test_sliced_encode_equals_one_slice(spec, monkeypatch):
    enc, _ = models.init_params(4, spec)
    in_shape = (spec.in_dim,) if isinstance(spec, models.MlpSpec) else spec.in_shape
    x = np.random.default_rng(4).normal(size=(10, *in_shape))
    whole = models.encode(enc, x)
    monkeypatch.setattr(models, "ENCODE_SLICE_VALUES", 3 * int(np.prod(in_shape)))
    assert np.array_equal(models.encode(enc, x), whole)


def _slice_rows(spec, monkeypatch, rows):
    """Input shape of `spec`, with `encode` slices set to `rows` rows."""
    in_shape = (spec.in_dim,) if isinstance(spec, models.MlpSpec) else spec.in_shape
    monkeypatch.setattr(models, "ENCODE_SLICE_VALUES", rows * int(np.prod(in_shape)))
    return in_shape


@pytest.mark.parametrize("spec", [MLP, TINY_CONV])
def test_threaded_encode_equals_serial_slices_bitwise(spec, monkeypatch):
    enc, _ = models.init_params(8, spec)
    in_shape = _slice_rows(spec, monkeypatch, 3)
    x = np.random.default_rng(8).normal(size=(40, *in_shape))
    serial = np.concatenate([models._encode_slice(enc, part)
                             for part in np.array_split(x, 14)])
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as often as they can
    try:
        for workers in (1, 4):
            monkeypatch.setattr(models, "_usable_cpus", lambda: workers)
            assert np.array_equal(models.encode(enc, x), serial)
            assert threading.active_count() == threads  # the pool is closed
    finally:
        sys.setswitchinterval(interval)


def test_concatenated_sets_encode_like_each_set_alone(monkeypatch):
    enc, _ = models.init_params(9, MLP)
    _slice_rows(MLP, monkeypatch, 16)  # 70 rows: 5 slices of 14
    rng = np.random.default_rng(9)
    sets = [rng.normal(size=(n, MLP.in_dim)) for n in (7, 50, 13)]
    whole = models.encode(enc, np.concatenate(sets))
    alone = np.concatenate([models.encode(enc, x) for x in sets])
    assert np.allclose(whole, alone, rtol=1e-12, atol=0.0)


def test_encode_memory_does_not_grow_with_batch():
    enc, _ = models.init_params(6, models.ConvSpec())
    rows = models.ENCODE_SLICE_VALUES // (3 * 32 * 32)
    x = np.random.default_rng(6).uniform(size=(2000, 3, 32, 32))

    def peak(encode, batch):
        tracemalloc.start()
        try:
            out = encode(enc, batch)
            return tracemalloc.get_traced_memory()[1], out.nbytes
        finally:
            tracemalloc.stop()

    def recorded_slice(enc, batch):
        tape = ad.Tape()
        return enc.apply(models.bind(tape, enc.params),
                         tape.const(enc.prepare(batch))).data

    one_slice, _ = peak(models.encode, x[:rows])
    assert one_slice < peak(recorded_slice, x[:rows])[0]
    every_row, out_bytes = peak(models.encode, x)
    workers = min(-(-len(x) // rows), models._usable_cpus())
    # slices run `workers` at a time; the pool and the list of slices
    # take some 30 KB of bookkeeping besides
    assert every_row <= workers * one_slice + out_bytes + (64 << 10)


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
    assert np.allclose(project(proj, models.encode(enc, x)), z, atol=1e-12)
