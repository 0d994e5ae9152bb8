"""Rotary encoding isometry/relativity and attention-logits scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkit import tensor as T
from hybridkit.positional import (DEFAULT_BASE_GRID, ConstantScale, RopeParams,
                                  ScaleBase, fit_scale_base, rope_apply,
                                  scale_vector)
from hybridkit.tensor import ConfigError, Rng

PARAMS = RopeParams(theta=10_000.0, head_dim=8)


def test_rope_position_zero_is_identity():
    x = T.tensor(Rng(0).normal((3, 5, 8)))  # [heads, T, head_dim]
    out = rope_apply(x, 0, PARAMS)
    np.testing.assert_array_equal(out.data[:, 0], x.data[:, 0])


def test_rope_preserves_pair_norms():
    x = T.tensor(Rng(1).normal((16, 2, 8)))
    out = rope_apply(x, 9, PARAMS).data
    for i in range(4):
        before = np.hypot(x.data[..., 2 * i], x.data[..., 2 * i + 1])
        after = np.hypot(out[..., 2 * i], out[..., 2 * i + 1])
        np.testing.assert_allclose(after, before, atol=1e-12)


def test_rope_inner_product_depends_only_on_relative_position():
    rng = Rng(2)
    q = rng.normal((8,))
    k = rng.normal((8,))
    p = RopeParams(theta=10_000.0, head_dim=8)

    def dot_at(m, n):
        qr = rope_apply(T.tensor(q.reshape(1, 1, 8)), m, p).data.ravel()
        kr = rope_apply(T.tensor(k.reshape(1, 1, 8)), n, p).data.ravel()
        return float(qr @ kr)

    base = dot_at(3, 11)
    assert abs(dot_at(3 + 7, 11 + 7) - base) < 1e-10
    assert abs(dot_at(3 + 100, 11 + 100) - base) < 1e-10


@given(shift=st.integers(0, 500), m=st.integers(0, 50), n=st.integers(0, 50),
       seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_rope_relative_shift_property(shift, m, n, seed):
    rng = Rng(seed)
    q, k = rng.normal((1, 1, 8)), rng.normal((1, 1, 8))
    a = rope_apply(T.tensor(q), m, PARAMS).data.ravel() @ \
        rope_apply(T.tensor(k), n, PARAMS).data.ravel()
    b = rope_apply(T.tensor(q), m + shift, PARAMS).data.ravel() @ \
        rope_apply(T.tensor(k), n + shift, PARAMS).data.ravel()
    assert abs(a - b) < 1e-10


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ConfigError):
        RopeParams(theta=100.0, head_dim=7)


def test_rope_negative_start_rejected():
    with pytest.raises(ValueError):
        rope_apply(T.zeros((2, 1, 8)), -1, PARAMS)


def rope_oracle(X, start_pos, params, inverse=False):
    """The pairwise RoPE formula over X [..., T, head_dim]: even/odd channels
    rotated by cos/sin tables built for exactly these positions
    (inverse=True rotates backwards)."""
    half = params.head_dim // 2
    freqs = params.theta ** (-np.arange(half, dtype=np.float64) * 2.0 / params.head_dim)
    angles = np.arange(start_pos, start_pos + X.shape[-2], dtype=np.float64)[:, None] * freqs
    cos = np.cos(angles).astype(X.dtype)
    sin = np.sin(angles).astype(X.dtype)
    if inverse:
        sin = -sin
    even, odd = X[..., 0::2], X[..., 1::2]
    out = np.empty_like(X)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _rope_inputs(rng, layout, dtype):
    """x [B, H, T, d_h] in each memory layout rope_apply may be handed."""
    if layout == "contiguous":  # after QK-norm
        return rng.normal((2, 3, 7, 8)).astype(dtype)
    if layout == "permuted":  # a head view of [B, T, H, d_h]
        return rng.normal((2, 7, 3, 8)).astype(dtype).transpose(0, 2, 1, 3)
    return rng.normal((2, 3, 8, 7)).astype(dtype).swapaxes(-1, -2)  # "strided_last"


@pytest.mark.parametrize("mode,tol", [("extended", 1e-12), ("standard", 1e-6)])
@pytest.mark.parametrize("layout", ["contiguous", "permuted", "strided_last"])
def test_rope_matches_pairwise_oracle_forward_and_backward(mode, tol, layout):
    T.set_precision(mode)
    rng = Rng(21)
    X = _rope_inputs(rng, layout, T.active_dtype())
    g = rng.normal(X.shape)
    X_before, g_before = X.copy(), g.copy()
    x = T.Tensor(X, requires_grad=True, dtype=X.dtype)
    with T.Tape() as tape:
        y = rope_apply(x, 5, PARAMS)
        # swap_last hands rope a gradient whose last axis is not contiguous
        loss = T.sum_all(T.mul(T.swap_last(y), T.Tensor(g.swapaxes(-1, -2), dtype=g.dtype)))
    tape.backward(loss)
    assert y.shape == X.shape and y.dtype == x.grad.dtype == X.dtype
    np.testing.assert_allclose(y.data, rope_oracle(X, 5, PARAMS), rtol=tol, atol=tol)
    np.testing.assert_allclose(x.grad, rope_oracle(g, 5, PARAMS, inverse=True),
                               rtol=tol, atol=tol)
    np.testing.assert_array_equal(X, X_before)
    np.testing.assert_array_equal(g, g_before)


@pytest.mark.parametrize("mode,tol", [("extended", 1e-12), ("standard", 1e-6)])
def test_rope_table_grows_for_a_later_position(mode, tol):
    import hybridkit.positional as positional

    T.set_precision(mode)
    params = RopeParams(theta=777.0, head_dim=8)  # a table no other test builds
    key = (params, T.active_dtype())
    positional._ROPE_TABLES.pop(key, None)
    X = Rng(22).normal((2, 4, 8))
    rope_apply(T.tensor(X), 0, params)
    before = positional._ROPE_TABLES[key].shape[0]
    out = rope_apply(T.tensor(X), before + 3, params).data
    assert positional._ROPE_TABLES[key].shape[0] >= before + 7
    np.testing.assert_allclose(out, rope_oracle(X, before + 3, params), rtol=tol, atol=tol)


def test_rope_table_is_read_only():
    from hybridkit.positional import _rope_table

    for dtype in (np.float32, np.float64):
        table = _rope_table(PARAMS, np.dtype(dtype), 16)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0


def test_rope_finite_diff_past_position_zero():
    x = T.tensor(Rng(23).normal((2, 3, 5, 8)))
    rmat = T.tensor(Rng(24).normal((2, 3, 5, 8)))
    err = T.finite_diff_check(
        lambda t: T.sum_all(T.mul(rope_apply(t, 11, PARAMS), rmat)), x, step=1e-5)
    assert err < 1e-6


# --------------------------------------------------------------------------
# logits scaling

def test_scale_at_zero_is_one():
    for a in (1.5, 10.0, 500.0):
        assert scale_vector(np.array([0]), ScaleBase(a))[0] == 1.0


def test_scale_reaches_two_at_a_squared_minus_a():
    base = ScaleBase(500.0)
    assert abs(scale_vector(np.array([500**2 - 500]), base)[0] - 2.0) < 1e-12


def test_scale_direct_evaluation():
    got = scale_vector(np.array([128_000]), ScaleBase(500.0))[0]
    assert abs(got - math.log(128_500) / math.log(500)) < 1e-15
    assert abs(got - 1.8927) < 5e-4


def test_scale_strictly_increasing():
    base = ScaleBase(300.0)
    vals = scale_vector(np.arange(0, 4096), base)
    assert vals[0] == 1.0
    assert (np.diff(vals) > 0).all()


def test_scale_base_must_exceed_one():
    with pytest.raises(ConfigError):
        ScaleBase(1.0)
    with pytest.raises(ConfigError):
        ScaleBase(0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make", [ScaleBase, ConstantScale,
                                  lambda v: RopeParams(theta=v, head_dim=8)],
                         ids=["scale_base", "constant_scale", "rope_theta"])
def test_scaling_and_rope_refuse_non_finite_values(make, value):
    """A NaN or infinite base, constant or theta would only turn every
    logit it touches into NaN, so it is a ConfigError up front."""
    with pytest.raises(ConfigError, match="finite"):
        make(value)


@given(s=st.floats(0.1, 20.0), seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_positive_scaling_preserves_softmax_argmax(s, seed):
    x = Rng(seed).normal((12,))
    sx = T.softmax_rows(T.tensor((s * x).reshape(1, -1))).data
    ux = T.softmax_rows(T.tensor(x.reshape(1, -1))).data
    assert sx.argmax() == ux.argmax()


# --------------------------------------------------------------------------
# base fitting

def test_fit_scale_base_single_candidate():
    from hybridkit.model import desk_config, init_model

    model = init_model(desk_config(L=1, I_attn=(0,), vocab=64), seed=0)
    corpus = Rng(0).integers(0, 64, size=48)
    got = fit_scale_base(model, corpus, 47, [123.0])
    assert got.a == 123.0


def test_fit_scale_base_matches_exhaustive_loss_oracle():
    from hybridkit.model import desk_config, forward, init_model

    cfg = desk_config(L=1, I_attn=(0,), d=32, d_h=8, n_h=4, n_kv_heads=2,
                      ffn_width=48, vocab=64,
                      rope=RopeParams(theta=1000.0, head_dim=8))
    model = init_model(cfg, seed=3)
    ctx = 96
    corpus = Rng(0).integers(0, 64, size=3 * ctx + 1)
    rows = np.stack([corpus[i * ctx:(i + 1) * ctx + 1] for i in range(3)])
    candidates = [1000.0, 2.0, 100.0, 10.0]
    # oracle: every candidate's mean next-token loss over the same windows
    losses = {a: float(T.cross_entropy(forward(model, rows[:, :-1], scale_base=ScaleBase(a)),
                                       rows[:, 1:]).data) for a in candidates}
    best = min(sorted(candidates), key=lambda a: losses[a])
    assert len(set(losses.values())) == len(candidates)
    assert fit_scale_base(model, corpus, ctx, candidates).a == best


def test_fit_scale_base_validates_inputs():
    with pytest.raises(ValueError):
        fit_scale_base(None, np.arange(4), 3, [])
    with pytest.raises(ConfigError):
        fit_scale_base(None, np.arange(4), 3, [0.5])
    with pytest.raises(ValueError):
        fit_scale_base(None, np.arange(1), 3, [10.0])


def test_default_grid_covers_reported_bases():
    # documentation defaults: fitted bases at paper scale were 500/600/900
    assert 500.0 in DEFAULT_BASE_GRID
    assert min(DEFAULT_BASE_GRID) <= 100.0 and max(DEFAULT_BASE_GRID) >= 5000.0
