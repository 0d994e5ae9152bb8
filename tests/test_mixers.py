"""Mixer oracles: per-position attention loop, cumulative outer products,
recurrent/chunked equivalence, GQA surgery, gradient checks."""

import numpy as np
import pytest

from hybridkit import mixers
from hybridkit import tensor as T
from hybridkit.mixers import (KvCache, MixerWeights, RecurrentState,
                              attention_forward, gamma_slopes,
                              gqa_to_mha_clone,
                              lightning_forward_chunked,
                              lightning_forward_recurrent)
from hybridkit.positional import RopeParams, ScaleBase, scale_vector
from hybridkit.tensor import ConfigError, Rng, Tape, Tensor

from conftest import max_rel_err

# Verbatim per-head decay values printed for 32 heads.
GAMMA_TABLE_32 = [
    0.4313237, 0.4930687, 0.5517813, 0.60653067, 0.6567524, 0.7021885,
    0.74281985, 0.7788008, 0.81040263, 0.83796686, 0.86186993, 0.8824969,
    0.9002237, 0.91540533, 0.9283695, 0.9394131, 0.94880116, 0.95676816,
    0.96351933, 0.9692332, 0.97406423, 0.97814524, 0.9815902, 0.9844964,
    0.98694694, 0.98901224, 0.99075234, 0.99221796, 0.993452, 0.994491,
    0.99536544, 0.9961014,
]


def test_gamma_slopes_match_published_table():
    got = gamma_slopes(32)
    assert np.abs(got - np.array(GAMMA_TABLE_32)).max() < 1e-6
    assert abs(got[0] - 0.4313237) < 1e-6
    assert abs(got[-1] - 0.9961014) < 1e-6


def test_gamma_slopes_single_head():
    got = gamma_slopes(1)
    np.testing.assert_allclose(got, [np.exp(-(2.0 ** -8))], rtol=1e-15)


def test_gamma_slopes_properties():
    g = gamma_slopes(16)
    assert (g > 0).all() and (g < 1).all()
    assert (np.diff(g) > 0).all()
    with pytest.raises(ConfigError):
        gamma_slopes(0)


# --------------------------------------------------------------------------
# weight builders

def make_weights(rng, d, n_h, n_kv, d_h, gate=True, qk_norm=True):
    mk = lambda key, shape: T.tensor(rng.child(key).normal(shape, std=0.2), )
    w = MixerWeights(
        n_h=n_h, n_kv_heads=n_kv, d_h=d_h,
        w_q=Tensor(rng.child(0).normal((d, n_h * d_h), std=0.2), requires_grad=True),
        w_k=Tensor(rng.child(1).normal((d, n_kv * d_h), std=0.2), requires_grad=True),
        w_v=Tensor(rng.child(2).normal((d, n_kv * d_h), std=0.2), requires_grad=True),
        w_o=Tensor(rng.child(3).normal((d, n_h * d_h), std=0.2), requires_grad=True),
        w_z=Tensor(rng.child(4).normal((d, n_h * d_h), std=0.2), requires_grad=True) if gate else None,
        qk_gain_q=Tensor(1.0 + rng.child(6).normal((n_h, 1, d_h), std=0.1), requires_grad=True) if qk_norm else None,
        qk_gain_k=Tensor(1.0 + rng.child(7).normal((n_kv, 1, d_h), std=0.1), requires_grad=True) if qk_norm else None,
        out_gain=Tensor(1.0 + rng.child(8).normal((n_h, 1, d_h), std=0.1), requires_grad=True) if gate else None,
    )
    return w


# --------------------------------------------------------------------------
# per-position attention oracle (plain numpy, structurally independent)

def _np_rms(a, gain, eps=1e-6):
    return a / np.sqrt((a * a).mean(-1, keepdims=True) + eps) * gain


def _np_rope(vec, t, theta):
    d = vec.shape[-1]
    half = d // 2
    freqs = theta ** (-np.arange(half) * 2.0 / d)
    ang = t * freqs
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(vec)
    out[0::2] = vec[0::2] * c - vec[1::2] * s
    out[1::2] = vec[0::2] * s + vec[1::2] * c
    return out


def attention_loop_oracle(X, w, rope=None, scale_base=None):
    """Appendix-style per-position attention computed with explicit loops."""
    tt, d = X.shape
    nh, nkv, dh = w.n_h, w.n_kv_heads, w.d_h
    g = nh // nkv
    q = (X @ w.w_q.data).reshape(tt, nh, dh)
    k = (X @ w.w_k.data).reshape(tt, nkv, dh)
    v = (X @ w.w_v.data).reshape(tt, nkv, dh)
    if w.qk_gain_q is not None:
        q = _np_rms(q, w.qk_gain_q.data[None, :, 0, :])
        k = _np_rms(k, w.qk_gain_k.data[None, :, 0, :])
    if rope is not None:
        for t in range(tt):
            for h in range(nh):
                q[t, h] = _np_rope(q[t, h], t, rope.theta)
            for h in range(nkv):
                k[t, h] = _np_rope(k[t, h], t, rope.theta)
    s_vec = scale_vector(np.arange(tt), scale_base)
    o = np.zeros((tt, nh, dh), dtype=X.dtype)
    for t in range(tt):
        for h in range(nh):
            kv = h // g
            logits = np.array([s_vec[t] * (q[t, h] @ k[i, kv]) / np.sqrt(dh)
                               for i in range(t + 1)])
            logits -= logits.max()
            att = np.exp(logits)
            att /= att.sum()
            o[t, h] = sum(att[i] * v[i, kv] for i in range(t + 1))
    if w.out_gain is not None:
        o = _np_rms(o, w.out_gain.data[None, :, 0, :])
    merged = o.reshape(tt, nh * dh)
    if w.w_z is not None:
        z = 1.0 / (1.0 + np.exp(-(X @ w.w_z.data)))
        merged = merged * z
    return merged @ w.w_o.data.T


def test_attention_matches_per_position_loop():
    rng = Rng(21)
    d, n_h, n_kv, d_h = 16, 4, 2, 4
    w = make_weights(rng, d, n_h, n_kv, d_h)
    x = rng.child(99).normal((6, d))
    got = attention_forward(T.tensor(x), w).data
    ref = attention_loop_oracle(x, w)
    assert max_rel_err(got, ref) < 1e-10


def test_attention_with_rope_and_scaling_matches_oracle():
    rng = Rng(22)
    w = make_weights(rng, 12, 2, 2, 6)
    rope = RopeParams(theta=500.0, head_dim=6)
    base = ScaleBase(100.0)
    x = rng.child(99).normal((7, 12))
    got = attention_forward(T.tensor(x), w, rope=rope, scale_base=base).data
    ref = attention_loop_oracle(x, w, rope=rope, scale_base=base)
    assert max_rel_err(got, ref) < 1e-10


def test_attention_single_token_routes_value():
    """Softmax over one element is 1, so output is v_1 through gate and W_o."""
    rng = Rng(23)
    w = make_weights(rng, 8, 2, 1, 4)
    x = rng.child(5).normal((1, 8))
    got = attention_forward(T.tensor(x), w).data
    ref = attention_loop_oracle(x, w)  # degenerate loop: att = [1.0]
    assert max_rel_err(got, ref) < 1e-12


def test_attention_uniform_keys_average_values():
    """All keys equal => row t attends 1/t to each prefix position."""
    rng = Rng(24)
    d = 8
    w = make_weights(rng, d, 2, 2, 4, gate=False, qk_norm=False)
    w.w_k = T.zeros((d, d))  # all k_t identical (zero)
    w.w_o = T.tensor(np.eye(d))
    x = rng.child(1).normal((5, d))
    got = attention_forward(T.tensor(x), w).data
    v = (x @ w.w_v.data).reshape(5, 2, 4)
    for t in range(5):
        ref = v[: t + 1].mean(axis=0).reshape(d)
        np.testing.assert_allclose(got[t], ref, atol=1e-12)


def test_attention_scaling_preserves_argmax_targets():
    """Scaled and unscaled attention agree on each row's argmax key."""
    rng = Rng(25)
    d, n_h, d_h, tt = 16, 2, 8, 24
    w = make_weights(rng, d, n_h, n_h, d_h, gate=False)
    x = rng.child(1).normal((tt, d))

    def att_matrix(base):
        q = _np_rms((x @ w.w_q.data).reshape(tt, n_h, d_h), w.qk_gain_q.data[None, :, 0, :])
        k = _np_rms((x @ w.w_k.data).reshape(tt, n_h, d_h), w.qk_gain_k.data[None, :, 0, :])
        s = scale_vector(np.arange(tt), base)
        rows = []
        for t in range(1, tt):
            logits = (q[t] @ k[: t + 1].transpose(1, 2, 0)) * s[t] / np.sqrt(d_h)
            e = np.exp(logits - logits.max(-1, keepdims=True))
            rows.append((e / e.sum(-1, keepdims=True)).argmax(-1))
        return np.array(rows)

    np.testing.assert_array_equal(att_matrix(None), att_matrix(ScaleBase(77.0)))


def test_attention_gqa_group_size_must_divide():
    with pytest.raises(ConfigError):
        MixerWeights(n_h=4, n_kv_heads=3, d_h=2,
                     w_q=T.zeros((4, 8)), w_k=T.zeros((4, 6)),
                     w_v=T.zeros((4, 6)), w_o=T.zeros((4, 8)))


def test_attention_kv_cache_matches_full_forward():
    rng = Rng(26)
    w = make_weights(rng, 8, 4, 2, 2)
    x = rng.child(1).normal((10, 8))
    full = attention_forward(T.tensor(x), w).data
    cache = KvCache(1, 2, 2, np.float64)
    outs = []
    for t in range(10):
        y = attention_forward(T.tensor(x[t:t + 1][None]), w, start_pos=t, cache=cache)
        outs.append(y.data[0, 0])
    assert max_rel_err(np.array(outs), full) < 1e-10


def test_kv_cache_growth_keeps_contents_and_leaves_headroom():
    rng = Rng(29)
    cache = KvCache(2, 2, 3, np.float64, capacity=4)
    buffers = [cache._k]
    chunks = []
    for i, t in enumerate([3, 2, 1, 70, 1]):
        chunks.append(rng.child(i).normal((2, 2, t, 3)))
        cache.append(chunks[-1], -chunks[-1])
        if cache._k is not buffers[-1]:
            buffers.append(cache._k)
        ref = np.concatenate(chunks, axis=2)
        np.testing.assert_array_equal(cache.k, ref)
        np.testing.assert_array_equal(cache.v, -ref)
    for _ in range(200):
        cache.append(np.zeros((2, 2, 1, 3)), np.zeros((2, 2, 1, 3)))
        if cache._k is not buffers[-1]:
            buffers.append(cache._k)
    np.testing.assert_array_equal(cache.k[:, :, :77], ref)
    h = mixers._KV_HEADROOM
    # a growth leaves headroom after the tokens it must hold, and at least
    # doubles, so single-token appends reallocate ever more rarely
    assert [b.shape[2] for b in buffers] == [4, 5 + h, 76 + h, 2 * (76 + h)]


def test_mixer_field_list_orders_parameters_and_copies():
    w = make_weights(Rng(30), 8, 4, 2, 2)
    assert [name for name, _ in w.named()] == list(mixers.MIXER_FIELDS)
    twin = w.copy()
    for (na, ta), (nb, tb) in zip(w.named(), twin.named()):
        assert na == nb and ta is not tb
        np.testing.assert_array_equal(ta.data, tb.data)


# --------------------------------------------------------------------------
# causal query blocks with grouped KV heads
#
# The query block is patched down to 4 rows so that short sequences reach the
# blocked path: T = 11 gives three blocks, the last one partial.

PRECISIONS = [("extended", 1e-10), ("standard", 2e-5)]


@pytest.mark.parametrize("mode,tol", PRECISIONS)
@pytest.mark.parametrize("n_kv", [4, 2])  # g = 1 and g = 2
@pytest.mark.parametrize("positional", [False, True])
def test_blocked_attention_matches_oracle(monkeypatch, mode, tol, n_kv, positional):
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    rng = Rng(27)
    w = make_weights(rng, 12, 4, n_kv, 6)
    rope = RopeParams(theta=500.0, head_dim=6) if positional else None
    base = ScaleBase(100.0) if positional else None
    x = rng.child(99).normal((11, 12))
    got = attention_forward(T.tensor(x), w, rope=rope, scale_base=base).data
    assert got.dtype == T.active_dtype()
    ref = attention_loop_oracle(x.astype(np.float64), w, rope=rope, scale_base=base)
    assert max_rel_err(got, ref) < tol


@pytest.mark.parametrize("mode,tol", PRECISIONS)
def test_kv_cache_chunks_longer_than_block_match_full_forward(monkeypatch, mode, tol):
    """Chunks of 5 and 9 tokens, then one token, through one cache (batch 2)."""
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    rng = Rng(28)
    w = make_weights(rng, 8, 4, 2, 2)
    rope = RopeParams(theta=300.0, head_dim=2)
    x = rng.child(1).normal((2, 15, 8))
    full = attention_forward(T.tensor(x), w, rope=rope).data
    cache = KvCache(2, 2, 2, T.active_dtype(), capacity=4)
    outs = []
    for lo, hi in [(0, 5), (5, 14), (14, 15)]:
        y = attention_forward(T.tensor(x[:, lo:hi]), w, rope=rope, start_pos=lo, cache=cache)
        outs.append(y.data)
    assert cache.pos == 15
    assert max_rel_err(np.concatenate(outs, axis=1), full) < tol


def test_blocked_gqa_attention_backward_finite_diff(monkeypatch):
    """Input, w_k and w_v gradients through three blocks with shared KV heads."""
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    rng = Rng(65)
    w = make_weights(rng, 6, 4, 2, 2)
    rope = RopeParams(theta=200.0, head_dim=2)
    x_np = rng.child(99).normal((11, 6))
    assert _fd_check_mixer(lambda t: attention_forward(t, w, rope=rope), x_np) < 1e-4
    x = T.tensor(x_np)
    probe = T.tensor(rng.child(98).normal((11, 6)))
    for name in ("w_k", "w_v"):
        def f(t):
            y = attention_forward(x, w, rope=rope)
            return T.add(T.sum_all(T.mul(y, probe)), T.scale(T.sum_all(t), 0.5))

        err = T.finite_diff_check(f, getattr(w, name), step=2e-5)
        assert err < 1e-4, f"{name}: {err:.2e}"


def test_blocked_gqa_attention_f32_gradients_match_f64(monkeypatch):
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    grads = {}
    for mode in ("extended", "standard"):
        T.set_precision(mode)
        rng = Rng(66)
        w = make_weights(rng, 8, 4, 2, 2)
        x = Tensor(rng.child(99).normal((2, 11, 8)), requires_grad=True)
        probe = T.tensor(rng.child(98).normal((2, 11, 8)))
        with Tape() as tape:
            loss = T.sum_all(T.mul(attention_forward(x, w), probe))
        tape.backward(loss)
        grads[mode] = {"x": x.grad, "w_k": w.w_k.grad, "w_v": w.w_v.grad}
    for name, ref in grads["extended"].items():
        got = grads["standard"][name]
        assert got.dtype == np.float32
        assert max_rel_err(got, ref) < 1e-4, name


# --------------------------------------------------------------------------
# lightning attention

def lightning_cumsum_oracle(X, w, gammas, rope=None):
    """Direct state recursion in plain numpy (includes qk-norm/rope if set)."""
    tt, d = X.shape
    nh, dh = w.n_h, w.d_h
    q = (X @ w.w_q.data).reshape(tt, nh, dh)
    k = (X @ w.w_k.data).reshape(tt, nh, dh)
    v = (X @ w.w_v.data).reshape(tt, nh, dh)
    if w.qk_gain_q is not None:
        q = _np_rms(q, w.qk_gain_q.data[None, :, 0, :])
        k = _np_rms(k, w.qk_gain_k.data[None, :, 0, :])
    if rope is not None:
        for t in range(tt):
            for h in range(nh):
                q[t, h] = _np_rope(q[t, h], t, rope.theta)
                k[t, h] = _np_rope(k[t, h], t, rope.theta)
    k = k / np.sqrt(dh)
    o = np.zeros_like(q)
    s = np.zeros((nh, dh, dh), dtype=X.dtype)
    for t in range(tt):
        for h in range(nh):
            s[h] = gammas[h] * s[h] + np.outer(k[t, h], v[t, h])
            o[t, h] = q[t, h] @ s[h]
    if w.out_gain is not None:
        o = _np_rms(o, w.out_gain.data[None, :, 0, :])
    merged = o.reshape(tt, nh * dh)
    if w.w_z is not None:
        merged = merged / (1.0 + np.exp(-(X @ w.w_z.data)))
    return merged @ w.w_o.data.T


def test_lightning_gamma_one_cumulative_sum():
    rng = Rng(31)
    w = make_weights(rng, 8, 2, 2, 4, gate=False, qk_norm=False)
    x = rng.child(1).normal((4, 8))
    y, _ = lightning_forward_recurrent(T.tensor(x), w, np.ones(2), rope=None)
    ref = lightning_cumsum_oracle(x, w, np.ones(2))
    assert max_rel_err(y.data, ref) < 1e-10


def test_lightning_matches_oracle_with_decay_and_gate():
    rng = Rng(32)
    w = make_weights(rng, 8, 4, 4, 2)
    gam = gamma_slopes(4)
    x = rng.child(1).normal((12, 8))
    y, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=None)
    ref = lightning_cumsum_oracle(x, w, gam)
    assert max_rel_err(y.data, ref) < 1e-10


def test_lightning_zero_input_zero_output():
    """o = 0 so the gated, normalized output collapses to zero."""
    rng = Rng(33)
    w = make_weights(rng, 8, 2, 2, 4)
    y, _ = lightning_forward_recurrent(T.zeros((5, 8)), w, gamma_slopes(2))
    np.testing.assert_array_equal(y.data, np.zeros((5, 8)))


def test_lightning_state_chaining_single_steps():
    rng = Rng(34)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((8, 8))
    whole, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    state = None
    parts = []
    for t in range(8):
        y, state = lightning_forward_recurrent(T.tensor(x[t:t + 1]), w, gam,
                                               state=state, rope=rope)
        parts.append(y.data[0])
    assert max_rel_err(np.array(parts), whole.data) < 1e-10


def test_lightning_state_chaining_arbitrary_partition():
    rng = Rng(35)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((13, 8))
    whole, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    parts, state = [], None
    for lo, hi in [(0, 3), (3, 4), (4, 9), (9, 13)]:
        y, state = lightning_forward_recurrent(T.tensor(x[lo:hi]), w, gam,
                                               state=state, rope=rope)
        parts.append(y.data)
    assert max_rel_err(np.concatenate(parts), whole.data) < 1e-10


@pytest.mark.parametrize("chunk", [1, 2, 3, 16, 64])
def test_lightning_chunked_equals_recurrent(chunk):
    rng = Rng(36)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(chunk).normal((23, 8))
    ref, ref_state = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    got, got_state = lightning_forward_chunked(T.tensor(x), w, gam, chunk,
                                               rope=rope, return_state=True)
    assert max_rel_err(got.data, ref.data) < 1e-5
    assert max_rel_err(got_state.s, ref_state.s) < 1e-5
    assert got_state.pos == ref_state.pos == 23


def test_lightning_single_chunk_is_parallel_form():
    rng = Rng(37)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    x = rng.child(1).normal((16, 8))
    ref, _ = lightning_forward_recurrent(T.tensor(x), w, gam)
    got = lightning_forward_chunked(T.tensor(x), w, gam, chunk=16)
    assert max_rel_err(got.data, ref.data) < 1e-5


def test_lightning_chunked_with_state_continuation():
    rng = Rng(38)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((20, 8))
    ref, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    y1, st = lightning_forward_chunked(T.tensor(x[:9]), w, gam, 4, rope=rope,
                                       return_state=True)
    y2 = lightning_forward_chunked(T.tensor(x[9:]), w, gam, 4, rope=rope, state=st)
    assert max_rel_err(np.concatenate([y1.data, y2.data]), ref.data) < 1e-10


def test_lightning_rejects_mismatched_state():
    rng = Rng(39)
    w = make_weights(rng, 8, 2, 2, 4)
    bad = RecurrentState(np.zeros((1, 3, 4, 4)), 0)
    with pytest.raises(Exception, match="state"):
        lightning_forward_recurrent(T.zeros((2, 8)), w, gamma_slopes(2), state=bad)


# --------------------------------------------------------------------------
# GQA -> MHA cloning

def test_clone_identity_when_g1():
    rng = Rng(51)
    w = make_weights(rng, 8, 2, 2, 4)
    c = gqa_to_mha_clone(w, 1)
    np.testing.assert_array_equal(c.w_k.data, w.w_k.data)
    assert c is not w


def test_clone_head_assignment():
    rng = Rng(52)
    d, n_h, n_kv, d_h = 8, 4, 2, 2
    w = make_weights(rng, d, n_h, n_kv, d_h)
    c = gqa_to_mha_clone(w, 2)
    assert c.n_kv_heads == 4
    wk = w.w_k.data.reshape(d, n_kv, d_h)
    ck = c.w_k.data.reshape(d, n_h, d_h)
    for i in range(n_h):
        np.testing.assert_array_equal(ck[:, i], wk[:, i // 2])


def test_clone_forward_bit_identical():
    rng = Rng(53)
    w = make_weights(rng, 16, 4, 2, 4)
    c = gqa_to_mha_clone(w, 2)
    for trial in range(3):
        x = T.tensor(rng.child(trial).normal((9, 16)))
        a = attention_forward(x, w).data
        b = attention_forward(x, c).data
        np.testing.assert_array_equal(a, b)


def test_clone_parameter_growth_counts():
    rng = Rng(54)
    d, n_h, n_kv, d_h, g = 16, 4, 2, 4, 2
    w = make_weights(rng, d, n_h, n_kv, d_h)
    c = gqa_to_mha_clone(w, g)
    count = lambda mw: sum(t.size for _, t in mw.named())
    grown = count(c) - count(w)
    # projections grow by (g-1)*n_kv*d*d_h*2, plus the widened k-gain rows
    expected = (g - 1) * n_kv * d * d_h * 2 + (g - 1) * n_kv * d_h
    assert grown == expected


def test_clone_wrong_group_errors():
    rng = Rng(55)
    w = make_weights(rng, 8, 4, 2, 2)
    with pytest.raises(ConfigError):
        gqa_to_mha_clone(w, 4)


# --------------------------------------------------------------------------
# mixer gradients vs finite differences

def _fd_check_mixer(forward_fn, x_np, step=1e-4):
    def f(t):
        y = forward_fn(t)
        return T.add(T.sum_all(T.mul(y, y)), T.scale(T.sum_all(t), 0.5))

    return T.finite_diff_check(f, T.tensor(x_np), step=step)


def test_attention_backward_finite_diff():
    rng = Rng(61)
    w = make_weights(rng, 8, 2, 1, 4)
    rope = RopeParams(theta=200.0, head_dim=4)
    errs = [_fd_check_mixer(lambda t: attention_forward(t, w, rope=rope),
                            rng.child(k).normal((4, 8))) for k in range(5)]
    assert max(errs) < 1e-4


def test_lightning_backward_finite_diff():
    rng = Rng(62)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=200.0, head_dim=4)
    errs = [_fd_check_mixer(
        lambda t: lightning_forward_chunked(t, w, gam, chunk=3, rope=rope),
        rng.child(k).normal((5, 8))) for k in range(5)]
    assert max(errs) < 1e-4


def test_lightning_weight_gradients_finite_diff():
    """Gradients w.r.t. every weight tensor of the mixer, not just the input."""
    rng = Rng(64)
    w = make_weights(rng, 6, 2, 2, 3)
    gam = gamma_slopes(2)
    x = T.tensor(rng.child(99).normal((4, 6)))
    probe = T.tensor(rng.child(98).normal((4, 6)))
    for name, tens in w.named():
        def f(t):
            y = lightning_forward_chunked(x, w, gam, chunk=2)
            return T.add(T.sum_all(T.mul(y, probe)), T.scale(T.sum_all(t), 0.5))

        # smaller step: norm-of-small-vector curvature dominates at 1e-4
        err = T.finite_diff_check(f, tens, step=2e-5)
        assert err < 1e-4, f"{name}: {err:.2e}"
