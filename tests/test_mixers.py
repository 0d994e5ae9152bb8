"""Mixer oracles: per-position attention loop, cumulative outer products,
recurrent/chunked equivalence, GQA surgery, gradient checks, and the one-op
mixer cores against their composition of generic ops."""

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
from hybridkit.tensor import ConfigError, Rng, ShapeError, Tape, Tensor

from conftest import mark_lightning_scans, max_rel_err, tape_held_bytes

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

def make_weights(rng, d, n_h, n_kv, d_h, gate=True):
    w = MixerWeights(
        n_h=n_h, n_kv_heads=n_kv, d_h=d_h,
        w_q=Tensor(rng.child(0).normal((d, n_h * d_h), std=0.2), requires_grad=True),
        w_k=Tensor(rng.child(1).normal((d, n_kv * d_h), std=0.2), requires_grad=True),
        w_v=Tensor(rng.child(2).normal((d, n_kv * d_h), std=0.2), requires_grad=True),
        w_o=Tensor(rng.child(3).normal((d, n_h * d_h), std=0.2), requires_grad=True),
        w_z=Tensor(rng.child(4).normal((d, n_h * d_h), std=0.2), requires_grad=True) if gate else None,
        qk_gain_q=Tensor(1.0 + rng.child(6).normal((n_h, 1, d_h), std=0.1), requires_grad=True),
        qk_gain_k=Tensor(1.0 + rng.child(7).normal((n_kv, 1, d_h), std=0.1), requires_grad=True),
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
    got = attention_forward(T.tensor(x[None]), w).data[0]
    ref = attention_loop_oracle(x, w)
    assert max_rel_err(got, ref) < 1e-10


def test_attention_with_rope_and_scaling_matches_oracle():
    rng = Rng(22)
    w = make_weights(rng, 12, 2, 2, 6)
    rope = RopeParams(theta=500.0, head_dim=6)
    base = ScaleBase(100.0)
    x = rng.child(99).normal((7, 12))
    got = attention_forward(T.tensor(x[None]), w, rope=rope, scale_base=base).data[0]
    ref = attention_loop_oracle(x, w, rope=rope, scale_base=base)
    assert max_rel_err(got, ref) < 1e-10


def test_attention_single_token_routes_value():
    """Softmax over one element is 1, so output is v_1 through gate and W_o."""
    rng = Rng(23)
    w = make_weights(rng, 8, 2, 1, 4)
    x = rng.child(5).normal((1, 8))
    got = attention_forward(T.tensor(x[None]), w).data[0]
    ref = attention_loop_oracle(x, w)  # degenerate loop: att = [1.0]
    assert max_rel_err(got, ref) < 1e-12


def test_attention_uniform_keys_average_values():
    """All keys equal => row t attends 1/t to each prefix position."""
    rng = Rng(24)
    d = 8
    w = make_weights(rng, d, 2, 2, 4, gate=False)
    w.w_k = T.zeros((d, d))  # all k_t identical (zero, and zero after QK-norm)
    w.w_o = T.tensor(np.eye(d))
    x = rng.child(1).normal((5, d))
    got = attention_forward(T.tensor(x[None]), w).data[0]
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
                     w_v=T.zeros((4, 6)), w_o=T.zeros((4, 8)),
                     qk_gain_q=T.ones((4, 1, 2)), qk_gain_k=T.ones((3, 1, 2)))


def test_attention_kv_cache_matches_full_forward():
    rng = Rng(26)
    w = make_weights(rng, 8, 4, 2, 2)
    x = rng.child(1).normal((10, 8))
    full = attention_forward(T.tensor(x[None]), w).data[0]
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
    got = attention_forward(T.tensor(x[None]), w, rope=rope, scale_base=base).data[0]
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
    x_np = rng.child(99).normal((1, 11, 6))
    assert _fd_check_mixer(lambda t: attention_forward(t, w, rope=rope), x_np) < 1e-4
    x = T.tensor(x_np)
    probe = T.tensor(rng.child(98).normal((1, 11, 6)))
    for name in ("w_k", "w_v"):
        def f(t):
            y = attention_forward(x, w, rope=rope)
            return T.add(T.sum_all(T.mul(y, probe)), T.mul_const(T.sum_all(t), 0.5))

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
# last_only: the last query row alone, every key and value cached

@pytest.mark.parametrize("mode,tol", [("extended", 1e-12), ("standard", 2e-6)])
@pytest.mark.parametrize("n_kv", [4, 2])  # g = 1 and g = 2
@pytest.mark.parametrize("start", [0, 5], ids=["no_cache", "cache_at_5"])
def test_attention_last_only_is_the_last_row_and_caches_every_key(
        monkeypatch, mode, tol, n_kv, start):
    """Three 4-row blocks of keys for the one query row, rope and logits
    scaling at absolute positions; with a cache, 5 positions precede it."""
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    rng = Rng(32)
    w = make_weights(rng, 12, 4, n_kv, 6)
    rope = RopeParams(theta=500.0, head_dim=6)
    base = ScaleBase(3.0)
    x = rng.child(99).normal((2, start + 11, 12))

    def run(last_only):
        cache = None
        if start:
            cache = KvCache(2, n_kv, 6, T.active_dtype(), capacity=4)
            attention_forward(T.tensor(x[:, :start]), w, rope=rope, scale_base=base,
                              cache=cache)
        y = attention_forward(T.tensor(x[:, start:]), w, rope=rope, scale_base=base,
                              start_pos=start, cache=cache, last_only=last_only)
        return y.data, cache

    full, full_cache = run(False)
    last, last_cache = run(True)
    assert last.shape == (2, 1, 12) and last.dtype == T.active_dtype()
    assert max_rel_err(last, full[:, -1:]) < tol
    if start:
        assert last_cache.pos == full_cache.pos == start + 11
        np.testing.assert_array_equal(last_cache.k, full_cache.k)
        np.testing.assert_array_equal(last_cache.v, full_cache.v)


# --------------------------------------------------------------------------
# lightning attention

def lightning_cumsum_oracle(X, w, gammas, rope):
    """Direct state recursion in plain numpy, after QK-norm and rope."""
    tt, d = X.shape
    nh, dh = w.n_h, w.d_h
    q = (X @ w.w_q.data).reshape(tt, nh, dh)
    k = (X @ w.w_k.data).reshape(tt, nh, dh)
    v = (X @ w.w_v.data).reshape(tt, nh, dh)
    q = _np_rms(q, w.qk_gain_q.data[None, :, 0, :])
    k = _np_rms(k, w.qk_gain_k.data[None, :, 0, :])
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


ROPE4 = RopeParams(theta=1000.0, head_dim=4)


def test_lightning_gamma_one_cumulative_sum():
    rng = Rng(31)
    w = make_weights(rng, 8, 2, 2, 4, gate=False)
    x = rng.child(1).normal((4, 8))
    y, _ = lightning_forward_recurrent(T.tensor(x[None]), w, np.ones(2), ROPE4)
    ref = lightning_cumsum_oracle(x, w, np.ones(2), ROPE4)
    assert max_rel_err(y.data[0], ref) < 1e-10


def test_lightning_matches_oracle_with_decay_and_gate():
    rng = Rng(32)
    w = make_weights(rng, 8, 4, 4, 2)
    gam = gamma_slopes(4)
    rope = RopeParams(theta=1000.0, head_dim=2)
    x = rng.child(1).normal((12, 8))
    y, _ = lightning_forward_recurrent(T.tensor(x[None]), w, gam, rope)
    ref = lightning_cumsum_oracle(x, w, gam, rope)
    assert max_rel_err(y.data[0], ref) < 1e-10


def test_lightning_zero_input_zero_output():
    """o = 0 so the gated, normalized output collapses to zero."""
    rng = Rng(33)
    w = make_weights(rng, 8, 2, 2, 4)
    y, _ = lightning_forward_recurrent(T.zeros((1, 5, 8)), w, gamma_slopes(2), ROPE4)
    np.testing.assert_array_equal(y.data, np.zeros((1, 5, 8)))


def test_lightning_state_chaining_single_steps():
    rng = Rng(34)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((1, 8, 8))
    whole, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    state = None
    parts = []
    for t in range(8):
        y, state = lightning_forward_recurrent(T.tensor(x[:, t:t + 1]), w, gam,
                                               state=state, rope=rope)
        parts.append(y.data)
    assert max_rel_err(np.concatenate(parts, axis=1), whole.data) < 1e-10


def test_lightning_state_chaining_arbitrary_partition():
    rng = Rng(35)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((1, 13, 8))
    whole, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    parts, state = [], None
    for lo, hi in [(0, 3), (3, 4), (4, 9), (9, 13)]:
        y, state = lightning_forward_recurrent(T.tensor(x[:, lo:hi]), w, gam,
                                               state=state, rope=rope)
        parts.append(y.data)
    assert max_rel_err(np.concatenate(parts, axis=1), whole.data) < 1e-10


@pytest.mark.parametrize("chunk", [1, 2, 3, 16, 64])
def test_lightning_chunked_equals_recurrent(monkeypatch, chunk):
    monkeypatch.setattr(mixers, "_CHUNK", chunk)
    rng = Rng(36)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(chunk).normal((1, 23, 8))
    ref, ref_state = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    got, got_state = lightning_forward_chunked(T.tensor(x), w, gam, rope=rope)
    assert max_rel_err(got.data, ref.data) < 1e-5
    assert max_rel_err(got_state.s, ref_state.s) < 1e-5
    assert got_state.pos == ref_state.pos == 23


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lightning_decay_tables_are_cached_read_only_and_equal_a_fresh_build(
        monkeypatch, dtype):
    gam = gamma_slopes(3)
    first = mixers._decay_tables(gam, 5, dtype)
    assert mixers._decay_tables(gam.copy(), 5, dtype) is first
    for table in first:
        assert table.dtype == dtype and not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    monkeypatch.setattr(mixers, "_DECAY_TABLES", {})
    fresh = mixers._decay_tables(gam, 5, dtype)
    assert fresh is not first
    for cached, rebuilt in zip(first, fresh):
        np.testing.assert_array_equal(cached, rebuilt)
    # the tables' definitions: gamma^(i+1), gamma^(i-j) for i >= j, gamma^(c-1-j), gamma^c
    i = np.arange(5)
    g = gam[:, None]
    tol = 1e-6 if dtype == np.float32 else 1e-14
    np.testing.assert_allclose(first[0][0, :, :, 0], g ** (i + 1), rtol=tol)
    mask = np.where(i[:, None] >= i[None, :],
                    gam[:, None, None] ** np.maximum(i[:, None] - i[None, :], 0), 0.0)
    np.testing.assert_allclose(first[1][0], mask, rtol=tol)
    np.testing.assert_allclose(first[2][0, :, :, 0], g ** (4 - i), rtol=tol)
    np.testing.assert_allclose(first[3].reshape(-1), gam ** 5, rtol=tol)


@pytest.mark.parametrize("mode,tol", PRECISIONS)
def test_lightning_chunked_on_cached_tables_matches_recurrent(monkeypatch, mode, tol):
    """A second call, and a decode step, run on the tables the first built."""
    monkeypatch.setattr(mixers, "_CHUNK", 4)
    T.set_precision(mode)
    rng = Rng(39)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((1, 11, 8))
    ref, ref_state = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    for _ in range(2):
        got, st = lightning_forward_chunked(T.tensor(x[:, :10]), w, gam, rope=rope)
        last, _ = lightning_forward_chunked(T.tensor(x[:, 10:]), w, gam, rope=rope, state=st)
        assert max_rel_err(np.concatenate([got.data, last.data], axis=1), ref.data) < tol


def test_lightning_single_chunk_is_parallel_form(monkeypatch):
    monkeypatch.setattr(mixers, "_CHUNK", 16)
    rng = Rng(37)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    x = rng.child(1).normal((1, 16, 8))
    ref, _ = lightning_forward_recurrent(T.tensor(x), w, gam, ROPE4)
    got, _ = lightning_forward_chunked(T.tensor(x), w, gam, ROPE4)
    assert max_rel_err(got.data, ref.data) < 1e-5


def test_lightning_chunked_with_state_continuation(monkeypatch):
    monkeypatch.setattr(mixers, "_CHUNK", 4)
    rng = Rng(38)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x = rng.child(1).normal((1, 20, 8))
    ref, _ = lightning_forward_recurrent(T.tensor(x), w, gam, rope=rope)
    y1, st = lightning_forward_chunked(T.tensor(x[:, :9]), w, gam, rope=rope)
    y2, _ = lightning_forward_chunked(T.tensor(x[:, 9:]), w, gam, rope=rope, state=st)
    assert max_rel_err(np.concatenate([y1.data, y2.data], axis=1), ref.data) < 1e-10


def test_mixers_take_batched_inputs_only():
    w = make_weights(Rng(40), 8, 2, 2, 4)
    x = T.zeros((5, 8))
    for run in (lambda: attention_forward(x, w),
                lambda: lightning_forward_recurrent(x, w, gamma_slopes(2), ROPE4),
                lambda: lightning_forward_chunked(x, w, gamma_slopes(2), ROPE4)):
        with pytest.raises(ShapeError, match=r"must be \[B, T, d\]"):
            run()


def test_lightning_rejects_mismatched_state():
    rng = Rng(39)
    w = make_weights(rng, 8, 2, 2, 4)
    bad = RecurrentState(np.zeros((1, 3, 4, 4)), 0)
    with pytest.raises(Exception, match="state"):
        lightning_forward_recurrent(T.zeros((1, 2, 8)), w, gamma_slopes(2), ROPE4, state=bad)


# --------------------------------------------------------------------------
# GQA -> MHA cloning

def test_clone_identity_when_g1():
    rng = Rng(51)
    w = make_weights(rng, 8, 2, 2, 4)
    c = gqa_to_mha_clone(w)
    np.testing.assert_array_equal(c.w_k.data, w.w_k.data)
    assert c is not w


def test_clone_head_assignment():
    rng = Rng(52)
    d, n_h, n_kv, d_h = 8, 4, 2, 2
    w = make_weights(rng, d, n_h, n_kv, d_h)
    c = gqa_to_mha_clone(w)
    assert c.n_kv_heads == 4
    wk = w.w_k.data.reshape(d, n_kv, d_h)
    ck = c.w_k.data.reshape(d, n_h, d_h)
    for i in range(n_h):
        np.testing.assert_array_equal(ck[:, i], wk[:, i // 2])


def test_clone_forward_bit_identical():
    rng = Rng(53)
    w = make_weights(rng, 16, 4, 2, 4)
    c = gqa_to_mha_clone(w)
    for trial in range(3):
        x = T.tensor(rng.child(trial).normal((1, 9, 16)))
        a = attention_forward(x, w).data
        b = attention_forward(x, c).data
        np.testing.assert_array_equal(a, b)


def test_clone_parameter_growth_counts():
    rng = Rng(54)
    d, n_h, n_kv, d_h, g = 16, 4, 2, 4, 2
    w = make_weights(rng, d, n_h, n_kv, d_h)
    c = gqa_to_mha_clone(w)
    count = lambda mw: sum(t.size for _, t in mw.named())
    grown = count(c) - count(w)
    # projections grow by (g-1)*n_kv*d*d_h*2, plus the widened k-gain rows
    expected = (g - 1) * n_kv * d * d_h * 2 + (g - 1) * n_kv * d_h
    assert grown == expected


# --------------------------------------------------------------------------
# mixer gradients vs finite differences

def _fd_check_mixer(forward_fn, x_np, step=1e-4):
    def f(t):
        y = forward_fn(t)
        return T.add(T.sum_all(T.mul(y, y)), T.mul_const(T.sum_all(t), 0.5))

    return T.finite_diff_check(f, T.tensor(x_np), step=step)


def test_attention_backward_finite_diff():
    rng = Rng(61)
    w = make_weights(rng, 8, 2, 1, 4)
    rope = RopeParams(theta=200.0, head_dim=4)
    errs = [_fd_check_mixer(lambda t: attention_forward(t, w, rope=rope),
                            rng.child(k).normal((1, 4, 8))) for k in range(5)]
    assert max(errs) < 1e-4


def test_lightning_backward_finite_diff(monkeypatch):
    monkeypatch.setattr(mixers, "_CHUNK", 3)
    rng = Rng(62)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=200.0, head_dim=4)
    errs = [_fd_check_mixer(
        lambda t: lightning_forward_chunked(t, w, gam, rope=rope)[0],
        rng.child(k).normal((1, 5, 8))) for k in range(5)]
    assert max(errs) < 1e-4


def test_lightning_weight_gradients_finite_diff(monkeypatch):
    """Gradients w.r.t. every weight tensor of the mixer, not just the input."""
    monkeypatch.setattr(mixers, "_CHUNK", 2)
    rng = Rng(64)
    w = make_weights(rng, 6, 2, 2, 4)
    gam = gamma_slopes(2)
    x = T.tensor(rng.child(99).normal((1, 4, 6)))
    probe = T.tensor(rng.child(98).normal((1, 4, 6)))
    for name, tens in w.named():
        def f(t):
            y, _ = lightning_forward_chunked(x, w, gam, ROPE4)
            return T.add(T.sum_all(T.mul(y, probe)), T.mul_const(T.sum_all(t), 0.5))

        # smaller step: norm-of-small-vector curvature dominates at 1e-4
        err = T.finite_diff_check(f, tens, step=2e-5)
        assert err < 1e-4, f"{name}: {err:.2e}"


# --------------------------------------------------------------------------
# the mixer cores as one op each, against the composition of public ops
#
# `lightning_composition` and `attention_composition` write the chunk and
# block loops as compositions of generic slice, matmul and concat ops, each
# its own tape record.  The ops must give the same outputs bit for bit (the
# forward runs the same expressions) and the same gradients up to summation
# order: GRAD_TOLS, relative to the largest gradient entry.

GRAD_TOLS = [("extended", 1e-10), ("standard", 1e-5)]


def lightning_composition(q, k, v, s0, gammas):
    t, chunk = q.shape[2], mixers._CHUNK
    dtype = q.data.dtype
    s = Tensor(s0, dtype=dtype)
    outs = []
    for lo in range(0, t, chunk):
        hi = min(lo + chunk, t)
        g_in, g_mask, g_rev, g_all = mixers._decay_tables(gammas, hi - lo, dtype)
        qc = T.slice_axis(q, 2, lo, hi)
        kc = T.slice_axis(k, 2, lo, hi)
        vc = T.slice_axis(v, 2, lo, hi)
        inter = T.matmul(T.mul_const(qc, g_in), s)
        intra = T.matmul(T.mul_const(T.matmul(qc, T.swap_last(kc)), g_mask), vc)
        outs.append(T.add(inter, intra))
        s = T.add(T.mul_const(s, g_all), T.matmul(T.swap_last(T.mul_const(kc, g_rev)), vc))
    o = T.concat(outs, axis=2) if len(outs) > 1 else outs[0]
    return o, s.data


def attention_composition(q, k, v, offset):
    b, n_kv, g, tq, d_h = q.shape
    tk = k.shape[2]
    kt = T.swap_last(k)
    blocks = []
    for row0 in range(0, tq, mixers._QUERY_BLOCK):
        rows = min(mixers._QUERY_BLOCK, tq - row0)
        keys = offset + row0 + rows
        kt_b = kt if keys == tk else T.slice_axis(kt, 3, 0, keys)
        v_b = v if keys == tk else T.slice_axis(v, 2, 0, keys)
        q_b = q if rows == tq else T.slice_axis(q, 3, row0, row0 + rows)
        scores = T.matmul(T.reshape(q_b, (b, n_kv, g * rows, d_h)), kt_b)
        att = T.softmax_rows(T.reshape(scores, (b, n_kv, g, rows, keys)),
                             causal=True, offset=offset + row0)
        o_b = T.matmul(T.reshape(att, (b, n_kv, g * rows, keys)), v_b)
        blocks.append(T.reshape(o_b, (b, n_kv, g, rows, d_h)))
    return T.concat(blocks, axis=3) if len(blocks) > 1 else blocks[0]


def _leaves(rng, *shapes):
    return [Tensor(rng.child(i).normal(shape), requires_grad=True)
            for i, shape in enumerate(shapes)]


def _probe_grads(run, leaves, probe):
    """run() -> output Tensor; the leaves' gradients of sum(output * probe)."""
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = run()
        loss = T.sum_all(T.mul(out, probe))
    tape.backward(loss)
    return out.data, [t.grad for t in leaves]


def _assert_op_matches(op_run, ref_run, leaves, probe, tol):
    got, got_grads = _probe_grads(op_run, leaves, probe)
    ref, ref_grads = _probe_grads(ref_run, leaves, probe)
    np.testing.assert_array_equal(got, ref)
    for name, a, b in zip("qkv", got_grads, ref_grads):
        assert a.dtype == T.active_dtype()
        assert max_rel_err(a, b) < tol, name


LIGHTNING_C = 4


@pytest.mark.parametrize("mode,tol", GRAD_TOLS)
@pytest.mark.parametrize("t", [1, LIGHTNING_C - 1, LIGHTNING_C, LIGHTNING_C + 1,
                               2 * LIGHTNING_C + 3])
@pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
def test_lightning_op_matches_composition(monkeypatch, mode, tol, t, carried):
    monkeypatch.setattr(mixers, "_CHUNK", LIGHTNING_C)
    T.set_precision(mode)
    rng = Rng(70 + t)
    b, h, d_h = 2, 3, 5
    gam = gamma_slopes(h)
    q, k, v = _leaves(rng, *[(b, h, t, d_h)] * 3)
    s0 = (rng.child(9).normal((b, h, d_h, d_h)) if carried
          else np.zeros((b, h, d_h, d_h), dtype=T.active_dtype()))
    probe = T.tensor(rng.child(8).normal((b, h, t, d_h)))
    # outputs and the final state are the composition's, bit for bit
    (o, s), (o_ref, s_ref) = (fn(q, k, v, s0, gam) for fn in
                              (mixers._lightning_chunks, lightning_composition))
    np.testing.assert_array_equal(o.data, o_ref.data)
    np.testing.assert_array_equal(s, s_ref)
    _assert_op_matches(lambda: mixers._lightning_chunks(q, k, v, s0, gam)[0],
                       lambda: lightning_composition(q, k, v, s0, gam)[0],
                       (q, k, v), probe, tol)


@pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
def test_lightning_op_finite_diff(monkeypatch, carried):
    monkeypatch.setattr(mixers, "_CHUNK", LIGHTNING_C)
    rng = Rng(80)
    b, h, t, d_h = 1, 2, 2 * LIGHTNING_C + 3, 3
    gam = gamma_slopes(h)
    leaves = _leaves(rng, *[(b, h, t, d_h)] * 3)
    s0 = rng.child(9).normal((b, h, d_h, d_h)) if carried else np.zeros((b, h, d_h, d_h))
    probe = T.tensor(rng.child(8).normal((b, h, t, d_h)))
    for i, name in enumerate("qkv"):
        def f(x):
            args = leaves[:i] + [x] + leaves[i + 1:]
            o, _ = mixers._lightning_chunks(*args, s0, gam)
            return T.sum_all(T.mul(o, probe))

        err = T.finite_diff_check(f, leaves[i])
        assert err < 1e-4, f"{name}: {err:.2e}"


@pytest.mark.parametrize("mode,tol", GRAD_TOLS)
@pytest.mark.parametrize("tq", [3, 4, 5, 9])
@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("offset", [0, 6], ids=["no_cache", "cached"])
def test_attention_op_matches_composition(monkeypatch, mode, tol, tq, g, offset):
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    rng = Rng(90 + tq)
    b, n_kv, d_h = 2, 2, 3
    tk = offset + tq
    q, k, v = _leaves(rng, (b, n_kv, g, tq, d_h), (b, n_kv, tk, d_h), (b, n_kv, tk, d_h))
    probe = T.tensor(rng.child(8).normal((b, n_kv, g, tq, d_h)))
    _assert_op_matches(lambda: mixers._causal_attention(q, k, v, offset),
                       lambda: attention_composition(q, k, v, offset),
                       (q, k, v), probe, tol)


@pytest.mark.parametrize("tq,offset", [(9, 0), (5, 6), (1, 8)],
                         ids=["no_cache", "cached", "last_only"])
def test_attention_op_finite_diff(monkeypatch, tq, offset):
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    rng = Rng(100 + tq)
    b, n_kv, g, d_h = 1, 2, 2, 3
    tk = offset + tq
    leaves = _leaves(rng, (b, n_kv, g, tq, d_h), (b, n_kv, tk, d_h), (b, n_kv, tk, d_h))
    probe = T.tensor(rng.child(8).normal((b, n_kv, g, tq, d_h)))
    for i, name in enumerate("qkv"):
        def f(x):
            args = leaves[:i] + [x] + leaves[i + 1:]
            return T.sum_all(T.mul(mixers._causal_attention(*args, offset), probe))

        err = T.finite_diff_check(f, leaves[i])
        assert err < 1e-4, f"{name}: {err:.2e}"


def _core_runs(core, rng):
    """Leaves q, k, v and a run(q, k, v) -> output of one mixer core, with
    two query blocks or chunks and a carried start."""
    b, d_h = 2, 3
    if core == "attention":
        offset, tq = 2, 7
        shapes = [(b, 2, 2, tq, d_h), (b, 2, offset + tq, d_h), (b, 2, offset + tq, d_h)]
        return _leaves(rng, *shapes), lambda *qkv: mixers._causal_attention(*qkv, offset)
    t, h = 2 * LIGHTNING_C + 1, 2
    s0 = rng.child(9).normal((b, h, d_h, d_h))
    return (_leaves(rng, *[(b, h, t, d_h)] * 3),
            lambda *qkv: mixers._lightning_chunks(*qkv, s0, gamma_slopes(h))[0])


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("core", ["attention", "lightning"])
def test_core_output_recipe_rebuilds_it_bit_for_bit(monkeypatch, mode, core):
    """A recorded core output carries a recipe, and ``unpack(keep(o))``
    re-runs the forward to o's bits; untaped, no recipe is built."""
    monkeypatch.setattr(mixers, "_CHUNK", LIGHTNING_C)
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    leaves, run = _core_runs(core, Rng(123))
    with Tape():
        o = run(*leaves)
    assert isinstance(T.keep(o), T.Recipe)
    np.testing.assert_array_equal(T.unpack(T.keep(o)), o.data)
    assert run(*leaves)._recipe is None


@pytest.mark.parametrize("core", ["attention", "lightning"])
def test_core_finite_diff_through_its_rebuilt_output(monkeypatch, core):
    """With the output read through an RMSNorm, whose record keeps the
    output's recipe, backward rebuilds the output; each of q, k and v still
    passes the f64 oracle."""
    monkeypatch.setattr(mixers, "_CHUNK", LIGHTNING_C)
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    rng = Rng(124)
    leaves, run = _core_runs(core, rng)
    gain = T.tensor(rng.child(7).normal((3,)))
    probe = T.tensor(rng.child(8).normal(leaves[0].shape))
    for i, name in enumerate("qkv"):
        def f(x):
            o = run(*leaves[:i], x, *leaves[i + 1:])
            return T.sum_all(T.mul(T.rmsnorm(o, gain), probe))

        err = T.finite_diff_check(f, leaves[i])
        assert err < 1e-4, f"{name}: {err:.2e}"


def _mixer_grads(run, x, w, probe):
    """Output and gradients (x, then every weight) of sum(run(x) * probe)."""
    return _probe_grads(lambda: run(x), [x] + [t for _, t in w.named()], probe)


@pytest.mark.parametrize("mode,tol", GRAD_TOLS)
@pytest.mark.parametrize("n_kv", [4, 2])  # g = 1 and g = 2
@pytest.mark.parametrize("case", ["prefill", "cached", "last_only"])
def test_attention_mixer_with_the_op_matches_the_composition(monkeypatch, mode, tol, n_kv, case):
    """Whole mixers, rope and a ScaleBase, through a cache and last_only:
    outputs bit-identical, every gradient within GRAD_TOLS."""
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    rng = Rng(110)
    w = make_weights(rng, 12, 4, n_kv, 6)
    rope = RopeParams(theta=500.0, head_dim=6)
    base = ScaleBase(3.0)
    start = 5 if case == "cached" else 0
    x_all = rng.child(99).normal((2, start + 9, 12))
    x = Tensor(x_all[:, start:], requires_grad=True)
    rows = 1 if case == "last_only" else 9
    probe = T.tensor(rng.child(98).normal((2, rows, 12)))

    def run(x):
        cache = None
        if start:
            cache = KvCache(2, n_kv, 6, T.active_dtype(), capacity=4)
            with T.no_record():
                attention_forward(T.tensor(x_all[:, :start]), w, rope=rope,
                                  scale_base=base, cache=cache)
        return attention_forward(x, w, rope=rope, scale_base=base, start_pos=start,
                                 cache=cache, last_only=case == "last_only")

    got, got_grads = _mixer_grads(run, x, w, probe)
    monkeypatch.setattr(mixers, "_causal_attention", attention_composition)
    ref, ref_grads = _mixer_grads(run, x, w, probe)
    np.testing.assert_array_equal(got, ref)
    for a, b in zip(got_grads, ref_grads):
        # with a cache, keys and values are constants: w_k, w_v and the k
        # gain get no gradient from either form
        assert (a is None) == (b is None)
        assert a is None or max_rel_err(a, b) < tol


@pytest.mark.parametrize("mode,tol", GRAD_TOLS)
@pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
def test_lightning_mixer_with_the_op_matches_the_composition(monkeypatch, mode, tol, carried):
    monkeypatch.setattr(mixers, "_CHUNK", 4)
    T.set_precision(mode)
    rng = Rng(111)
    w = make_weights(rng, 8, 2, 2, 4)
    gam = gamma_slopes(2)
    rope = RopeParams(theta=1000.0, head_dim=4)
    x_all = rng.child(99).normal((2, 4 + 11, 8))
    state = None
    if carried:
        _, state = lightning_forward_chunked(T.tensor(x_all[:, :4]), w, gam, rope=rope)
    x = Tensor(x_all[:, 4:], requires_grad=True)
    probe = T.tensor(rng.child(98).normal((2, 11, 8)))

    def run(x):
        return lightning_forward_chunked(x, w, gam, rope=rope, state=state)[0]

    got, got_grads = _mixer_grads(run, x, w, probe)
    monkeypatch.setattr(mixers, "_lightning_chunks", lightning_composition)
    ref, ref_grads = _mixer_grads(run, x, w, probe)
    np.testing.assert_array_equal(got, ref)
    for a, b in zip(got_grads, ref_grads):
        assert max_rel_err(a, b) < tol


# --------------------------------------------------------------------------
# what each mixer op's tape record keeps

@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_lightning_op_record_keeps_qkv_and_the_start_state(monkeypatch, mode):
    """One record, holding q, k, v, the [B, H, d_h, d_h] start state and the
    H decay rates: no per-chunk state, no scores, no decay-scaled copies, no
    output."""
    monkeypatch.setattr(mixers, "_CHUNK", LIGHTNING_C)
    T.set_precision(mode)
    rng = Rng(120)
    b, h, t, d_h = 2, 3, 2 * LIGHTNING_C + 3, 5
    gam = gamma_slopes(h)
    q, k, v = _leaves(rng, *[(b, h, t, d_h)] * 3)
    s0 = rng.child(9).normal((b, h, d_h, d_h))
    with Tape() as tape:
        mixers._lightning_chunks(q, k, v, s0, gam)
    assert len(tape._records) == 1
    itemsize = np.dtype(T.active_dtype()).itemsize
    assert tape_held_bytes(tape) == (3 * b * h * t * d_h + b * h * d_h * d_h) * itemsize \
        + gam.nbytes
    # with no tape, nothing is kept
    with Tape() as tape:
        with T.no_record():
            mixers._lightning_chunks(q, k, v, s0, gam)
    assert tape._records == []


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("t", [3 * LIGHTNING_C + 2, 3 * LIGHTNING_C], ids=["partial", "whole"])
@pytest.mark.parametrize("consumer", ["rmsnorm", "mul"])
def test_lightning_backward_rebuilds_the_forwards_chunk_states_bit_for_bit(
        monkeypatch, mode, t, consumer):
    """Backward runs the chunk recurrence once, inside the rebuild's
    ``_lightning_scan``, and that scan passes through exactly the states
    the forward passed through, bit for bit, final state included.  The
    scan runs for the output's consumer when it keeps the output's recipe
    (an RMSNorm), and for the core's backward when nothing rebuilt the
    output (``mul`` keeps its inputs' arrays)."""
    monkeypatch.setattr(mixers, "_CHUNK", LIGHTNING_C)
    T.set_precision(mode)
    rng = Rng(122)
    b, h, d_h = 2, 3, 5
    q, k, v = _leaves(rng, *[(b, h, t, d_h)] * 3)
    gain = Tensor(rng.child(8).normal((h, 1, d_h)), requires_grad=True)
    states = []  # each state's bytes and whether a scan made it
    real_state, in_scan = mixers._next_state, mark_lightning_scans(monkeypatch)

    def logged(s, *args):
        out = real_state(s, *args)
        states.append((out.tobytes(), bool(in_scan)))
        return out

    monkeypatch.setattr(mixers, "_next_state", logged)
    with Tape() as tape:
        o, _ = mixers._lightning_chunks(q, k, v, rng.child(9).normal((b, h, d_h, d_h)),
                                        gamma_slopes(h))
        y = T.rmsnorm(o, gain) if consumer == "rmsnorm" else T.mul(o, o)
        loss = T.sum_all(T.mul(y, y))
    n_chunks = -(-t // LIGHTNING_C)
    forward_states = list(states)
    assert len(forward_states) == n_chunks
    tape.backward(loss)
    assert states[n_chunks:] == forward_states


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("g", [1, 2])
def test_attention_op_record_keeps_qkv_and_no_probabilities(monkeypatch, mode, g):
    """One record over three query blocks, holding q, k and v alone: no
    [rows, keys] scores or probabilities."""
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    rng = Rng(121)
    b, n_kv, tq, d_h = 2, 2, 11, 3
    q, k, v = _leaves(rng, (b, n_kv, g, tq, d_h), (b, n_kv, tq, d_h), (b, n_kv, tq, d_h))
    with Tape() as tape:
        mixers._causal_attention(q, k, v, 0)
    assert len(tape._records) == 1
    assert tape_held_bytes(tape) == q.data.nbytes + k.data.nbytes + v.data.nbytes
