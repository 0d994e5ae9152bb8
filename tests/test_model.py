"""Model stack: composition against module oracles, capture, decode, surgery."""

import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.evals import gen_csr_proxy, score_csr
from hybridkit.mixers import KvCache, last_position
from hybridkit.model import (DecodeSession, Model, ModelConfig, _swiglu,
                             choice_logprobs, capture_many, decode_step,
                             desk_config, forward, generate_greedy,
                             init_hybrid_from_teacher, init_model, mixer_layout,
                             new_session, prefill, transformer_config, with_scaling)
from hybridkit.positional import RopeParams, ScaleBase
from hybridkit.tensor import ConfigError, Rng

from conftest import (_base_array, cached_tables, mark_lightning_scans, max_rel_err,
                      reference_choice_logprobs, tape_held_arrays, tape_held_bytes)
from test_mixers import attention_loop_oracle, lightning_cumsum_oracle, _np_rms

TINY = dict(d=16, d_h=4, n_h=4, n_kv_heads=2, ffn_width=24, vocab=32,
            rope=RopeParams(theta=1000.0, head_dim=4))


def tiny_hybrid(**over):
    cfg = dict(TINY, L=2, I_attn=(0,))
    cfg.update(over)
    return desk_config(**cfg)


def test_empty_stack_is_normed_embedding_times_unembedding():
    cfg = desk_config(L=0, I_attn=(), **TINY)
    model = init_model(cfg, seed=0)
    toks = np.array([3, 1, 4, 1, 5])
    logits = forward(model, toks[None]).data[0]
    e = model.embed.data[toks]
    normed = e / np.sqrt((e * e).mean(-1, keepdims=True) + 1e-6)
    ref = normed @ model.embed.data.T
    assert max_rel_err(logits, ref) < 1e-12


def test_token_swap_changes_logits_rnn_rope_model():
    cfg = desk_config(L=1, I_attn=(), **TINY)
    model = init_model(cfg, seed=1)
    a = forward(model, np.array([[5, 9, 5, 9]])).data[0]
    b = forward(model, np.array([[9, 5, 5, 9]])).data[0]
    assert np.abs(a[-1] - b[-1]).max() > 1e-8  # position information present


def test_two_layer_forward_matches_composed_oracle():
    """Straight-line reference: embedding, norms, mixer oracles, SwiGLU MLP."""
    cfg = tiny_hybrid()
    model = init_model(cfg, seed=7)
    toks = np.array([1, 30, 7, 7, 2, 19])

    def np_rmsnorm(x, gain):
        return x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6) * gain

    x = model.embed.data[toks]
    for l, lw in enumerate(model.layers):
        h_in = np_rmsnorm(x, lw.pre_mixer_gain.data)
        if l in cfg.I_attn:
            y = attention_loop_oracle(h_in, lw.mixer)  # NoPE attention
        else:
            y = lightning_cumsum_oracle(h_in, lw.mixer, model.gammas, rope=cfg.rope)
        x = x + y
        m_in = np_rmsnorm(x, lw.pre_mlp_gain.data)
        gate = m_in @ lw.mlp.w_gate.data
        inner = gate / (1.0 + np.exp(-gate)) * (m_in @ lw.mlp.w_up.data)
        x = x + inner @ lw.mlp.w_down.data
    ref = np_rmsnorm(x, model.final_gain.data) @ model.embed.data.T

    got = forward(model, toks[None]).data[0]
    assert max_rel_err(got, ref) < 1e-8


def test_forward_rejects_out_of_range_ids():
    model = init_model(tiny_hybrid(), seed=0)
    with pytest.raises(IndexError):
        forward(model, np.array([[0, 99]]))


@pytest.mark.parametrize("shape", [(0,), (1, 0), (0, 3), (3,)])
def test_forward_and_prefill_reject_zero_tokens(shape):
    """Token ids are [B, T] with B, T >= 1; [T] ids are refused too."""
    model = init_model(tiny_hybrid(), seed=0)
    toks = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match="at least one token"):
        forward(model, toks)
    with pytest.raises(ValueError, match="at least one token"):
        prefill(model, new_session(model), toks)


# --------------------------------------------------------------------------
# capture

def test_capture_layer0_input_is_normed_embedding():
    model = init_model(tiny_hybrid(), seed=3)
    toks = np.array([4, 2, 9])
    x_in, _ = capture_many(model, toks[None], [0])[0]
    e = model.embed.data[toks]
    ref = e / np.sqrt((e * e).mean(-1, keepdims=True) + 1e-6) * model.layers[0].pre_mixer_gain.data
    assert max_rel_err(x_in.data[0], ref) < 1e-12


def test_capture_residual_identity():
    """X_after_mixer - mixer_output must equal the captured block input's
    residual stream, recomputed offline."""
    model = init_model(tiny_hybrid(), seed=4)
    toks = np.array([1, 5, 8, 8])
    x_in, y_mix = capture_many(model, toks[None], [1])[1]
    # recompute the residual stream entering layer 1 and check Norm matches
    x = model.embed.data[toks]
    lw0 = model.layers[0]

    def np_rmsnorm(x, gain):
        return x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6) * gain

    h_in0 = np_rmsnorm(x, lw0.pre_mixer_gain.data)
    y0 = attention_loop_oracle(h_in0, lw0.mixer)
    h = x + y0
    m_in = np_rmsnorm(h, lw0.pre_mlp_gain.data)
    gate = m_in @ lw0.mlp.w_gate.data
    x1 = h + (gate / (1.0 + np.exp(-gate)) * (m_in @ lw0.mlp.w_up.data)) @ lw0.mlp.w_down.data
    ref_in = np_rmsnorm(x1, model.layers[1].pre_mixer_gain.data)
    assert max_rel_err(x_in.data[0], ref_in) < 1e-10


def test_capture_does_not_perturb_logits():
    model = init_model(tiny_hybrid(), seed=5)
    toks = np.array([[0, 1, 2, 3, 4]])
    plain = forward(model, toks).data
    _ = capture_many(model, toks, [1])
    again = forward(model, toks).data
    np.testing.assert_array_equal(plain, again)


def test_capture_layer_out_of_range():
    model = init_model(tiny_hybrid(), seed=5)
    for layers in ([2], [0, 2], [-1]):
        with pytest.raises(IndexError, match="out of range"):
            capture_many(model, np.array([[1, 2]]), layers)


# --------------------------------------------------------------------------
# decode

def test_decode_first_step_equals_single_token_forward():
    model = init_model(tiny_hybrid(), seed=6)
    sess = new_session(model)
    logits = decode_step(model, sess, 7).data
    ref = forward(model, np.array([[7]])).data[0, 0]
    assert max_rel_err(logits, ref) < 1e-12


def test_incremental_decode_matches_full_forward():
    cfg = tiny_hybrid(L=4, I_attn=(0, 2))
    model = init_model(cfg, seed=8)
    rng = Rng(0)
    toks = rng.integers(0, cfg.vocab, size=33)
    full = forward(model, toks[None]).data[0]
    sess = new_session(model)
    step_logits = [decode_step(model, sess, int(t)).data for t in toks]
    assert max_rel_err(np.array(step_logits), full) < 1e-8


def test_prefill_then_decode_matches_full_forward():
    cfg = tiny_hybrid(L=4, I_attn=(0, 2))
    model = init_model(cfg, seed=9)
    toks = Rng(1).integers(0, cfg.vocab, size=21)
    full = forward(model, toks[None]).data[0]
    sess = new_session(model)
    pre = prefill(model, sess, toks[None, :13]).data[0]
    assert max_rel_err(pre[-1], full[12]) < 1e-8
    for i, t in enumerate(toks[13:]):
        out = decode_step(model, sess, int(t)).data
        assert max_rel_err(out, full[13 + i]) < 1e-8


def test_greedy_decode_equals_repeated_full_forward():
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=10)
    prompt = Rng(2).integers(0, cfg.vocab, size=12)
    got = generate_greedy(model, prompt[None], n_new=32)[0]
    seq = list(prompt)
    ref = []
    for _ in range(32):
        logits = forward(model, np.array([seq])).data[0]
        nxt = int(logits[-1].argmax())
        ref.append(nxt)
        seq.append(nxt)
    np.testing.assert_array_equal(got, np.array(ref))


def test_greedy_batch_runs_one_decode_step_per_token_after_the_first(monkeypatch):
    """Prefill gives the first token; the last token is never fed back."""
    import hybridkit.model as hm

    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=12)
    prompts = Rng(4).integers(0, cfg.vocab, size=(3, 9))
    calls = []
    real = hm._advance

    def counting(model, tokens, session, *args, **kwargs):
        calls.append(np.asarray(tokens).shape)
        return real(model, tokens, session, *args, **kwargs)

    monkeypatch.setattr(hm, "_advance", counting)
    n_new = 5
    got = generate_greedy(model, prompts, n_new=n_new)
    assert calls == [(3, 9)] + [(3, 1)] * (n_new - 1)
    monkeypatch.undo()

    for prompt, row in zip(prompts, got):
        seq = list(prompt)
        for tok in row:
            assert tok == int(forward(model, np.array([seq])).data[0, -1].argmax())
            seq.append(int(tok))
    np.testing.assert_array_equal(generate_greedy(model, prompts, n_new=1), got[:, :1])
    with pytest.raises(ValueError, match="n_new"):
        generate_greedy(model, prompts, n_new=0)


def test_decode_after_prefill_appends_without_regrowing_the_kv_cache():
    """Greedy decode after a prefill longer than the cache's first capacity:
    tokens and logits equal the full forward's, and the steps right after the
    prefill write into the buffers the prefill grew."""
    from hybridkit.mixers import KvCache, last_position
    from hybridkit.model import _advance

    cfg = tiny_hybrid(L=3, I_attn=(0, 2))
    model = init_model(cfg, seed=13)
    seq = Rng(5).integers(0, cfg.vocab, size=(2, 150))  # capacity starts at 64
    sess = new_session(model, batch=2)
    logits = prefill(model, sess, seq).data[:, -1]
    caches = [s for s in sess.states if isinstance(s, KvCache)]
    buffers = [(c._k, c._v) for c in caches]
    assert len(caches) == 2
    for _ in range(8):
        full = forward(model, seq).data[:, -1]
        assert max_rel_err(logits, full) < 1e-10
        tok = logits.argmax(-1)
        np.testing.assert_array_equal(tok, full.argmax(-1))
        seq = np.concatenate([seq, tok[:, None]], axis=1)
        logits = _advance(model, tok[:, None], sess).data[:, -1]
    assert all(c._k is k and c._v is v for c, (k, v) in zip(caches, buffers))
    assert all(c.pos == 158 for c in caches)


def test_decode_scaling_uses_absolute_positions():
    cfg = tiny_hybrid(L=2, I_attn=(0, 1), scale_base=ScaleBase(50.0))
    model = init_model(cfg, seed=11)
    toks = Rng(3).integers(0, cfg.vocab, size=17)
    full = forward(model, toks[None]).data[0]  # scaling from config
    sess = new_session(model)
    outs = [decode_step(model, sess, int(t)).data for t in toks]
    assert max_rel_err(np.array(outs), full) < 1e-10


def test_with_scaling_is_the_same_weights_under_another_scaling():
    """A view, not a copy: every tensor is the source's; its logits are those
    of the same weights built with the other base in the config."""
    from dataclasses import replace

    cfg = tiny_hybrid(L=3, I_attn=(0, 2))
    model = init_model(cfg, seed=28)
    base = ScaleBase(3.0)
    view = with_scaling(model, base)
    assert view.cfg == replace(cfg, scale_base=base) and model.cfg == cfg
    assert [n for n, _ in view.named_parameters()] == [n for n, _ in model.named_parameters()]
    assert all(a is b for a, b in zip(view.parameters(), model.parameters()))
    toks = Rng(15).integers(0, cfg.vocab, size=(2, 40))
    scaled = forward(view, toks).data
    np.testing.assert_array_equal(
        scaled, forward(init_model(replace(cfg, scale_base=base), seed=28), toks).data)
    assert not np.array_equal(scaled, forward(model, toks).data)
    np.testing.assert_array_equal(forward(with_scaling(view, None), toks).data,
                                  forward(model, toks).data)


def test_causality_shared_prefix_identical_logits():
    cfg = tiny_hybrid(L=2, I_attn=(0,))
    model = init_model(cfg, seed=12)
    a = Rng(4).integers(0, cfg.vocab, size=16)
    b = a.copy()
    b[10:] = (b[10:] + 5) % cfg.vocab
    la = forward(model, a[None]).data[0]
    lb = forward(model, b[None]).data[0]
    np.testing.assert_array_equal(la[:10], lb[:10])


# --------------------------------------------------------------------------
# session repeat, last-position prefill and cloze log-probs

# (precision, relative tolerance against the full-row forward)
PRECISIONS = [("extended", 1e-12), ("standard", 1e-5)]


@pytest.fixture(params=PRECISIONS, ids=["f64", "f32"])
def tol(request):
    precision, tol = request.param
    T.set_precision(precision)
    return tol


def _state_arrays(session):
    return [st.k if isinstance(st, KvCache) else st.s for st in session.states] + [
        st.v for st in session.states if isinstance(st, KvCache)]


def test_session_repeat_row_order_and_copies(tol):
    cfg = tiny_hybrid(L=3, I_attn=(0, 2))
    model = init_model(cfg, seed=20)
    prompts = Rng(6).integers(0, cfg.vocab, size=(2, 7))
    sess = new_session(model, batch=2)
    prefill(model, sess, prompts)
    before = [a.copy() for a in _state_arrays(sess)]
    rep = sess.repeat(3)
    assert (rep.pos, rep.batch, sess.pos, sess.batch) == (7, 6, 7, 2)
    for got, orig in zip(_state_arrays(rep), _state_arrays(sess)):
        np.testing.assert_array_equal(got, np.repeat(orig, 3, axis=0))
        assert not np.shares_memory(got, orig)
    # advancing the copy leaves the original's caches and states as they were,
    # and the copy's KV caches have room for the new tokens without regrowing
    buffers = [st._k for st in rep.states if isinstance(st, KvCache)]
    prefill(model, rep, Rng(7).integers(0, cfg.vocab, size=(6, 2)))
    assert all(st._k is k for st, k in
               zip([st for st in rep.states if isinstance(st, KvCache)], buffers))
    assert all(st.pos == 9 for st in rep.states)
    assert all(st.pos == 7 for st in sess.states)
    for a, b in zip(_state_arrays(sess), before):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        sess.repeat(0)


def test_repeated_session_continues_like_the_repeated_rows(tol):
    cfg = tiny_hybrid(L=3, I_attn=(1,), scale_base=ScaleBase(20.0))
    model = init_model(cfg, seed=21)
    prompts = Rng(8).integers(0, cfg.vocab, size=(2, 70))  # past the KV headroom
    cont = Rng(9).integers(0, cfg.vocab, size=(6, 3))
    sess = new_session(model, batch=2)
    prefill(model, sess, prompts)
    got = prefill(model, sess.repeat(3), cont).data
    rows = np.concatenate([np.repeat(prompts, 3, axis=0), cont], axis=1)
    ref = prefill(model, new_session(model, batch=6), rows).data[:, 70:]
    assert max_rel_err(got, ref) < tol


@pytest.mark.parametrize("L, I_attn", [(3, (2,)), (3, (0,)), (0, ())],
                         ids=["attention_last", "lightning_last", "no_layers"])
def test_prefill_last_only_matches_full_prefill(tol, L, I_attn):
    cfg = tiny_hybrid(L=L, I_attn=I_attn)
    model = init_model(cfg, seed=22)
    prompts = Rng(10).integers(0, cfg.vocab, size=(3, 11))
    full_sess, last_sess = new_session(model, batch=3), new_session(model, batch=3)
    full = prefill(model, full_sess, prompts).data
    last = prefill(model, last_sess, prompts, last_only=True).data
    assert last.shape == (3, 1, cfg.vocab)
    assert max_rel_err(last, full[:, -1:]) < tol
    assert last_sess.pos == full_sess.pos == 11
    for a, b in zip(_state_arrays(last_sess), _state_arrays(full_sess)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("I_attn", [(2,), (0,)], ids=["attention_last", "lightning_last"])
def test_greedy_tokens_equal_repeated_full_forward(tol, I_attn):
    cfg = tiny_hybrid(L=3, I_attn=I_attn)
    model = init_model(cfg, seed=23)
    prompts = Rng(11).integers(0, cfg.vocab, size=(2, 9))
    got = generate_greedy(model, prompts, n_new=6)
    for prompt, row in zip(prompts, got):
        seq = list(prompt)
        for tok in row:
            assert tok == int(forward(model, np.array([seq])).data[0, -1].argmax())
            seq.append(int(tok))


def _full_prefill_last_row(monkeypatch):
    """Make prefill ignore last_only: a full prefill, sliced to its last row."""
    import hybridkit.model as hm

    real = hm.prefill

    def full(model, session, tokens, last_only=False):
        logits = real(model, session, tokens)
        return last_position(logits) if last_only else logits

    monkeypatch.setattr(hm, "prefill", full)


@pytest.mark.parametrize("I_attn", [(2,), (0, 1, 2)], ids=["attention_last", "all_attention"])
def test_greedy_tokens_after_last_only_prefill_equal_full_prefill(tol, I_attn, monkeypatch):
    cfg = tiny_hybrid(L=3, I_attn=I_attn)
    model = init_model(cfg, seed=25)
    prompts = Rng(12).integers(0, cfg.vocab, size=(3, 13))
    got = generate_greedy(model, prompts, n_new=8)
    _full_prefill_last_row(monkeypatch)
    np.testing.assert_array_equal(got, generate_greedy(model, prompts, n_new=8))


def _prefill_flop(model, prompts, last_only, monkeypatch, taped=False):
    """FLOP that tensor.matmul runs in one prefill, or with `taped` in one
    training forward on a tape: 2 * out.size * inner."""
    real = T.matmul
    work = []

    def counting(a, b):
        out = real(a, b)
        work.append(2 * out.data.size * a.shape[-1])
        return out

    with monkeypatch.context() as mp:
        mp.setattr(T, "matmul", counting)
        if taped:
            with T.Tape():
                forward(model, prompts, scale_base=None)
        else:
            prefill(model, new_session(model, batch=prompts.shape[0]), prompts,
                    last_only=last_only)
    return sum(work)


def test_last_only_prefill_of_attention_final_model_runs_one_query_row(monkeypatch):
    """The final attention layer projects, scores and outputs one query row:
    count the matmul work against its closed form (two 4-row query blocks)."""
    import hybridkit.mixers as mixers

    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    cfg = tiny_hybrid(L=2, I_attn=(0, 1))
    model = init_model(cfg, seed=26)
    B, t = 2, 7
    prompts = Rng(13).integers(0, cfg.vocab, size=(B, t))
    d, hd, kvd, f, V = cfg.d, cfg.n_h * cfg.d_h, cfg.n_kv_heads * cfg.d_h, cfg.ffn_width, cfg.vocab

    def attention(rows, keys_per_block):
        proj = 2 * B * d * (t * 2 * kvd + rows * 3 * hd)  # k, v; q, gate, output
        return proj + 2 * 2 * B * hd * sum(r * k for r, k in keys_per_block)

    mlp = 2 * B * 3 * d * f
    full_attn = attention(t, [(4, 4), (3, 7)])
    full = 2 * (full_attn + t * mlp) + 2 * B * t * d * V
    last = full_attn + attention(1, [(1, t)]) + (t + 1) * mlp + 2 * B * d * V
    assert _prefill_flop(model, prompts, False, monkeypatch) == full
    assert _prefill_flop(model, prompts, True, monkeypatch) == last


@pytest.mark.parametrize("taped", [False, True], ids=["prefill", "taped_forward"])
def test_matmul_counts_every_mixer_gemm_of_a_hybrid(taped, monkeypatch):
    """Both mixer cores are one op each, but run their GEMMs through
    tensor.matmul: the count equals the closed form of every projection,
    Lightning chunk term and attention block, in a prefill and in a
    training forward on a tape."""
    import hybridkit.mixers as mixers

    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    monkeypatch.setattr(mixers, "_CHUNK", 4)
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=28)
    B, t = 2, 10
    prompts = Rng(15).integers(0, cfg.vocab, size=(B, t))
    d, d_h, n_h, f, V = cfg.d, cfg.d_h, cfg.n_h, cfg.ffn_width, cfg.vocab
    hd, kvd = n_h * d_h, cfg.n_kv_heads * d_h
    # q, k, v and gate projections, output projection; per chunk of width c:
    # (q * decay) @ S, q @ k^T, scores @ v and the state update
    lightning = 2 * B * t * d * 5 * hd + sum(
        2 * B * n_h * (2 * c * d_h * d_h + 2 * c * c * d_h) for c in (4, 4, 2))
    keys_per_block = [(4, 4), (4, 8), (2, 10)]
    attention = (2 * B * d * t * (2 * kvd + 3 * hd)
                 + 2 * 2 * B * hd * sum(r * k for r, k in keys_per_block))
    mlp = 2 * B * t * 3 * d * f
    total = 2 * lightning + attention + 3 * mlp + 2 * B * t * d * V
    assert _prefill_flop(model, prompts, False, monkeypatch, taped=taped) == total


class _FullRows:
    """A model seen only through its full-row logits: the reference scorer."""

    def __init__(self, model):
        self.model = model

    def logits(self, tokens):
        return forward(self.model, tokens).data

    def choice_logprobs(self, prefixes, choices):
        return reference_choice_logprobs(self, prefixes, choices)


@pytest.mark.parametrize("scale_base", [None, ScaleBase(10.0)], ids=["plain", "scalebase"])
def test_choice_logprobs_match_full_row_formula(tol, scale_base, monkeypatch):
    import hybridkit.evals as evals
    import hybridkit.model as hm

    cfg = tiny_hybrid(L=3, I_attn=(0, 2), vocab=256)  # cloze tokens lie below 248
    model = with_scaling(init_model(cfg, seed=24), scale_base)
    samples = gen_csr_proxy(seed=3, n=5)
    rows = []
    real = hm._advance

    def counting(model, tokens, session, *args, **kwargs):
        rows.append(np.asarray(tokens).shape[0])
        return real(model, tokens, session, *args, **kwargs)

    monkeypatch.setattr(hm, "_advance", counting)
    ref = _FullRows(model).choice_logprobs(samples.prefixes, samples.choices)
    rows.clear()
    got = model.choice_logprobs(samples.prefixes, samples.choices)
    assert got.shape == (5, 4)
    assert rows == [5, 5 * 4]  # one prefix pass, one continuation pass
    assert max_rel_err(got, ref) < tol
    np.testing.assert_array_equal(got.argmax(axis=1), ref.argmax(axis=1))
    for eval_batch in (1, 3, 4, 6, 16):
        monkeypatch.setattr(evals, "EVAL_BATCH", eval_batch)
        rows.clear()
        got_csr = score_csr(model, samples)
        # score_csr passes at most EVAL_BATCH // 4 samples (at least one) per call
        assert max(rows) == 4 * max(1, eval_batch // 4)
        assert got_csr == score_csr(_FullRows(model), samples)
    # one-token continuations come from the prefix pass alone
    one = choice_logprobs(model, samples.prefixes, samples.choices[..., :1])
    ref_one = reference_choice_logprobs(_FullRows(model), samples.prefixes,
                                        samples.choices[..., :1])
    assert max_rel_err(one, ref_one) < tol


# --------------------------------------------------------------------------
# tied embeddings

def test_tied_embeddings_share_storage():
    model = init_model(tiny_hybrid(), seed=13)
    before = forward(model, np.array([[1, 2]])).data.copy()
    model.embed.data[5] += 1.0
    after = forward(model, np.array([[1, 2]])).data
    assert not np.array_equal(before, after)


# --------------------------------------------------------------------------
# hybrid surgery

def teacher_model(seed=0, **over):
    cfg = dict(TINY, L=4)
    cfg.update(over)
    return init_model(transformer_config(**cfg), seed=seed)


def test_hybrid_all_attention_is_teacher_plus_gates():
    teacher = teacher_model(seed=14)
    hyb = init_hybrid_from_teacher(teacher, range(4), seed=1)
    assert hyb.cfg.I_attn == (0, 1, 2, 3)
    for tl, hl in zip(teacher.layers, hyb.layers):
        np.testing.assert_array_equal(tl.mixer.w_q.data, hl.mixer.w_q.data)
        assert hl.mixer.w_z is not None and tl.mixer.w_z is None
    assert teacher.cfg.arch == "transformer" and hyb.cfg.arch == "hypenet"


def test_hybrid_rnn_projections_are_bit_copies():
    teacher = teacher_model(seed=15)
    hyb = init_hybrid_from_teacher(teacher, I_attn=(0,), seed=2)
    for l in range(1, 4):
        tw, hw = teacher.layers[l].mixer, hyb.layers[l].mixer
        assert l not in hyb.cfg.I_attn
        np.testing.assert_array_equal(hw.w_q.data, tw.w_q.data)
        # cloned KV: head i of hybrid equals teacher head i//g
        g = tw.group_size
        d = tw.d
        tk = tw.w_k.data.reshape(d, tw.n_kv_heads, tw.d_h)
        hk = hw.w_k.data.reshape(d, hw.n_h, hw.d_h)
        for i in range(hw.n_h):
            np.testing.assert_array_equal(hk[:, i], tk[:, i // g])


def test_hybrid_param_count_delta_matches_closed_form():
    teacher = teacher_model(seed=16)
    I_attn = (0, 2)
    hyb = init_hybrid_from_teacher(teacher, I_attn, seed=3)
    cfg = teacher.cfg
    d, d_h, n_h, n_kv = cfg.d, cfg.d_h, cfg.n_h, cfg.n_kv_heads
    g = n_h // n_kv
    n_rnn = cfg.L - len(I_attn)
    gate_params = d * n_h * d_h + n_h * d_h          # w_z + out_gain, every layer
    clone_growth = (g - 1) * n_kv * d * d_h * 2 + (g - 1) * n_kv * d_h
    expected = teacher.num_params() + cfg.L * gate_params + n_rnn * clone_growth
    assert hyb.num_params() == expected


def test_hybrid_rejects_rnn_teacher():
    """Only a transformer converts, so a hypenet is refused even when every
    layer is attention."""
    for I_attn in ((0,), (0, 1)):
        hybrid = init_model(tiny_hybrid(I_attn=I_attn), seed=0)
        with pytest.raises(ConfigError, match="must be a transformer"):
            init_hybrid_from_teacher(hybrid, (0,))


def test_teacher_untouched_by_surgery():
    teacher = teacher_model(seed=17)
    before = teacher.state_bytes()
    init_hybrid_from_teacher(teacher, (1, 3), seed=4)
    assert teacher.state_bytes() == before


# --------------------------------------------------------------------------
# the MLP record

def _composed_mlp(m, w_gate, w_up, w_down):
    """The SwiGLU MLP as the ops it is made of, each recorded on its own."""
    return T.matmul(T.mul(T.silu(T.matmul(m, w_gate)), T.matmul(m, w_up)), w_down)


def _mlp_operands(mode, shape=(2, 3, 5), x_grad=True, seed=23):
    """An input x of `shape`, a norm gain and the weights w_gate, w_up
    [d, 4] and w_down [4, d]."""
    T.set_precision(mode)
    rng = Rng(seed)
    d, f = shape[-1], 4
    x = T.Tensor(rng.normal(shape), requires_grad=x_grad)
    gain = T.Tensor(rng.normal((d,)), requires_grad=True)
    ws = [T.Tensor(rng.normal(s), requires_grad=True) for s in ((d, f), (d, f), (f, d))]
    return x, gain, ws


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("shape", [(2, 3, 5), (3, 5)], ids=["rows_3d", "rows_2d"])
@pytest.mark.parametrize("x_grad", [True, False], ids=["norm_output", "weights_only"])
def test_mlp_record_is_bitwise_the_composition(mode, shape, x_grad):
    """The output and every gradient equal the composition's, recorded op by
    op on a tape, bit for bit: with the input a norm output that needs grad
    (kept as its recipe) and with a constant input while only the weights
    need grad."""
    x, gain, ws = _mlp_operands(mode, shape, x_grad)
    r = T.Tensor(Rng(24).normal(shape))
    leaves = [x, gain, *ws] if x_grad else ws

    def run(mlp):
        for t in leaves:
            t.grad = None
        with T.Tape() as tape:
            m = T.rmsnorm(x, gain) if x_grad else x
            y = mlp(m, *ws)
            loss = T.sum_all(T.mul(T.add(x, y), r))
        tape.backward(loss)
        return [y.data, *(t.grad for t in leaves)]

    for got, want in zip(run(_swiglu), run(_composed_mlp), strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("arg", [0, 1, 2, 3], ids=["m", "w_gate", "w_up", "w_down"])
def test_mlp_record_finite_diff(arg):
    """Each input's gradient, while the other three need none, passes the
    oracle in f64."""
    rng = Rng(25)
    operands = [T.tensor(rng.normal(s)) for s in ((2, 3, 4), (4, 3), (4, 3), (3, 4))]
    r = T.tensor(rng.normal((2, 3, 4)))

    def f(t):
        args = list(operands)
        args[arg] = t
        # the linear term keeps every gradient entry away from zero
        return T.add(T.sum_all(T.mul(_swiglu(*args), r)), T.mul_const(T.sum_all(t), 0.5))

    assert T.finite_diff_check(f, operands[arg], step=1e-4) < 1e-6


def test_mlp_record_without_a_tape_or_under_no_record_keeps_nothing():
    """With no tape, inside no_record, and on a tape when no input requires
    grad, nothing is recorded and the output is the composition's."""
    x, _, ws = _mlp_operands("extended")
    ref = _composed_mlp(x, *ws).data
    untaped = _swiglu(x, *ws)
    with T.Tape() as tape:
        with T.no_record():
            frozen = _swiglu(x, *ws)
        constant = _swiglu(*(t.detach() for t in (x, *ws)))
    assert tape._records == []
    for out in (untaped, frozen, constant):
        assert out._tape is None and not out.requires_grad
        np.testing.assert_array_equal(out.data, ref)


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_mlp_record_keeps_only_its_inputs_recipe_and_its_weights(mode):
    """The record's inputs are the norm output (a node) and the weights
    (leaves), and it holds only the norm's recipe, whose one array beyond
    the parameters is the inverse norm, and the three weights.  So the norm
    output, the activations and the output are freed once the caller drops
    them."""
    import weakref

    x, gain, ws = _mlp_operands(mode)
    with T.Tape() as tape:
        m = T.rmsnorm(x, gain)
        y = _swiglu(m, *ws)
        m_buf, y_buf = weakref.ref(m.data), weakref.ref(y.data)
        assert [src for src, _ in tape._records[-1]] == [m._node, *ws]
        del m, y
    assert m_buf() is None and y_buf() is None

    class LastRecord:
        _records = tape._records[-1:]

    inverse_norm = 2 * 3 * np.dtype(T.active_dtype()).itemsize
    assert tape_held_bytes(LastRecord, [x, gain, *ws]) == inverse_norm
    assert (tape_held_bytes(LastRecord, [x, gain])
            == inverse_norm + sum(w.data.nbytes for w in ws))


# --------------------------------------------------------------------------
# tape memory

@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_training_tape_keeps_no_gated_product(mode, monkeypatch):
    """Per layer, the tape holds neither the gated mixer output o * sigmoid(z)
    ([B, T, n_h * d_h]) nor its two factors (each kept as a recipe):
    against a ``mul`` that keeps both factors' arrays and builds no recipe,
    so that the output projection keeps the product, it holds exactly three
    [B, T, n_h * d_h] arrays less per layer.  Either way the MLP record
    keeps no ffn_width-wide array."""
    import hybridkit.mixers as mixers

    monkeypatch.setattr(mixers, "_CHUNK", 4)
    T.set_precision(mode)
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    assert cfg.ffn_width not in (cfg.d, cfg.n_h * cfg.d_h, cfg.vocab)
    model = init_model(cfg, seed=27)
    B, t = 2, 9
    tokens = Rng(14).integers(0, cfg.vocab, size=(B, t))

    def held():
        with T.Tape() as tape:
            loss = T.sum_all(forward(model, tokens))
        arrays = tape_held_arrays(tape, [*model.parameters(), *cached_tables()])
        assert not any(a.shape[-1:] == (cfg.ffn_width,) for a in arrays.values())
        tape.backward(loss)
        return sum(a.nbytes for a in arrays.values())

    def array_mul(a, b):
        A, B = a.data, b.data
        return T.emit(A * B, [(a, lambda g: g * B), (b, lambda g: g * A)])

    rebuilt = held()
    monkeypatch.setattr(T, "mul", array_mul)
    kept = held()
    itemsize = np.dtype(T.active_dtype()).itemsize
    assert kept - rebuilt == cfg.L * B * t * 3 * cfg.n_h * cfg.d_h * itemsize


def _per_token_tape_bytes(cfg, B: int) -> int:
    """What a training tape holds per token of `forward`, by design: the
    residual stream and the inverse norms.  That is each residual norm's
    input and inverse norm (the final norm, and per layer the pre-mixer and
    pre-MLP norms), per layer the QK norms' inverse norms and a gated
    mixer's output-norm inverse norm, and the token id.  Each attention
    layer adds one scale factor per position, for the whole batch.  Every
    other array is rebuilt: no projection output, norm output, rotated q or
    k, gate sigmoid, core output or merged output heads, and nothing of the
    SwiGLU MLP, whose record keeps only the pre-MLP norm's recipe and its
    weights."""
    item = np.dtype(T.active_dtype()).itemsize
    elems = cfg.d + 1  # final norm
    for l in range(cfg.L):
        attn = l in cfg.I_attn
        n_kv = cfg.n_kv_heads if attn else cfg.n_h
        gated = not attn or cfg.arch == "hypenet"
        elems += 2 * (cfg.d + 1)  # pre-mixer and pre-MLP norms
        elems += cfg.n_h + n_kv  # QK norms
        elems += cfg.n_h if gated else 0  # output norm
    return B * (elems * item + 8) + len(cfg.I_attn) * item


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("arch", ["transformer", "hypenet"])
def test_training_tape_holds_exact_bytes_per_token_and_no_rebuildable_output(
        mode, arch, monkeypatch):
    """The tape after a forward grows by exactly `_per_token_tape_bytes`
    per token, over several Lightning chunks and attention query blocks,
    and no record holds an array that backward rebuilds: the q, k, v and
    gate projections (every recorded ``matmul`` output), norm outputs
    (h_in, m_in, the final norm, QK and output norms), rotated q and k, the
    scaled attention q, the gate sigmoids, either core's output, or merged
    output heads.  Each of them carries a recipe."""
    import hybridkit.mixers as mixers

    monkeypatch.setattr(mixers, "_CHUNK", 4)
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    cfg = (transformer_config(**TINY, L=2) if arch == "transformer"
           else tiny_hybrid(L=3, I_attn=(1,)))
    model = init_model(cfg, seed=28)
    B = 2
    rebuilt = []

    def collect(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tensor = out[0] if isinstance(out, tuple) else out  # the Lightning core's state
            if tensor.requires_grad:  # recorded, not a GEMM run under no_record
                rebuilt.append(tensor)
            return out
        return wrapper

    for owner, name in ((T, "matmul"), (T, "rmsnorm"), (T, "mul_const"), (T, "sigmoid"),
                        (mixers, "rope_apply"), (mixers, "_merge_heads"),
                        (mixers, "_causal_attention"), (mixers, "_lightning_chunks")):
        monkeypatch.setattr(owner, name, collect(getattr(owner, name)))

    def held(t):
        rebuilt.clear()
        tokens = Rng(15).integers(0, cfg.vocab, size=(B, t))
        with T.Tape() as tape:
            forward(model, tokens, scale_base=None)
        arrays = tape_held_arrays(tape, [*model.parameters(), *cached_tables()])
        assert rebuilt and all(r._recipe is not None for r in rebuilt)
        assert not any(id(_base_array(r.data)) in arrays for r in rebuilt)
        return sum(a.nbytes for a in arrays.values())

    t1, t2 = 6, 13
    per_token = _per_token_tape_bytes(cfg, B)
    # worked by hand: 2 x (97 or 153 floats + an 8-byte id) + one scale per attention layer
    assert per_token == {("transformer", "standard"): 800, ("transformer", "extended"): 1584,
                         ("hypenet", "standard"): 1244, ("hypenet", "extended"): 2472}[arch, mode]
    assert held(t2) - held(t1) == (t2 - t1) * per_token


def _assert_bitwise_as_built_and_fully_kept(monkeypatch, run):
    """run() -> (loss, grads) gives the same arrays, bit for bit, as built
    and with ``T.keep`` patched to keep every array, so that backward
    rebuilds nothing."""
    loss, grads = run()
    with monkeypatch.context() as m:
        m.setattr(T, "keep", lambda x: x.data)
        loss_kept, grads_kept = run()
    np.testing.assert_array_equal(loss, loss_kept)
    for g, g_kept in zip(grads, grads_kept, strict=True):
        np.testing.assert_array_equal(g, g_kept)


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("arch", ["transformer", "hypenet"])
def test_rebuilt_arrays_give_the_kept_arrays_loss_and_gradients_bit_for_bit(
        mode, arch, monkeypatch):
    """A cross-entropy forward and backward over several chunks and query
    blocks gives the same loss and every parameter gradient, bit for bit,
    whether the tape rebuilds its arrays or keeps them all."""
    import hybridkit.mixers as mixers

    monkeypatch.setattr(mixers, "_CHUNK", 4)
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    T.set_precision(mode)
    cfg = (transformer_config(**TINY, L=2) if arch == "transformer"
           else tiny_hybrid(L=3, I_attn=(1,)))
    model = init_model(cfg, seed=32)
    tokens = Rng(19).integers(0, cfg.vocab, size=(2, 12))

    def run():
        for p in model.parameters():
            p.grad = None
        with T.Tape() as tape:
            loss = T.cross_entropy(forward(model, tokens[:, :-1], scale_base=None),
                                   tokens[:, 1:])
        tape.backward(loss)
        return loss.data, [p.grad for p in model.parameters()]

    _assert_bitwise_as_built_and_fully_kept(monkeypatch, run)


def test_a_desk_distillation_step_is_bitwise_the_fully_kept_tapes(monkeypatch):
    """One stage-2 step at the desk config (seed 1, B = 2, T = 256, f32):
    the KL loss and every gradient are the fully kept tape's bit for bit."""
    from hybridkit.data import StreamConfig, TokenStream

    T.set_precision("standard")
    teacher = init_model(transformer_config(), seed=1)
    hybrid = init_hybrid_from_teacher(teacher, (0, 4), seed=1)
    x = TokenStream(StreamConfig(kind="niah_mix", context_len=256, batch_size=2,
                                 seed=1)).batch(0)[:, :-1]
    ref = forward(teacher, x).data

    def run():
        for p in hybrid.parameters():
            p.grad = None
        with T.Tape() as tape:
            loss = T.kl_divergence(ref, forward(hybrid, x, scale_base=None))
        tape.backward(loss)
        return loss.data, [p.grad for p in hybrid.parameters()]

    _assert_bitwise_as_built_and_fully_kept(monkeypatch, run)


def test_a_desk_distillation_step_runs_each_lightning_recurrence_twice(monkeypatch):
    """A stage-2 step at the desk config (T = 256: four chunks, six Lightning
    layers) runs the chunk recurrence once per Lightning layer in the
    forward and once in backward, in the scan that rebuilds the core's
    output: 48 state updates, every one inside ``_lightning_scan``."""
    import hybridkit.mixers as mixers
    from hybridkit.data import StreamConfig, TokenStream

    T.set_precision("standard")
    teacher = init_model(transformer_config(), seed=1)
    hybrid = init_hybrid_from_teacher(teacher, (0, 4), seed=1)
    x = TokenStream(StreamConfig(kind="niah_mix", context_len=256, batch_size=1,
                                 seed=1)).batch(0)[:, :-1]
    calls = []  # per state update, whether a scan made it
    real_state, in_scan = mixers._next_state, mark_lightning_scans(monkeypatch)

    def next_state(*args):
        calls.append(bool(in_scan))
        return real_state(*args)

    monkeypatch.setattr(mixers, "_next_state", next_state)
    ref = forward(teacher, x).data
    with T.Tape() as tape:
        loss = T.kl_divergence(ref, forward(hybrid, x, scale_base=None))
    assert calls == [True] * 24
    tape.backward(loss)
    assert calls == [True] * 48


def _matmul_flop_in_backward(monkeypatch, model, tokens) -> tuple[int, int]:
    """FLOP of the ``T.matmul`` calls a taped forward's backward makes: in
    all, and the part made inside ``mixers._lightning_scan``."""
    flop, scan_flop, in_backward = [], [], []
    real = T.matmul

    def matmul(a, b):
        out = real(a, b)
        if in_backward:
            (scan_flop if in_scan else flop).append(2 * out.data.size * a.shape[-1])
        return out

    with monkeypatch.context() as m:
        in_scan = mark_lightning_scans(m)
        m.setattr(T, "matmul", matmul)
        with T.Tape() as tape:
            loss = T.sum_all(forward(model, tokens, scale_base=None))
        in_backward.append(True)
        tape.backward(loss)
    return sum(flop) + sum(scan_flop), sum(scan_flop)


def test_backward_rebuilds_the_projections_and_core_outputs_with_their_forward_gemms(
        monkeypatch):
    """The ``T.matmul`` FLOP that backward adds by rebuilding, against a tape
    that keeps every array, is exactly one pass of the q, k, v and gate
    projections and of the attention core's forward GEMMs: per query block
    the scores and the probabilities times V.  Either way, backward runs
    each Lightning core's forward GEMMs exactly once, in the scan that
    rebuilds its output and hands its chunk states to the core's gradient:
    per chunk the inter-chunk product, the scores, the scores times V and
    the state update."""
    import hybridkit.mixers as mixers

    monkeypatch.setattr(mixers, "_CHUNK", 4)
    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 4)
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=33)
    B, t = 2, 9
    tokens = Rng(20).integers(0, cfg.vocab, size=(B, t))
    d, d_h, n_h = cfg.d, cfg.d_h, cfg.n_h

    expected = scan = 0
    for l in range(cfg.L):
        n_kv, gated = mixer_layout(cfg, l)
        expected += 2 * B * t * d * (n_h + 2 * n_kv + (n_h if gated else 0)) * d_h
        if l in cfg.I_attn:
            for row0 in range(0, t, 4):
                rows = min(4, t - row0)
                expected += 2 * (2 * B * n_h * rows * (row0 + rows) * d_h)
        else:
            for lo in range(0, t, 4):
                c = min(4, t - lo)
                scan += 2 * B * n_h * (c * d_h * d_h + 2 * c * c * d_h + d_h * c * d_h)

    built, built_scan = _matmul_flop_in_backward(monkeypatch, model, tokens)
    monkeypatch.setattr(T, "keep", lambda x: x.data)
    kept, kept_scan = _matmul_flop_in_backward(monkeypatch, model, tokens)
    assert built - kept == expected
    assert built_scan == kept_scan == scan


def test_backward_computes_each_gate_sigmoid_once(monkeypatch):
    """A gate's sigmoid is rebuilt once in backward, and that one array
    serves both the sigmoid's record and the gated output projection's:
    ``T._sigmoid_np`` runs once per gated layer on the gate's width, beside
    the MLP record's one run per layer on ffn_width."""
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    assert cfg.ffn_width != cfg.n_h * cfg.d_h
    model = init_model(cfg, seed=34)
    tokens = Rng(21).integers(0, cfg.vocab, size=(2, 9))
    widths, in_backward = [], []
    real = T._sigmoid_np

    def sigmoid_np(x):
        if in_backward:
            widths.append(x.shape[-1])
        return real(x)

    monkeypatch.setattr(T, "_sigmoid_np", sigmoid_np)
    with T.Tape() as tape:
        loss = T.sum_all(forward(model, tokens, scale_base=None))
    in_backward.append(True)
    tape.backward(loss)
    gated = sum(mixer_layout(cfg, l)[1] for l in range(cfg.L))
    assert sorted(widths) == sorted([cfg.n_h * cfg.d_h] * gated + [cfg.ffn_width] * cfg.L)


def test_rebuilt_arrays_are_freed_once_their_layers_backward_has_run(monkeypatch):
    """A recipe runs once and keeps its result only while records that hold
    it remain: when backward reaches the op just before layer 1, every
    array rebuilt for layer 1, the final norm and the unembedding is gone,
    and layer 0's are gone when backward returns."""
    import weakref

    T.set_precision("standard")
    model = init_model(tiny_hybrid(L=2, I_attn=(0,)), seed=29)
    tokens = Rng(16).integers(0, model.cfg.vocab, size=(2, 9))
    made = []  # a weakref per rebuilt array, in the order they were made
    real_call, real_norm = T.Recipe.__call__, T.rmsnorm

    def call(self):
        fresh = self._value is None
        out = real_call(self)
        if fresh:  # a Lightning core's scan is (output, chunk states)
            arrays = [out[0], *out[1]] if isinstance(out, tuple) else [out]
            made.extend(weakref.ref(a) for a in arrays)
        return out

    alive_before_layer_0 = []

    def probe(g):
        alive_before_layer_0.extend(r() is not None for r in made)
        return g

    def norm(x, gain, *args):
        if gain is model.layers[1].pre_mixer_gain:
            x = T.emit(x.data, [(x, probe)])
        return real_norm(x, gain, *args)

    monkeypatch.setattr(T.Recipe, "__call__", call)
    monkeypatch.setattr(T, "rmsnorm", norm)
    with T.Tape() as tape:
        loss = T.sum_all(forward(model, tokens, scale_base=None))
    tape.backward(loss)
    assert alive_before_layer_0 and not any(alive_before_layer_0)
    assert len(made) > len(alive_before_layer_0)
    assert all(r() is None for r in made)


def test_backward_holds_one_layers_recomputed_mlp_at_a_time(monkeypatch):
    """The arrays backward makes for layer l's MLP through ``T.matmul`` and
    ``T._sigmoid_np`` (the gate pre-activation, its sigmoid and the up
    projection, each [B, T, ffn_width]) are all freed by the time backward
    leaves layer l, before any record of layer l - 1 runs, and none is left
    when it returns."""
    import weakref

    T.set_precision("standard")
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=30)
    tokens = Rng(17).integers(0, cfg.vocab, size=(2, 9))
    layer_of = {id(w.data): l for l, lw in enumerate(model.layers)
                for w in (lw.mlp.w_gate, lw.mlp.w_up)}
    made = {l: [] for l in range(cfg.L)}  # weakrefs to each layer's recomputed arrays
    current = []  # the layer whose MLP backward is recomputing
    in_backward = []
    real_matmul, real_sigmoid, real_norm = T.matmul, T._sigmoid_np, T.rmsnorm

    def note(arr):
        if current and arr.shape[-1] == cfg.ffn_width:
            made[current[-1]].append(weakref.ref(arr))
        return arr

    def matmul(a, b):
        out = real_matmul(a, b)
        if in_backward and id(b.data) in layer_of:
            current[:] = [layer_of[id(b.data)]]
            note(out.data)
        return out

    alive_leaving = {}  # layer -> liveness of the arrays made for it and above

    def probe(l):
        def vjp(g):
            alive_leaving[l] = [r() is not None for k in range(l, cfg.L) for r in made[k]]
            return g
        return vjp

    def norm(x, gain, *args):
        for l, lw in enumerate(model.layers):
            if gain is lw.pre_mixer_gain:
                x = T.emit(x.data, [(x, probe(l))])
        return real_norm(x, gain, *args)

    monkeypatch.setattr(T, "matmul", matmul)
    monkeypatch.setattr(T, "_sigmoid_np", lambda x: note(real_sigmoid(x)))
    monkeypatch.setattr(T, "rmsnorm", norm)
    with T.Tape() as tape:
        loss = T.sum_all(forward(model, tokens, scale_base=None))
    in_backward.append(True)
    tape.backward(loss)
    assert [len(made[l]) for l in range(cfg.L)] == [3] * cfg.L
    assert sorted(alive_leaving) == list(range(cfg.L))
    assert not any(any(alive) for alive in alive_leaving.values())
    assert all(r() is None for refs in made.values() for r in refs)


def test_backward_recomputes_the_gate_and_up_gemms_and_never_w_downs(monkeypatch):
    """During backward of a taped hybrid forward, ``T.matmul`` runs exactly
    two MLP GEMMs per layer, one layer at a time: the gate and up
    projections.  None runs against w_down, so the MLP's output is never
    rebuilt."""
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=31)
    tokens = Rng(18).integers(0, cfg.vocab, size=(2, 9))
    names = ("w_gate", "w_up", "w_down")
    weight_of = {id(getattr(lw.mlp, n).data): (l, n)
                 for l, lw in enumerate(model.layers) for n in names}
    seen, in_backward = [], []
    real_matmul = T.matmul

    def matmul(a, b):
        if in_backward and id(b.data) in weight_of:
            seen.append(weight_of[id(b.data)])
        return real_matmul(a, b)

    monkeypatch.setattr(T, "matmul", matmul)
    with T.Tape() as tape:
        loss = T.sum_all(forward(model, tokens, scale_base=None))
    in_backward.append(True)
    tape.backward(loss)
    assert seen == [(l, n) for l in reversed(range(cfg.L)) for n in ("w_gate", "w_up")]


# --------------------------------------------------------------------------
# chunked prefill

# tiny tilings, so that short prompts span several chunks: the chunk width
# is _PREFILL_ROWS // B tokens rounded down to a multiple of lcm(8, 4) = 8
CHUNK_WIDTH = {1: 24, 3: 8}  # B -> tokens per chunk at _PREFILL_ROWS = 24


@pytest.fixture
def small_chunks(monkeypatch):
    from hybridkit import mixers, model as hm

    monkeypatch.setattr(mixers, "_QUERY_BLOCK", 8)
    monkeypatch.setattr(mixers, "_CHUNK", 4)
    monkeypatch.setattr(hm, "_PREFILL_ROWS", 24)


def _session_arrays(session):
    """Every array a session holds, KV capacity and positions included."""
    out = [np.array(session.pos)]
    for st in session.states:
        if isinstance(st, KvCache):
            out += [st.k, st.v, np.array(st._k.shape[2])]
        else:
            out += [st.s, np.array(st.pos)]
    return out


@pytest.mark.parametrize("precision", ["extended", "standard"], ids=["f64", "f32"])
@pytest.mark.parametrize("arch", ["transformer", "hypenet"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("start", [0, 5], ids=["aligned", "unaligned"])
def test_chunked_prefill_is_bit_identical_to_one_pass(small_chunks, precision, arch, B, start):
    """prefill in chunks against one `_advance` over the same tokens, from a
    fresh session or one that starts at an unaligned position (as the
    continuation of `choice_logprobs` does): equal logits, caches (capacity
    too), RNN states and positions, and an equal next decode step."""
    from hybridkit.model import _advance

    T.set_precision(precision)
    if arch == "transformer":
        cfg = transformer_config(L=2, **TINY)
    else:  # Lightning first and last, so last_only ends in an RNN layer
        cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=31)
    chunk = CHUNK_WIDTH[B]
    rng = Rng(8)
    head = rng.child(0).integers(0, cfg.vocab, size=(B, max(start, 1)))
    for t in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        toks = rng.child(t).integers(0, cfg.vocab, size=(B, t))
        nxt = rng.child(100 + t).integers(0, cfg.vocab, size=(B, 1))
        for last_only in (False, True):
            sessions = [new_session(model, batch=B) for _ in range(2)]
            if start:
                for sess in sessions:
                    _advance(model, head, sess)
            ref = _advance(model, toks, sessions[0], last_only=last_only).data
            got = prefill(model, sessions[1], toks, last_only=last_only).data
            np.testing.assert_array_equal(got, ref)
            for a, b in zip(_session_arrays(sessions[1]), _session_arrays(sessions[0]),
                            strict=True):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(_advance(model, nxt, sessions[1]).data,
                                          _advance(model, nxt, sessions[0]).data)


@pytest.mark.parametrize("precision", ["extended", "standard"], ids=["f64", "f32"])
def test_chunked_prefill_at_desk_widths_keeps_few_row_pieces_out_of_the_gemms(
        monkeypatch, precision):
    """At the desk model's widths, OpenBLAS sums a GEMM of one to five rows
    in another order than a wide one (the MLP's [.., 768] x [768, 256] among
    them), so a last piece of a few tokens must join the chunk before it."""
    from hybridkit import model as hm

    T.set_precision(precision)
    monkeypatch.setattr(hm, "_PREFILL_ROWS", 128)  # one query block per chunk
    model = init_model(transformer_config(L=2), seed=6)
    for t in (129, 133, 256 + 5):
        toks = Rng(t).integers(0, model.cfg.vocab, size=(1, t))
        ref = hm._advance(model, toks, new_session(model)).data
        np.testing.assert_array_equal(prefill(model, new_session(model), toks).data, ref)


@pytest.mark.parametrize("rows, block, chunk, B, t, widths", [
    (24, 8, 4, 1, 56, [24, 24, 8]),   # the rows per chunk, in whole blocks
    (20, 8, 4, 1, 40, [16, 16, 8]),   # rounded down to a whole block
    (24, 8, 4, 1, 49, [24, 25]),      # a piece under one block joins the last chunk
    (24, 8, 4, 3, 24, [8, 8, 8]),     # rows // B tokens per row
    (4, 8, 4, 3, 24, [8, 8, 8]),      # at least one block
    (48, 8, 12, 1, 72, [48, 24]),     # a multiple of the Lightning chunk too
    (24, 8, 4, 1, 31, [31]),          # a prompt of one chunk is one pass
])
def test_prefill_chunk_widths(monkeypatch, rows, block, chunk, B, t, widths):
    from hybridkit import mixers, model as hm

    monkeypatch.setattr(mixers, "_QUERY_BLOCK", block)
    monkeypatch.setattr(mixers, "_CHUNK", chunk)
    monkeypatch.setattr(hm, "_PREFILL_ROWS", rows)
    seen = []
    advance = hm._advance

    def spy(model, tokens, session, **kw):
        seen.append(tokens.shape[1])
        return advance(model, tokens, session, **kw)

    monkeypatch.setattr(hm, "_advance", spy)
    model = init_model(tiny_hybrid(), seed=3)
    prefill(model, new_session(model, batch=B), np.zeros((B, t), dtype=np.int64))
    assert seen == widths


def test_prefill_refuses_a_bad_id_in_a_later_chunk_before_any_token_runs(small_chunks):
    model = init_model(tiny_hybrid(), seed=4)
    toks = np.zeros((1, 60), dtype=np.int64)
    toks[0, 50] = model.cfg.vocab
    sess = new_session(model)
    before = [a.copy() for a in _session_arrays(sess)]
    with pytest.raises(IndexError, match="token id out of range"):
        prefill(model, sess, toks)
    for a, b in zip(_session_arrays(sess), before, strict=True):
        np.testing.assert_array_equal(a, b)


def test_last_only_prefill_peak_is_one_chunk_not_the_prompt(small_chunks):
    """A last-only prefill holds one chunk's activations: its tracemalloc
    peak, less the session's KV bytes, stays below two [B, T, ffn_width]
    arrays (one pass over the prompt holds about 4.5)."""
    import tracemalloc

    cfg = tiny_hybrid(L=2, I_attn=(0,), ffn_width=1024)
    model = init_model(cfg, seed=5)
    B, t = 2, 512
    toks = Rng(9).integers(0, cfg.vocab, size=(B, t))
    sess = new_session(model, batch=B)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prefill(model, sess, toks, last_only=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kv = sum(st._k.nbytes + st._v.nbytes for st in sess.states if isinstance(st, KvCache))
    ffn_array = B * t * cfg.ffn_width * np.dtype(T.active_dtype()).itemsize
    assert peak - kv < 2 * ffn_array


# --------------------------------------------------------------------------
# misc

def test_config_validation():
    with pytest.raises(ConfigError):
        desk_config(L=2, I_attn=(5,), **TINY)
    with pytest.raises(ConfigError):
        desk_config(L=2, I_attn=(1, 0), **TINY)
    with pytest.raises(ConfigError, match="^arch must be"):
        desk_config(L=2, I_attn=(0,), arch="rope", **TINY)
    with pytest.raises(ConfigError, match="^I_attn .* skips a layer"):
        desk_config(L=2, I_attn=(0,), arch="transformer", **TINY)
    for bad in (dict(n_kv_heads=0), dict(vocab=True), dict(L=-1, I_attn=())):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            desk_config(**{**TINY, "L": 2, "I_attn": (0,), **bad})


def test_model_copy_is_deep():
    model = init_model(tiny_hybrid(), seed=19)
    clone = model.copy()
    clone.embed.data[0] += 1.0
    assert not np.array_equal(clone.embed.data[0], model.embed.data[0])
