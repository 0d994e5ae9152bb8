"""Model stack: composition against module oracles, capture, decode, surgery."""

import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.evals import gen_csr_proxy, score_csr
from hybridkit.mixers import KvCache
from hybridkit.model import (DecodeSession, Model, ModelConfig, choice_logprobs,
                             capture_many, decode_step, desk_config, forward,
                             generate_greedy, init_hybrid_from_teacher,
                             init_model, mean_nll, new_session, prefill,
                             transformer_config)
from hybridkit.positional import RopeParams, ScaleBase
from hybridkit.tensor import ConfigError, Rng

from conftest import max_rel_err, reference_choice_logprobs
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
    logits = forward(model, toks).data
    e = model.embed.data[toks]
    normed = e / np.sqrt((e * e).mean(-1, keepdims=True) + 1e-6)
    ref = normed @ model.embed.data.T
    assert max_rel_err(logits, ref) < 1e-12


def test_token_swap_changes_logits_rnn_rope_model():
    cfg = desk_config(L=1, I_attn=(), **TINY)
    model = init_model(cfg, seed=1)
    a = forward(model, np.array([5, 9, 5, 9])).data
    b = forward(model, np.array([9, 5, 5, 9])).data
    assert np.abs(a[-1] - b[-1]).max() > 1e-8  # position information present


def test_two_layer_forward_matches_composed_oracle():
    """Straight-line reference: embedding, norms, mixer oracles, SwiGLU MLP."""
    cfg = tiny_hybrid(attn_gate=True)
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

    got = forward(model, toks).data
    assert max_rel_err(got, ref) < 1e-8


def test_forward_rejects_out_of_range_ids():
    model = init_model(tiny_hybrid(), seed=0)
    with pytest.raises(IndexError):
        forward(model, np.array([0, 99]))


@pytest.mark.parametrize("shape", [(0,), (1, 0), (0, 3)])
def test_forward_and_prefill_reject_zero_tokens(shape):
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
    x_in, _ = capture_many(model, toks, [0])[0]
    e = model.embed.data[toks]
    ref = e / np.sqrt((e * e).mean(-1, keepdims=True) + 1e-6) * model.layers[0].pre_mixer_gain.data
    assert max_rel_err(x_in.data[0], ref) < 1e-12


def test_capture_residual_identity():
    """X_after_mixer - mixer_output must equal the captured block input's
    residual stream, recomputed offline."""
    model = init_model(tiny_hybrid(), seed=4)
    toks = np.array([1, 5, 8, 8])
    x_in, y_mix = capture_many(model, toks, [1])[1]
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
    toks = np.array([0, 1, 2, 3, 4])
    plain = forward(model, toks).data
    _ = capture_many(model, toks, [1])
    again = forward(model, toks).data
    np.testing.assert_array_equal(plain, again)


def test_capture_layer_out_of_range():
    model = init_model(tiny_hybrid(), seed=5)
    for layers in ([2], [0, 2], [-1]):
        with pytest.raises(IndexError, match="out of range"):
            capture_many(model, np.array([1, 2]), layers)


# --------------------------------------------------------------------------
# decode

def test_decode_first_step_equals_single_token_forward():
    model = init_model(tiny_hybrid(), seed=6)
    sess = new_session(model)
    logits = decode_step(model, sess, 7).data
    ref = forward(model, np.array([7])).data[0]
    assert max_rel_err(logits, ref) < 1e-12


def test_incremental_decode_matches_full_forward():
    cfg = tiny_hybrid(L=4, I_attn=(0, 2), attn_gate=True)
    model = init_model(cfg, seed=8)
    rng = Rng(0)
    toks = rng.integers(0, cfg.vocab, size=33)
    full = forward(model, toks).data
    sess = new_session(model)
    step_logits = [decode_step(model, sess, int(t)).data for t in toks]
    assert max_rel_err(np.array(step_logits), full) < 1e-8


def test_prefill_then_decode_matches_full_forward():
    cfg = tiny_hybrid(L=4, I_attn=(0, 2))
    model = init_model(cfg, seed=9)
    toks = Rng(1).integers(0, cfg.vocab, size=21)
    full = forward(model, toks).data
    sess = new_session(model)
    pre = prefill(model, sess, toks[:13]).data
    assert max_rel_err(pre[-1], full[12]) < 1e-8
    for i, t in enumerate(toks[13:]):
        out = decode_step(model, sess, int(t)).data
        assert max_rel_err(out, full[13 + i]) < 1e-8


def test_greedy_decode_equals_repeated_full_forward():
    cfg = tiny_hybrid(L=3, I_attn=(1,))
    model = init_model(cfg, seed=10)
    prompt = Rng(2).integers(0, cfg.vocab, size=12)
    got = generate_greedy(model, prompt, n_new=32)[0]
    seq = list(prompt)
    ref = []
    for _ in range(32):
        logits = forward(model, np.array(seq)).data
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
            assert tok == int(forward(model, np.array(seq)).data[-1].argmax())
            seq.append(int(tok))
    np.testing.assert_array_equal(generate_greedy(model, prompts, n_new=1), got[:, :1])
    with pytest.raises(ValueError, match="n_new"):
        generate_greedy(model, prompts, n_new=0)


def test_decode_after_prefill_appends_without_regrowing_the_kv_cache():
    """Greedy decode after a prefill longer than the cache's first capacity:
    tokens and logits equal the full forward's, and the steps right after the
    prefill write into the buffers the prefill grew."""
    from hybridkit.mixers import KvCache
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
    full = forward(model, toks).data  # scaling from config
    sess = new_session(model)
    outs = [decode_step(model, sess, int(t)).data for t in toks]
    assert max_rel_err(np.array(outs), full) < 1e-10


def test_causality_shared_prefix_identical_logits():
    cfg = tiny_hybrid(L=2, I_attn=(0,))
    model = init_model(cfg, seed=12)
    a = Rng(4).integers(0, cfg.vocab, size=16)
    b = a.copy()
    b[10:] = (b[10:] + 5) % cfg.vocab
    la = forward(model, a).data
    lb = forward(model, b).data
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
            assert tok == int(forward(model, np.array(seq)).data[-1].argmax())
            seq.append(int(tok))


class _FullRows:
    """A model seen only through its full-row logits: the reference scorer."""

    def __init__(self, model):
        self.model = model

    def logits(self, tokens, scale_base="config"):
        return forward(self.model, tokens, scale_base=scale_base).data

    def choice_logprobs(self, prefixes, choices, scale_base="config", eval_batch=16):
        return reference_choice_logprobs(self, prefixes, choices, scale_base, eval_batch)


@pytest.mark.parametrize("scale_base", [None, ScaleBase(10.0)], ids=["plain", "scalebase"])
def test_choice_logprobs_match_full_row_formula(tol, scale_base, monkeypatch):
    import hybridkit.model as hm

    cfg = tiny_hybrid(L=3, I_attn=(0, 2), vocab=256)  # cloze tokens lie below 248
    model = init_model(cfg, seed=24)
    samples = gen_csr_proxy(seed=3, n=5, prefix_len=9, cont_len=4, n_choices=4)
    rows = []
    real = hm._advance

    def counting(model, tokens, session, *args, **kwargs):
        rows.append(np.asarray(tokens).shape[0])
        return real(model, tokens, session, *args, **kwargs)

    monkeypatch.setattr(hm, "_advance", counting)
    ref = _FullRows(model).choice_logprobs(samples.prefixes, samples.choices, scale_base)
    for eval_batch in (1, 3, 4, 6, 16):
        rows.clear()
        got = model.choice_logprobs(samples.prefixes, samples.choices,
                                    scale_base=scale_base, eval_batch=eval_batch)
        assert got.shape == (5, 4)
        assert max(rows) <= eval_batch
        assert max_rel_err(got, ref) < tol
        np.testing.assert_array_equal(got.argmax(axis=1), ref.argmax(axis=1))
        assert (score_csr(model, samples, scale_base=scale_base, eval_batch=eval_batch)
                == score_csr(_FullRows(model), samples, scale_base=scale_base))
    # one-token continuations come from the prefix pass alone
    one = choice_logprobs(model, samples.prefixes, samples.choices[..., :1], scale_base)
    ref_one = reference_choice_logprobs(_FullRows(model), samples.prefixes,
                                        samples.choices[..., :1], scale_base)
    assert max_rel_err(one, ref_one) < tol


# --------------------------------------------------------------------------
# tied embeddings

def test_tied_embeddings_share_storage():
    model = init_model(tiny_hybrid(), seed=13)
    assert model.out_matrix is model.embed
    before = forward(model, np.array([1, 2])).data.copy()
    model.embed.data[5] += 1.0
    after = forward(model, np.array([1, 2])).data
    assert not np.array_equal(before, after)


def test_untied_embeddings_are_separate():
    model = init_model(tiny_hybrid(tie_embeddings=False), seed=13)
    assert model.out_matrix is model.unembed
    assert model.unembed is not model.embed


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
    assert hyb.cfg.pe_attention == "nope"


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
    hybrid = init_model(tiny_hybrid(), seed=0)
    with pytest.raises(ConfigError):
        init_hybrid_from_teacher(hybrid, (0,))


def test_teacher_untouched_by_surgery():
    teacher = teacher_model(seed=17)
    before = teacher.state_bytes()
    init_hybrid_from_teacher(teacher, (1, 3), seed=4)
    assert teacher.state_bytes() == before


# --------------------------------------------------------------------------
# misc

def test_mean_nll_matches_manual_loop():
    cfg = tiny_hybrid()
    model = init_model(cfg, seed=18)
    seq = Rng(5).integers(0, cfg.vocab, size=24)
    got = mean_nll(model, seq)
    logits = forward(model, seq[:-1]).data
    ref = []
    for i in range(len(seq) - 1):
        row = logits[i] - logits[i].max()
        logp = row - np.log(np.exp(row).sum())
        ref.append(-logp[seq[i + 1]])
    assert abs(got - np.mean(ref)) < 1e-10


def test_config_validation():
    with pytest.raises(ConfigError):
        desk_config(L=2, I_attn=(5,), **TINY)
    with pytest.raises(ConfigError):
        desk_config(L=2, I_attn=(1, 0), **TINY)
    with pytest.raises(ConfigError):
        desk_config(L=2, I_attn=(0,), pe_rnn="bogus", **TINY)


def test_model_copy_is_deep():
    model = init_model(tiny_hybrid(), seed=19)
    clone = model.copy()
    clone.embed.data[0] += 1.0
    assert not np.array_equal(clone.embed.data[0], model.embed.data[0])
