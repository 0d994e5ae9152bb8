"""Evaluation suites: generators, oracle scorers, perplexity, sweeps."""

import numpy as np
import pytest

from hybridkit.data import (FILLER_HI, FILLER_LO, KEY_LEN, KV_LO, SEP, VALUE_LEN,
                            StreamConfig, TokenStream, grammar_tables, niah_document)
from hybridkit.evals import (ClozeSamples, EvalResult, NiahSpec, build_rc_suite,
                             gen_csr_proxy, gen_niah, length_sweep, perplexity,
                             score_csr, score_recall, write_plot_data)
from hybridkit.tensor import ConfigError, Rng

from conftest import max_rel_err, reference_choice_logprobs


# --------------------------------------------------------------------------
# stub models

class LookupOracle:
    """Answers straight from the sample table: the accuracy-1.0 upper bound."""

    def __init__(self, samples):
        prompts, answers = samples
        self.table = {tuple(p.tolist()): a for p, a in zip(prompts, answers)}

    def generate(self, prompts, n_new):
        return np.stack([self.table[tuple(p.tolist())] for p in prompts])


class ConstantModel:
    def __init__(self, token: int):
        self.token = token

    def generate(self, prompts, n_new):
        return np.full((prompts.shape[0], n_new), self.token, dtype=np.int64)


class RandomModel:
    def __init__(self, vocab: int, seed: int = 0):
        self.vocab = vocab
        self.rng = Rng(seed)

    def generate(self, prompts, n_new):
        return self.rng.integers(0, self.vocab, size=(prompts.shape[0], n_new))

    def logits(self, tokens):
        return self.rng.normal(tokens.shape + (self.vocab,))

    def choice_logprobs(self, prefixes, choices):
        return reference_choice_logprobs(self, prefixes, choices)


class UniformModel:
    def __init__(self, vocab: int):
        self.vocab = vocab

    def logits(self, tokens):
        return np.zeros(tokens.shape + (self.vocab,))


class MemorizingModel:
    """Puts all probability mass on the next token of one known sequence."""

    def __init__(self, seq: np.ndarray, vocab: int):
        self.next_of = {int(a): int(b) for a, b in zip(seq[:-1], seq[1:])}
        self.vocab = vocab

    def logits(self, tokens):
        out = np.zeros(tokens.shape + (self.vocab,))
        for idx in np.ndindex(tokens.shape):
            nxt = self.next_of.get(int(tokens[idx]))
            if nxt is not None:
                out[idx + (nxt,)] = 200.0
        return out


# --------------------------------------------------------------------------
# recall generator

def test_niah_needle_at_the_sampled_depth_exact_length():
    prompts, answers = gen_niah(NiahSpec(context_len=64, n_samples=6, seed=1))
    assert prompts.shape == (6, 64) and answers.shape == (6, VALUE_LEN)
    succ = grammar_tables().succ
    starts = []
    for p, a in zip(prompts, answers):
        body = p[:-(1 + KEY_LEN)]
        at = np.flatnonzero(body >= KV_LO)
        # one run of needle tokens from the KV alphabet: the key, then the value
        assert len(at) == KEY_LEN + VALUE_LEN
        np.testing.assert_array_equal(at, at[0] + np.arange(KEY_LEN + VALUE_LEN))
        np.testing.assert_array_equal(body[at[KEY_LEN:]], a)
        # query suffix: SEP then the key
        assert p[-(1 + KEY_LEN)] == SEP
        np.testing.assert_array_equal(p[-KEY_LEN:], body[at[:KEY_LEN]])
        # the filler around the needle is one grammar chain
        chain = np.delete(body, at)
        assert ((chain >= FILLER_LO) & (chain < FILLER_HI)).all()
        assert all(nxt in succ[cur - FILLER_LO] for cur, nxt in zip(chain[:-1], chain[1:]))
        starts.append(int(at[0]))
    assert len(set(starts)) > 1  # the depth is drawn per sample


def test_niah_deterministic_per_seed():
    spec = NiahSpec(context_len=96, n_samples=5, seed=3)
    a = gen_niah(spec)
    b = gen_niah(spec)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = gen_niah(NiahSpec(context_len=96, n_samples=5, seed=4))
    assert not np.array_equal(a[0], c[0])


def test_niah_answer_tokens_never_in_filler():
    spec = NiahSpec(context_len=128, n_samples=20, seed=5)
    prompts, answers = gen_niah(spec)
    for p, a in zip(prompts, answers):
        # find the needle: first KV-alphabet run; scan the rest of the body
        body = p[:-5]  # strip query suffix
        is_kv = body >= KV_LO
        needle_positions = np.where(is_kv)[0]
        assert len(needle_positions) == 8  # exactly one key+value pair
        filler = body[~is_kv]
        assert not np.isin(filler, a).any()


def test_niah_too_small_context_errors():
    with pytest.raises(ConfigError):
        NiahSpec(context_len=12, n_samples=1)


def test_build_rc_suite_writes_no_corpus_cache(tmp_path, monkeypatch):
    """Suites are rebuilt from their seeds on each call and nothing is kept
    on disk, not even where the retired HYBRIDKIT_CACHE variable points."""
    monkeypatch.setenv("HYBRIDKIT_CACHE", str(tmp_path))
    build_rc_suite(24, seed=0, n_samples=4)
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# recall scoring

def test_score_recall_lookup_oracle_is_perfect():
    samples = gen_niah(NiahSpec(context_len=64, n_samples=10, seed=7))
    res = score_recall(LookupOracle(samples), samples)
    assert res.value == 1.0 and res.metric == "accuracy"


def test_score_recall_constant_model_scores_zero():
    samples = gen_niah(NiahSpec(context_len=64, n_samples=10, seed=8))
    res = score_recall(ConstantModel(FILLER_LO), samples)
    assert res.value == 0.0


def test_score_recall_random_model_near_chance():
    # chance for a 4-token exact match is (1/512)^4; 0 hits is overwhelmingly likely
    samples = gen_niah(NiahSpec(context_len=64, n_samples=200, seed=9))
    res = score_recall(RandomModel(512, seed=1), samples)
    assert res.value == 0.0
    assert res.n_samples == 200


def test_score_recall_accuracy_is_exact_fraction(monkeypatch):
    import hybridkit.evals as evals

    samples = gen_niah(NiahSpec(context_len=64, n_samples=8, seed=10))

    class HalfOracle(LookupOracle):
        def generate(self, prompts, n_new):
            out = super().generate(prompts, n_new)
            out[::2] = 0  # corrupt every other answer
            return out

    monkeypatch.setattr(evals, "EVAL_BATCH", 8)
    res = score_recall(HalfOracle(samples), samples)
    assert res.value == 0.5
    # chunked evaluation agrees with one-shot evaluation
    monkeypatch.setattr(evals, "EVAL_BATCH", 3)
    full = score_recall(LookupOracle(samples), samples)
    assert full.value == 1.0


# --------------------------------------------------------------------------
# cloze proxy

def test_csr_oracle_scorer_perfect():
    samples = gen_csr_proxy(seed=1, n=12)

    class CsrOracle:
        def logits(self, tokens):
            # next-token table of the generating grammar: follow both successors
            tables = grammar_tables()
            out = np.full(tokens.shape + (512,), -100.0)
            for idx in np.ndindex(tokens.shape):
                t = int(tokens[idx])
                if FILLER_LO <= t < FILLER_HI:
                    for s in tables.succ[t - FILLER_LO]:
                        out[idx + (int(s),)] = 10.0
            return out

        def choice_logprobs(self, prefixes, choices):
            return reference_choice_logprobs(self, prefixes, choices)

    res = score_csr(CsrOracle(), samples)
    assert res.value == 1.0


def test_csr_random_scorer_near_chance():
    samples = gen_csr_proxy(seed=2, n=400)
    res = score_csr(RandomModel(512, seed=3), samples)
    assert abs(res.value - 0.25) < 0.06  # binomial 99% interval at n=400


def test_csr_deterministic_per_seed():
    a = gen_csr_proxy(seed=4, n=6)
    b = gen_csr_proxy(seed=4, n=6)
    np.testing.assert_array_equal(a.choices, b.choices)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_csr_label_choice_is_true_continuation():
    samples = gen_csr_proxy(seed=5, n=10)
    tables = grammar_tables()
    for i in range(10):
        prefix_last = samples.prefixes[i, -1]
        true = samples.choices[i, samples.labels[i]]
        assert true[0] in tables.succ[prefix_last - FILLER_LO]


# --------------------------------------------------------------------------
# perplexity

def test_perplexity_uniform_model_equals_vocab():
    corpus = Rng(0).integers(0, 512, size=300)
    ppl = perplexity(UniformModel(512), corpus, context_len=64)
    assert abs(ppl - 512.0) < 1e-9


def test_perplexity_memorizing_model_approaches_one():
    seq = Rng(1).integers(0, 64, size=100)
    seq = np.unique(seq)  # distinct tokens so the next-token map is well defined
    model = MemorizingModel(seq, vocab=512)
    ppl = perplexity(model, seq, context_len=32)
    assert ppl < 1.0 + 1e-6


def test_perplexity_matches_hand_rolled_nll():
    from hybridkit.model import desk_config, init_model
    from hybridkit.positional import RopeParams

    cfg = desk_config(L=1, I_attn=(0,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                      ffn_width=24, vocab=512,
                      rope=RopeParams(theta=1000.0, head_dim=4))
    model = init_model(cfg, seed=2)
    corpus = Rng(3).integers(0, 512, size=101)
    got = perplexity(model, corpus, context_len=50)
    # hand-rolled: windows [0:51], [50:101]
    nll, count = 0.0, 0
    for lo in (0, 50):
        chunk = corpus[lo:lo + 51]
        logits = model.logits(chunk[None, :-1])
        m = logits.max(-1, keepdims=True)
        logp = logits - m - np.log(np.exp(logits - m).sum(-1, keepdims=True))
        for i in range(50):
            nll -= logp[0, i, chunk[i + 1]]
            count += 1
    assert abs(got - np.exp(nll / count)) < 1e-8


def test_perplexity_empty_corpus_errors():
    with pytest.raises(ValueError):
        perplexity(UniformModel(4), np.array([1]), context_len=8)


# --------------------------------------------------------------------------
# sweeps

def test_length_sweep_single_length():
    model = ConstantModel(KV_LO)
    res = length_sweep(model, [64], n_samples=4, seed=11)
    assert len(res) == 1 and res[0].context_len == 64


def test_length_sweep_rows_in_order_and_deterministic():
    model = RandomModel(512, seed=5)
    res1 = length_sweep(RandomModel(512, seed=5), [32, 64, 128], n_samples=4, seed=12)
    res2 = length_sweep(RandomModel(512, seed=5), [32, 64, 128], n_samples=4, seed=12)
    assert [r.context_len for r in res1] == [32, 64, 128]
    assert [r.value for r in res1] == [r.value for r in res2]
    with pytest.raises(ValueError):
        length_sweep(model, [64, 32], n_samples=4)


def test_write_plot_data_format(tmp_path):
    rows = [EvalResult("niah", 64, 0.5, "accuracy", 8),
            EvalResult("niah", 128, 0.25, "accuracy", 8)]
    path = tmp_path / "sweep.tsv"
    write_plot_data(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "length\tmetric\tvalue\tn_samples"
    assert lines[1].split("\t") == ["64", "accuracy", "0.500000", "8"]
    assert len(lines) == 3


# --------------------------------------------------------------------------
# training stream sanity

def test_stream_batches_deterministic_and_resumable():
    cfg = StreamConfig(kind="niah_mix", context_len=128, batch_size=3, seed=5)
    s1, s2 = TokenStream(cfg), TokenStream(cfg)
    np.testing.assert_array_equal(s1.batch(7), s2.batch(7))
    assert not np.array_equal(s1.batch(7), s1.batch(8))


def test_stream_documents_contain_queries():
    cfg = StreamConfig(kind="niah_mix", context_len=128, batch_size=4, seed=6)
    batch = TokenStream(cfg).batch(0)
    assert (batch == SEP).any(axis=1).all()  # every doc has at least one query


def test_niah_document_value_recoverable():
    tables = grammar_tables()
    rng = Rng(9)
    doc = niah_document(rng, tables, 128, n_pairs=2, n_queries=2)
    assert len(doc) == 128
    seps = np.where(doc == SEP)[0]
    for s in seps:
        key = doc[s + 1:s + 5]
        value = doc[s + 5:s + 9]
        # the queried key occurs in the body followed by its value
        body = doc[:seps[0]]
        hits = [i for i in range(len(body) - 8)
                if np.array_equal(body[i:i + 4], key)]
        assert hits, "queried key must be planted in the body"
        assert any(np.array_equal(body[i + 4:i + 8], value) for i in hits)
