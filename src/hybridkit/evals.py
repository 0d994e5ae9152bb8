"""Synthetic evaluation suites: exact-recall (needle-in-a-haystack), a cloze
classification proxy for short-range reasoning, perplexity, and the
length-generalization sweep.

Each suite has one shape; only its length, size and seed vary.  The recall
task plants one ``key value`` pair (KEY_LEN + VALUE_LEN tokens of the data
module) inside grammar filler at a uniformly drawn depth and asks for the
value after ``SEP key``; scoring is exact match on greedy-decoded value
tokens.  The cloze proxy gives a 24-token grammar chain and scores four
candidate continuations of 4 tokens by model likelihood (chance level
0.25).  It is deliberately synthetic: it exists to drive layer-importance scores and ablation orderings, not to be
comparable to any published reasoning benchmark.

Models enter through three duck-typed methods: ``logits(tokens)``,
``generate(prompts, n_new)`` and ``choice_logprobs(prefixes, choices)``;
test oracles implement the same surface.  A call gets at most EVAL_BATCH
rows.  A model scores with the logits scaling its config names; to score
another scaling, evaluate ``hybridkit.model.with_scaling(model, base)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (FILLER_HI, FILLER_LO, KEY_LEN, SEP, VALUE_LEN, draw_needles,
                   grammar_chain, grammar_continuation, grammar_tables)
from .fileio import write_text_atomic
from .tensor import ConfigError, Rng, _log_softmax

EVAL_BATCH = 16  # rows per model call of every scorer


@dataclass(frozen=True)
class NiahSpec:
    """Recall-task description; generation is bit-deterministic per seed.

    Every prompt holds one needle of KEY_LEN + VALUE_LEN tokens at a depth
    drawn uniformly per sample, in filler from the one grammar, and ends in
    the query ``SEP key``.
    """

    context_len: int
    n_samples: int = 200
    seed: int = 0

    def __post_init__(self):
        needle = KEY_LEN + VALUE_LEN
        query = 1 + KEY_LEN
        if self.context_len < needle + query + 2:
            raise ConfigError(f"context_len {self.context_len} cannot fit the "
                              f"needle plus query suffix")


@dataclass(frozen=True)
class EvalResult:
    task: str
    context_len: int
    value: float        # accuracy in [0, 1] or perplexity > 0
    metric: str         # "accuracy" | "perplexity"
    n_samples: int


def gen_niah(spec: NiahSpec) -> tuple[np.ndarray, np.ndarray]:
    """Prompts [n, context_len] and answers [n, VALUE_LEN].

    Prompt layout: pre-filler, key+value needle at the sampled depth,
    post-filler, then the query suffix ``SEP key``; the prompt length equals
    context_len exactly.  Value tokens never occur in filler (disjoint
    alphabets).
    """
    tables = grammar_tables()
    filler_len = spec.context_len - (KEY_LEN + VALUE_LEN) - (1 + KEY_LEN)
    prompts = np.empty((spec.n_samples, spec.context_len), dtype=np.int64)
    answers = np.empty((spec.n_samples, VALUE_LEN), dtype=np.int64)
    for i in range(spec.n_samples):
        rng = Rng(spec.seed, (331, i))
        (key, value), = draw_needles(rng, 1)
        pre = int(round(float(rng.uniform(())) * filler_len))
        chain = grammar_chain(rng, tables, filler_len)
        prompts[i] = np.concatenate([chain[:pre], key, value, chain[pre:], [SEP], key])
        answers[i] = value
    return prompts, answers


def score_recall(model, samples) -> EvalResult:
    """Greedy-decode the value tokens after each prompt; exact-match accuracy."""
    prompts, answers = samples
    n, ctx = prompts.shape
    correct = 0
    for lo in range(0, n, EVAL_BATCH):
        out = model.generate(prompts[lo:lo + EVAL_BATCH], answers.shape[1])
        correct += int((out == answers[lo:lo + EVAL_BATCH]).all(axis=1).sum())
    return EvalResult(task="niah", context_len=ctx, value=correct / n,
                      metric="accuracy", n_samples=n)


# --------------------------------------------------------------------------
# cloze proxy

@dataclass(frozen=True)
class ClozeSamples:
    prefixes: np.ndarray  # [n, prefix_len]
    choices: np.ndarray   # [n, n_choices, cont_len]
    labels: np.ndarray    # [n]


def gen_csr_proxy(seed: int, n: int) -> ClozeSamples:
    """Cloze classification: pick the grammar-consistent continuation.

    Each of the n samples is a 24-token grammar chain (the prefix) and four
    continuations of 4 tokens (the choices), one of them the true one.
    Distractors are grammar chains too, but continue from the wrong
    symbol, so only local knowledge of the successor table separates them.
    """
    if n < 1:
        raise ConfigError("need at least one sample")
    prefix_len, cont_len, n_choices = 24, 4, 4
    tables = grammar_tables()
    prefixes = np.empty((n, prefix_len), dtype=np.int64)
    choices = np.empty((n, n_choices, cont_len), dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        rng = Rng(seed, (577, i))
        chain = grammar_chain(rng, tables, prefix_len + cont_len)
        prefixes[i] = chain[:prefix_len]
        true = chain[prefix_len:]
        legal_next = set(int(s) for s in tables.succ[chain[prefix_len - 1] - FILLER_LO])
        label = int(rng.integers(0, n_choices))
        for c in range(n_choices):
            if c == label:
                choices[i, c] = true
                continue
            while True:
                start = int(rng.integers(FILLER_LO, FILLER_HI))
                cand = grammar_continuation(tables, rng, start, cont_len)
                # distractors must break the chain at the very first step,
                # otherwise they would be fully grammar-consistent too
                if int(cand[0]) not in legal_next:
                    break
            choices[i, c] = cand
        labels[i] = label
    return ClozeSamples(prefixes, choices, labels)


def score_csr(model, samples: ClozeSamples) -> EvalResult:
    """Accuracy of likelihood-ranked choices (chance = 1 / n_choices).

    The model scores the choices: ``model.choice_logprobs(prefixes, choices)``
    returns each choice's summed continuation log-probability given its
    prefix, [n, n_choices], and the highest one is the pick (ties to the
    lower index).  Each call gets at most EVAL_BATCH // n_choices samples
    (at least one).
    """
    n, n_choices, cont_len = samples.choices.shape
    prefix_len = samples.prefixes.shape[1]
    per = max(1, EVAL_BATCH // n_choices)
    scores = np.concatenate([
        model.choice_logprobs(samples.prefixes[lo:lo + per], samples.choices[lo:lo + per])
        for lo in range(0, n, per)])
    picked = scores.argmax(axis=1)
    acc = float((picked == samples.labels).mean())
    return EvalResult(task="csr_proxy", context_len=prefix_len + cont_len,
                      value=acc, metric="accuracy", n_samples=n)


# --------------------------------------------------------------------------
# perplexity

def perplexity(model, corpus: np.ndarray, context_len: int) -> float:
    """exp(mean next-token negative log-likelihood) over the whole corpus."""
    corpus = np.asarray(corpus).ravel()
    if corpus.size < 2:
        raise ValueError("perplexity needs a corpus of at least two tokens")
    window = context_len + 1
    full, tail = [], None
    for lo in range(0, corpus.size - 1, context_len):
        r = corpus[lo:lo + window]
        if len(r) == window:
            full.append(r)
        elif len(r) >= 2:
            tail = r
    total_nll, total_tokens = 0.0, 0

    def add_rows(rows: np.ndarray):
        nonlocal total_nll, total_tokens
        logits = model.logits(rows[:, :-1])
        logp = _log_softmax(logits)
        b, t = rows.shape[0], rows.shape[1] - 1
        ii, jj = np.meshgrid(np.arange(b), np.arange(t), indexing="ij")
        total_nll += float(-logp[ii, jj, rows[:, 1:]].sum())
        total_tokens += b * t

    if full:
        stacked = np.stack(full)
        for lo in range(0, len(stacked), EVAL_BATCH):
            add_rows(stacked[lo:lo + EVAL_BATCH])
    if tail is not None:
        add_rows(tail[None])
    return float(np.exp(total_nll / total_tokens))


# --------------------------------------------------------------------------
# sweeps and suites

def length_sweep(model, lengths, n_samples: int = 200, seed: int = 0) -> list[EvalResult]:
    """Recall accuracy at each context length, in the given order.

    Raises ConfigError unless the lengths are sorted ascending.
    """
    if list(lengths) != sorted(lengths):
        raise ConfigError(f"lengths must be sorted ascending, got {list(lengths)}")
    results = []
    for length in lengths:
        spec = NiahSpec(context_len=int(length), n_samples=n_samples, seed=seed)
        results.append(score_recall(model, gen_niah(spec)))
    return results


def write_plot_data(results: list[EvalResult], path) -> None:
    """Tab-separated plot data: header line then one row per result."""
    lines = ["length\tmetric\tvalue\tn_samples"]
    for r in results:
        lines.append(f"{r.context_len}\t{r.metric}\t{r.value:.6f}\t{r.n_samples}")
    write_text_atomic(path, "\n".join(lines) + "\n")


@dataclass
class RcSuite:
    """Fixed recall+cloze evaluation bundle for layer-importance scoring."""

    niah_samples: tuple[np.ndarray, np.ndarray]
    csr_samples: ClozeSamples


def build_rc_suite(train_context_len: int, seed: int = 0, n_samples: int = 64) -> RcSuite:
    """Recall at twice the training length plus the cloze proxy."""
    spec = NiahSpec(context_len=2 * train_context_len, n_samples=n_samples, seed=seed)
    return RcSuite(niah_samples=gen_niah(spec),
                   csr_samples=gen_csr_proxy(seed + 1, n_samples))
