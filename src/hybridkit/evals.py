"""Synthetic evaluation suites: exact-recall (needle-in-a-haystack), a cloze
classification proxy for short-range reasoning, perplexity, and the
length-generalization sweep.

The recall task plants one ``key value`` pair inside filler and asks for the
value after ``SEP key``; scoring is exact match on greedy-decoded value
tokens.  The cloze proxy scores four candidate continuations of a grammar
chain by model likelihood (chance level 0.25).  It is deliberately synthetic:
it exists to drive layer-importance scores and ablation orderings, not to be
comparable to any published reasoning benchmark.

Models enter through three duck-typed methods: ``logits(tokens, scale_base)``,
``generate(prompts, n_new, scale_base)`` and ``choice_logprobs(prefixes,
choices, scale_base, eval_batch)``; test oracles implement the same surface.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import (DEFAULT_GRAMMAR_SEED, FILLER_HI, FILLER_LO, KV_HI, KV_LO,
                   SEP, cached_arrays, draw_needles, grammar_chain,
                   grammar_continuation, grammar_tables)
from .fileio import write_text_atomic
from .tensor import ConfigError, Rng, _log_softmax


@dataclass(frozen=True)
class NiahSpec:
    """Recall-task description; generation is bit-deterministic per seed."""

    context_len: int
    n_samples: int = 200
    key_len: int = 4
    value_len: int = 4
    depth: float | None = None       # None: uniform per sample; else fixed in [0, 1]
    filler: str = "grammar"          # "grammar" | "uniform"
    seed: int = 0
    grammar_seed: int = DEFAULT_GRAMMAR_SEED
    vocab: int = 512

    def __post_init__(self):
        if self.vocab < KV_HI:
            raise ConfigError(f"vocab {self.vocab} too small for the key/value "
                              f"alphabet [{KV_LO}, {KV_HI})")
        if self.filler not in ("grammar", "uniform"):
            raise ConfigError(f"unknown filler kind {self.filler!r}")
        needle = self.key_len + self.value_len
        query = 1 + self.key_len
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
    seed: int


def gen_niah(spec: NiahSpec) -> tuple[np.ndarray, np.ndarray]:
    """Prompts [n, context_len] and answers [n, value_len].

    Prompt layout: pre-filler, key+value needle at the sampled depth,
    post-filler, then the query suffix ``SEP key``; the prompt length equals
    context_len exactly.  Value tokens never occur in filler (disjoint
    alphabets).
    """
    def build() -> dict[str, np.ndarray]:
        tables = grammar_tables(spec.grammar_seed)
        needle_len = spec.key_len + spec.value_len
        filler_len = spec.context_len - needle_len - (1 + spec.key_len)
        prompts = np.empty((spec.n_samples, spec.context_len), dtype=np.int64)
        answers = np.empty((spec.n_samples, spec.value_len), dtype=np.int64)
        for i in range(spec.n_samples):
            rng = Rng(spec.seed, (331, i))
            (key, value), = draw_needles(rng, 1, spec.key_len, spec.value_len)
            depth = rng.uniform(()) if spec.depth is None else spec.depth
            pre = int(round(float(depth) * filler_len))
            if spec.filler == "grammar":
                filler = grammar_chain(rng, tables, filler_len)
            else:
                filler = rng.integers(FILLER_LO, FILLER_HI, size=filler_len)
            prompts[i] = np.concatenate([
                filler[:pre], key, value, filler[pre:], [SEP], key])
            answers[i] = value
        return {"prompts": prompts, "answers": answers}

    arrays = cached_arrays({"niah": asdict(spec)}, build)
    return arrays["prompts"], arrays["answers"]


def score_recall(model, samples, scale_base=None, eval_batch: int = 16) -> EvalResult:
    """Greedy-decode the value tokens after each prompt; exact-match accuracy."""
    prompts, answers = samples
    n, ctx = prompts.shape
    correct = 0
    for lo in range(0, n, eval_batch):
        chunk = prompts[lo:lo + eval_batch]
        out = model.generate(chunk, answers.shape[1], scale_base=scale_base)
        correct += int((out == answers[lo:lo + eval_batch]).all(axis=1).sum())
    return EvalResult(task="niah", context_len=ctx, value=correct / n,
                      metric="accuracy", n_samples=n, seed=0)


# --------------------------------------------------------------------------
# cloze proxy

@dataclass(frozen=True)
class ClozeSamples:
    prefixes: np.ndarray  # [n, prefix_len]
    choices: np.ndarray   # [n, n_choices, cont_len]
    labels: np.ndarray    # [n]


def gen_csr_proxy(seed: int, n: int, prefix_len: int = 24, cont_len: int = 4,
                  n_choices: int = 4,
                  grammar_seed: int = DEFAULT_GRAMMAR_SEED) -> ClozeSamples:
    """Cloze classification: pick the grammar-consistent continuation.

    Distractors are grammar chains too, but continue from the wrong symbol,
    so only local knowledge of the successor table separates them.
    """
    if n < 1:
        raise ConfigError("need at least one sample")
    tables = grammar_tables(grammar_seed)
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


def score_csr(model, samples: ClozeSamples, scale_base=None,
              eval_batch: int = 16) -> EvalResult:
    """Accuracy of likelihood-ranked choices (chance = 1 / n_choices).

    The model scores the choices: ``model.choice_logprobs(prefixes, choices,
    scale_base, eval_batch)`` returns each choice's summed continuation
    log-probability given its prefix, [n, n_choices], and the highest one
    is the pick (ties to the lower index).
    """
    n, n_choices, cont_len = samples.choices.shape
    prefix_len = samples.prefixes.shape[1]
    scores = model.choice_logprobs(samples.prefixes, samples.choices,
                                   scale_base=scale_base, eval_batch=eval_batch)
    picked = np.asarray(scores).argmax(axis=1)
    acc = float((picked == samples.labels).mean())
    return EvalResult(task="csr_proxy", context_len=prefix_len + cont_len,
                      value=acc, metric="accuracy", n_samples=n, seed=0)


# --------------------------------------------------------------------------
# perplexity

def perplexity(model, corpus: np.ndarray, context_len: int, scale_base=None,
               eval_batch: int = 16) -> float:
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
        logits = model.logits(rows[:, :-1], scale_base=scale_base)
        logp = _log_softmax(logits)
        b, t = rows.shape[0], rows.shape[1] - 1
        ii, jj = np.meshgrid(np.arange(b), np.arange(t), indexing="ij")
        total_nll += float(-logp[ii, jj, rows[:, 1:]].sum())
        total_tokens += b * t

    if full:
        stacked = np.stack(full)
        for lo in range(0, len(stacked), eval_batch):
            add_rows(stacked[lo:lo + eval_batch])
    if tail is not None:
        add_rows(tail[None])
    return float(np.exp(total_nll / total_tokens))


# --------------------------------------------------------------------------
# sweeps and suites

def length_sweep(model, lengths, scale_base=None, n_samples: int = 200,
                 seed: int = 0, eval_batch: int = 16) -> list[EvalResult]:
    """Recall accuracy at each context length, in the given order.

    Raises ConfigError unless the lengths are sorted ascending.
    """
    if list(lengths) != sorted(lengths):
        raise ConfigError(f"lengths must be sorted ascending, got {list(lengths)}")
    results = []
    for length in lengths:
        spec = NiahSpec(context_len=int(length), n_samples=n_samples, seed=seed)
        res = score_recall(model, gen_niah(spec), scale_base=scale_base,
                           eval_batch=eval_batch)
        results.append(EvalResult(task=res.task, context_len=res.context_len,
                                  value=res.value, metric=res.metric,
                                  n_samples=res.n_samples, seed=seed))
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
    scale_base: object = None
    eval_batch: int = 16


def build_rc_suite(train_context_len: int, seed: int = 0, n_samples: int = 64,
                   grammar_seed: int = DEFAULT_GRAMMAR_SEED) -> RcSuite:
    """Recall at twice the training length plus the cloze proxy."""
    spec = NiahSpec(context_len=2 * train_context_len, n_samples=n_samples,
                    seed=seed, grammar_seed=grammar_seed)
    return RcSuite(
        niah_samples=gen_niah(spec),
        csr_samples=gen_csr_proxy(seed + 1, n_samples, grammar_seed=grammar_seed),
    )
