"""Synthetic token corpora over a 512-symbol vocabulary.

Two ingredients compose every stream:

* a *grammar chain*: a first-order walk where each filler symbol has exactly
  two seeded successor symbols (entropy one bit per token, learnable by any
  competent model and the substrate of the cloze proxy task);
* *needles*: key->value token pairs planted inside the chain, later queried
  as ``SEP key`` with the value as the expected continuation.  Keys and
  values come from an alphabet disjoint from the filler alphabet, so answers
  can never occur in filler by construction.

The shape is fixed: one grammar (GRAMMAR_SEED), keys and values of KEY_LEN
and VALUE_LEN tokens, and training documents with up to MAX_PAIRS needles
and MAX_QUERIES queries.  Streams are pure functions of (seed, step): any
batch can be regenerated independently, which is what makes training runs
bit-reproducible and resumable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, Rng

VOCAB = 512
SEP = 2
FILLER_LO, FILLER_HI = 8, 248
KV_LO, KV_HI = 256, 512

#: grammar identity shared by training streams and evaluation suites
GRAMMAR_SEED = 7

#: tokens per needle key and per needle value
KEY_LEN = VALUE_LEN = 4

#: most needles planted in, and most queries asked of, one training document
MAX_PAIRS, MAX_QUERIES = 4, 3

#: the training-stream kinds StreamConfig accepts
STREAM_KINDS = ("niah_mix", "grammar")

#: per stream kind or evaluation task, one past the largest token id it
#: draws: needles (niah_mix, the recall task, perplexity's niah_mix corpus)
#: reach the key/value alphabet, grammar text and the cloze proxy only the
#: filler alphabet
MIN_VOCAB = {"niah_mix": KV_HI, "niah": KV_HI, "ppl": KV_HI,
             "grammar": FILLER_HI, "csr": FILLER_HI}


def check_vocab(vocab: int, kind: str) -> None:
    """Raise ConfigError unless a model with `vocab` token ids can read the
    tokens of `kind`, a stream kind or evaluation task named in MIN_VOCAB."""
    need = MIN_VOCAB[kind]
    if vocab < need:
        raise ConfigError(f"vocab {vocab} is too small for {kind!r} data, whose "
                          f"token ids reach {need - 1}; it needs vocab >= {need}")


@dataclass(frozen=True)
class GrammarTables:
    """Successor table: succ[x - FILLER_LO] lists the two legal next symbols."""

    succ: np.ndarray  # [n_filler, 2] of token ids


def grammar_tables() -> GrammarTables:
    rng = Rng(GRAMMAR_SEED, (101,))
    n = FILLER_HI - FILLER_LO
    succ = np.stack([rng.permutation(n), rng.permutation(n)], axis=1) + FILLER_LO
    return GrammarTables(succ)


def grammar_chain(rng: Rng, tables: GrammarTables, length: int) -> np.ndarray:
    """Random walk over the successor table; tokens lie in the filler alphabet."""
    if length <= 0:
        return np.zeros(0, dtype=np.int64)
    out = np.empty(length, dtype=np.int64)
    cur = int(rng.integers(FILLER_LO, FILLER_HI))
    picks = rng.integers(0, 2, size=length)
    for i in range(length):
        out[i] = cur
        cur = int(tables.succ[cur - FILLER_LO, picks[i]])
    return out


def grammar_continuation(tables: GrammarTables, rng: Rng, start: int,
                         length: int) -> np.ndarray:
    """The chain continuing *after* symbol `start` (for cloze targets)."""
    out = np.empty(length, dtype=np.int64)
    cur = start
    picks = rng.integers(0, 2, size=length)
    for i in range(length):
        cur = int(tables.succ[cur - FILLER_LO, picks[i]])
        out[i] = cur
    return out


def draw_needles(rng: Rng, n_pairs: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Distinct-key needle pairs from the key/value alphabet."""
    firsts = KV_LO + rng.choice(KV_HI - KV_LO, size=n_pairs, replace=False)
    pairs = []
    for i in range(n_pairs):
        key = np.concatenate([[firsts[i]], rng.integers(KV_LO, KV_HI, size=KEY_LEN - 1)])
        value = rng.integers(KV_LO, KV_HI, size=VALUE_LEN)
        pairs.append((key.astype(np.int64), value.astype(np.int64)))
    return pairs


def niah_document(rng: Rng, tables: GrammarTables, length: int,
                  n_pairs: int, n_queries: int) -> np.ndarray:
    """One training document: grammar filler, planted needles, query block.

    Layout: [filler+needles ...][SEP key value] * n_queries, total `length`
    tokens.  Queried pairs are a subset of the planted ones, so the value is
    always recoverable from the document body.
    """
    needle_len = KEY_LEN + VALUE_LEN
    q_len = 1 + needle_len
    tail = n_queries * q_len
    body_len = length - tail
    if body_len < n_pairs * needle_len + 1:
        raise ConfigError(f"document length {length} too small for "
                          f"{n_pairs} needles and {n_queries} queries")
    pairs = draw_needles(rng, n_pairs)
    filler = grammar_chain(rng, tables, body_len - n_pairs * needle_len)
    # splice needles at sorted random filler offsets
    cuts = np.sort(rng.integers(0, len(filler) + 1, size=n_pairs))
    parts = []
    prev = 0
    for i, cut in enumerate(cuts):
        parts.append(filler[prev:cut])
        parts.append(np.concatenate(pairs[i]))
        prev = cut
    parts.append(filler[prev:])
    body = np.concatenate(parts)
    queried = rng.choice(n_pairs, size=n_queries, replace=n_queries > n_pairs)
    tail_parts = []
    for qi in queried:
        key, value = pairs[int(qi)]
        tail_parts.append(np.concatenate([[SEP], key, value]))
    return np.concatenate([body] + tail_parts)


@dataclass(frozen=True)
class StreamConfig:
    """Deterministic training-stream description (tokens are f(seed, step))."""

    kind: str = "niah_mix"  # one of STREAM_KINDS
    context_len: int = 256
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise ConfigError(f"unknown stream kind {self.kind!r}")
        if self.context_len < 64:
            raise ConfigError("context_len below 64 leaves no room for needles")


class TokenStream:
    """Batches of [batch, context_len + 1] token ids for next-token training."""

    def __init__(self, cfg: StreamConfig):
        self.cfg = cfg
        self.tables = grammar_tables()

    def batch(self, step: int) -> np.ndarray:
        cfg = self.cfg
        out = np.empty((cfg.batch_size, cfg.context_len + 1), dtype=np.int64)
        for b in range(cfg.batch_size):
            rng = Rng(cfg.seed, (613, step, b))
            if cfg.kind == "grammar":
                out[b] = grammar_chain(rng, self.tables, cfg.context_len + 1)
            else:
                n_pairs = int(rng.integers(1, MAX_PAIRS + 1))
                n_q = int(rng.integers(1, min(n_pairs, MAX_QUERIES) + 1))
                out[b] = niah_document(rng, self.tables, cfg.context_len + 1,
                                       n_pairs, n_q)
        return out

