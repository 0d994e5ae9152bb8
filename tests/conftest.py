import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.tensor import _log_softmax


@pytest.fixture(autouse=True)
def extended_precision():
    """Oracle-grade f64 by default; tests that want f32 switch explicitly."""
    T.set_precision("extended")
    yield
    T.set_precision("extended")


def max_rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Max |got - ref| normalized by the reference tensor's magnitude."""
    got, ref = np.asarray(got), np.asarray(ref)
    denom = np.abs(ref).max()
    if denom == 0.0:
        return float(np.abs(got - ref).max())
    return float(np.abs(got - ref).max() / denom)


def reference_choice_logprobs(model, prefixes, choices, scale_base=None,
                              eval_batch: int = 16) -> np.ndarray:
    """Cloze scores from full rows: one `logits` call per eval_batch rows of
    [prefix, choice], summing each choice's next-token log-probabilities.
    Returns [n, n_choices]."""
    n, n_choices, cont_len = choices.shape
    prefix_len = prefixes.shape[1]
    rows = np.concatenate([
        np.repeat(prefixes, n_choices, axis=0),
        choices.reshape(n * n_choices, cont_len)], axis=1)
    scores = np.empty(n * n_choices)
    # continuation tokens are predicted by positions prefix_len-1 .. end-1
    pos = np.arange(prefix_len - 1, prefix_len + cont_len - 1)
    for lo in range(0, len(rows), eval_batch):
        chunk = rows[lo:lo + eval_batch]
        logp = _log_softmax(model.logits(chunk, scale_base=scale_base))
        for j in range(chunk.shape[0]):
            scores[lo + j] = logp[j, pos, chunk[j, pos + 1]].sum()
    return scores.reshape(n, n_choices)
