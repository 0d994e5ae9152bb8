import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.tensor import ShapeError, _log_softmax


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


def reference_choice_logprobs(model, prefixes, choices) -> np.ndarray:
    """Cloze scores from full rows: one `logits` call over every row of
    [prefix, choice], summing each choice's next-token log-probabilities.
    Returns [n, n_choices]."""
    n, n_choices, cont_len = choices.shape
    prefix_len = prefixes.shape[1]
    rows = np.concatenate([
        np.repeat(prefixes, n_choices, axis=0),
        choices.reshape(n * n_choices, cont_len)], axis=1)
    # continuation tokens are predicted by positions prefix_len-1 .. end-1
    pos = np.arange(prefix_len - 1, prefix_len + cont_len - 1)
    logp = _log_softmax(model.logits(rows))
    scores = np.array([logp[j, pos, rows[j, pos + 1]].sum() for j in range(len(rows))])
    return scores.reshape(n, n_choices)


class OracleTape:
    """The tape as it was before it kept only what backward reads: each
    record holds its op's output Tensor and its input Tensors until backward
    returns, and inputs are told apart by ``id()``.  It attaches no recipes,
    so every consumer keeps its input's array and nothing is rebuilt.  Same
    walk, same accumulation order, so its gradients are the reference that
    ``tensor.Tape`` must match bit for bit."""

    def __init__(self):
        self._records = []
        self._produced = set()
        self._consumed = False

    def __enter__(self):
        T._TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        assert T._TAPE_STACK.pop() is self
        return False

    def record(self, out, pairs, recipe=None):
        self._records.append((out, pairs))
        self._produced.add(id(out))
        out._tape = self

    def backward(self, loss):
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if id(loss) not in self._produced:
            raise ValueError("loss was not produced on this tape")
        grads = {id(loss): np.ones_like(loss.data)}
        leaf_grads, leaves = {}, {}
        for out, pairs in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, vjp in pairs:
                contrib = vjp(g)
                tid = id(t)
                if tid in self._produced:
                    prev = grads.get(tid)
                    grads[tid] = contrib if prev is None else prev + contrib
                else:
                    prev = leaf_grads.get(tid)
                    leaf_grads[tid] = contrib if prev is None else prev + contrib
                    leaves[tid] = t
        owners = set()
        for tid, t in leaves.items():
            g = leaf_grads[tid]
            if t.grad is not None:
                t.grad = t.grad + g
                continue
            root = id(g if g.base is None else g.base)
            if root in owners:
                g = g.copy()
            else:
                owners.add(root)
            t.grad = g
        self._consumed = True
        self._records.clear()
        self._produced.clear()


def _base_array(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_held_arrays(tape, params=()) -> dict:
    """id -> array for the distinct base arrays that a tape's gradient
    closures capture (through nested closures, lists, tuples and recipes,
    whether or not a recipe has run), leaving out the data of `params`.
    Views count as their base."""
    skip = {id(_base_array(p.data)) for p in params}
    held, seen = {}, set()
    stack = [vjp for pairs in tape._records for _, vjp in pairs]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = _base_array(obj)
            if id(base) not in skip:
                held[id(base)] = base
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, T.Recipe):
            stack.extend([obj._fn, obj._args, obj._value])
        elif getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet assigned
                    pass
    return held


def cached_tables() -> list:
    """The read-only tables that rotary encoding (``positional._ROPE_TABLES``)
    and the Lightning core (``mixers._DECAY_TABLES``) build once per key and
    share between calls, as Tensors: pass them to ``tape_held_arrays`` with
    the parameters, since a tape that reads one holds no copy of it."""
    from hybridkit import mixers, positional

    tables = [*positional._ROPE_TABLES.values()]
    for group in mixers._DECAY_TABLES.values():
        tables.extend(group)
    return [T.Tensor(t, dtype=t.dtype) for t in tables]


def tape_held_bytes(tape, params=()) -> int:
    """Bytes of the arrays `tape_held_arrays` finds, each base once."""
    return sum(a.nbytes for a in tape_held_arrays(tape, params).values())


def mark_lightning_scans(monkeypatch) -> list:
    """Patch ``mixers._lightning_scan`` so that the list returned is
    non-empty exactly while a scan runs."""
    from hybridkit import mixers

    real, running = mixers._lightning_scan, []

    def scan(*args):
        running.append(True)
        try:
            return real(*args)
        finally:
            running.pop()

    monkeypatch.setattr(mixers, "_lightning_scan", scan)
    return running
