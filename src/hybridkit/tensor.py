"""Dense tensors with tape-based reverse-mode differentiation on numpy storage.

Everything downstream (mixers, models, training) is built from the ops in
this module.  Two global precision modes exist: "extended" (float64, used by
oracles and equivalence tests) and "standard" (float32, used for training).
Ops record onto the innermost active ``Tape``; with no tape active, or
inside ``no_record()``, they are plain numpy computations, which is the
inference fast path.

Broadcasting is deliberately narrow: elementwise ops require identical
shapes, matmul broadcasts leading batch dimensions only, and ``mul_const``
broadcasts a constant array up to the tensor's shape.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class ConfigError(ValueError):
    """A configuration value violates its contract."""


# --------------------------------------------------------------------------
# precision

_PRECISION = "extended"
_DTYPES = {"extended": np.float64, "standard": np.float32}


def set_precision(mode: str) -> None:
    """Set the global precision mode ("extended" = f64, "standard" = f32).

    Affects tensor creation and random draws; existing tensors keep their
    dtype.  Mixing dtypes in one computation is an error, so switch modes
    only between independent computations.
    """
    if mode not in _DTYPES:
        raise ConfigError(f"unknown precision mode {mode!r}; use 'extended' or 'standard'")
    global _PRECISION
    _PRECISION = mode


def precision() -> str:
    return _PRECISION


def active_dtype() -> np.dtype:
    return np.dtype(_DTYPES[_PRECISION])


# --------------------------------------------------------------------------
# random streams

class Rng:
    """Deterministic random stream: same seed + same call sequence = same bits.

    Streams are PCG64 seeded from (seed, *path); ``child`` derives an
    independent stream, so subsystems (init, data, eval) can draw without
    perturbing each other.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        seq = np.random.SeedSequence([self.seed, *self.path])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, *keys: int) -> "Rng":
        return Rng(self.seed, self.path + tuple(keys))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        # Draw in f64 for a mode-independent stream, then cast.
        out = self._gen.standard_normal(shape) * std
        return out.astype(active_dtype(), copy=False)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape).astype(active_dtype(), copy=False)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


# --------------------------------------------------------------------------
# tensors and the tape

# innermost last; None marks a no_record() region
_TAPE_STACK: list["Tape | None"] = []


class Tensor:
    """A dense real array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else active_dtype())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    # -- introspection ------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, dtype=self.data.dtype)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # -- operator sugar (delegates to module-level ops) -----------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return NotImplemented

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of differentiable ops; backward walks it in reverse.

    A tape is single-shot: backward consumes the records (this breaks the
    tensor<->tape reference cycles, so per-step training memory is reclaimed
    by reference counting alone, without waiting for the cycle collector).
    """

    __slots__ = ("_records", "_produced", "_consumed")

    def __init__(self):
        self._records: list[tuple[Tensor, list[tuple[Tensor, Callable]]]] = []
        self._produced: set[int] = set()
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        top = _TAPE_STACK.pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def record(self, out: Tensor, pairs: list[tuple[Tensor, Callable]]) -> None:
        self._records.append((out, pairs))
        self._produced.add(id(out))
        out._tape = self

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from loss."""
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if id(loss) not in self._produced:
            raise ValueError("loss was not produced on this tape")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaf_grads: dict[int, np.ndarray] = {}
        leaves: dict[int, Tensor] = {}
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
        # a vjp may hand the same array (or views of it) to several leaves,
        # e.g. add(a, b); each leaf's grad must own its memory, since
        # clip_grad_norm and optimizers update grads in place
        owners: set[int] = set()
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


@contextmanager
def no_record():
    """Record nothing inside this block, even within an outer ``Tape``.

    For frozen computations whose results enter a loss only as constants
    (a teacher's logits): on a tape their outputs would stay alive until
    backward, which reads none of them.
    """
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def backward(loss: Tensor) -> None:
    """Run reverse-mode differentiation from a scalar loss to its leaves."""
    if loss._tape is None:
        raise ValueError("loss is not on any tape; compute it inside `with Tape() as tape:`")
    loss._tape.backward(loss)


def _emit(out_data: np.ndarray, pairs: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    track = tape is not None and any(t.requires_grad for t, _ in pairs)
    out = Tensor(out_data, requires_grad=track, dtype=out_data.dtype)
    if track:
        tape.record(out, [(t, f) for t, f in pairs if t.requires_grad])
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` after numpy leading-dim broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op} needs identical shapes, got {a.data.shape} and {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op} needs identical dtypes, got {a.data.dtype} and {b.data.dtype}")


# --------------------------------------------------------------------------
# creation helpers

def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=active_dtype()), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=active_dtype()), requires_grad=requires_grad)


def param(rng: Rng, shape, std: float = 0.02) -> Tensor:
    """Fresh trainable projection weight: normal(0, std)."""
    return Tensor(rng.normal(shape, std=std), requires_grad=True)


# --------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _emit(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _emit(a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    A, B = a.data, b.data
    return _emit(A * B, [(a, lambda g: g * B), (b, lambda g: g * A)])


def neg(x: Tensor) -> Tensor:
    return _emit(-x.data, [(x, lambda g: -g)])


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = x.data.dtype.type(c)
    return _emit(x.data * c, [(x, lambda g: g * c)])


def mul_const(x: Tensor, arr: np.ndarray) -> Tensor:
    """Multiply by a constant array broadcastable up to x's shape.

    No gradient flows into the constant; the output shape must equal x's
    (broadcasting the constant up, never x).
    """
    arr = np.asarray(arr, dtype=x.data.dtype)
    out = x.data * arr
    if out.shape != x.data.shape:
        raise ShapeError(f"mul_const constant {arr.shape} must broadcast into {x.data.shape}")
    return _emit(out, [(x, lambda g: g * arr)])


def _sigmoid_np(X: np.ndarray) -> np.ndarray:
    """Branch-free logistic sigmoid: exp(min(x, 0)) / (1 + exp(-|x|)).

    Contract: no branch and no mask; both exp arguments are <= 0, so no input
    overflows.  There is no cancellation, so the relative error is a few ulp
    (~3e-7 in f32, ~3e-16 in f64) wherever the result is a normal number,
    and the result is strictly positive wherever exp(x) is normal (x >= -87
    in f32, x >= -708 in f64); below that it underflows through subnormals
    to 0.  Do not swap in 0.5 * (1 + tanh(x / 2)): in f32 its cancellation
    costs ~10% relative error near x = -15 and it gives exactly 0 below
    x ~ -17.
    """
    den = np.abs(X)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1
    out = np.minimum(X, 0)
    np.exp(out, out=out)
    out /= den
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid; accuracy and range as in ``_sigmoid_np``."""
    out = _sigmoid_np(x.data)

    def dx(g):
        d = 1.0 - out
        d *= out
        d *= g
        return d

    return _emit(out, [(x, dx)])


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) (SwiGLU's activation)."""
    X = x.data
    s = _sigmoid_np(X)
    out = X * s

    def dx(g):
        # s * (1 + x * (1 - s)), built on one buffer
        d = 1.0 - s
        d *= X
        d += 1.0
        d *= s
        d *= g
        return d

    return _emit(out, [(x, dx)])


# --------------------------------------------------------------------------
# shape ops

def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _emit(x.data.reshape(shape), [(x, lambda g: g.reshape(old))])


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = np.argsort(axes)
    return _emit(np.transpose(x.data, axes), [(x, lambda g: np.transpose(g, inv))])


def swap_last(x: Tensor) -> Tensor:
    """Transpose the last two axes."""
    return _emit(x.data.swapaxes(-1, -2), [(x, lambda g: g.swapaxes(-1, -2))])


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def dx(g):
        buf = np.zeros_like(x.data)
        buf[idx] = g
        return buf

    return _emit(x.data[idx], [(x, dx)])


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    datas = [x.data for x in xs]
    out = np.concatenate(datas, axis=axis)
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def make_dx(i):
        lo, hi = offsets[i], offsets[i + 1]

        def dx(g):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            return g[tuple(idx)]

        return dx

    return _emit(out, [(x, make_dx(i)) for i, x in enumerate(xs)])


def repeat_axis(x: Tensor, repeats: int, axis: int) -> Tensor:
    """Repeat each slice along `axis` `repeats` times.

    Unused by hybridkit itself; kept because the benchmark's tracer
    (perfbench/spans.py) looks it up by name.
    """
    out = np.repeat(x.data, repeats, axis=axis)
    n = x.data.shape[axis]

    def dx(g):
        shp = list(g.shape)
        shp[axis : axis + 1] = [n, repeats]
        return g.reshape(shp).sum(axis=axis + 1)

    return _emit(out, [(x, dx)])


# --------------------------------------------------------------------------
# matmul

def matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {A.shape} and {B.shape}")
    if A.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {A.shape} @ {B.shape}")
    if A.dtype != B.dtype:
        raise ShapeError(f"matmul needs identical dtypes, got {A.dtype} and {B.dtype}")

    if B.ndim == 2 and A.ndim > 2:
        # weight-style operand: the leading axes of A are all rows of one GEMM
        # (numpy's stacked matmul would run one GEMM per leading index), and
        # B's gradient is one flattened GEMM instead of a batched GEMM
        # followed by a sum over batch axes
        k, n = B.shape
        out = (A.reshape(-1, k) @ B).reshape(A.shape[:-1] + (n,))

        def da(g):
            return (g.reshape(-1, n) @ B.T).reshape(A.shape)

        def db(g):
            return A.reshape(-1, k).T @ g.reshape(-1, n)
    else:
        out = A @ B

        def da(g):
            return _unbroadcast(g @ B.swapaxes(-1, -2), A.shape)

        def db(g):
            return _unbroadcast(A.swapaxes(-1, -2) @ g, B.shape)

    return _emit(out, [(a, da), (b, db)])


# --------------------------------------------------------------------------
# normalization / softmax

def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """y = x / sqrt(mean(x^2, last) + eps) * gain.

    `gain` may carry leading axes of size 1 (or fewer axes) and is broadcast;
    its last axis must match x's.
    """
    X, G = x.data, gain.data
    if G.shape[-1] != X.shape[-1]:
        raise ShapeError(f"rmsnorm gain last dim {G.shape} does not match input {X.shape}")
    # sum of squares as one reduction, without an X*X temporary
    inv = np.einsum("...i,...i->...", X, X)[..., None]
    inv /= X.shape[-1]
    inv += X.dtype.type(eps)
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)

    def dx(g):
        gg = g * G
        proj = np.mean(gg * X, axis=-1, keepdims=True)
        return gg * inv - X * (inv**3) * proj

    def dgain(g):
        return _unbroadcast(g * (X * inv), G.shape)

    return _emit(X * inv * G, [(x, dx), (gain, dgain)])


def softmax_rows(x: Tensor, causal: bool = False, offset: int = 0) -> Tensor:
    """Row softmax over the last axis, optionally with a causal mask.

    With causal=True on [..., Tq, Tk], entry (i, j) is masked (exactly zero
    in the output) when j > i + offset; offset is the number of keys that
    precede the first query row (cache continuation).

    The input array is never mutated: the result is computed in place in one
    freshly allocated output array.
    """
    X = x.data
    if X.shape[-1] < 1:
        raise ShapeError("softmax_rows needs a non-empty last axis")
    if causal:
        tq, tk = X.shape[-2], X.shape[-1]
        # row i keeps keys j <= i + offset, so some row is empty iff row 0
        # loses key 0
        if tq >= 1 and offset < 0:
            raise ValueError("softmax_rows: a row is fully masked (undefined distribution)")
        out = X.copy()
        np.copyto(out, -np.inf, where=np.arange(tk) > np.arange(tq)[:, None] + offset)
        out -= out.max(axis=-1, keepdims=True)
    else:
        out = X - X.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def dx(g):
        # out * (g - sum(g * out)), built on one buffer
        d = g * out
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= out
        return d

    return _emit(out, [(x, dx)])


# --------------------------------------------------------------------------
# reductions and losses

def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype
    return _emit(np.asarray(x.data.sum(), dtype=dtype),
                 [(x, lambda g: np.full(shape, g, dtype=dtype))])


def mean_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype
    n = dtype.type(x.data.size)
    return _emit(np.asarray(x.data.mean(), dtype=dtype),
                 [(x, lambda g: np.full(shape, g / n, dtype=dtype))])


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise IndexError(
            f"token id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = table.data[ids]

    def dt(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.ravel(), g.reshape(-1, table.data.shape[-1]))
        return buf

    return _emit(out, [(table, dt)])


def _log_softmax(X: np.ndarray) -> np.ndarray:
    m = X.max(axis=-1, keepdims=True)
    s = X - m
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token negative log-likelihood over all rows."""
    X = logits.data
    tg = np.asarray(targets)
    if tg.shape != X.shape[:-1]:
        raise ShapeError(f"targets shape {tg.shape} must match logits rows {X.shape[:-1]}")
    flat = X.reshape(-1, X.shape[-1])
    tflat = tg.reshape(-1)
    logp = _log_softmax(flat)
    n = flat.shape[0]
    nll = -logp[np.arange(n), tflat].mean()

    def dx(g):
        p = np.exp(logp)
        p[np.arange(n), tflat] -= 1.0
        return (p * (g / n)).reshape(X.shape).astype(X.dtype, copy=False)

    return _emit(np.asarray(nll, dtype=X.dtype), [(logits, dx)])


def kl_divergence(ref_logits: np.ndarray, logits: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(ref) || softmax(logits)).

    The reference distribution is a constant (detached); the gradient w.r.t
    the trainable logits is (softmax(logits) - softmax(ref)) / n_rows.
    """
    R = np.asarray(ref_logits, dtype=logits.data.dtype)
    X = logits.data
    if R.shape != X.shape:
        raise ShapeError(f"kl_divergence shapes disagree: {R.shape} vs {X.shape}")
    rflat = R.reshape(-1, R.shape[-1])
    xflat = X.reshape(-1, X.shape[-1])
    log_p = _log_softmax(rflat)
    p = np.exp(log_p)
    log_q = _log_softmax(xflat)
    n = xflat.shape[0]
    val = (p * (log_p - log_q)).sum(axis=-1).mean()

    def dx(g):
        q = np.exp(log_q)
        return ((q - p) * (g / n)).reshape(X.shape).astype(X.dtype, copy=False)

    return _emit(np.asarray(val, dtype=X.dtype), [(logits, dx)])


# --------------------------------------------------------------------------
# gradient oracle

def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per entry is |analytic - central| / (|central| + 1e-12).
    `f` must map x to a scalar Tensor and be evaluable at +-step perturbations.
    """
    old_req, old_grad = x.requires_grad, x.grad
    x.requires_grad, x.grad = True, None
    try:
        with Tape() as tape:
            y = f(x)
        if y.data.size != 1:
            raise ShapeError("finite_diff_check needs a scalar-valued f")
        if not np.isfinite(y.data):
            raise FloatingPointError("f(x) is not finite")
        tape.backward(y)
        analytic = x.grad.reshape(-1).copy()
    finally:
        x.requires_grad, x.grad = old_req, old_grad

    flat = x.data.reshape(-1)
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(x).data)
        flat[i] = orig - step
        fm = float(f(x).data)
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise FloatingPointError("f produced a non-finite value during perturbation")
        numeric[i] = (fp - fm) / (2.0 * step)
    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)
    return float(rel.max())
