"""Dense tensors with tape-based reverse-mode differentiation on numpy storage.

Everything downstream (mixers, models, training) is built from the ops in
this module.  Two global precision modes exist: "extended" (float64, used by
oracles and equivalence tests) and "standard" (float32, used for training).
Ops record onto the innermost active ``Tape``; with no tape active, or
inside ``no_record()``, they are plain numpy computations, which is the
inference fast path.

A tape holds only what backward reads: per op, its gradient closures
(each capturing just the arrays, shapes and constants its own formula
needs) and its inputs, as node numbers for tensors the tape produced or as
the Tensors themselves for leaves.  It holds no op output, so an
activation that no closure reads is freed as soon as the caller drops it,
and backward drops each op's closures as soon as it has run them.

What a tape keeps, and what it rebuilds:
- Kept: the residual stream, as the input of each norm that reads it (the
  embedding and each layer's X and H), and every RMSNorm's inverse norm.
  Rebuilding either would cost a whole layer.
- Everything else of the model's width is rebuilt once per layer in
  backward.  An op's output gets a ``Recipe`` when the op is recorded:
  its forward expression and its operands, not its output.  ``rmsnorm``
  builds one over ``keep(x)``, the inverse norm and the gain; ``matmul``
  against a 2-D B (a weight), ``sigmoid``, ``reshape``, ``permute``,
  ``mul_const`` and ``positional.rope_apply`` build one when their input
  has one, ``mul`` when either input has one, and each mixer core builds
  one that re-runs its forward.  So the norms' outputs, the q, k, v and
  gate projections, rotated and scaled q and k, the gate sigmoids, the
  cores' outputs, merged output heads and the gated product that feeds
  the output projection are rebuilt, not kept.  A rebuilt GEMM runs
  through the public ``matmul`` (``mm``), so a tracer of it counts the
  recompute.
- The SwiGLU MLP (``model._swiglu``) is one record that keeps only its
  input's recipe and its weights and recomputes its gate and up
  projections in backward, so none of its ffn_width-wide activations is
  kept.
- A consumer that keeps an input for backward keeps ``keep(x)``, the
  input's recipe in place of its array when it has one: ``matmul``'s A,
  ``rmsnorm``'s x, ``sigmoid``'s own output, ``mul``'s a and b, the q, k
  and v of the two mixer cores, and the MLP's input.  It reads
  the array back with ``unpack``.  A recipe runs once per backward, on the
  forward's own operands, so its result is the forward's bit for bit; it
  is memoised until the last record that holds it is popped.
Untaped computation builds no recipe: ``Tape.record`` attaches them.

Ops outside this module are written on ``emit``, the same way.  One record
each, with a hand-written backward, are:
- the SwiGLU MLP, ``model._swiglu``: keeps its input and weights,
  recomputes the gate and up projections and their activation;
- ``positional.rope_apply``: keeps the rotation table only;
- the chunked Lightning core of ``mixers.lightning_forward_chunked``: keeps
  q, k, v and the start state, and reads each chunk's starting state from
  the ``Recipe`` that rebuilds its output, a scan that also makes the
  final state backward never reads;
- the causal block loop of ``mixers.attention_forward``: keeps q, k and v,
  and recomputes each query block's probabilities in backward.

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


def check_count(name: str, value, lo: int) -> None:
    """Raise ConfigError, naming `name`, unless `value` is an integer (not a
    bool) >= lo."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        what = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
        raise ConfigError(f"{name} must be {what}, got {value!r}")


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
        if self.seed < 0 or any(p < 0 for p in self.path):
            raise ConfigError(f"seeds must be non-negative integers, got {(self.seed, *self.path)}")
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

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node", "_recipe")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else active_dtype())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # the tape that produced this tensor and its node number there
        self._tape: Tape | None = None
        self._node: int | None = None
        # how a tape's backward rebuilds `data` (set by Tape.record)
        self._recipe: Recipe | None = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, dtype=self.data.dtype)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


class Recipe:
    """How backward rebuilds a recorded op's output: the op's forward
    expression `fn` and its operands `args` (arrays, constants, or the
    recipes of inputs that have one).

    The first call runs fn on the operands (rebuilding recipe operands
    first), memoises the result and drops fn and the operands, so an
    operand rebuilt only for this recipe is freed once used.  The result
    lives as long as the recipe: until the last record holding it is
    popped.
    """

    __slots__ = ("_fn", "_args", "_value")

    def __init__(self, fn: Callable[..., np.ndarray], args: tuple):
        self._fn, self._args, self._value = fn, args, None

    def __call__(self) -> np.ndarray:
        if self._value is None:
            self._value = self._fn(*[a() if isinstance(a, Recipe) else a for a in self._args])
            self._fn = self._args = None
        return self._value


def keep(x: Tensor) -> "Recipe | np.ndarray":
    """What a record keeps of input x: its recipe when it has one, else its
    data.  ``unpack`` reads it back."""
    return x.data if x._recipe is None else x._recipe


def unpack(kept: "Recipe | np.ndarray") -> np.ndarray:
    """The array a ``keep`` stands for, rebuilt on first use."""
    return kept() if isinstance(kept, Recipe) else kept


def derive(x: Tensor, fn: Callable[..., np.ndarray], *consts):
    """The recipe fn(x, *consts) for an op whose output is that cheap
    function of x's data, when x has a recipe; None otherwise.  Ops pass it
    to ``emit``."""
    return None if x._recipe is None else (fn, (x._recipe, *consts))


class Tape:
    """Ordered record of differentiable ops; backward walks it in reverse.

    Record n belongs to the op whose output has node number n, and holds
    one (input, vjp) pair per input that requires grad.  An input is its
    node number when this tape produced it, and the Tensor itself when it
    is a leaf here (a parameter, a constant, or a tensor from an outer
    tape).  No op output is held, so activations live only as long as the
    caller or a closure keeps them.  An op that passes a recipe gets it
    attached to its output here, so consumers recorded later keep the
    recipe instead of the array (see ``keep``).

    A tape is single-shot: backward pops each record once it has run it, so
    its closures and what they captured are freed while backward runs, and
    the tape is empty when backward returns.
    """

    __slots__ = ("_records", "_consumed")

    def __init__(self):
        self._records: list[list[tuple[int | Tensor, Callable]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        top = _TAPE_STACK.pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def record(self, out: Tensor, pairs: list[tuple[Tensor, Callable]],
               recipe: tuple | None = None) -> None:
        self._records.append([(t._node if t._tape is self else t, f) for t, f in pairs])
        out._tape, out._node = self, len(self._records) - 1
        if recipe is not None:
            out._recipe = Recipe(*recipe)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from loss."""
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss._tape is not self:
            raise ValueError("loss was not produced on this tape")
        self._consumed = True
        records = self._records
        grads: dict[int, np.ndarray] = {loss._node: np.ones_like(loss.data)}
        leaf_grads: dict[Tensor, np.ndarray] = {}
        while records:
            pairs = records.pop()
            g = grads.pop(len(records), None)  # len(records) is now its node number
            if g is None:
                continue
            for src, vjp in pairs:
                contrib = vjp(g)
                if isinstance(src, int):
                    prev = grads.get(src)
                    grads[src] = contrib if prev is None else prev + contrib
                else:
                    prev = leaf_grads.get(src)
                    leaf_grads[src] = contrib if prev is None else prev + contrib
        # a vjp may hand the same array (or views of it) to several leaves,
        # e.g. add(a, b); each leaf's grad must own its memory, since
        # clip_grad_norm and optimizers update grads in place
        owners: set[int] = set()
        for t, g in leaf_grads.items():
            if t.grad is not None:
                t.grad = t.grad + g
                continue
            root = id(g if g.base is None else g.base)
            if root in owners:
                g = g.copy()
            else:
                owners.add(root)
            t.grad = g


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


def emit(out_data: np.ndarray, pairs: Sequence[tuple[Tensor, Callable]],
         recipe: tuple | None = None) -> Tensor:
    """Wrap `out_data` as the output of one op over the tensors in `pairs`.

    Each pair is (input, vjp), where vjp maps the output's gradient to that
    input's.  The op is recorded on the innermost tape when one is active
    and some input requires grad; otherwise nothing is kept.  `recipe`, a
    (fn, operands) pair with fn(*operands) bit-identical to out_data, lets
    the tape rebuild the output for consumers instead of keeping it (see
    ``Recipe``).  Ops written outside this module (rotary encoding, the
    mixer cores) build on it.
    """
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    track = tape is not None and any(t.requires_grad for t, _ in pairs)
    out = Tensor(out_data, requires_grad=track, dtype=out_data.dtype)
    if track:
        tape.record(out, [(t, f) for t, f in pairs if t.requires_grad], recipe)
    return out


def joint_vjps(n: int, backward: Callable[[np.ndarray], Sequence]) -> list:
    """n vjps that share one call backward(g) -> (n gradients), made by the
    first of them to run: for an op whose inputs' gradients come from one
    computation."""
    grads: list = []

    def vjp(i):
        def f(g):
            if not grads:
                grads.append(backward(g))
            return grads[0][i]
        return f

    return [vjp(i) for i in range(n)]


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
    return emit(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return emit(a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product.  The record keeps ``keep(a)`` and ``keep(b)``,
    and a recorded output carries the recipe a * b when either input has
    one, so a consumer that keeps the product (``matmul``'s A) keeps none
    of the three arrays."""
    _check_same_shape(a, b, "mul")
    ka, kb = keep(a), keep(b)
    recipe = None if a._recipe is None and b._recipe is None else (np.multiply, (ka, kb))
    return emit(a.data * b.data,
                [(a, lambda g: g * unpack(kb)), (b, lambda g: g * unpack(ka))], recipe)


def mul_const(x: Tensor, arr: np.ndarray) -> Tensor:
    """Multiply by a constant array broadcastable up to x's shape.

    No gradient flows into the constant; the output shape must equal x's
    (broadcasting the constant up, never x).
    """
    arr = np.asarray(arr, dtype=x.data.dtype)
    out = np.multiply(x.data, arr)
    if out.shape != x.data.shape:
        raise ShapeError(f"mul_const constant {arr.shape} must broadcast into {x.data.shape}")
    return emit(out, [(x, lambda g: g * arr)], derive(x, np.multiply, arr))


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
    """Elementwise logistic sigmoid; accuracy and range as in ``_sigmoid_np``.

    A recorded output carries a recipe when x has one, and the record reads
    the sigmoid back through that same recipe, so a consumer that keeps it
    too (the ``mul`` of the mixers' output gate) shares one rebuild and no
    copy is kept.
    """
    def dx(g):
        s = unpack(ks)  # the output, kept as its own recipe when it has one
        d = 1.0 - s
        d *= s
        d *= g
        return d

    out = emit(_sigmoid_np(x.data), [(x, dx)], derive(x, _sigmoid_np))
    ks = keep(out)
    return out


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) (SwiGLU's activation)."""
    X = x.data
    s = _sigmoid_np(X)
    out = X * s

    def dx(g):
        # s + x * s * (1 - s) = s + out * (1 - s), built on one buffer; reading
        # out (which a mul that gates with it keeps anyway) instead of x lets
        # x go
        d = 1.0 - s
        d *= out
        d += s
        d *= g
        return d

    return emit(out, [(x, dx)])


# --------------------------------------------------------------------------
# shape ops

def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return emit(np.reshape(x.data, shape), [(x, lambda g: g.reshape(old))],
                derive(x, np.reshape, shape))


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = np.argsort(axes)
    return emit(np.transpose(x.data, axes), [(x, lambda g: np.transpose(g, inv))],
                derive(x, np.transpose, axes))


def swap_last(x: Tensor) -> Tensor:
    """Transpose the last two axes."""
    return emit(x.data.swapaxes(-1, -2), [(x, lambda g: g.swapaxes(-1, -2))])


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape, dtype = x.data.shape, x.data.dtype

    def dx(g):
        buf = np.zeros(shape, dtype=dtype)
        buf[idx] = g
        return buf

    return emit(x.data[idx], [(x, dx)])


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

    return emit(out, [(x, make_dx(i)) for i, x in enumerate(xs)])


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

    return emit(out, [(x, dx)])


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

    ka = keep(a)  # only B's gradient reads A
    if B.ndim == 2 and A.ndim > 2:
        # weight-style operand: the leading axes of A are all rows of one GEMM
        # (numpy's stacked matmul would run one GEMM per leading index), and
        # B's gradient is one flattened GEMM instead of a batched GEMM
        # followed by a sum over batch axes
        k, n = B.shape
        a_shape = A.shape
        out = (A.reshape(-1, k) @ B).reshape(a_shape[:-1] + (n,))

        def da(g):
            return (g.reshape(-1, n) @ B.T).reshape(a_shape)

        def db(g):
            return unpack(ka).reshape(-1, k).T @ g.reshape(-1, n)
    else:
        out = A @ B
        a_shape, b_shape = A.shape, B.shape

        def da(g):
            return _unbroadcast(g @ B.swapaxes(-1, -2), a_shape)

        def db(g):
            return _unbroadcast(unpack(ka).swapaxes(-1, -2) @ g, b_shape)

    # against a 2-D B (a weight, which the record keeps anyway) the output is
    # rebuilt from A's recipe with one GEMM
    return emit(out, [(a, da), (b, db)], derive(a, mm, B) if B.ndim == 2 else None)


def mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B through the public ``matmul``, recording nothing: the GEMMs an
    op runs on arrays (the mixer cores', the MLP record's) and a rebuilt
    ``matmul`` output.  So each is the call, and the value, of the op it
    stands for, and a tracer of ``matmul`` sees every one."""
    with no_record():
        return matmul(Tensor(A, dtype=A.dtype), Tensor(B, dtype=B.dtype)).data


# --------------------------------------------------------------------------
# normalization / softmax

def _rmsnorm_out(X: np.ndarray, inv: np.ndarray, G: np.ndarray) -> np.ndarray:
    """X * inv * G, written once: rmsnorm's output and its recipe."""
    out = X * inv
    out *= G
    return out


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """y = x / sqrt(mean(x^2, last) + eps) * gain.

    `gain` may carry leading axes of size 1 (or fewer axes) and is broadcast
    into x's shape, which the output keeps; its last axis must match x's.
    The record keeps ``keep(x)``, the inverse norm and the gain, and a
    recorded output carries a recipe over those three.
    """
    X, G = x.data, gain.data
    if G.shape[-1] != X.shape[-1]:
        raise ShapeError(f"rmsnorm gain last dim {G.shape} does not match input {X.shape}")
    n = X.shape[-1]
    # sum of squares as one reduction, without an X*X temporary
    inv = np.einsum("...i,...i->...", X, X)[..., None]
    inv /= n
    inv += X.dtype.type(eps)
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    out = _rmsnorm_out(X, inv, G)
    kx = keep(x)

    def dx(g):
        # g*G*inv - X * inv^3 * mean(g*G*X), built on the g*G buffer
        X = unpack(kx)
        d = g * G
        c = np.einsum("...i,...i->...", d, X)[..., None]
        c *= inv ** 3
        c /= n
        d *= inv
        d -= X * c
        return d

    gain_shape = G.shape

    def dgain(g):
        d = unpack(kx) * inv
        d *= g
        return _unbroadcast(d, gain_shape)

    return emit(out, [(x, dx), (gain, dgain)], (_rmsnorm_out, (kx, inv, G)))


def softmax_rows(x: Tensor, causal: bool = False, offset: int = 0) -> Tensor:
    """Row softmax over the last axis, optionally with a causal mask.

    With causal=True on [..., Tq, Tk], entry (i, j) is masked (exactly zero
    in the output) when j > i + offset; offset is the number of keys that
    precede the first query row (cache continuation).

    The input array is never mutated: `softmax_inplace` runs on one freshly
    allocated copy, which becomes the output.
    """
    X = x.data
    if X.shape[-1] < 1:
        raise ShapeError("softmax_rows needs a non-empty last axis")
    # row i keeps keys j <= i + offset, so some row is empty iff row 0 loses
    # key 0
    if causal and X.shape[-2] >= 1 and offset < 0:
        raise ValueError("softmax_rows: a row is fully masked (undefined distribution)")
    out = X.copy()
    softmax_inplace(out, causal, offset)

    def dx(g):
        # out * (g - sum(g * out)), built on one buffer
        d = g * out
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= out
        return d

    return emit(out, [(x, dx)])


def softmax_inplace(a: np.ndarray, causal: bool, offset: int) -> None:
    """Overwrite `a` with its row softmax over the last axis; with causal,
    entry (i, j) of the last two axes becomes exactly 0 when j > i + offset.

    The kernel of `softmax_rows`, for callers that own their scores (the
    attention core).  Only columns past `offset` can be masked, so only they
    are touched.
    """
    if causal:
        tq, tk = a.shape[-2], a.shape[-1]
        lo = max(offset + 1, 0)
        np.copyto(a[..., lo:], -np.inf,
                  where=np.arange(lo, tk) > np.arange(tq)[:, None] + offset)
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)


# --------------------------------------------------------------------------
# reductions and losses

def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype
    return emit(np.asarray(x.data.sum(), dtype=dtype),
                [(x, lambda g: np.full(shape, g, dtype=dtype))])


def mean_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype
    n = dtype.type(x.data.size)
    return emit(np.asarray(x.data.mean(), dtype=dtype),
                [(x, lambda g: np.full(shape, g / n, dtype=dtype))])


def check_ids(ids: np.ndarray, n: int) -> None:
    """Raise IndexError unless every id in the non-empty `ids` is in [0, n)."""
    if ids.min() < 0 or ids.max() >= n:
        raise IndexError(f"token id out of range [0, {n}): min={ids.min()}, max={ids.max()}")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    check_ids(ids, table.data.shape[0])
    out = table.data[ids]
    shape, dtype = table.data.shape, table.data.dtype

    def dt(g):
        buf = np.zeros(shape, dtype=dtype)
        np.add.at(buf, ids.ravel(), g.reshape(-1, shape[-1]))
        return buf

    return emit(out, [(table, dt)])


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
    shape, dtype = X.shape, X.dtype

    def dx(g):
        p = np.exp(logp)
        p[np.arange(n), tflat] -= 1.0
        return (p * (g / n)).reshape(shape).astype(dtype, copy=False)

    return emit(np.asarray(nll, dtype=X.dtype), [(logits, dx)])


def kl_divergence(ref_logits: np.ndarray, logits: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(ref) || softmax(logits)).

    The reference distribution is a constant (detached); the gradient w.r.t
    the trainable logits is (softmax(logits) - softmax(ref)) / n_rows.  The
    record keeps that difference, one [rows, V] array.
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
    del log_p
    q_minus_p = np.exp(log_q)
    del log_q
    q_minus_p -= p
    del p
    shape, dtype = X.shape, X.dtype

    def dx(g):
        return (q_minus_p * (g / n)).reshape(shape).astype(dtype, copy=False)

    return emit(np.asarray(val, dtype=X.dtype), [(logits, dx)])


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
