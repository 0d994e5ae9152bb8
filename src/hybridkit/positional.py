"""Rotary position encoding and position-dependent attention-logits scaling.

RoPE rotates interleaved channel pairs (2i, 2i+1) of a head vector at
absolute position t by angle t * theta^(-2i/head_dim).  Inner products of
rotated q/k then depend only on relative position.  Read as a complex
number x_2i + i x_2i+1, each pair is multiplied by e^{i t theta_i}
(RoFormer, arXiv 2104.09864), so a rotation is one complex multiply over a
complex view of the head axis, by rows of a read-only table of e^{i t
theta_i} that is built once per (RopeParams, dtype) and grown when a later
position is asked for.  NoPE is simply the absence of this rotation.

The logits scaling s_t = log_a(t + a) sharpens attention at positions beyond
the training length; it multiplies q before the attention product.  It is an
inference-time mechanism: a model applies the base its config records
(`ModelConfig.scale_base`) at inference, and every training path runs at
s_t = 1 whatever the config says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, Tensor, derive, emit


def check_rope_head_dim(head_dim: int) -> None:
    """Raise ConfigError unless `head_dim` is even and positive: the rotary
    encoding turns its dimensions in pairs."""
    if head_dim % 2 != 0 or head_dim < 2:
        raise ConfigError(f"RoPE head_dim must be even and positive, got {head_dim}")


@dataclass(frozen=True)
class RopeParams:
    """Base frequency and head width for the rotary encoding."""

    theta: float
    head_dim: int

    def __post_init__(self):
        check_rope_head_dim(self.head_dim)
        if not 0.0 < self.theta < math.inf:
            raise ConfigError(f"RoPE theta must be positive and finite, got {self.theta}")


@dataclass(frozen=True)
class ScaleBase:
    """Base a of the position-dependent scaling s_t = log_a(t + a)."""

    a: float

    def __post_init__(self):
        if not 1.0 < self.a < math.inf:
            raise ConfigError(f"scaling base must exceed 1 and be finite, got {self.a}")


@dataclass(frozen=True)
class ConstantScale:
    """Position-independent logits scaling s_t = s (ablation baseline)."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise ConfigError(f"constant scale must be positive and finite, got {self.s}")


def scale_vector(positions: np.ndarray, base) -> np.ndarray:
    """s_t per absolute position; for a ScaleBase, s_t = log_a(t + a), which
    equals 1 at t = 0 and grows without bound.

    `base` may be None (no scaling), a ScaleBase (position-dependent), or a
    ConstantScale (the same factor everywhere).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if base is None:
        return np.ones_like(positions)
    if isinstance(base, ConstantScale):
        return np.full_like(positions, base.s)
    return np.log(positions + base.a) / math.log(base.a)


# (RopeParams, real dtype) -> read-only complex table [positions, head_dim/2]
_ROPE_TABLES: dict[tuple[RopeParams, np.dtype], np.ndarray] = {}


def _rope_table(params: RopeParams, dtype: np.dtype, stop: int) -> np.ndarray:
    """Rows e^{i t theta_j} for t in [0, n) with n >= stop, as complex(dtype).

    A table too short for `stop` is replaced by one at least twice as long,
    so decoding token by token rebuilds it O(log T) times.  Each row is
    computed in f64 from its own position, so its values do not depend on
    the table's length, then rounded to the working precision.
    """
    key = (params, np.dtype(dtype))
    table = _ROPE_TABLES.get(key)
    if table is None or table.shape[0] < stop:
        n = max(stop, 2 * table.shape[0] if table is not None else 0)
        half = params.head_dim // 2
        freqs = params.theta ** (-np.arange(half, dtype=np.float64) * 2.0 / params.head_dim)
        angles = np.arange(n, dtype=np.float64)[:, None] * freqs[None, :]
        table = np.empty((n, half), dtype=np.result_type(dtype, np.complex64))
        table.real = np.cos(angles)
        table.imag = np.sin(angles)
        table.flags.writeable = False
        _ROPE_TABLES[key] = table
    return table


def _rotate(arr: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Multiply each channel pair of `arr` (last axis) by the complex `rot`."""
    if arr.strides[-1] != arr.itemsize:  # a complex view needs a contiguous last axis
        arr = np.ascontiguousarray(arr)
    pairs = arr.view(rot.dtype)
    out = np.empty_like(pairs)  # pairs' layout, so its last axis is contiguous too
    np.multiply(pairs, rot, out=out)
    return out.view(arr.dtype)


def rope_apply(x: Tensor, start_pos: int, params: RopeParams) -> Tensor:
    """Rotate channel pairs of x at absolute positions start_pos, start_pos+1, ...

    x is [..., T, head_dim]: positions run along its second-to-last axis, as
    in the mixers' [B, heads, T, d_h] layout, and head channels along the
    last (which must equal params.head_dim).  Rotation is an isometry per
    pair, and the backward pass is the inverse rotation (the conjugate
    factor).  x is never written.  The record keeps the rotation rows only,
    and a recorded output carries a recipe when x has one.
    """
    if start_pos < 0:
        raise ValueError(f"start_pos must be nonnegative, got {start_pos}")
    X = x.data
    if X.ndim < 2 or X.shape[-1] != params.head_dim:
        raise ConfigError(f"input shape {X.shape} is not [..., T, {params.head_dim}]")
    n = X.shape[-2]
    rot = _rope_table(params, X.dtype, start_pos + n)[start_pos:start_pos + n]

    def dx(g):
        return _rotate(g, rot.conj())

    return emit(_rotate(X, rot), [(x, dx)], derive(x, _rotate, rot))


def fit_scale_base(model, corpus: np.ndarray, context_len: int, candidates) -> ScaleBase:
    """Pick the scaling base with the lowest `evals.perplexity` of `model`
    on `corpus` at `context_len`, which should exceed the model's training
    context; ties break toward the smaller base, and a candidate <= 1 is a
    ConfigError.  This is a post-training grid search: each candidate scores
    a `with_scaling` view of the model, and the weights are not touched.
    """
    # local imports: positional must stay below model and evals
    from .evals import perplexity
    from .model import with_scaling

    candidates = sorted(float(a) for a in candidates)
    if not candidates:
        raise ValueError("fit_scale_base needs at least one candidate")
    if np.asarray(corpus).size < 2:
        raise ValueError("fit_scale_base needs a corpus of at least two tokens")
    ppl = {a: perplexity(with_scaling(model, ScaleBase(a)), corpus, context_len)
           for a in candidates}
    return ScaleBase(min(candidates, key=ppl.__getitem__))


DEFAULT_BASE_GRID = (100.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 5000.0)
