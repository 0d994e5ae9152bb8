"""Token mixers: causal softmax attention and Lightning Attention.

Both mixers share one weight layout (projections of shape [d, heads*d_h]
plus optional gate/norm parameters), which is what makes attention-to-RNN
weight transfer possible.  Internally all math runs on a heads-major
[batch, heads, time, d_h] layout; public entry points accept [T, d] or
[B, T, d] inputs and mirror the input's rank.

Attention follows the per-head form
    q~ = s_t * q / sqrt(d_h),   o_t = softmax(q~ K^T) V,
with optional per-head QK-RMSNorm before scaling, optional rotary encoding
(NoPE when absent), grouped KV heads, and an optional output gate
    y = (Norm(o) * sigmoid(x W_z)) W_o^T.

Grouped KV heads are shared by broadcasting, never copied: q is viewed as
[B, n_kv, g, Tq, d_h] and K^T, V as [B, n_kv, 1, d_h, Tk] and
[B, n_kv, 1, Tk, d_h], so query head h = kv * g + j reads KV head h // g.
Queries run in causal blocks of rows; the block [row0, row0 + rows)
multiplies only keys [0, offset + row0 + rows), because every later key is
masked for all of its rows.  Only the diagonal blocks compute masked
scores; prefill, KV-cache decode and training share this one path.

Lightning Attention is an outer-product RNN with a scalar,
data-independent decay gamma_h per head:
    S_t = gamma_h S_{t-1} + k~_t^T v_t,   o_t = q~_t S_t.
It applies RMSNorm then rotary encoding to q and k and scales k by
1/sqrt(d_h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .positional import RopeParams, ScaleBase, rope_apply, scale_vector
from .tensor import ConfigError, ShapeError, Tensor


def gamma_slopes(n_heads: int) -> np.ndarray:
    """Per-head Lightning decay: gamma_h = exp(-2^(-8h/H)), h = 1..H.

    Strictly increasing in h and inside (0, 1); not rescaled per layer.
    """
    if n_heads < 1:
        raise ConfigError(f"need at least one head, got {n_heads}")
    h = np.arange(1, n_heads + 1, dtype=np.float64)
    return np.exp(-np.power(2.0, -8.0 * h / n_heads))


# Every mixer tensor, in parameter and checkpoint order; all but the first
# four are optional.
MIXER_FIELDS = ("w_q", "w_k", "w_v", "w_o", "w_z",
                "qk_gain_q", "qk_gain_k", "out_gain")


@dataclass
class MixerWeights:
    """Projection set shared by attention and Lightning mixers.

    Head-count metadata travels with the weights so surgeries (GQA
    decoupling, weight transfer) can be expressed on the weights alone.
    Optional members switch features: w_z enables the output gate (with
    out_gain) and qk_gain_* enable QK-RMSNorm.
    """

    n_h: int
    n_kv_heads: int
    d_h: int
    w_q: Tensor  # [d, n_h*d_h]
    w_k: Tensor  # [d, n_kv*d_h]
    w_v: Tensor  # [d, n_kv*d_h]
    w_o: Tensor  # [d, n_h*d_h]
    w_z: Tensor | None = None
    qk_gain_q: Tensor | None = None  # [n_h, 1, d_h]
    qk_gain_k: Tensor | None = None  # [n_kv, 1, d_h]
    out_gain: Tensor | None = None   # [n_h, 1, d_h]

    def __post_init__(self):
        if self.n_h < 1 or self.n_kv_heads < 1:
            raise ConfigError("head counts must be positive")
        if self.n_h % self.n_kv_heads != 0:
            raise ConfigError(
                f"query heads {self.n_h} not divisible by KV heads {self.n_kv_heads}")
        d = self.w_q.shape[0]
        expect = {
            "w_q": (d, self.n_h * self.d_h),
            "w_k": (d, self.n_kv_heads * self.d_h),
            "w_v": (d, self.n_kv_heads * self.d_h),
            "w_o": (d, self.n_h * self.d_h),
        }
        for name, shape in expect.items():
            t = getattr(self, name)
            if t.shape != shape:
                raise ShapeError(f"{name} has shape {t.shape}, expected {shape}")
        if (self.w_z is None) != (self.out_gain is None):
            raise ConfigError("output gate needs both w_z and out_gain (or neither)")

    @property
    def d(self) -> int:
        return self.w_q.shape[0]

    @property
    def group_size(self) -> int:
        return self.n_h // self.n_kv_heads

    def named(self, prefix: str = ""):
        for name in MIXER_FIELDS:
            t = getattr(self, name)
            if t is not None:
                yield prefix + name, t

    def copy(self) -> "MixerWeights":
        return MixerWeights(self.n_h, self.n_kv_heads, self.d_h,
                            **{name: t.copy() for name, t in self.named()})


@dataclass
class RecurrentState:
    """Per-head d_h x d_h state of an RNN layer plus the next position."""

    s: np.ndarray  # [B, n_h, d_h, d_h]
    pos: int = 0

    @classmethod
    def fresh(cls, batch: int, n_h: int, d_h: int, dtype) -> "RecurrentState":
        return cls(np.zeros((batch, n_h, d_h, d_h), dtype=dtype), 0)


# Free positions a KV cache keeps after it grows, so the decode steps that
# follow a prefill append without reallocating.
_KV_HEADROOM = 64


class KvCache:
    """Append-only key/value store for attention decode ([B, n_kv, pos, d_h]).

    When it runs out, capacity at least doubles and leaves _KV_HEADROOM
    positions free; the used positions are copied once into the new buffer.
    """

    def __init__(self, batch: int, n_kv: int, d_h: int, dtype, capacity: int = 64):
        self._k = np.zeros((batch, n_kv, capacity, d_h), dtype=dtype)
        self._v = np.zeros_like(self._k)
        self.pos = 0

    def _ensure(self, extra: int) -> None:
        need = self.pos + extra
        cap = self._k.shape[2]
        if need > cap:
            new_cap = max(need + _KV_HEADROOM, 2 * cap)

            def grow(a: np.ndarray) -> np.ndarray:
                out = np.empty(a.shape[:2] + (new_cap,) + a.shape[3:], dtype=a.dtype)
                out[:, :, :self.pos] = a[:, :, :self.pos]
                return out

            self._k, self._v = grow(self._k), grow(self._v)

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        t = k.shape[2]
        self._ensure(t)
        self._k[:, :, self.pos:self.pos + t] = k
        self._v[:, :, self.pos:self.pos + t] = v
        self.pos += t

    @property
    def k(self) -> np.ndarray:
        return self._k[:, :, :self.pos]

    @property
    def v(self) -> np.ndarray:
        return self._v[:, :, :self.pos]

    def nbytes(self) -> int:
        return self.k.nbytes + self.v.nbytes

    def repeat(self, r: int) -> "KvCache":
        """A copy whose row i*r + j is row i of this cache, with the usual headroom."""
        b, n_kv, _, d_h = self._k.shape
        out = KvCache(b * r, n_kv, d_h, self._k.dtype, capacity=self.pos + _KV_HEADROOM)
        out.append(np.repeat(self.k, r, axis=0), np.repeat(self.v, r, axis=0))
        return out


# --------------------------------------------------------------------------
# shared plumbing

def _as_batched(x: Tensor) -> tuple[Tensor, bool]:
    if x.ndim == 2:
        return T.reshape(x, (1,) + x.shape), True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"mixer input must be [T, d] or [B, T, d], got {x.shape}")


def _split_heads(x: Tensor, n_heads: int, d_h: int) -> Tensor:
    b, t, _ = x.shape
    return T.permute(T.reshape(x, (b, t, n_heads, d_h)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, d_h = x.shape
    return T.reshape(T.permute(x, (0, 2, 1, 3)), (b, t, h * d_h))


def _project_heads(x3: Tensor, w: Tensor, n_heads: int, d_h: int) -> Tensor:
    return _split_heads(T.matmul(x3, w), n_heads, d_h)


def _finish_output(x3: Tensor, o_heads: Tensor, w: MixerWeights) -> Tensor:
    """Per-head output norm, sigmoid gate, and output projection."""
    if w.out_gain is not None:
        o_heads = T.rmsnorm(o_heads, w.out_gain)
    o = _merge_heads(o_heads)
    if w.w_z is not None:
        o = T.mul(o, T.sigmoid(T.matmul(x3, w.w_z)))
    return T.matmul(o, T.swap_last(w.w_o))


# Rows per causal query block.  Small blocks skip more of the masked
# triangle (at T = 512, 128-row blocks compute 10/16 of the full score
# matrix) and keep each block's scores near cache size; 2048 skipped
# nothing at the benchmark's lengths, 256 gave about half the gain of 128
# on layer selection, and 64 was no faster than 128.
_QUERY_BLOCK = 128


# --------------------------------------------------------------------------
# softmax attention

def attention_forward(
    x: Tensor,
    w: MixerWeights,
    rope: RopeParams | None = None,
    scale_base: ScaleBase | None = None,
    start_pos: int = 0,
    cache: KvCache | None = None,
) -> Tensor:
    """Causal softmax attention over x ([T, d] or [B, T, d]).

    `rope=None` means NoPE; `scale_base` enables the position-dependent
    logits scaling (applied to q, so cached keys are never rescaled).  With a
    cache, x holds only the new tokens, `start_pos` must equal cache.pos, and
    keys/values are appended before attending.
    """
    x3, squeeze = _as_batched(x)
    tq = x3.shape[1]
    q = _project_heads(x3, w.w_q, w.n_h, w.d_h)
    k = _project_heads(x3, w.w_k, w.n_kv_heads, w.d_h)
    v = _project_heads(x3, w.w_v, w.n_kv_heads, w.d_h)
    if w.qk_gain_q is not None:
        q = T.rmsnorm(q, w.qk_gain_q)
        k = T.rmsnorm(k, w.qk_gain_k)
    if rope is not None:
        q = rope_apply(q, start_pos, rope, time_axis=-2)
        k = rope_apply(k, start_pos, rope, time_axis=-2)

    positions = np.arange(start_pos, start_pos + tq)
    s_vec = scale_vector(positions, scale_base) / math.sqrt(w.d_h)
    q = T.mul_const(q, s_vec.reshape(1, 1, tq, 1))

    if cache is not None:
        if cache.pos != start_pos:
            raise ValueError(f"cache position {cache.pos} != start_pos {start_pos}")
        cache.append(k.data, v.data)
        # Views are safe: the cache is append-only and never shrinks.
        k = Tensor(cache.k, dtype=k.data.dtype)
        v = Tensor(cache.v, dtype=v.data.dtype)

    # GQA without copies: query head h = kv * g + j reads KV head kv = h // g
    # (the np.repeat mapping); K and V get a unit group axis that matmul
    # broadcasts over.
    b, n_kv, tk, d_h = k.shape
    g = w.group_size
    q = T.reshape(q, (b, n_kv, g, tq, d_h))
    kt = T.swap_last(T.reshape(k, (b, n_kv, 1, tk, d_h)))  # [B, n_kv, 1, d_h, Tk]
    v = T.reshape(v, (b, n_kv, 1, tk, d_h))

    offset = start_pos if cache is not None else 0
    blocks = []
    for row0 in range(0, tq, _QUERY_BLOCK):
        rows = min(_QUERY_BLOCK, tq - row0)
        # keys past the block's last row are masked for every row: skip them
        keys = offset + row0 + rows
        kt_b = kt if keys == tk else T.slice_axis(kt, 4, 0, keys)
        v_b = v if keys == tk else T.slice_axis(v, 3, 0, keys)
        q_b = q if rows == tq else T.slice_axis(q, 3, row0, row0 + rows)
        att = T.softmax_rows(T.matmul(q_b, kt_b), causal=True, offset=offset + row0)
        blocks.append(T.matmul(att, v_b))
    o = T.concat(blocks, axis=3) if len(blocks) > 1 else blocks[0]
    o = T.reshape(o, (b, w.n_h, tq, d_h))

    y = _finish_output(x3, o, w)
    return T.reshape(y, y.shape[1:]) if squeeze else y


# --------------------------------------------------------------------------
# Lightning Attention (data-independent scalar decay)

def _lightning_qkv(x3: Tensor, w: MixerWeights, rope: RopeParams | None, start_pos: int):
    if w.n_kv_heads != w.n_h:
        raise ConfigError("RNN mixers use one KV head per query head; clone GQA weights first")
    q = _project_heads(x3, w.w_q, w.n_h, w.d_h)
    k = _project_heads(x3, w.w_k, w.n_h, w.d_h)
    v = _project_heads(x3, w.w_v, w.n_h, w.d_h)
    if w.qk_gain_q is not None:
        q = T.rmsnorm(q, w.qk_gain_q)
        k = T.rmsnorm(k, w.qk_gain_k)
    if rope is not None:
        q = rope_apply(q, start_pos, rope, time_axis=-2)
        k = rope_apply(k, start_pos, rope, time_axis=-2)
    k = T.scale(k, 1.0 / math.sqrt(w.d_h))
    return q, k, v


def _check_state(state: RecurrentState | None, batch: int, n_h: int, d_h: int, dtype):
    if state is None:
        return RecurrentState.fresh(batch, n_h, d_h, dtype)
    if state.s.shape != (batch, n_h, d_h, d_h):
        raise ShapeError(
            f"recurrent state shape {state.s.shape} does not match "
            f"(batch={batch}, heads={n_h}, d_h={d_h})")
    return state


def lightning_forward_recurrent(
    x: Tensor,
    w: MixerWeights,
    gammas: np.ndarray,
    state: RecurrentState | None = None,
    rope: RopeParams | None = None,
) -> tuple[Tensor, RecurrentState]:
    """Step-by-step Lightning forward; returns output and the final state.

    The definitional form: S_t = gamma_h S_{t-1} + k~_t^T v_t, o_t = q~_t S_t.
    Positions continue from state.pos, so a sequence may be fed in any
    partition of consecutive calls with identical results.
    """
    x3, squeeze = _as_batched(x)
    b, t, _ = x3.shape
    state = _check_state(state, b, w.n_h, w.d_h, x3.data.dtype)
    q, k, v = _lightning_qkv(x3, w, rope, state.pos)
    gam = np.asarray(gammas, dtype=x3.data.dtype).reshape(1, w.n_h, 1, 1)
    s = Tensor(state.s, dtype=state.s.dtype)
    outs = []
    for i in range(t):
        ki = T.slice_axis(k, 2, i, i + 1)
        vi = T.slice_axis(v, 2, i, i + 1)
        qi = T.slice_axis(q, 2, i, i + 1)
        s = T.add(T.mul_const(s, gam), T.matmul(T.swap_last(ki), vi))
        outs.append(T.matmul(qi, s))
    o = T.concat(outs, axis=2) if len(outs) > 1 else outs[0]
    y = _finish_output(x3, o, w)
    new_state = RecurrentState(s.data, state.pos + t)
    return (T.reshape(y, y.shape[1:]) if squeeze else y), new_state


def _decay_powers(log_gam: np.ndarray, exponents: np.ndarray, dtype) -> np.ndarray:
    """gamma^e computed as exp(e * log gamma); underflow saturates to 0."""
    out = np.exp(log_gam[None, :, None, None] * exponents.reshape(1, 1, -1, 1))
    return out.astype(dtype, copy=False)


def lightning_forward_chunked(
    x: Tensor,
    w: MixerWeights,
    gammas: np.ndarray,
    chunk: int,
    rope: RopeParams | None = None,
    state: RecurrentState | None = None,
    return_state: bool = False,
):
    """Chunked Lightning forward, mathematically equal to the recurrent form.

    Within a chunk, outputs come from decay-masked attention; across chunks a
    carried state is advanced with per-step decay powers (computed in
    log-space so long chunks underflow to zero instead of denormals).
    """
    if chunk < 1:
        raise ConfigError(f"chunk size must be >= 1, got {chunk}")
    x3, squeeze = _as_batched(x)
    b, t, _ = x3.shape
    state = _check_state(state, b, w.n_h, w.d_h, x3.data.dtype)
    q, k, v = _lightning_qkv(x3, w, rope, state.pos)
    dtype = x3.data.dtype
    log_gam = np.log(np.asarray(gammas, dtype=np.float64))
    gam_full = None  # per-chunk constants, rebuilt when the chunk width changes

    s = Tensor(state.s, dtype=dtype)
    outs = []
    for lo in range(0, t, chunk):
        hi = min(lo + chunk, t)
        c = hi - lo
        if gam_full is None or gam_full[0].shape[2] != c:
            steps = np.arange(1, c + 1, dtype=np.float64)
            delta = steps[:, None] - steps[None, :]  # i - j, local indices
            mask_log = np.where(delta < 0, -np.inf, delta)
            decay_mask = np.exp(
                log_gam[:, None, None] * np.where(np.isneginf(mask_log), 1.0, mask_log))
            decay_mask = np.where(np.isneginf(mask_log), 0.0, decay_mask)
            gam_full = (
                _decay_powers(log_gam, steps, dtype),          # gamma^(i+1), [1,H,c,1]
                decay_mask.astype(dtype)[None],                # gamma^(i-j) masked, [1,H,c,c]
                _decay_powers(log_gam, c - steps, dtype),      # gamma^(c-1-j), [1,H,c,1]
                _decay_powers(log_gam, np.array([float(c)]), dtype),  # gamma^c, [1,H,1,1]
            )
        g_in, g_mask, g_rev, g_all = gam_full
        qc = T.slice_axis(q, 2, lo, hi)
        kc = T.slice_axis(k, 2, lo, hi)
        vc = T.slice_axis(v, 2, lo, hi)
        inter = T.matmul(T.mul_const(qc, g_in), s)
        intra = T.matmul(T.mul_const(T.matmul(qc, T.swap_last(kc)), g_mask), vc)
        outs.append(T.add(inter, intra))
        s = T.add(T.mul_const(s, g_all), T.matmul(T.swap_last(T.mul_const(kc, g_rev)), vc))
    o = T.concat(outs, axis=2) if len(outs) > 1 else outs[0]
    y = _finish_output(x3, o, w)
    y = T.reshape(y, y.shape[1:]) if squeeze else y
    if return_state:
        return y, RecurrentState(s.data, state.pos + t)
    return y


# --------------------------------------------------------------------------
# surgeries

def gqa_to_mha_clone(w: MixerWeights, g: int) -> MixerWeights:
    """Decouple grouped KV heads by cloning: query head i gets KV head i//g.

    The cloned weights compute exactly what the grouped layer computed, so
    forward outputs are preserved; parameter count grows by
    (g-1) * n_kv * d * d_h * 2.
    """
    if g < 1:
        raise ConfigError(f"group size must be >= 1, got {g}")
    if w.group_size != g:
        raise ConfigError(f"group size {g} does not match layout "
                          f"(n_h={w.n_h}, n_kv={w.n_kv_heads})")
    if g == 1:
        return w.copy()

    def widen(t: Tensor) -> Tensor:
        d = t.shape[0]
        per_head = t.data.reshape(d, w.n_kv_heads, w.d_h)
        wide = np.repeat(per_head, g, axis=1).reshape(d, w.n_h * w.d_h)
        return Tensor(wide.copy(), requires_grad=t.requires_grad, dtype=t.data.dtype)

    gain_k = None
    if w.qk_gain_k is not None:
        gain_k = Tensor(np.repeat(w.qk_gain_k.data, g, axis=0).copy(),
                        requires_grad=w.qk_gain_k.requires_grad,
                        dtype=w.qk_gain_k.data.dtype)
    return replace(w.copy(), n_kv_heads=w.n_h, w_k=widen(w.w_k), w_v=widen(w.w_v),
                   qk_gain_k=gain_k)
