"""Token mixers: causal softmax attention and Lightning Attention.

Both mixers share one weight layout (projections of shape [d, heads*d_h],
per-head QK-RMSNorm gains, and an optional output gate), which is what
makes attention-to-RNN weight transfer possible.  Internally all math runs
on a heads-major [batch, heads, time, d_h] layout; the entry points take
[B, T, d] inputs and return [B, T, d] outputs.  Both start with one q/k/v
prologue: projection, then per-head QK-RMSNorm, then rotary encoding.

Attention follows the per-head form
    q~ = s_t * q / sqrt(d_h),   o_t = softmax(q~ K^T) V,
with optional rotary encoding (NoPE when absent), grouped KV heads, and an
optional output gate
    y = (Norm(o) * sigmoid(x W_z)) W_o^T.

Grouped KV heads are shared, never copied: the g query heads that read one
KV head are stacked as rows of one GEMM.  q is viewed as
[B, n_kv, g, Tq, d_h], so query head h = kv * g + j reads KV head h // g,
and a block's g * rows query rows multiply K^T [B, n_kv, d_h, keys] and
then V [B, n_kv, keys, d_h] in one GEMM per KV head each; the softmax sees
the scores as [B, n_kv, g, rows, keys].  Queries run in causal blocks of
rows; the block [row0, row0 + rows) multiplies only keys
[0, offset + row0 + rows), because every later key is masked for all of
its rows.  Only the diagonal blocks compute masked scores; prefill,
KV-cache decode, cloze scoring and training share this one path.  A caller
that reads only the last position's output (`last_only`) still projects
and caches K and V for every new position, but computes queries, scores
and the output for the last position alone.

Lightning Attention is an outer-product RNN with a scalar,
data-independent decay gamma_h per head:
    S_t = gamma_h S_{t-1} + k~_t^T v_t,   o_t = q~_t S_t.
Its prologue always applies rotary encoding, and it scales k by 1/sqrt(d_h).
Its training form runs in chunks of `_CHUNK` tokens; like `_QUERY_BLOCK`, a
module constant, since a tiling sets speed and memory, not what is computed.

Each mixer's core is one tape record with a hand-written backward; the
projections, norms, rotary encoding and output stage around it are ordinary
ops.  Each core's forward is one loop over arrays (``_attend``,
``_lightning_scan``) that runs its GEMMs through ``T.mm``, the public
``T.matmul`` recording nothing, and attention turns each query block's
scores into probabilities in place with ``T.softmax_inplace``, the kernel
``T.softmax_rows`` runs on its own copy (masking only the block's diagonal
columns).  So outputs equal the composition of generic ops bit for bit, a
tracer of ``T.matmul`` still sees every mixer GEMM, and attention holds one
block of scores at a time.  With no tape, neither keeps anything.
- The chunked Lightning core keeps q, k, v and the start state s0
  ([B, H, d_h, d_h]), and no per-chunk state.  One recipe re-runs
  ``_lightning_scan`` once per backward: the output norm reads the output
  from it, and the core's backward each chunk's starting state, the
  forward's bit for bit (it also computes the final state, unread).
  Backward walks the chunks in reverse carrying dS, the state's gradient,
  and recomputes the decay-masked intra-chunk scores (the chunkwise
  backward of Lightning Attention-2, arXiv 2401.04658).
- The causal attention core keeps q, k and v, and no probabilities.  Its
  backward recomputes each query block's scores and softmax with the
  forward's calls, so it sees the forward's probabilities bit for bit, and
  adds dK and dV into one buffer each (as FlashAttention-2 does, arXiv
  2307.08691).
Gradients equal the composition's up to summation order.  Both cores keep
q, k and v through ``T.keep``: on a tape q and k are QK-norm outputs,
rotated and scaled, and v is a projection, all of which backward rebuilds
from their recipes (see ``tensor``), so a core's record holds no array of
its own but the Lightning start state.  Each core's recorded output
carries a recipe that re-runs its forward loop on those, so the output
norm or projection that reads it keeps no copy either: the q, k, v and
gate projections, the core output, the gate sigmoid and the gated product
the output projection reads (plain ``T.mul`` and ``T.matmul``) are
rebuilt once per layer in backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter

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


# Every mixer tensor, in parameter and checkpoint order; the output gate,
# w_z with out_gain, is the one optional pair.
MIXER_FIELDS = ("w_q", "w_k", "w_v", "w_o", "w_z",
                "qk_gain_q", "qk_gain_k", "out_gain")


@dataclass
class MixerWeights:
    """Projection set shared by attention and Lightning mixers.

    Head-count metadata travels with the weights so surgeries (GQA
    decoupling, weight transfer) can be expressed on the weights alone.
    Every mixer has QK-RMSNorm gains; a gated one also has w_z and out_gain
    (which layers are gated is `model.mixer_layout`'s decision).
    """

    n_h: int
    n_kv_heads: int
    d_h: int
    w_q: Tensor  # [d, n_h*d_h]
    w_k: Tensor  # [d, n_kv*d_h]
    w_v: Tensor  # [d, n_kv*d_h]
    w_o: Tensor  # [d, n_h*d_h]
    qk_gain_q: Tensor  # [n_h, 1, d_h]
    qk_gain_k: Tensor  # [n_kv, 1, d_h]
    w_z: Tensor | None = None       # [d, n_h*d_h]
    out_gain: Tensor | None = None  # [n_h, 1, d_h]

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

    def reserve(self, extra: int) -> None:
        """Make room for `extra` more positions, growing as an append of
        that many would; a caller that appends them in pieces reserves first
        and ends with the capacity one append would have left."""
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
        self.reserve(t)
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

def _split_heads(x: Tensor, n_heads: int, d_h: int) -> Tensor:
    b, t, _ = x.shape
    return T.permute(T.reshape(x, (b, t, n_heads, d_h)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, d_h = x.shape
    return T.reshape(T.permute(x, (0, 2, 1, 3)), (b, t, h * d_h))


def last_position(x: Tensor) -> Tensor:
    """The last position of a [B, T, ...] tensor, as [B, 1, ...]."""
    return T.slice_axis(x, 1, x.shape[1] - 1, x.shape[1])


def _project_heads(x: Tensor, w: Tensor, n_heads: int, d_h: int) -> Tensor:
    return _split_heads(T.matmul(x, w), n_heads, d_h)


def _qkv_heads(xq: Tensor, x: Tensor, w: MixerWeights, rope: RopeParams | None,
               start_pos: int) -> tuple[Tensor, Tensor, Tensor]:
    """The q heads of xq, the last rows of x [B, T, d], and the k and v heads
    of x, as [B, heads, rows, d_h]: projection, then QK-norm, then rotary
    encoding at absolute positions from start_pos (none when `rope` is None).
    """
    if x.ndim != 3:
        raise ShapeError(f"mixer input must be [B, T, d], got {x.shape}")
    q = _project_heads(xq, w.w_q, w.n_h, w.d_h)
    k = _project_heads(x, w.w_k, w.n_kv_heads, w.d_h)
    v = _project_heads(x, w.w_v, w.n_kv_heads, w.d_h)
    q = T.rmsnorm(q, w.qk_gain_q)
    k = T.rmsnorm(k, w.qk_gain_k)
    if rope is not None:
        q = rope_apply(q, start_pos + x.shape[1] - xq.shape[1], rope)
        k = rope_apply(k, start_pos, rope)
    return q, k, v


def _finish_output(x: Tensor, o_heads: Tensor, w: MixerWeights) -> Tensor:
    """Per-head output norm, sigmoid gate, and output projection.

    On a tape the merged heads, the gate and their product each carry a
    recipe, so the tape keeps none of the three: backward rebuilds them.
    """
    if w.out_gain is not None:
        o_heads = T.rmsnorm(o_heads, w.out_gain)
    o = _merge_heads(o_heads)
    if w.w_z is not None:
        o = T.mul(o, T.sigmoid(T.matmul(x, w.w_z)))
    return T.matmul(o, T.swap_last(w.w_o))


# Rows per causal query block.  Small blocks skip more of the masked
# triangle (at T = 512, 128-row blocks compute 10/16 of the full score
# matrix) and keep each block's scores near cache size; 2048 skipped
# nothing at the benchmark's lengths, 256 gave about half the gain of 128
# on layer selection, and 64 was no faster than 128.
_QUERY_BLOCK = 128

_CHUNK = 64  # tokens per chunk of the chunked Lightning form


def _query_blocks(Q, K, V, offset: int, block: int):
    """Per causal query block of at most `block` rows: (row0, rows, keys, q_b,
    kt_b, v_b, p), where q_b [B, n_kv, g * rows, d_h] holds the block's rows
    of Q [B, n_kv, g, Tq, d_h], kt_b and v_b the first `keys` keys of K^T and
    V, and p [B, n_kv, g * rows, keys] their causal probabilities: the scores
    ``T.matmul`` returned, overwritten by ``T.softmax_inplace``.  The
    generator drops p before it computes the next block, so a caller that
    drops it too holds one block at a time."""
    b, n_kv, g, tq, d_h = Q.shape
    tk = K.shape[2]
    kt = K.swapaxes(-1, -2)  # [B, n_kv, d_h, Tk]
    for row0 in range(0, tq, block):
        rows = min(block, tq - row0)
        # keys past the block's last row are masked for every row: skip them
        keys = offset + row0 + rows
        kt_b = kt if keys == tk else kt[..., :keys]
        v_b = V if keys == tk else V[:, :, :keys]
        q_b = (Q if rows == tq else Q[:, :, :, row0:row0 + rows]).reshape(b, n_kv, g * rows, d_h)
        p = T.mm(q_b, kt_b)
        T.softmax_inplace(p.reshape(b, n_kv, g, rows, keys), True, offset + row0)
        yield row0, rows, keys, q_b, kt_b, v_b, p
        del p


def _attend(Q, K, V, offset: int, block: int) -> np.ndarray:
    """The causal attention output over Q [B, n_kv, g, Tq, d_h] and K, V
    [B, n_kv, Tk, d_h], one query block of `block` rows at a time: the one
    loop that the core's forward runs and its output's recipe re-runs."""
    b, n_kv, g, tq, d_h = Q.shape
    o = np.empty(Q.shape, dtype=Q.dtype)
    for row0, rows, _, _, _, v_b, p in _query_blocks(Q, K, V, offset, block):
        o[:, :, :, row0:row0 + rows] = T.mm(p, v_b).reshape(b, n_kv, g, rows, d_h)
        del p
    return o


def _causal_attention(q: Tensor, k: Tensor, v: Tensor, offset: int) -> Tensor:
    """softmax(q K^T, causal) V over q [B, n_kv, g, Tq, d_h] and k, v
    [B, n_kv, Tk, d_h], where `offset` keys precede the first query row, as
    one op.

    The record keeps q, k and v (or their recipes), and a recorded output
    carries a recipe that re-runs the forward (``_attend``) on them.
    Backward recomputes each block's probabilities with the forward's calls,
    so they are the forward's bit for bit, and adds dK and dV into one
    buffer each.
    """
    b, n_kv, g, tq, d_h = q.shape
    block = _QUERY_BLOCK
    o = _attend(q.data, k.data, v.data, offset, block)
    kq, kk, kv = T.keep(q), T.keep(k), T.keep(v)

    def backward(gout):
        Q, K, V = T.unpack(kq), T.unpack(kk), T.unpack(kv)
        dq = np.empty(Q.shape, dtype=Q.dtype)
        dk, dv = np.zeros(K.shape, dtype=K.dtype), np.zeros(V.shape, dtype=V.dtype)
        for row0, rows, keys, q_b, kt_b, v_b, p in _query_blocks(Q, K, V, offset, block):
            g_b = gout[:, :, :, row0:row0 + rows].reshape(b, n_kv, g * rows, d_h)
            dv[:, :, :keys] += p.swapaxes(-1, -2) @ g_b
            # softmax backward, as softmax_rows': p * (dp - sum(dp * p))
            dp = g_b @ v_b.swapaxes(-1, -2)
            ds = dp * p
            np.subtract(dp, ds.sum(axis=-1, keepdims=True), out=ds)
            ds *= p
            dq[:, :, :, row0:row0 + rows] = (ds @ kt_b.swapaxes(-1, -2)).reshape(
                b, n_kv, g, rows, d_h)
            dk[:, :, :keys] += ds.swapaxes(-1, -2) @ q_b
            del p, dp, ds
        return dq, dk, dv

    return T.emit(o, list(zip((q, k, v), T.joint_vjps(3, backward))),
                  (_attend, (kq, kk, kv, offset, block)))


# --------------------------------------------------------------------------
# softmax attention

def attention_forward(
    x: Tensor,
    w: MixerWeights,
    rope: RopeParams | None = None,
    scale_base: ScaleBase | None = None,
    start_pos: int = 0,
    cache: KvCache | None = None,
    last_only: bool = False,
) -> Tensor:
    """Causal softmax attention over x [B, T, d].

    `rope=None` means NoPE; `scale_base` enables the position-dependent
    logits scaling (applied to q, so cached keys are never rescaled).  With a
    cache, x holds only the new tokens, `start_pos` must equal cache.pos, and
    keys/values are appended before attending.  With `last_only`, the output
    is that of the last position only ([B, 1, d], equal to the last row of
    the full output): keys and values still cover (and enter the cache for)
    every new position, but queries, scores and the output projection run
    for the last position alone.
    """
    xq = last_position(x) if last_only else x
    q, k, v = _qkv_heads(xq, x, w, rope, start_pos)
    tq = xq.shape[1]
    q_pos = start_pos + x.shape[1] - tq  # position of the first query row
    positions = np.arange(q_pos, q_pos + tq)
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
    # (the np.repeat mapping); a block's g query heads are the rows of one
    # GEMM against their KV head.
    b, n_kv, tk, d_h = k.shape
    q = T.reshape(q, (b, n_kv, w.group_size, tq, d_h))
    o = T.reshape(_causal_attention(q, k, v, tk - tq), (b, w.n_h, tq, d_h))
    return _finish_output(xq, o, w)


# --------------------------------------------------------------------------
# Lightning Attention (data-independent scalar decay)

def _lightning_qkv(x: Tensor, w: MixerWeights, rope: RopeParams, start_pos: int):
    if w.n_kv_heads != w.n_h:
        raise ConfigError("RNN mixers use one KV head per query head; clone GQA weights first")
    q, k, v = _qkv_heads(x, x, w, rope, start_pos)
    return q, T.mul_const(k, 1.0 / math.sqrt(w.d_h)), v


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
    rope: RopeParams,
    state: RecurrentState | None = None,
) -> tuple[Tensor, RecurrentState]:
    """Step-by-step Lightning forward over x [B, T, d]; returns output and
    the final state.

    The definitional form: S_t = gamma_h S_{t-1} + k~_t^T v_t, o_t = q~_t S_t.
    Positions continue from state.pos, so a sequence may be fed in any
    partition of consecutive calls with identical results.
    """
    state = _check_state(state, x.shape[0], w.n_h, w.d_h, x.data.dtype)
    q, k, v = _lightning_qkv(x, w, rope, state.pos)
    t = x.shape[1]
    gam = np.asarray(gammas, dtype=x.data.dtype).reshape(1, w.n_h, 1, 1)
    s = Tensor(state.s, dtype=state.s.dtype)
    outs = []
    for i in range(t):
        ki = T.slice_axis(k, 2, i, i + 1)
        vi = T.slice_axis(v, 2, i, i + 1)
        qi = T.slice_axis(q, 2, i, i + 1)
        s = T.add(T.mul_const(s, gam), T.matmul(T.swap_last(ki), vi))
        outs.append(T.matmul(qi, s))
    o = T.concat(outs, axis=2) if len(outs) > 1 else outs[0]
    return _finish_output(x, o, w), RecurrentState(s.data, state.pos + t)


def _decay_powers(log_gam: np.ndarray, exponents: np.ndarray, dtype) -> np.ndarray:
    """gamma^e computed as exp(e * log gamma); underflow saturates to 0."""
    out = np.exp(log_gam[None, :, None, None] * exponents.reshape(1, 1, -1, 1))
    return out.astype(dtype, copy=False)


# (gammas as f64 bytes, chunk width, dtype) -> read-only per-chunk decay tables
_DECAY_TABLES: dict[tuple[bytes, int, np.dtype], tuple[np.ndarray, ...]] = {}


def _decay_tables(gammas: np.ndarray, c: int, dtype) -> tuple[np.ndarray, ...]:
    """The decay constants of one chunk of width c, built once per key.

    Returns (gamma^(i+1) [1,H,c,1], gamma^(i-j) masked to i >= j [1,H,c,c],
    gamma^(c-1-j) [1,H,c,1], gamma^c [1,H,1,1]) in `dtype`, all read-only.
    """
    gam64 = np.asarray(gammas, dtype=np.float64)
    key = (gam64.tobytes(), c, np.dtype(dtype))
    tables = _DECAY_TABLES.get(key)
    if tables is None:
        log_gam = np.log(gam64)
        steps = np.arange(1, c + 1, dtype=np.float64)
        delta = steps[:, None] - steps[None, :]  # i - j, local indices
        mask_log = np.where(delta < 0, -np.inf, delta)
        decay_mask = np.exp(
            log_gam[:, None, None] * np.where(np.isneginf(mask_log), 1.0, mask_log))
        decay_mask = np.where(np.isneginf(mask_log), 0.0, decay_mask)
        tables = (
            _decay_powers(log_gam, steps, dtype),
            decay_mask.astype(dtype)[None],
            _decay_powers(log_gam, c - steps, dtype),
            _decay_powers(log_gam, np.array([float(c)]), dtype),
        )
        for table in tables:
            table.flags.writeable = False
        _DECAY_TABLES[key] = tables
    return tables


def _next_state(s: np.ndarray, kc: np.ndarray, vc: np.ndarray, g_rev: np.ndarray,
                g_all: np.ndarray) -> np.ndarray:
    """The Lightning state after chunk (kc, vc) from state s: the one state
    update, run by ``_lightning_scan``."""
    return s * g_all + T.mm((kc * g_rev).swapaxes(-1, -2), vc)


def _lightning_scan(Q, K, V, s0: np.ndarray, gammas: np.ndarray,
                    chunk: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Lightning recurrence over Q, K, V [B, H, T, d_h] from the state s0
    in chunks of `chunk` tokens: (output, states), where states[i] is chunk
    i's starting state and states[-1] the final one.  The one loop that the
    core's forward runs and its recipe re-runs in backward."""
    dtype, t = Q.dtype, Q.shape[2]
    states = [s0]
    o = np.empty(Q.shape, dtype=dtype)
    for lo in range(0, t, chunk):
        hi = min(lo + chunk, t)
        g_in, g_mask, g_rev, g_all = _decay_tables(gammas, hi - lo, dtype)
        qc, kc, vc = Q[:, :, lo:hi], K[:, :, lo:hi], V[:, :, lo:hi]
        inter = T.mm(qc * g_in, states[-1])
        intra = T.mm(T.mm(qc, kc.swapaxes(-1, -2)) * g_mask, vc)
        o[:, :, lo:hi] = inter + intra
        states.append(_next_state(states[-1], kc, vc, g_rev, g_all))
    return o, states


def _lightning_chunks(q: Tensor, k: Tensor, v: Tensor, s0: np.ndarray,
                      gammas: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """One op: the Lightning recurrence over q, k, v [B, H, T, d_h] from the
    start state s0 in chunks of _CHUNK tokens; returns output and final state.

    The record keeps q, k and v (or their recipes) and s0, and one recipe
    re-runs the forward (``_lightning_scan``) on them: the recorded output
    is read from its first item, and backward takes each chunk's starting
    state from its second, then walks the chunks in reverse carrying dS,
    the gradient of the state after the chunk, and recomputes the
    decay-masked intra-chunk scores.
    """
    dtype, t, chunk = q.dtype, q.shape[2], _CHUNK
    s0 = np.asarray(s0, dtype=dtype)
    o, states = _lightning_scan(q.data, k.data, v.data, s0, gammas, chunk)
    kq, kk, kv = T.keep(q), T.keep(k), T.keep(v)
    scan = T.Recipe(_lightning_scan, (kq, kk, kv, s0, gammas, chunk))

    def backward(g):
        starts = scan()[1]  # usually run already for the output's consumer
        Q, K, V = T.unpack(kq), T.unpack(kk), T.unpack(kv)
        dq, dk, dv = (np.empty(Q.shape, dtype=dtype) for _ in range(3))
        ds = None  # gradient of the state after the chunk; none after the last
        for i in reversed(range(len(starts) - 1)):
            lo = i * chunk
            hi = min(lo + chunk, t)
            g_in, g_mask, g_rev, g_all = _decay_tables(gammas, hi - lo, dtype)
            qc, kc, vc, gc = Q[:, :, lo:hi], K[:, :, lo:hi], V[:, :, lo:hi], g[:, :, lo:hi]
            d_scores = (gc @ vc.swapaxes(-1, -2)) * g_mask
            dq[:, :, lo:hi] = (gc @ starts[i].swapaxes(-1, -2)) * g_in + d_scores @ kc
            dkc = d_scores.swapaxes(-1, -2) @ qc
            dvc = ((qc @ kc.swapaxes(-1, -2)) * g_mask).swapaxes(-1, -2) @ gc
            if ds is not None:
                dkc += (vc @ ds.swapaxes(-1, -2)) * g_rev
                dvc += (kc * g_rev) @ ds
            dk[:, :, lo:hi], dv[:, :, lo:hi] = dkc, dvc
            if i:  # the starting state is a constant: no gradient past chunk 0
                ds_in = (qc * g_in).swapaxes(-1, -2) @ gc
                ds = ds_in if ds is None else ds_in + ds * g_all
        return dq, dk, dv

    return T.emit(o, list(zip((q, k, v), T.joint_vjps(3, backward))),
                  (itemgetter(0), (scan,))), states[-1]


def lightning_forward_chunked(
    x: Tensor,
    w: MixerWeights,
    gammas: np.ndarray,
    rope: RopeParams,
    state: RecurrentState | None = None,
) -> tuple[Tensor, RecurrentState]:
    """Chunked Lightning forward, mathematically equal to the recurrent form;
    returns output and the final state, as `lightning_forward_recurrent` does.

    Within a chunk, outputs come from decay-masked attention; across chunks a
    carried state is advanced with per-step decay powers (computed in
    log-space so long chunks underflow to zero instead of denormals).  The
    decay tables of each chunk width are built once and cached read-only.
    """
    state = _check_state(state, x.shape[0], w.n_h, w.d_h, x.data.dtype)
    q, k, v = _lightning_qkv(x, w, rope, state.pos)
    o, s = _lightning_chunks(q, k, v, state.s, gammas)
    return _finish_output(x, o, w), RecurrentState(s, state.pos + x.shape[1])


# --------------------------------------------------------------------------
# surgeries

def gqa_to_mha_clone(w: MixerWeights) -> MixerWeights:
    """Decouple grouped KV heads by cloning: with g = w.group_size, query
    head i gets KV head i // g.

    The cloned weights compute exactly what the grouped layer computed, so
    forward outputs are preserved; parameter count grows by
    (g-1) * n_kv * d * d_h * 2, plus (g-1) * n_kv * d_h for the k gains.
    """
    g = w.group_size
    if g == 1:
        return w.copy()

    def widen(t: Tensor) -> Tensor:
        d = t.shape[0]
        per_head = t.data.reshape(d, w.n_kv_heads, w.d_h)
        wide = np.repeat(per_head, g, axis=1).reshape(d, w.n_h * w.d_h)
        return Tensor(wide, requires_grad=t.requires_grad, dtype=t.data.dtype)

    gain_k = Tensor(np.repeat(w.qk_gain_k.data, g, axis=0),
                    requires_grad=w.qk_gain_k.requires_grad, dtype=w.qk_gain_k.data.dtype)
    return replace(w.copy(), n_kv_heads=w.n_h, w_k=widen(w.w_k), w_v=widen(w.w_v),
                   qk_gain_k=gain_k)
