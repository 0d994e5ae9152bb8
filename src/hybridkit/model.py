"""Full model stacks: pre-norm residual blocks over mixers and SwiGLU MLPs.

A model is a list of layers; layer l uses softmax attention when l is in
the config's attention index set `I_attn` and a Lightning RNN mixer
otherwise; `I_attn` is the only record of a layer's kind.  HypeNet's
conventions are fixed, not configured: every layer is built with QK-norm,
RNN layers always carry rotary encoding and output gates, and the embedding
doubles as the unembedding.  The config's `arch` is all that differs: a
"transformer" (HALO's teacher) has rotary attention in every layer and no
gates; a "hypenet" gates its attention and leaves it position-free, so
positions enter it only through causality.  `mixer_layout` is the one
place that derives a layer's KV heads and output gate from the config.
The config's `scale_base` is the logits scaling the model applies at
inference; `with_scaling` gives the same weights under another scaling,
and training runs `forward(..., scale_base=None)`.  How the mixers tile
time is a constant of `mixers`: it never changes what a model computes.
The SwiGLU MLP is one tape record (`_swiglu`) that keeps its input's
recipe and its weights, and recomputes the gate and up projections in
backward, so training keeps none of its ffn_width-wide activations.  A
training tape keeps only the residual stream (each layer's X and H, and
the final norm's input) and the norms' inverse norms; backward rebuilds
everything else one layer at a time from them (see ``tensor``): the norm
outputs, the mixer's q, k, v and gate projections, its gate sigmoid, its
core's output and its merged output heads.

One layer computes (all norms are RMSNorm):
    H = Mixer(Norm(X)) + X
    X' = MLP(Norm(H)) + H
and the stack ends with a final norm and the tied unembedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mixers
from . import tensor as T
from .mixers import (KvCache, MixerWeights, RecurrentState, attention_forward,
                     gamma_slopes, gqa_to_mha_clone, last_position,
                     lightning_forward_chunked)
from .positional import ConstantScale, RopeParams, ScaleBase
from .tensor import ConfigError, Rng, Tensor, check_count


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; `I_attn` lists the attention layer indices
    and every other layer is a Lightning RNN layer.  Raises ConfigError,
    naming the field, for a count that is not an integer >= 1 (L may be 0)
    and for inconsistent fields, such as a transformer with an RNN layer."""

    arch: str  # "transformer" | "hypenet"
    L: int
    I_attn: tuple[int, ...]
    d: int
    d_h: int
    n_h: int
    n_kv_heads: int
    ffn_width: int
    vocab: int
    rope: RopeParams
    scale_base: ScaleBase | ConstantScale | None = None

    def __post_init__(self):
        if self.arch not in ("transformer", "hypenet"):
            raise ConfigError(f"arch must be 'transformer' or 'hypenet', got {self.arch!r}")
        check_count("L", self.L, 0)
        for name in ("d", "d_h", "n_h", "n_kv_heads", "ffn_width", "vocab"):
            check_count(name, getattr(self, name), 1)
        if any(i < 0 or i >= self.L for i in self.I_attn):
            raise ConfigError(f"I_attn {self.I_attn} out of range for L={self.L}")
        if tuple(sorted(set(self.I_attn))) != tuple(self.I_attn):
            raise ConfigError("I_attn must be sorted and duplicate-free")
        if self.arch == "transformer" and self.I_attn != tuple(range(self.L)):
            raise ConfigError(f"I_attn {self.I_attn} skips a layer; a transformer has no RNN layer")
        if self.n_h % self.n_kv_heads != 0:
            raise ConfigError(f"n_h={self.n_h} not divisible by n_kv_heads={self.n_kv_heads}")
        if self.rope.head_dim != self.d_h:
            raise ConfigError(f"rope head_dim {self.rope.head_dim} != d_h {self.d_h}")


def desk_config(**overrides) -> ModelConfig:
    """The default desk-scale HypeNet: 8 layers, attention at 0 and 4."""
    base = dict(
        arch="hypenet", L=8, I_attn=(0, 4), d=256, d_h=64, n_h=4, n_kv_heads=2,
        ffn_width=768, vocab=512, rope=RopeParams(theta=50_000.0, head_dim=64),
    )
    base.update(overrides)
    return ModelConfig(**base)


def transformer_config(**overrides) -> ModelConfig:
    """`desk_config` as a transformer: attention in every layer."""
    L = overrides.pop("L", 8)
    return desk_config(arch="transformer", L=L, I_attn=tuple(range(L)), **overrides)


@dataclass
class MlpWeights:
    w_gate: Tensor  # [d, f]
    w_up: Tensor    # [d, f]
    w_down: Tensor  # [f, d]

    def named(self, prefix: str = ""):
        yield prefix + "w_gate", self.w_gate
        yield prefix + "w_up", self.w_up
        yield prefix + "w_down", self.w_down

    def copy(self) -> "MlpWeights":
        return MlpWeights(self.w_gate.copy(), self.w_up.copy(), self.w_down.copy())


@dataclass
class LayerWeights:
    mixer: MixerWeights  # attention or Lightning, as the config's I_attn says
    pre_mixer_gain: Tensor
    pre_mlp_gain: Tensor
    mlp: MlpWeights

    def named(self, prefix: str = ""):
        yield from self.mixer.named(prefix + "mixer.")
        yield prefix + "pre_mixer_gain", self.pre_mixer_gain
        yield prefix + "pre_mlp_gain", self.pre_mlp_gain
        yield from self.mlp.named(prefix + "mlp.")

    def copy(self) -> "LayerWeights":
        return LayerWeights(self.mixer.copy(),
                            self.pre_mixer_gain.copy(), self.pre_mlp_gain.copy(),
                            self.mlp.copy())


class Model:
    """Weights plus config; the embedding doubles as the unembedding."""

    def __init__(self, cfg: ModelConfig, embed: Tensor, layers: list[LayerWeights],
                 final_gain: Tensor):
        self.cfg = cfg
        self.embed = embed
        self.layers = layers
        self.final_gain = final_gain
        self.gammas = gamma_slopes(cfg.n_h)

    def named_parameters(self):
        yield "embed", self.embed
        for i, lw in enumerate(self.layers):
            yield from lw.named(f"layers.{i}.")
        yield "final_gain", self.final_gain

    def parameters(self):
        for _, t in self.named_parameters():
            yield t

    def num_params(self) -> int:
        return sum(t.size for t in self.parameters())

    def copy(self) -> "Model":
        return Model(self.cfg, self.embed.copy(), [lw.copy() for lw in self.layers],
                     self.final_gain.copy())

    def state_bytes(self) -> bytes:
        """Concatenated raw bytes of all parameters (frozen-weight checks)."""
        return b"".join(t.data.tobytes() for t in self.parameters())

    # convenience entry points used by the eval suites
    def logits(self, tokens) -> np.ndarray:
        return forward(self, tokens).data

    def generate(self, prompts: np.ndarray, n_new: int) -> np.ndarray:
        return generate_greedy(self, prompts, n_new)

    def choice_logprobs(self, prefixes: np.ndarray, choices: np.ndarray) -> np.ndarray:
        return choice_logprobs(self, prefixes, choices)


def with_scaling(model: Model, base) -> Model:
    """The same model under logits scaling `base` (None, a ScaleBase or a
    ConstantScale): a view that shares every tensor with `model` and copies
    none, so training it would train `model`."""
    return Model(replace(model.cfg, scale_base=base), model.embed, model.layers,
                 model.final_gain)


# --------------------------------------------------------------------------
# initialization

def mixer_layout(cfg: ModelConfig, l: int) -> tuple[int, bool]:
    """(KV heads, gated) of layer l's mixer: an attention layer has the
    config's KV heads and an output gate only in a hypenet; an RNN layer
    has one KV head per query head and always a gate.  Every mixer has
    QK-norm gains."""
    if l in cfg.I_attn:
        return cfg.n_kv_heads, cfg.arch == "hypenet"
    return cfg.n_h, True


def _init_mixer(rng: Rng, cfg: ModelConfig, l: int) -> MixerWeights:
    d, d_h = cfg.d, cfg.d_h
    n_h = cfg.n_h
    n_kv, gate = mixer_layout(cfg, l)
    return MixerWeights(
        n_h=n_h, n_kv_heads=n_kv, d_h=d_h,
        w_q=T.param(rng.child(0), (d, n_h * d_h)),
        w_k=T.param(rng.child(1), (d, n_kv * d_h)),
        w_v=T.param(rng.child(2), (d, n_kv * d_h)),
        w_o=T.param(rng.child(3), (d, n_h * d_h)),
        w_z=T.param(rng.child(4), (d, n_h * d_h)) if gate else None,
        qk_gain_q=T.ones((n_h, 1, d_h), requires_grad=True),
        qk_gain_k=T.ones((n_kv, 1, d_h), requires_grad=True),
        out_gain=T.ones((n_h, 1, d_h), requires_grad=True) if gate else None,
    )


def init_model(cfg: ModelConfig, seed: int) -> Model:
    """Random init: normal(0, 0.02) projections, unit norm gains."""
    rng = Rng(seed)
    layers = []
    for l in range(cfg.L):
        lrng = rng.child(100 + l)
        mixer = _init_mixer(lrng, cfg, l)
        mlp = MlpWeights(
            w_gate=T.param(lrng.child(50), (cfg.d, cfg.ffn_width)),
            w_up=T.param(lrng.child(51), (cfg.d, cfg.ffn_width)),
            w_down=T.param(lrng.child(52), (cfg.ffn_width, cfg.d)),
        )
        layers.append(LayerWeights(
            mixer=mixer,
            pre_mixer_gain=T.ones((cfg.d,), requires_grad=True),
            pre_mlp_gain=T.ones((cfg.d,), requires_grad=True),
            mlp=mlp,
        ))
    embed = T.param(rng.child(1), (cfg.vocab, cfg.d))
    return Model(cfg, embed, layers, T.ones((cfg.d,), requires_grad=True))


def init_rnn_from_attention(attn: MixerWeights, rng: Rng) -> MixerWeights:
    """Weight transfer: clone attention projections into an RNN mixer.

    GQA KV heads are decoupled first and the QK-norm gains copied; the
    output gate is fresh (normal 0.02 for w_z, unit out_gain).
    """
    w = gqa_to_mha_clone(attn)
    d, n_h, d_h = w.d, w.n_h, w.d_h
    w.w_z = T.param(rng.child(0), (d, n_h * d_h))
    w.out_gain = T.ones((n_h, 1, d_h), requires_grad=True)
    return w


def check_transformer(cfg: ModelConfig) -> None:
    """Raise ConfigError unless `cfg` is a transformer, HALO's teacher."""
    if cfg.arch != "transformer":
        raise ConfigError(f"the teacher must be a transformer, got arch {cfg.arch!r}")


def hybrid_config(teacher_cfg: ModelConfig, I_attn) -> ModelConfig:
    """The teacher's sizes as a hypenet with attention at I_attn.

    Attention without rotary encoding and with output gates, no logits
    scaling.  The Lightning RNN layers elsewhere need no setting: rotary
    encoding, QK-norm and output gates are fixed parts of every RNN layer.
    """
    return replace(teacher_cfg, arch="hypenet",
                   I_attn=tuple(sorted(int(i) for i in I_attn)), scale_base=None)


def init_hybrid_from_teacher(teacher: Model, I_attn, seed: int = 0) -> Model:
    """Assemble the hybrid as it stands at the start of end-to-end distillation.

    Layers outside I_attn become Lightning RNN layers carrying the teacher's
    (cloned) projections; attention layers keep the teacher's weights but
    drop rotary encoding and gain fresh output gates.  The teacher itself is
    never modified.
    """
    check_transformer(teacher.cfg)
    cfg = hybrid_config(teacher.cfg, I_attn)
    I_attn = cfg.I_attn
    rng = Rng(seed)
    layers = []
    for l, tlw in enumerate(teacher.layers):
        if l in I_attn:
            mixer = tlw.mixer.copy()
            mixer.w_z = T.param(rng.child(2 * l), (cfg.d, cfg.n_h * cfg.d_h))
            mixer.out_gain = T.ones((cfg.n_h, 1, cfg.d_h), requires_grad=True)
        else:
            mixer = init_rnn_from_attention(tlw.mixer, rng.child(2 * l + 1))
        layers.append(LayerWeights(
            mixer=mixer,
            pre_mixer_gain=tlw.pre_mixer_gain.copy(),
            pre_mlp_gain=tlw.pre_mlp_gain.copy(),
            mlp=tlw.mlp.copy(),
        ))
    return Model(cfg, teacher.embed.copy(), layers, teacher.final_gain.copy())


# --------------------------------------------------------------------------
# decode state

@dataclass
class DecodeSession:
    """Per-layer decode state; attention layers cache KV, RNN layers a state."""

    states: list
    pos: int = 0
    batch: int = 1

    def repeat(self, r: int) -> "DecodeSession":
        """A new session whose row i*r + j is row i of this one (np.repeat order).

        KV caches and RNN states are copied, never shared, so advancing
        either session leaves the other as it was; each KV cache keeps its
        usual free positions for the tokens that follow.  pos is unchanged.
        """
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        states = [st.repeat(r) if isinstance(st, KvCache)
                  else RecurrentState(np.repeat(st.s, r, axis=0), st.pos)
                  for st in self.states]
        return DecodeSession(states=states, pos=self.pos, batch=self.batch * r)


def new_session(model: Model, batch: int = 1) -> DecodeSession:
    dtype = model.embed.data.dtype
    states = []
    for l, lw in enumerate(model.layers):
        if l in model.cfg.I_attn:
            states.append(KvCache(batch, lw.mixer.n_kv_heads, lw.mixer.d_h, dtype))
        else:
            states.append(RecurrentState.fresh(batch, lw.mixer.n_h, lw.mixer.d_h, dtype))
    return DecodeSession(states=states, pos=0, batch=batch)


# --------------------------------------------------------------------------
# forward

def _mixer_apply(model: Model, l: int, h: Tensor, session: DecodeSession | None,
                 start_pos: int, last_only: bool) -> Tensor:
    cfg = model.cfg
    lw = model.layers[l]
    if l in cfg.I_attn:
        rope = cfg.rope if cfg.arch == "transformer" else None
        cache = session.states[l] if session is not None else None
        return attention_forward(h, lw.mixer, rope=rope, scale_base=cfg.scale_base,
                                 start_pos=start_pos, cache=cache, last_only=last_only)
    state = session.states[l] if session is not None else None
    y, new_state = lightning_forward_chunked(h, lw.mixer, model.gammas, rope=cfg.rope,
                                             state=state)
    if session is not None:
        session.states[l] = new_state
    return last_position(y) if last_only else y


def _token_ids(tokens) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.size == 0:
        raise ValueError(f"need token ids [B, T] with at least one token, got shape "
                         f"{tokens.shape}")
    return tokens


def _swiglu(m: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """The MLP, silu(m @ w_gate) * (m @ w_up) @ w_down, as one op that keeps
    no ffn_width-wide array.

    The forward runs the public ``matmul``, ``silu`` and ``mul`` outside
    the tape, so its value (and anything that wraps those ops) is the
    composition's.  The record keeps m (the pre-MLP norm's recipe) and
    the three weights.  Backward, once for all four inputs, rebuilds m,
    recomputes a = m @ w_gate and b = m @ w_up through ``matmul`` and then
    silu(a), and evaluates each gradient as the composition's vjps do, so
    every gradient is the composition's bit for bit.  It never forms the
    output, and frees each ffn_width-wide array after its last use.  Without
    a tape, or under ``no_record``, it keeps nothing.
    """
    with T.no_record():
        y = T.matmul(T.mul(T.silu(T.matmul(m, w_gate)), T.matmul(m, w_up)), w_down)
    km = T.keep(m)
    Wg, Wu, Wd = w_gate.data, w_up.data, w_down.data
    f, d = Wd.shape

    def backward(g):
        M = T.unpack(km)
        act = T.mm(M, Wg)
        s = T._sigmoid_np(act)
        act *= s  # silu(a)
        # silu's derivative s + silu(a) * (1 - s), built as silu's vjp builds it
        da = 1.0 - s
        da *= act
        da += s
        del s
        b = T.mm(M, Wu)
        g2 = g.reshape(-1, d)
        dw_down = (act * b).reshape(-1, f).T @ g2
        gp = (g2 @ Wd.T).reshape(b.shape)  # the gradient of silu(a) * b
        db = act  # gp * silu(a), in silu(a)'s buffer
        db *= gp
        gp *= b  # the gradient of silu(a)
        del act, b
        da *= gp
        del gp
        da2, db2 = da.reshape(-1, f), db.reshape(-1, f)
        dm = db2 @ Wu.T
        dm += da2 @ Wg.T
        M2 = M.reshape(-1, M.shape[-1])
        return dm.reshape(M.shape), M2.T @ da2, M2.T @ db2, dw_down

    return T.emit(y.data, list(zip((m, w_gate, w_up, w_down), T.joint_vjps(4, backward))))


def _advance(model: Model, tokens: np.ndarray, session: DecodeSession | None,
             capture: dict | None = None, last_only: bool = False) -> Tensor:
    """Shared layer loop for full forward (session=None) and cached decode.

    With last_only, every layer before the last runs on all positions, and
    the final layer's mixer sees them all (so a session's caches and states
    are complete) but returns the last position only: an attention mixer
    computes its queries for that position alone.  The final residual add,
    MLP, norm and unembedding then run on the last position only.

    On a tape, each layer keeps only its residual stream, X and H, and its
    norms' inverse norms.  The SwiGLU MLP is one op (`_swiglu`): it keeps
    only its input, the pre-MLP norm's recipe, and its weights, and
    backward recomputes the gate and up projections and the activation.
    The mixer's projections, gate and core output are rebuilt from their
    recipes, also one layer at a time.
    """
    tokens = _token_ids(tokens)
    start_pos = session.pos if session is not None else 0
    x = T.embedding(model.embed, tokens)
    last_layer = len(model.layers) - 1
    if last_only and last_layer < 0:
        x = last_position(x)
    for l, lw in enumerate(model.layers):
        last = last_only and l == last_layer
        h_in = T.rmsnorm(x, lw.pre_mixer_gain)
        y = _mixer_apply(model, l, h_in, session, start_pos, last_only=last)
        if capture is not None and l in capture:
            capture[l] = (h_in.detach(), y.detach())
        if last:
            x = last_position(x)
        x = T.add(x, y)
        m_in = T.rmsnorm(x, lw.pre_mlp_gain)
        mlp = lw.mlp
        x = T.add(x, _swiglu(m_in, mlp.w_gate, mlp.w_up, mlp.w_down))
    x = T.rmsnorm(x, model.final_gain)
    logits = T.matmul(x, T.swap_last(model.embed))
    if session is not None:
        session.pos = start_pos + tokens.shape[1]
    return logits


def forward(model: Model, tokens, scale_base="config") -> Tensor:
    """Logits [B, T, V] over the vocabulary for token ids [B, T].

    The logits scaling is the config's unless `scale_base` overrides it;
    every training path passes None (s_t = 1).  Raises ValueError when the
    ids are not [B, T] or there are none (T = 0 or B = 0).
    """
    if scale_base != "config":
        model = with_scaling(model, scale_base)
    return _advance(model, tokens, session=None)


def capture_many(model: Model, tokens, layers) -> dict:
    """One forward pass capturing, per requested layer, (mixer input Norm(X),
    mixer output before the residual add).

    These are exactly the quantities the per-layer alignment loss compares;
    capture is pure observation and leaves the logits bit-identical.  Raises
    IndexError for a layer outside [0, L).
    """
    cap = {int(l): None for l in layers}
    for l in cap:
        if not (0 <= l < model.cfg.L):
            raise IndexError(f"layer {l} out of range for L={model.cfg.L}")
    _advance(model, tokens, session=None, capture=cap)
    return cap


# Prompt rows (batch x tokens) per prefill chunk.  A prompt runs through its
# session in chunks of about this many rows, so its activations are one
# chunk's however long it is.  512, 1024 and 2048 prefilled as fast as one
# pass (a 16k-token prompt and layer selection); 2048 raised layer
# selection's peak RSS by 20 MB, and 1024 keeps GEMMs of small batches wide.
_PREFILL_ROWS = 1024


def prefill(model: Model, session: DecodeSession, tokens: np.ndarray,
            last_only: bool = False) -> Tensor:
    """Feed prompts [B, T] through a session; returns logits for all positions.

    With last_only=True the logits are those of the last position only,
    [B, 1, V] (equal to the last row of the full result): a final attention
    layer computes its queries, scores and output for that position alone,
    and everything after the final mixer runs on it alone.  The session
    ends in the same state either way (every position's keys and values
    are cached).  Raises ValueError on an empty prompt or ids not [B, T],
    and IndexError on an id outside the vocabulary, before any token runs.

    The prompt runs in chunks of `_PREFILL_ROWS` // B tokens, rounded down
    to a multiple of `mixers._QUERY_BLOCK` and `mixers._CHUNK` (at least one
    such step), so activations are one chunk's, not the whole prompt's; a
    last piece shorter than one step joins the chunk before it.  Each KV
    cache first reserves the whole prompt; with last_only every chunk runs
    last-only, and otherwise the chunks' logits are concatenated.  The
    result is bit-identical to one `_advance` over the prompt (logits,
    caches with their capacity, RNN states): every chunk starts on a query
    block and a Lightning chunk of the one pass, so each of those sees the
    operands it saw there, and every weight GEMM has at least B x step
    rows, where a BLAS takes the kernel it takes for the whole prompt
    (OpenBLAS sums a GEMM of a few rows in another order).
    """
    tokens = _token_ids(tokens)
    b, t = tokens.shape
    step = math.lcm(mixers._QUERY_BLOCK, mixers._CHUNK)
    width = max(step, _PREFILL_ROWS // b // step * step)
    starts = range(0, max(t - step + 1, 1), width)
    if len(starts) == 1:
        return _advance(model, tokens, session, last_only=last_only)
    T.check_ids(tokens, model.embed.shape[0])  # before the first chunk runs
    for st in session.states:
        if isinstance(st, KvCache):
            st.reserve(t)
    chunks = []
    for lo, hi in zip(starts, [*starts[1:], t]):
        logits = _advance(model, tokens[:, lo:hi], session, last_only=last_only)
        if not last_only:
            chunks.append(logits)
    return logits if last_only else T.concat(chunks, axis=1)


def decode_step(model: Model, session: DecodeSession, token: int) -> Tensor:
    """Consume one token, returning next-token logits [vocab] (batch 1)."""
    if session.batch != 1:
        raise ValueError("decode_step is the single-sequence API; use generate_greedy")
    logits = _advance(model, np.array([[int(token)]]), session)
    return T.reshape(logits, (model.cfg.vocab,))


def generate_greedy(model: Model, prompts: np.ndarray, n_new: int) -> np.ndarray:
    """Greedy continuation of equal-length prompts [B, T]: [B, n_new] ids.

    The prefill yields the first new token and each of the n_new - 1 decode
    steps one more; the last token is never fed back.  Raises ValueError
    when n_new < 1.
    """
    if n_new < 1:
        raise ValueError(f"need at least one new token, got n_new={n_new}")
    prompts = np.asarray(prompts)
    session = new_session(model, batch=prompts.shape[0])
    logits = prefill(model, session, prompts, last_only=True)
    out = [logits.data[:, -1, :].argmax(axis=-1)]
    for _ in range(n_new - 1):
        step_logits = _advance(model, out[-1][:, None], session)
        out.append(step_logits.data[:, -1, :].argmax(axis=-1))
    return np.stack(out, axis=1)


def choice_logprobs(model: Model, prefixes: np.ndarray, choices: np.ndarray) -> np.ndarray:
    """Summed log-probability of each choice after its prefix: [n, n_choices].

    prefixes is [n, P] and choices [n, n_choices, C]; entry (i, c) is the
    sum over the C tokens of choices[i, c] of log p(token | prefixes[i],
    the choice's earlier tokens), which is what a forward over the row
    [prefixes[i], choices[i, c]] gives.  One prefix pass of n rows scores
    every choice's first token; its session, repeated once per choice,
    continues at position P with the remaining tokens in one pass of
    n * n_choices rows.  The caller sizes n (see `evals.score_csr`).
    """
    prefixes, choices = np.asarray(prefixes), np.asarray(choices)
    n, n_choices, cont_len = choices.shape
    tok_logp = np.empty(choices.shape, dtype=model.embed.data.dtype)
    session = new_session(model, batch=n)
    last = prefill(model, session, prefixes, last_only=True)
    first = T._log_softmax(last.data)[:, 0]
    tok_logp[:, :, 0] = np.take_along_axis(first, choices[:, :, 0], axis=1)
    if cont_len > 1:
        rows = choices.reshape(n * n_choices, cont_len)
        logits = prefill(model, session.repeat(n_choices), rows[:, :-1])
        picked = np.take_along_axis(T._log_softmax(logits.data), rows[:, 1:, None], axis=2)
        tok_logp[:, :, 1:] = picked.reshape(n, n_choices, cont_len - 1)
    return tok_logp.sum(axis=2)
