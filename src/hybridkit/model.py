"""Full model stacks: pre-norm residual blocks over mixers and SwiGLU MLPs.

A model is a list of layers; layer l uses softmax attention when l is in
the config's attention index set `I_attn` and a Lightning RNN mixer
otherwise; `I_attn` is the only record of a layer's kind.  The hybrid
position convention keeps rotary encoding inside RNN layers and leaves
attention layers position-free (positions then enter attention only
through causality), with optional logits scaling at inference time.

One layer computes (all norms are RMSNorm):
    H = Mixer(Norm(X)) + X
    X' = MLP(Norm(H)) + H
and the stack ends with a final norm and the (tied) unembedding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .mixers import (KvCache, MixerWeights, RecurrentState, attention_forward,
                     gamma_slopes, gqa_to_mha_clone, lightning_forward_chunked)
from .positional import RopeParams, ScaleBase
from .tensor import ConfigError, Rng, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; `I_attn` lists the attention layer indices
    and every other layer is a Lightning RNN layer."""

    L: int
    I_attn: tuple[int, ...]
    d: int
    d_h: int
    n_h: int
    n_kv_heads: int
    ffn_width: int
    vocab: int
    rope: RopeParams
    scale_base: ScaleBase | None = None
    pe_attention: str = "nope"   # "rope" | "nope"
    pe_rnn: str = "rope"
    tie_embeddings: bool = True
    attn_qk_norm: bool = True
    rnn_qk_norm: bool = True
    attn_gate: bool = False
    rnn_gate: bool = True
    chunk: int = 64

    def __post_init__(self):
        if self.L < 0:
            raise ConfigError(f"layer count must be >= 0, got {self.L}")
        if any(i < 0 or i >= self.L for i in self.I_attn):
            raise ConfigError(f"I_attn {self.I_attn} out of range for L={self.L}")
        if tuple(sorted(set(self.I_attn))) != tuple(self.I_attn):
            raise ConfigError("I_attn must be sorted and duplicate-free")
        if self.n_h % self.n_kv_heads != 0:
            raise ConfigError(f"n_h={self.n_h} not divisible by n_kv_heads={self.n_kv_heads}")
        for name in ("pe_attention", "pe_rnn"):
            if getattr(self, name) not in ("rope", "nope"):
                raise ConfigError(f"{name} must be 'rope' or 'nope'")
        if self.rope.head_dim != self.d_h:
            raise ConfigError(f"rope head_dim {self.rope.head_dim} != d_h {self.d_h}")


def desk_config(**overrides) -> ModelConfig:
    """The default desk-scale hybrid: 8 layers, attention at 0 and 4."""
    base = dict(
        L=8, I_attn=(0, 4), d=256, d_h=64, n_h=4, n_kv_heads=2,
        ffn_width=768, vocab=512, rope=RopeParams(theta=50_000.0, head_dim=64),
    )
    base.update(overrides)
    return ModelConfig(**base)


def transformer_config(**overrides) -> ModelConfig:
    """Attention-only teacher: rotary attention, no gates."""
    base = dict(
        L=8, d=256, d_h=64, n_h=4, n_kv_heads=2, ffn_width=768, vocab=512,
        rope=RopeParams(theta=50_000.0, head_dim=64),
        pe_attention="rope", attn_gate=False,
    )
    base.update(overrides)
    base["I_attn"] = tuple(range(base["L"]))
    return ModelConfig(**base)


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
    """Weights plus config; embedding doubles as unembedding when tied."""

    def __init__(self, cfg: ModelConfig, embed: Tensor, layers: list[LayerWeights],
                 final_gain: Tensor, unembed: Tensor | None = None):
        if cfg.tie_embeddings and unembed is not None:
            raise ConfigError("tied model must not carry a separate unembedding")
        if not cfg.tie_embeddings and unembed is None:
            raise ConfigError("untied model needs an unembedding matrix")
        self.cfg = cfg
        self.embed = embed
        self.unembed = unembed
        self.layers = layers
        self.final_gain = final_gain
        self.gammas = gamma_slopes(cfg.n_h)

    @property
    def out_matrix(self) -> Tensor:
        return self.embed if self.cfg.tie_embeddings else self.unembed

    def named_parameters(self):
        yield "embed", self.embed
        if self.unembed is not None:
            yield "unembed", self.unembed
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
                     self.final_gain.copy(),
                     None if self.unembed is None else self.unembed.copy())

    def state_bytes(self) -> bytes:
        """Concatenated raw bytes of all parameters (frozen-weight checks)."""
        return b"".join(t.data.tobytes() for t in self.parameters())

    # convenience entry points used by the eval suites
    def logits(self, tokens, scale_base="config") -> np.ndarray:
        return forward(self, tokens, scale_base=scale_base).data

    def generate(self, prompts: np.ndarray, n_new: int, scale_base="config") -> np.ndarray:
        return generate_greedy(self, prompts, n_new, scale_base=scale_base)

    def choice_logprobs(self, prefixes: np.ndarray, choices: np.ndarray,
                        scale_base="config", eval_batch: int = 16) -> np.ndarray:
        return choice_logprobs(self, prefixes, choices, scale_base=scale_base,
                               eval_batch=eval_batch)


# --------------------------------------------------------------------------
# initialization

def _init_mixer(rng: Rng, cfg: ModelConfig, attn: bool) -> MixerWeights:
    d, d_h = cfg.d, cfg.d_h
    n_h = cfg.n_h
    n_kv = cfg.n_kv_heads if attn else cfg.n_h
    qk_norm = cfg.attn_qk_norm if attn else cfg.rnn_qk_norm
    gate = cfg.attn_gate if attn else cfg.rnn_gate
    w = MixerWeights(
        n_h=n_h, n_kv_heads=n_kv, d_h=d_h,
        w_q=T.param(rng.child(0), (d, n_h * d_h)),
        w_k=T.param(rng.child(1), (d, n_kv * d_h)),
        w_v=T.param(rng.child(2), (d, n_kv * d_h)),
        w_o=T.param(rng.child(3), (d, n_h * d_h)),
        w_z=T.param(rng.child(4), (d, n_h * d_h)) if gate else None,
        qk_gain_q=T.ones((n_h, 1, d_h), requires_grad=True) if qk_norm else None,
        qk_gain_k=T.ones((n_kv, 1, d_h), requires_grad=True) if qk_norm else None,
        out_gain=T.ones((n_h, 1, d_h), requires_grad=True) if gate else None,
    )
    return w


def init_model(cfg: ModelConfig, seed: int) -> Model:
    """Random init: normal(0, 0.02) projections, unit norm gains."""
    rng = Rng(seed)
    layers = []
    for l in range(cfg.L):
        lrng = rng.child(100 + l)
        mixer = _init_mixer(lrng, cfg, attn=l in cfg.I_attn)
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
    unembed = None if cfg.tie_embeddings else T.param(rng.child(2), (cfg.vocab, cfg.d))
    return Model(cfg, embed, layers, T.ones((cfg.d,), requires_grad=True), unembed)


def init_rnn_from_attention(attn: MixerWeights, cfg: ModelConfig, rng: Rng) -> MixerWeights:
    """Weight transfer: clone attention projections into an RNN mixer.

    GQA KV heads are decoupled first; the output gate is fresh (normal 0.02
    for w_z, unit out_gain) and QK-norm gains are copied when the attention
    layer has them, fresh units otherwise.
    """
    w = gqa_to_mha_clone(attn, attn.group_size)
    d, n_h, d_h = w.d, w.n_h, w.d_h
    if cfg.rnn_gate:
        w.w_z = T.param(rng.child(0), (d, n_h * d_h))
        w.out_gain = T.ones((n_h, 1, d_h), requires_grad=True)
    if cfg.rnn_qk_norm and w.qk_gain_q is None:
        w.qk_gain_q = T.ones((n_h, 1, d_h), requires_grad=True)
        w.qk_gain_k = T.ones((n_h, 1, d_h), requires_grad=True)
    return w


def hybrid_config(teacher_cfg: ModelConfig, I_attn) -> ModelConfig:
    """The hybrid conventions applied to a teacher's architecture.

    Attention at I_attn without rotary encoding, Lightning RNN layers with
    rotary encoding elsewhere, output gates on both, no logits scaling.
    """
    return replace(teacher_cfg, I_attn=tuple(sorted(int(i) for i in I_attn)),
                   pe_attention="nope", pe_rnn="rope", attn_gate=True,
                   rnn_gate=True, scale_base=None)


def init_hybrid_from_teacher(teacher: Model, I_attn, seed: int = 0) -> Model:
    """Assemble the hybrid as it stands at the start of end-to-end distillation.

    Layers outside I_attn become Lightning RNN layers carrying the teacher's
    (cloned) projections; attention layers keep the teacher's weights but
    drop rotary encoding and gain fresh output gates.  The teacher itself is
    never modified.
    """
    if teacher.cfg.I_attn != tuple(range(teacher.cfg.L)):
        raise ConfigError("teacher must be attention-only")
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
            mixer = init_rnn_from_attention(tlw.mixer, cfg, rng.child(2 * l + 1))
        layers.append(LayerWeights(
            mixer=mixer,
            pre_mixer_gain=tlw.pre_mixer_gain.copy(),
            pre_mlp_gain=tlw.pre_mlp_gain.copy(),
            mlp=tlw.mlp.copy(),
        ))
    unembed = None if cfg.tie_embeddings else teacher.unembed.copy()
    return Model(cfg, teacher.embed.copy(), layers, teacher.final_gain.copy(), unembed)


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

def _resolve_scale(model: Model, scale_base):
    return model.cfg.scale_base if isinstance(scale_base, str) and scale_base == "config" else scale_base


def _mixer_apply(model: Model, l: int, h: Tensor, session: DecodeSession | None,
                 scale_base, start_pos: int) -> Tensor:
    cfg = model.cfg
    lw = model.layers[l]
    if l in cfg.I_attn:
        rope = cfg.rope if cfg.pe_attention == "rope" else None
        cache = session.states[l] if session is not None else None
        return attention_forward(h, lw.mixer, rope=rope, scale_base=scale_base,
                                 start_pos=start_pos, cache=cache)
    rope = cfg.rope if cfg.pe_rnn == "rope" else None
    state = session.states[l] if session is not None else None
    y, new_state = lightning_forward_chunked(
        h, lw.mixer, model.gammas, cfg.chunk, rope=rope, state=state,
        return_state=True)
    if session is not None:
        session.states[l] = new_state
    return y


def _last_position(x: Tensor) -> Tensor:
    return T.slice_axis(x, 1, x.shape[1] - 1, x.shape[1])


def _advance(model: Model, tokens: np.ndarray, session: DecodeSession | None,
             scale_base="config", capture: dict | None = None,
             last_only: bool = False) -> Tensor:
    """Shared layer loop for full forward (session=None) and cached decode.

    With last_only, every mixer still sees all positions (so a session's
    caches and states are complete), but the final MLP, the final norm and
    the unembedding run on the last position only.
    """
    scale_base = _resolve_scale(model, scale_base)
    tokens = np.asarray(tokens)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    if tokens.size == 0:
        raise ValueError(f"need at least one token, got token ids of shape {tokens.shape}")
    start_pos = session.pos if session is not None else 0
    x = T.embedding(model.embed, tokens)
    last_layer = len(model.layers) - 1
    if last_only and last_layer < 0:
        x = _last_position(x)
    for l, lw in enumerate(model.layers):
        h_in = T.rmsnorm(x, lw.pre_mixer_gain)
        y = _mixer_apply(model, l, h_in, session, scale_base, start_pos)
        if capture is not None and l in capture:
            capture[l] = (h_in.detach(), y.detach())
        x = T.add(x, y)
        if last_only and l == last_layer:
            x = _last_position(x)
        m_in = T.rmsnorm(x, lw.pre_mlp_gain)
        mlp = lw.mlp
        inner = T.mul(T.silu(T.matmul(m_in, mlp.w_gate)), T.matmul(m_in, mlp.w_up))
        x = T.add(x, T.matmul(inner, mlp.w_down))
    x = T.rmsnorm(x, model.final_gain)
    logits = T.matmul(x, T.swap_last(model.out_matrix))
    if session is not None:
        session.pos = start_pos + tokens.shape[1]
    return T.reshape(logits, logits.shape[1:]) if squeeze else logits


def forward(model: Model, tokens, scale_base="config") -> Tensor:
    """Logits over the vocabulary for token ids [T] or [B, T].

    Raises ValueError when there are no tokens (T = 0 or B = 0).
    """
    return _advance(model, tokens, session=None, scale_base=scale_base)


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


def prefill(model: Model, session: DecodeSession, tokens: np.ndarray,
            scale_base="config", last_only: bool = False) -> Tensor:
    """Feed a whole prompt through a session; returns logits for all positions.

    With last_only=True the logits are those of the last position only,
    [B, 1, V] (equal to the last row of the full result), and the work
    after the final layer's mixer is done for that position alone; the
    session ends in the same state either way.  Raises ValueError on an
    empty prompt.
    """
    return _advance(model, tokens, session, scale_base=scale_base, last_only=last_only)


def decode_step(model: Model, session: DecodeSession, token: int,
                scale_base="config") -> Tensor:
    """Consume one token, returning next-token logits [vocab] (batch 1)."""
    if session.batch != 1:
        raise ValueError("decode_step is the single-sequence API; use generate_greedy")
    logits = _advance(model, np.array([[int(token)]]), session, scale_base=scale_base)
    return T.reshape(logits, (model.cfg.vocab,))


def generate_greedy(model: Model, prompts: np.ndarray, n_new: int,
                    scale_base="config") -> np.ndarray:
    """Greedy continuation of a batch of equal-length prompts: [B, n_new] ids.

    The prefill yields the first new token and each of the n_new - 1 decode
    steps one more; the last token is never fed back.  Raises ValueError
    when n_new < 1.
    """
    if n_new < 1:
        raise ValueError(f"need at least one new token, got n_new={n_new}")
    prompts = np.asarray(prompts)
    if prompts.ndim == 1:
        prompts = prompts[None, :]
    session = new_session(model, batch=prompts.shape[0])
    logits = prefill(model, session, prompts, scale_base=scale_base, last_only=True)
    out = [logits.data[:, -1, :].argmax(axis=-1)]
    for _ in range(n_new - 1):
        step_logits = _advance(model, out[-1][:, None], session, scale_base=scale_base)
        out.append(step_logits.data[:, -1, :].argmax(axis=-1))
    return np.stack(out, axis=1)


def choice_logprobs(model: Model, prefixes: np.ndarray, choices: np.ndarray,
                    scale_base="config", eval_batch: int = 16) -> np.ndarray:
    """Summed log-probability of each choice after its prefix: [n, n_choices].

    prefixes is [n, P] and choices [n, n_choices, C]; entry (i, c) is the
    sum over the C tokens of choices[i, c] of log p(token | prefixes[i],
    the choice's earlier tokens), which is what a forward over the row
    [prefixes[i], choices[i, c]] gives.  Each prefix runs once: its last
    position scores every choice's first token, and its session, repeated
    once per choice, continues at position P with the remaining tokens.
    No pass runs more than eval_batch rows.
    """
    prefixes, choices = np.asarray(prefixes), np.asarray(choices)
    n, n_choices, cont_len = choices.shape
    per = max(1, eval_batch // n_choices)   # samples per prefix pass
    width = min(n_choices, eval_batch)      # choices per continuation pass
    tok_logp = np.empty(choices.shape, dtype=model.embed.data.dtype)
    for lo in range(0, n, per):
        pre, ch = prefixes[lo:lo + per], choices[lo:lo + per]
        b = pre.shape[0]
        session = new_session(model, batch=b)
        last = prefill(model, session, pre, scale_base=scale_base, last_only=True)
        first = T._log_softmax(last.data)[:, 0]
        tok_logp[lo:lo + b, :, 0] = np.take_along_axis(first, ch[:, :, 0], axis=1)
        if cont_len == 1:
            continue
        for c0 in range(0, n_choices, width):
            grp = ch[:, c0:c0 + width]
            w = grp.shape[1]
            logits = prefill(model, session.repeat(w),
                             grp[..., :-1].reshape(b * w, cont_len - 1),
                             scale_base=scale_base)
            picked = np.take_along_axis(T._log_softmax(logits.data),
                                        grp[..., 1:].reshape(b * w, cont_len - 1, 1), axis=2)
            tok_logp[lo:lo + b, c0:c0 + w, 1:] = picked.reshape(b, w, cont_len - 1)
    return tok_logp.sum(axis=2)


def mean_nll(model: Model, seq: np.ndarray, scale_base="config") -> float:
    """Mean next-token negative log-likelihood over one sequence."""
    seq = np.asarray(seq)
    if seq.ndim != 1 or seq.size < 2:
        raise ValueError("mean_nll needs one sequence of >= 2 tokens")
    logits = forward(model, seq[:-1], scale_base=scale_base)
    return float(T.cross_entropy(logits, seq[1:]).data)
