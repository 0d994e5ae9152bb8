"""The attention-to-hybrid conversion pipeline and its training machinery.

Three stages follow the weight-transfer initialization:

1. *alignment*: every candidate RNN layer is trained independently to match
   its source attention layer's outputs (mean squared error against frozen
   teacher activations), so layers can be trained in any order or in
   parallel;
2. *selection*: each layer is scored by how much replacing it hurts recall
   relative to how little it hurts the cloze proxy, and the top-k layers are
   kept as attention (k defaults to floor(L/4));
3. *distillation + finetune*: the assembled hybrid is trained end-to-end on
   per-token KL against the frozen teacher, then finetuned on plain
   cross-entropy at a longer context with a small constant learning rate.

All stages take the same optimizer step (`_train_step`): AdamW (decoupled
weight decay, betas (0.9, 0.95)), linear warmup, and cosine or constant
schedules.  The teacher is never mutated.

Each stage, as a `HaloConfig` sets it up, is one function: `run_stage1`,
`select_layers`, `assemble_hybrid`, `run_stage2` and `run_stage3`.
`hybridkit halo` (`cli.cmd_halo`) alone chains them; it persists what each
returns and refuses a run that changed the teacher.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tensor as T
from .data import StreamConfig, TokenStream, check_vocab
from .evals import RcSuite, build_rc_suite, score_csr, score_recall
from .fileio import write_text_atomic
from .mixers import MixerWeights, lightning_forward_chunked
from .model import (Model, capture_many, check_transformer, forward,
                    init_hybrid_from_teacher, init_rnn_from_attention)
from .tensor import ConfigError, Rng, Tape, Tensor, check_count


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the partial report."""

    def __init__(self, stage: str, report: "StageReport"):
        super().__init__(f"{stage}: loss became non-finite at step {len(report.losses) - 1}")
        self.report = report


@dataclass(frozen=True)
class TrainConfig:
    """One training stage's budget and optimizer settings."""

    context_len: int
    batch_size: int
    steps: int
    lr_max: float
    lr_min: float = 1e-5
    schedule: str = "cosine"  # "cosine" | "constant"
    warmup_steps: int = 0
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "warmup_steps", "seed"):
            check_count(name, getattr(self, name), 0)
        for name in ("batch_size", "context_len"):
            check_count(name, getattr(self, name), 1)
        for name in ("lr_max", "lr_min", "grad_clip", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.lr_min > self.lr_max:
            raise ConfigError(f"lr_min {self.lr_min} exceeds lr_max {self.lr_max}")
        if self.warmup_steps > self.steps:
            raise ConfigError(f"warmup {self.warmup_steps} exceeds steps {self.steps}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")


def stream_for(cfg: TrainConfig, kind: str) -> TokenStream:
    """The token stream a stage trains on: its context, batch and seed."""
    return TokenStream(StreamConfig(kind=kind, context_len=cfg.context_len,
                                    batch_size=cfg.batch_size, seed=cfg.seed))


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0, then cosine decay to lr_min (or a constant)."""
    if not (0 <= step < cfg.steps):
        raise ValueError(f"step {step} outside [0, {cfg.steps})")
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr_max * step / cfg.warmup_steps
    if cfg.schedule == "constant":
        return cfg.lr_max
    span = max(1, cfg.steps - 1 - cfg.warmup_steps)
    progress = (step - cfg.warmup_steps) / span
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + np.cos(np.pi * progress))


# --------------------------------------------------------------------------
# optimizer

@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float,
               betas: tuple[float, float] = (0.9, 0.95),
               weight_decay: float = 0.0, eps: float = 1e-8) -> bool:
    """Decoupled-weight-decay Adam with bias correction; updates in place.

    Returns False (and clears gradients) without touching params or moments
    when any gradient is non-finite.  Parameters with no gradient are left
    alone.
    """
    live = [(name, p) for name, p in params.items() if p.grad is not None]
    for _, p in live:
        if not np.isfinite(p.grad).all():
            for _, q in live:
                q.grad = None
            return False
    state.t += 1
    b1, b2 = betas
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in live:
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        p.grad = None
    return True


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm (0
    turns clipping off); returns the norm before scaling."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(sq))
    if norm > max_norm > 0:
        s = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= s
    return norm


# --------------------------------------------------------------------------
# reports

@dataclass
class StageReport:
    stage: str
    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    # pre-clip global gradient norm per step; a step whose loss was
    # non-finite ran no backward and has none
    grad_norms: list[float] = field(default_factory=list)
    # wall time of each completed step (loss, backward, clip, AdamW) and the
    # tokens one step trains on (batch_size * context_len)
    step_s: list[float] = field(default_factory=list)
    tokens_per_step: int = 0
    wall_time: float = 0.0
    # step -> why its update was not applied
    skipped: dict[int, str] = field(default_factory=dict)
    final_metrics: dict = field(default_factory=dict)

    @property
    def skipped_steps(self) -> int:
        return len(self.skipped)

    def records(self):
        for step, (loss, lr) in enumerate(zip(self.losses, self.lrs)):
            rec = {"step": step, "lr": lr, "loss": loss}
            if step < len(self.grad_norms):
                rec["grad_norm"] = self.grad_norms[step]
            if step < len(self.step_s):
                rec["step_s"] = self.step_s[step]
                rec["tok_per_s"] = self.tokens_per_step / self.step_s[step]
            if step in self.skipped:
                rec["skipped"] = self.skipped[step]
            yield rec

    def write_jsonl(self, path) -> None:
        """One strict JSON object per step, then a summary line; a non-finite
        number (a skipped step's grad_norm, say) is written as null."""
        lines = [_json_line(r) for r in self.records()]
        lines.append(_json_line({"final": self.final_metrics,
                                 "wall_time": self.wall_time,
                                 "skipped_steps": self.skipped_steps}))
        write_text_atomic(path, "\n".join(lines) + "\n")


def _json_line(obj) -> str:
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        return None if isinstance(v, float) and not np.isfinite(v) else v

    return json.dumps(finite(obj), allow_nan=False)


def _train_step(report: StageReport, params: dict[str, Tensor], state: AdamWState,
                cfg: TrainConfig, step: int, make_loss: Callable[[], Tensor],
                t0: float) -> None:
    """One optimizer step: loss under a tape, record, backward, clip, AdamW.

    Raises TrainingDiverged (report.wall_time counted from t0) when the loss
    is non-finite; a step whose gradients are non-finite is skipped, and the
    report records why.  A step that completes records its own wall time.
    """
    start = time.monotonic()
    with Tape() as tape:
        loss = make_loss()
    value = float(loss.data)
    lr = lr_at(step, cfg)
    report.losses.append(value)
    report.lrs.append(lr)
    if not np.isfinite(value):
        report.wall_time = time.monotonic() - t0
        raise TrainingDiverged(report.stage, report)
    tape.backward(loss)
    report.grad_norms.append(clip_grad_norm(params, cfg.grad_clip))
    if not adamw_step(params, state, lr, cfg.betas, cfg.weight_decay):
        report.skipped[step] = "non-finite gradient"
    report.step_s.append(time.monotonic() - start)
    report.tokens_per_step = cfg.batch_size * cfg.context_len


def _train_loop(stage: str, params: dict[str, Tensor], cfg: TrainConfig,
                make_loss: Callable[[int], Tensor]) -> StageReport:
    report = StageReport(stage=stage)
    state = AdamWState()
    t0 = time.monotonic()
    for step in range(cfg.steps):
        _train_step(report, params, state, cfg, step, partial(make_loss, step), t0)
    report.wall_time = time.monotonic() - t0
    return report


# --------------------------------------------------------------------------
# stage 1: hidden-state alignment

def _candidate_loss(cand: MixerWeights, x_in: np.ndarray, y_ref: np.ndarray,
                    model: Model) -> Tensor:
    y, _ = lightning_forward_chunked(Tensor(x_in, dtype=x_in.dtype), cand,
                                     model.gammas, rope=model.cfg.rope)
    d = T.sub(y, Tensor(y_ref, dtype=y_ref.dtype))
    return T.mean_all(T.mul(d, d))


def stage1_align_all(teacher: Model, layers: Sequence[int], stream: TokenStream,
                     cfg: TrainConfig) -> dict[int, tuple[MixerWeights, StageReport]]:
    """Train one aligned RNN candidate per requested layer of a transformer.

    Layers are independent (disjoint weights, frozen teacher); one teacher
    forward per batch feeds every layer's loss.  Initial/final alignment
    error on a fixed probe batch lands in each report's final_metrics.
    """
    check_transformer(teacher.cfg)
    layers = list(dict.fromkeys(int(l) for l in layers))  # each layer once
    seed_rng = Rng(cfg.seed, (17,))
    candidates: dict[int, MixerWeights] = {}
    opt_states: dict[int, AdamWState] = {}
    reports: dict[int, StageReport] = {}
    for l in layers:
        candidates[l] = init_rnn_from_attention(teacher.layers[l].mixer, seed_rng.child(l))
        opt_states[l] = AdamWState()
        reports[l] = StageReport(stage=f"stage1/layer{l}")
    params = {l: dict(candidates[l].named()) for l in layers}

    probe = TokenStream(replace(stream.cfg, seed=stream.cfg.seed + 7919)).batch(0)[:, :-1]
    # the teacher is frozen, so one capture serves both probe measurements
    probe_caps = capture_many(teacher, probe, layers)

    def probe_mse(key: str) -> None:
        for l in layers:
            x_in, y_ref = probe_caps[l]
            reports[l].final_metrics[key] = float(
                _candidate_loss(candidates[l], x_in.data, y_ref.data, teacher).data)

    probe_mse("mse_initial")
    t0 = time.monotonic()
    for step in range(cfg.steps):
        caps = capture_many(teacher, stream.batch(step)[:, :-1], layers)
        for l in layers:
            x_in, y_ref = caps.pop(l)  # freed once this layer's step has run
            _train_step(reports[l], params[l], opt_states[l], cfg, step,
                        partial(_candidate_loss, candidates[l], x_in.data, y_ref.data,
                                teacher), t0)
    probe_mse("mse_final")
    for l in layers:
        reports[l].wall_time = time.monotonic() - t0
    return {l: (candidates[l], reports[l]) for l in layers}


# --------------------------------------------------------------------------
# layer selection

def layer_importance(scores: Sequence[tuple[float, float]],
                     eps: float = 1e-6) -> list[float]:
    """s_i = (max R - R_i) / (max C - C_i + eps); recall-critical layers score high."""
    if len(scores) == 0:
        raise ValueError("no scores given")
    rs = np.array([r for r, _ in scores], dtype=np.float64)
    cs = np.array([c for _, c in scores], dtype=np.float64)
    if (rs < 0).any() or (rs > 1).any() or (cs < 0).any() or (cs > 1).any():
        raise ValueError("recall/cloze scores must lie in [0, 1]")
    return list((rs.max() - rs) / (cs.max() - cs + eps))


def select_attention_layers(importance: Sequence[float], k: int) -> list[int]:
    """Indices of the k largest scores; ties to the lower index; sorted output."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > len(importance):
        raise ValueError(f"k={k} exceeds {len(importance)} layers")
    order = sorted(range(len(importance)), key=lambda i: (-importance[i], i))
    return sorted(order[:k])


def candidate_model(teacher: Model, layer: int, rnn_weights: MixerWeights) -> Model:
    """The teacher with exactly one mixer swapped for (a copy of) its aligned RNN.

    Nothing else changes: remaining attention layers keep their rotary
    encoding and the teacher's logits scaling, and the swapped layer is an
    RNN layer like any other.
    Every other tensor (embedding, final gain, the other layers, the
    swapped layer's norms and MLP) is the teacher's own, shared rather than
    copied, so the candidate is for evaluation only: training it would
    train the teacher.
    """
    cfg = replace(teacher.cfg)  # ModelConfig refuses a transformer with an RNN
    # layer, which only a candidate is, so the copy's I_attn is set past that check
    object.__setattr__(cfg, "I_attn", tuple(i for i in cfg.I_attn if i != layer))
    layers = list(teacher.layers)
    layers[layer] = replace(layers[layer], mixer=rnn_weights.copy())
    return Model(cfg, teacher.embed, layers, teacher.final_gain)


def evaluate_RC(model: Model, suite: RcSuite) -> tuple[float, float]:
    """(recall accuracy, cloze accuracy) on the fixed synthetic suites."""
    r = score_recall(model, suite.niah_samples)
    c = score_csr(model, suite.csr_samples)
    return r.value, c.value


# --------------------------------------------------------------------------
# stage 2: knowledge distillation

def stage2_distill(teacher: Model, hybrid: Model, stream: TokenStream,
                   cfg: TrainConfig) -> StageReport:
    """End-to-end per-token KL(teacher || student); teacher frozen.

    The teacher runs off the tape: its logits are constants of the loss.
    """
    params = dict(hybrid.named_parameters())
    probe = TokenStream(replace(stream.cfg, seed=stream.cfg.seed + 104729)).batch(0)[:, :-1]

    def kl(x: np.ndarray) -> Tensor:
        with T.no_record():
            t_logits = forward(teacher, x).data
        return T.kl_divergence(t_logits, forward(hybrid, x, scale_base=None))

    kl_init = float(kl(probe).data)

    def make_loss(step: int) -> Tensor:
        return kl(stream.batch(step)[:, :-1])

    report = _train_loop("stage2", params, cfg, make_loss)
    report.final_metrics["kl_initial"] = kl_init
    report.final_metrics["kl_final"] = float(kl(probe).data)
    return report


# --------------------------------------------------------------------------
# stage 3: long-context finetuning

def stage3_finetune(hybrid: Model, stream: TokenStream, cfg: TrainConfig,
                    stage2_context: int | None = None) -> StageReport:
    """Cross-entropy finetuning at an extended context, constant small LR."""
    if stage2_context is not None and cfg.context_len < stage2_context:
        warnings.warn(
            f"finetune context {cfg.context_len} is below the distillation "
            f"context {stage2_context}; long-context behavior will not improve",
            stacklevel=2)
    params = dict(hybrid.named_parameters())
    probe = TokenStream(replace(stream.cfg, seed=stream.cfg.seed + 15485863)).batch(0)

    def probe_nll() -> float:
        logits = forward(hybrid, probe[:, :-1], scale_base=None)
        return float(T.cross_entropy(logits, probe[:, 1:]).data)

    nll_init = probe_nll()

    def make_loss(step: int) -> Tensor:
        batch = stream.batch(step)
        logits = forward(hybrid, batch[:, :-1], scale_base=None)
        return T.cross_entropy(logits, batch[:, 1:])

    report = _train_loop("stage3", params, cfg, make_loss)
    report.final_metrics["heldout_nll_initial"] = nll_init
    report.final_metrics["heldout_nll_final"] = probe_nll()
    return report


# --------------------------------------------------------------------------
# whole-pipeline orchestration

@dataclass
class HaloConfig:
    stage1: TrainConfig
    stage2: TrainConfig
    stage3: TrainConfig
    data_kind: str = "niah_mix"
    k: int | None = None          # attention layers kept; None = floor(L/4)
    rc_samples: int = 64
    rc_seed: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.k is not None:
            check_count("halo.k", self.k, 1)
        check_count("halo.rc_samples", self.rc_samples, 1)
        check_count("halo.rc_seed", self.rc_seed, 0)


def resolve_k(k: int | None, L: int) -> int:
    """Attention layers kept by selection: k, or floor(L/4) but at least 1.

    Raises ConfigError when k exceeds the layer count.
    """
    k = max(1, L // 4) if k is None else k
    if k > L:
        raise ConfigError(f"halo.k={k} exceeds the teacher's {L} layers")
    return k


def check_teacher(teacher: Model, cfg: HaloConfig) -> int:
    """The k selection keeps for this teacher; raises ConfigError when it is
    not a transformer, k exceeds its layers, its vocabulary cannot read the
    recall suite's token ids (selection scores every candidate on needles),
    or its tensors (f32 or f64, as checkpoints store them) are not of the
    dtype the active precision computes in (the stages mix the teacher's
    activations with tensors made at that precision)."""
    check_transformer(teacher.cfg)
    check_vocab(teacher.cfg.vocab, "niah")
    k = resolve_k(cfg.k, teacher.cfg.L)
    dtype = teacher.embed.data.dtype
    if dtype != T.active_dtype():
        fits = "extended" if dtype == np.float64 else "standard"
        raise ConfigError(f"teacher holds {dtype} tensors, but precision {T.precision()} "
                          f"computes in {T.active_dtype()}; rerun with --precision {fits}")
    return k


def run_stage1(teacher: Model, cfg: HaloConfig) -> dict[int, tuple[MixerWeights, StageReport]]:
    """Align one RNN candidate per teacher layer on the stage-1 stream."""
    return stage1_align_all(teacher, range(teacher.cfg.L),
                            stream_for(cfg.stage1, cfg.data_kind), cfg.stage1)


def select_layers(teacher: Model, aligned: Mapping[int, MixerWeights],
                  cfg: HaloConfig) -> tuple[tuple[int, ...], list[dict]]:
    """Score every layer's candidate; returns (I_attn, one score row per layer).

    A row holds the layer, the candidate's recall and cloze accuracy and
    the layer's importance; I_attn is the top-k layers by importance.
    """
    L = teacher.cfg.L
    k = resolve_k(cfg.k, L)
    suite = build_rc_suite(cfg.stage1.context_len, seed=cfg.rc_seed,
                           n_samples=cfg.rc_samples)
    rc = [evaluate_RC(candidate_model(teacher, l, aligned[l]), suite) for l in range(L)]
    importance = layer_importance(rc)
    I_attn = tuple(select_attention_layers(importance, k))
    scores = [{"layer": l, "recall": rc[l][0], "cloze": rc[l][1],
               "importance": importance[l]} for l in range(L)]
    return I_attn, scores


def assemble_hybrid(teacher: Model, I_attn, aligned: Mapping[int, MixerWeights],
                    seed: int) -> Model:
    """The hybrid before distillation, with the aligned mixers in its RNN layers.

    The aligned mixers are used as they are, not copied.
    """
    hybrid = init_hybrid_from_teacher(teacher, I_attn, seed=seed)
    for l, lw in enumerate(hybrid.layers):
        if l not in hybrid.cfg.I_attn:
            lw.mixer = aligned[l]
    return hybrid


def run_stage2(teacher: Model, hybrid: Model, cfg: HaloConfig) -> StageReport:
    """Distill the teacher into the hybrid on the stage-2 stream."""
    return stage2_distill(teacher, hybrid, stream_for(cfg.stage2, cfg.data_kind), cfg.stage2)


def run_stage3(hybrid: Model, cfg: HaloConfig) -> StageReport:
    """Finetune the hybrid on the stage-3 stream."""
    return stage3_finetune(hybrid, stream_for(cfg.stage3, cfg.data_kind), cfg.stage3,
                           stage2_context=cfg.stage2.context_len)

