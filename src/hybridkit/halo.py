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

All stages use AdamW (decoupled weight decay, betas (0.9, 0.95)), linear
warmup, and cosine or constant schedules.  The teacher is never mutated.
"""

from __future__ import annotations

import time
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .data import StreamConfig, TokenStream
from .evals import RcSuite, build_rc_suite, score_csr, score_recall
from .mixers import MixerWeights, lightning_forward_chunked
from .model import (Model, capture_many, forward, init_hybrid_from_teacher,
                    init_rnn_from_attention)
from .tensor import ConfigError, Rng, Tape, Tensor


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
    tokens_budget: int | None = None  # informational; steps is authoritative

    def __post_init__(self):
        if self.lr_min > self.lr_max:
            raise ConfigError(f"lr_min {self.lr_min} exceeds lr_max {self.lr_max}")
        if self.warmup_steps > self.steps:
            raise ConfigError(f"warmup {self.warmup_steps} exceeds steps {self.steps}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")


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
    """Scale all gradients so their global L2 norm is at most max_norm."""
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
    wall_time: float = 0.0
    skipped_steps: int = 0
    final_metrics: dict = field(default_factory=dict)

    def records(self):
        for step, (loss, lr) in enumerate(zip(self.losses, self.lrs)):
            rec = {"step": step, "lr": lr, "loss": loss}
            if step < len(self.grad_norms):
                rec["grad_norm"] = self.grad_norms[step]
            yield rec

    def write_jsonl(self, path) -> None:
        lines = [json.dumps(r) for r in self.records()]
        lines.append(json.dumps({"final": self.final_metrics,
                                 "wall_time": self.wall_time,
                                 "skipped_steps": self.skipped_steps}))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _train_loop(stage: str, params: dict[str, Tensor], cfg: TrainConfig,
                make_loss: Callable[[int], Tensor],
                state: AdamWState | None = None) -> StageReport:
    report = StageReport(stage=stage)
    state = state or AdamWState()
    t0 = time.monotonic()
    for step in range(cfg.steps):
        with Tape() as tape:
            loss = make_loss(step)
        value = float(loss.data)
        lr = lr_at(step, cfg)
        report.losses.append(value)
        report.lrs.append(lr)
        if not np.isfinite(value):
            report.wall_time = time.monotonic() - t0
            raise TrainingDiverged(stage, report)
        tape.backward(loss)
        report.grad_norms.append(clip_grad_norm(params, cfg.grad_clip))
        if not adamw_step(params, state, lr, cfg.betas, cfg.weight_decay):
            report.skipped_steps += 1
    report.wall_time = time.monotonic() - t0
    return report


# --------------------------------------------------------------------------
# stage 1: hidden-state alignment

def _hybrid_conventions(teacher_cfg):
    return replace(teacher_cfg, pe_attention="nope", pe_rnn="rope",
                   attn_gate=True, rnn_gate=True, rnn_kind="lightning",
                   scale_base=None, I_attn=teacher_cfg.I_attn)


def _candidate_loss(cand: MixerWeights, x_in: np.ndarray, y_ref: np.ndarray,
                    model: Model) -> Tensor:
    rope = model.cfg.rope  # hybrid RNN layers carry rotary encoding
    y = lightning_forward_chunked(Tensor(x_in, dtype=x_in.dtype), cand,
                                  model.gammas, model.cfg.chunk, rope=rope)
    d = T.sub(y, Tensor(y_ref, dtype=y_ref.dtype))
    return T.mean_all(T.mul(d, d))


def stage1_align_all(teacher: Model, layers: Sequence[int], stream: TokenStream,
                     cfg: TrainConfig) -> dict[int, tuple[MixerWeights, StageReport]]:
    """Train one aligned RNN candidate per requested layer.

    Layers are independent (disjoint weights, frozen teacher); one teacher
    forward per batch feeds every layer's loss.  Initial/final alignment
    error on a fixed probe batch lands in each report's final_metrics.
    """
    layers = [int(l) for l in layers]
    hyb_cfg = _hybrid_conventions(teacher.cfg)
    seed_rng = Rng(cfg.seed, (17,))
    candidates: dict[int, MixerWeights] = {}
    opt_states: dict[int, AdamWState] = {}
    reports: dict[int, StageReport] = {}
    for l in layers:
        if teacher.layers[l].mixer_kind != "attention":
            raise ConfigError(f"teacher layer {l} is not attention")
        candidates[l] = init_rnn_from_attention(teacher.layers[l].mixer, hyb_cfg,
                                                seed_rng.child(l))
        opt_states[l] = AdamWState()
        reports[l] = StageReport(stage=f"stage1/layer{l}")

    probe = TokenStream(replace(stream.cfg, seed=stream.cfg.seed + 7919)).batch(0)[:, :-1]
    probe_caps = capture_many(teacher, probe, layers)
    for l in layers:
        x_in, y_ref = probe_caps[l]
        reports[l].final_metrics["mse_initial"] = float(
            _candidate_loss(candidates[l], x_in.data, y_ref.data, teacher).data)

    t0 = time.monotonic()
    rope_model = teacher  # gammas/chunk/rope conventions come from the teacher cfg
    for step in range(cfg.steps):
        batch = stream.batch(step)[:, :-1]
        caps = capture_many(teacher, batch, layers)
        lr = lr_at(step, cfg)
        for l in layers:
            x_in, y_ref = caps[l]
            with Tape() as tape:
                loss = _candidate_loss(candidates[l], x_in.data, y_ref.data, rope_model)
            value = float(loss.data)
            rep = reports[l]
            rep.losses.append(value)
            rep.lrs.append(lr)
            if not np.isfinite(value):
                rep.wall_time = time.monotonic() - t0
                raise TrainingDiverged(rep.stage, rep)
            tape.backward(loss)
            lparams = dict(candidates[l].named())
            rep.grad_norms.append(clip_grad_norm(lparams, cfg.grad_clip))
            if not adamw_step(lparams, opt_states[l], lr, cfg.betas, cfg.weight_decay):
                rep.skipped_steps += 1

    probe_caps = capture_many(teacher, probe, layers)
    for l in layers:
        x_in, y_ref = probe_caps[l]
        reports[l].final_metrics["mse_final"] = float(
            _candidate_loss(candidates[l], x_in.data, y_ref.data, teacher).data)
        reports[l].wall_time = time.monotonic() - t0
    return {l: (candidates[l], reports[l]) for l in layers}


def stage1_align(teacher: Model, layer: int, stream: TokenStream,
                 cfg: TrainConfig) -> tuple[MixerWeights, StageReport]:
    """Align a single layer's RNN candidate (see stage1_align_all)."""
    return stage1_align_all(teacher, [layer], stream, cfg)[layer]


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
    """The teacher with exactly one mixer swapped for its aligned RNN.

    Nothing else changes: remaining attention layers keep their rotary
    encoding, and the swapped layer follows the hybrid RNN conventions.
    """
    m = teacher.copy()
    m.layers[layer].mixer = rnn_weights.copy()
    m.layers[layer].mixer_kind = "lightning"
    m.cfg = replace(teacher.cfg,
                    I_attn=tuple(i for i in teacher.cfg.I_attn if i != layer),
                    pe_rnn="rope")
    return m


def evaluate_RC(model: Model, suite: RcSuite) -> tuple[float, float]:
    """(recall accuracy, cloze accuracy) on the fixed synthetic suites."""
    r = score_recall(model, suite.niah_samples, scale_base=suite.scale_base,
                     eval_batch=suite.eval_batch)
    c = score_csr(model, suite.csr_samples, scale_base=suite.scale_base,
                  eval_batch=suite.eval_batch)
    return r.value, c.value


# --------------------------------------------------------------------------
# stage 2: knowledge distillation

def stage2_distill(teacher: Model, hybrid: Model, stream: TokenStream,
                   cfg: TrainConfig) -> StageReport:
    """End-to-end per-token KL(teacher || student); teacher frozen."""
    params = dict(hybrid.named_parameters())
    probe = TokenStream(replace(stream.cfg, seed=stream.cfg.seed + 104729)).batch(0)[:, :-1]

    def probe_kl() -> float:
        t_logits = forward(teacher, probe).data
        s_logits = forward(hybrid, probe, scale_base=None)
        return float(T.kl_divergence(t_logits, s_logits).data)

    kl_init = probe_kl()

    def make_loss(step: int) -> Tensor:
        x = stream.batch(step)[:, :-1]
        t_logits = forward(teacher, x).data
        s_logits = forward(hybrid, x, scale_base=None)
        return T.kl_divergence(t_logits, s_logits)

    report = _train_loop("stage2", params, cfg, make_loss)
    report.final_metrics["kl_initial"] = kl_init
    report.final_metrics["kl_final"] = probe_kl()
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


@dataclass
class HaloResult:
    hybrid: Model
    I_attn: tuple[int, ...]
    scores: list[dict]
    reports: dict


def run_halo(teacher: Model, cfg: HaloConfig) -> HaloResult:
    """Alignment, selection, distillation, finetune; returns the final hybrid.

    The teacher is treated as read-only throughout; an assertion at the end
    guards against regressions in any stage.
    """
    frozen = teacher.state_bytes()
    L = teacher.cfg.L
    k = cfg.k if cfg.k is not None else max(1, L // 4)
    reports: dict = {}

    stream1 = TokenStream(StreamConfig(kind=cfg.data_kind,
                                       context_len=cfg.stage1.context_len,
                                       batch_size=cfg.stage1.batch_size,
                                       seed=cfg.stage1.seed))
    aligned = stage1_align_all(teacher, range(L), stream1, cfg.stage1)
    reports["stage1"] = {l: rep for l, (_, rep) in aligned.items()}

    suite = build_rc_suite(cfg.stage1.context_len, seed=cfg.rc_seed,
                           n_samples=cfg.rc_samples)
    rc: list[tuple[float, float]] = []
    for l in range(L):
        cand = candidate_model(teacher, l, aligned[l][0])
        rc.append(evaluate_RC(cand, suite))
    importance = layer_importance(rc)
    I_attn = tuple(select_attention_layers(importance, k))
    scores = [{"layer": l, "recall": rc[l][0], "cloze": rc[l][1],
               "importance": importance[l]} for l in range(L)]
    reports["selection"] = scores

    hybrid = init_hybrid_from_teacher(teacher, I_attn, seed=cfg.seed)
    for l in range(L):
        if l not in I_attn:
            hybrid.layers[l].mixer = aligned[l][0]

    stream2 = TokenStream(StreamConfig(kind=cfg.data_kind,
                                       context_len=cfg.stage2.context_len,
                                       batch_size=cfg.stage2.batch_size,
                                       seed=cfg.stage2.seed))
    reports["stage2"] = stage2_distill(teacher, hybrid, stream2, cfg.stage2)

    stream3 = TokenStream(StreamConfig(kind=cfg.data_kind,
                                       context_len=cfg.stage3.context_len,
                                       batch_size=cfg.stage3.batch_size,
                                       seed=cfg.stage3.seed))
    reports["stage3"] = stage3_finetune(hybrid, stream3, cfg.stage3,
                                        stage2_context=cfg.stage2.context_len)

    if teacher.state_bytes() != frozen:
        raise RuntimeError("teacher weights changed during conversion")
    return HaloResult(hybrid=hybrid, I_attn=I_attn, scores=scores, reports=reports)
