"""The benchmark workloads, driven through hybridkit's public functions.

Every workload runs in f32 (`set_precision("standard")`) on the attention-only
teacher `init_model(transformer_config(), seed)` and, where it needs one, the
hybrid `init_hybrid_from_teacher(teacher, (0, 4), seed)`.  The seed is the
benchmark's `--seed`; hybridkit only ever sees the tokens made from it.

A workload is a closed loop with one client: `op(i)` is one operation, timed
by the caller, and the next starts only when it has returned.  `after_op` and
`final_checks` verify results outside the timed region.  Calls go through
module attributes (`hm.forward`, `halo.candidate_model`, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hybridkit.checkpoint as ckpt
import hybridkit.evals as evals
import hybridkit.halo as halo
import hybridkit.model as hm
import hybridkit.tensor as T
from hybridkit.data import StreamConfig, TokenStream
from hybridkit.positional import RopeParams
from hybridkit.runconfig import build_halo_config

# f32 against f64 for the step-0 distillation KL: both sides start from the
# same f64 draws, so the gap is f32 rounding through 8 layers (seen: 2e-8 to
# 3e-7 relative); 1e-4 leaves room while catching any real divergence.
KL_REL_TOL = 1e-4


@dataclass(frozen=True)
class Scale:
    """Model and input sizes; DESK is the benchmark, TOY the self-test."""

    model: dict
    attn_layers: tuple[int, ...]
    batch: int          # distill batch
    context: int        # distill and stage-1 context
    stage1_batch: int
    rc_samples: int

    def teacher_config(self):
        return hm.transformer_config(**self.model)


DESK = Scale(model={}, attn_layers=(0, 4), batch=8, context=256, stage1_batch=4,
             rc_samples=8)
TOY = Scale(model=dict(L=2, d=32, d_h=8, n_h=4, n_kv_heads=2, ffn_width=64,
                       rope=RopeParams(theta=50_000.0, head_dim=8)),
            attn_layers=(0,), batch=2, context=64, stage1_batch=2, rc_samples=2)


def median(xs) -> float:
    return float(statistics.median(xs))


@dataclass
class Figure:
    """One reported number with its unit and sample count."""

    value: float
    unit: str
    n: int

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit, "n": self.n}


@dataclass
class Workload:
    seed: int
    scale: Scale
    workdir: Path
    ops: list = field(default_factory=list)   # value returned by each op
    walls: list = field(default_factory=list)  # op wall times, seconds
    tail_s: float = 0.0                        # timed work after the loop
    warmup: int = 1                            # leading operations left out

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def after_op(self, i: int, value) -> bool:
        return True

    def finish(self) -> None:
        """Timed work that closes a run (part of its wall time)."""

    def final_checks(self) -> dict[str, tuple[bool, int]]:
        """Check name -> (passed, index of the operation it vouches for)."""
        return {}

    def figures(self, speed: float) -> tuple[dict[str, Figure], dict[str, Figure]]:
        """(end-to-end metrics, per-workload figures printed in the report).

        `speed` is the machine's speed during the run relative to the
        reference speed of run.py's probe: a time measured here, multiplied
        by it, is the end-to-end metric at reference speed.  The printed
        per-workload figures stay as measured.
        """
        raise NotImplementedError

    def measured(self, per_op: list) -> list:
        """Drop the warm-up operations when later ones exist."""
        return per_op[self.warmup:] if len(per_op) > self.warmup else per_op

    def _models(self, with_hybrid: bool):
        teacher = hm.init_model(self.scale.teacher_config(), self.seed)
        hybrid = (hm.init_hybrid_from_teacher(teacher, self.scale.attn_layers, self.seed)
                  if with_hybrid else None)
        return teacher, hybrid


class Distill(Workload):
    """Stage-2 knowledge-distillation steps on the niah_mix stream."""

    name = "distill"

    def setup(self) -> None:
        s = self.scale
        self.teacher, self.hybrid = self._models(with_hybrid=True)
        self.cfg = replace(build_halo_config({}, seed_override=self.seed).stage2,
                           batch_size=s.batch, context_len=s.context)
        self.stream = TokenStream(StreamConfig(kind="niah_mix", context_len=s.context,
                                               batch_size=s.batch, seed=self.seed))
        self.params = dict(self.hybrid.named_parameters())
        self.opt = halo.AdamWState()
        self.ckpt_path = self.workdir / "hybrid.ckpt"

    def op(self, i: int):
        x = self.stream.batch(i)[:, :-1]
        t_logits = hm.forward(self.teacher, x).data
        with T.Tape():
            s_logits = hm.forward(self.hybrid, x, scale_base=None)
            loss = T.kl_divergence(t_logits, s_logits)
        T.backward(loss)
        halo.clip_grad_norm(self.params, self.cfg.grad_clip)
        applied = halo.adamw_step(self.params, self.opt, halo.lr_at(i % self.cfg.steps, self.cfg),
                                  self.cfg.betas, self.cfg.weight_decay)
        return float(loss.data), applied

    def after_op(self, i: int, value) -> bool:
        loss, applied = value
        return bool(np.isfinite(loss)) and applied

    def finish(self) -> None:
        t0 = time.perf_counter()
        ckpt.save_model(self.ckpt_path, self.hybrid)
        self.tail_s = time.perf_counter() - t0

    def final_checks(self):
        last = len(self.ops) - 1
        reloaded = ckpt.load_model(self.ckpt_path).state_bytes() == self.hybrid.state_bytes()
        # step-0 KL recomputed in f64 from the same seeds and batch
        T.set_precision("extended")
        try:
            teacher, hybrid = self._models(with_hybrid=True)
            x = self.stream.batch(0)[:, :-1]
            kl64 = float(T.kl_divergence(hm.forward(teacher, x).data,
                                         hm.forward(hybrid, x, scale_base=None)).data)
        finally:
            T.set_precision("standard")
        kl32 = self.ops[0][0]
        self.kl_gap = abs(kl32 - kl64) / max(abs(kl64), 1e-12)
        return {"checkpoint_reload_identical": (reloaded, last),
                "step0_kl_matches_f64": (self.kl_gap <= KL_REL_TOL, 0)}

    def figures(self, speed):
        walls = self.measured(self.walls)
        n = len(walls)
        tokens = n * self.scale.batch * self.scale.context
        run_s = sum(walls) + self.tail_s
        step = median(walls)
        metrics = {"op_ms_p50_at_ref": Figure(step * speed * 1e3, "ms", n),
                   "tok_per_s_at_ref": Figure(tokens / (run_s * speed), "tok/s", n)}
        named = {"step_s_p50": Figure(step, "s", n),
                 "train_tok_per_s": Figure(tokens / run_s, "tok/s", n),
                 "save_s": Figure(self.tail_s, "s", 1),
                 "step0_kl_rel_gap_f64": Figure(self.kl_gap, "ratio", 1)}
        return metrics, named


class LayerSelect(Workload):
    """HALO layer selection: score every layer's aligned RNN candidate."""

    name = "layer_select"

    def setup(self) -> None:
        s = self.scale
        self.teacher, _ = self._models(with_hybrid=False)
        hcfg = build_halo_config({}, seed_override=self.seed)
        cfg1 = replace(hcfg.stage1, batch_size=s.stage1_batch, context_len=s.context,
                       steps=1, warmup_steps=0)
        stream = TokenStream(StreamConfig(kind=hcfg.data_kind, context_len=s.context,
                                          batch_size=s.stage1_batch, seed=self.seed))
        L = self.teacher.cfg.L
        aligned = halo.stage1_align_all(self.teacher, range(L), stream, cfg1)
        self.paths = [self.workdir / f"stage1_layer{l}.ckpt" for l in range(L)]
        for l, path in enumerate(self.paths):
            ckpt.save_mixer(path, aligned[l][0], meta={"layer": l})
        self.suite = evals.build_rc_suite(s.context, seed=self.seed, n_samples=s.rc_samples)
        self.frozen = self.teacher.state_bytes()
        self.scores: dict[int, tuple[float, float]] = {}

    def _candidate(self, layer: int) -> tuple[float, float]:
        mixer = ckpt.load_mixer(self.paths[layer])
        cand = halo.candidate_model(self.teacher, layer, mixer)
        return halo.evaluate_RC(cand, self.suite)

    def op(self, i: int):
        layer = i % len(self.paths)
        return layer, self._candidate(layer)

    def after_op(self, i: int, value) -> bool:
        layer, rc = value
        ok = self.teacher.state_bytes() == self.frozen
        ok &= all(0.0 <= x <= 1.0 for x in rc)
        if layer in self.scores:
            ok &= self.scores[layer] == rc
        self.scores.setdefault(layer, rc)
        return ok

    def final_checks(self):
        seen = [v[0] for v in self.ops]
        if len(seen) > len(set(seen)):
            # a candidate ran twice inside the loop, and after_op compared its scores
            return {"scores_repeat_across_passes": (True, 0)}
        again = self._candidate(seen[0])
        same = again == self.scores[seen[0]] and self.teacher.state_bytes() == self.frozen
        return {"scores_repeat_across_passes": (same, 0)}

    def tokens_per_candidate(self) -> int:
        prompts, answers = self.suite.niah_samples
        csr = self.suite.csr_samples
        return prompts.size + answers.size + csr.choices.shape[0] * csr.choices.shape[1] * (
            csr.prefixes.shape[1] + csr.choices.shape[2])

    def figures(self, speed):
        walls = self.measured(self.walls)
        n = len(walls)
        cand = median(walls)
        tokens = n * self.tokens_per_candidate()
        metrics = {"op_ms_p50_at_ref": Figure(cand * speed * 1e3, "ms", n),
                   "tok_per_s_at_ref": Figure(tokens / (sum(walls) * speed), "tok/s", n)}
        named = {"select_s_per_layer": Figure(cand, "s", n),
                 "select_tok_per_s": Figure(tokens / sum(walls), "tok/s", n)}
        return metrics, named


WORKLOADS = {w.name: w for w in (Distill, LayerSelect)}
