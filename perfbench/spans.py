"""Timing spans recorded from outside hybridkit.

`Tracer.install` replaces public functions with wrappers at the module (or
class) attribute their callers look them up by, e.g. `hybridkit.tensor.matmul`
or `hybridkit.model.attention_forward`; `Tracer.remove` puts the originals
back.  Each wrapped call becomes a span (name, parent, start, end, operation,
work count, tag), held in memory and summarised by `Tracer.summary` when the
run ends; `begin_op`/`end_op` mark the operation the spans belong to.

A span's self time is its duration minus the time covered by its direct
children.  Top-level spans (no parent) are what the coverage check adds up:
they must account for the operation's wall time, so time spent outside every
wrapped call shows as `trace.uncovered_s`.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

MB = 1e6



def _matmul_work(cfg):
    """GFLOP from operand shapes; the weight's shape tags MLP and unembedding GEMMs."""
    mlp = {(cfg.d, cfg.ffn_width), (cfg.ffn_width, cfg.d)}
    unembed = (cfg.d, cfg.vocab)

    def work(args, kwargs, out):
        a, b = args[0].data, args[1].data
        tag = None
        if b.ndim == 2:
            tag = "mlp" if b.shape in mlp else "unembed" if b.shape == unembed else None
        return 2.0 * out.data.size * a.shape[-1] / 1e9, tag
    return work


def _out_mb(args, kwargs, out):
    return out.data.nbytes / MB, None


def _file_mb(args, kwargs, out):
    return os.path.getsize(args[0]) / MB, None


class Tracer:
    """Span recorder over a fixed list of hybridkit entry points."""

    def __init__(self, cfg):
        self.cfg = cfg  # the traced models' ModelConfig
        self.spans: list = []      # (name, parent, t0, t1, op, work, tag)
        self.op_walls: list[float] = []
        self.sessions: list = []   # decode sessions opened in the current op
        self.kv_mb: list[float] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list = []

    # ---------------------------------------------------------------- wrapping

    def _targets(self):
        import hybridkit.checkpoint as ckpt
        import hybridkit.data as data
        import hybridkit.halo as halo
        import hybridkit.mixers as mixers
        import hybridkit.model as model
        import hybridkit.tensor as tensor

        def keep_session(args, kwargs, out):
            self.sessions.append(out)
            return 0.0, None

        return [
            (tensor, "matmul", "tensor.matmul", _matmul_work(self.cfg)),
            (tensor, "sigmoid", "tensor.sigmoid", None),
            (tensor, "silu", "tensor.silu", None),
            (tensor, "softmax_rows", "tensor.softmax_rows", None),
            (tensor, "rmsnorm", "tensor.rmsnorm", None),
            (tensor, "repeat_axis", "tensor.repeat_axis", _out_mb),
            (tensor, "backward", "tensor.backward", None),
            (tensor, "kl_divergence", "tensor.loss", None),
            (tensor, "cross_entropy", "tensor.loss", None),
            (mixers, "rope_apply", "positional.rope_apply", None),
            (model, "attention_forward", "mixers.attention", None),
            (model, "lightning_forward_chunked", "mixers.lightning", None),
            (model, "forward", "model.forward", None),
            (model, "prefill", "model.prefill", None),
            (model, "decode_step", "model.decode", None),
            (model, "generate_greedy", "model.generate", None),
            (model, "new_session", "model.new_session", keep_session),
            (model.Model, "copy", "model.copy", None),
            (data.TokenStream, "batch", "data.batch", None),
            (halo, "candidate_model", "halo.candidate_model", None),
            (halo, "clip_grad_norm", "halo.clip_grad_norm", None),
            (halo, "adamw_step", "halo.adamw_step", None),
            (halo, "score_recall", "evals.score_recall", None),
            (halo, "score_csr", "evals.score_csr", None),
            (ckpt, "save_model", "checkpoint.save", _file_mb),
            (ckpt, "save_mixer", "checkpoint.save", _file_mb),
            (ckpt, "load_model", "checkpoint.load", _file_mb),
            (ckpt, "load_mixer", "checkpoint.load", _file_mb),
        ]

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, self._op, 0.0, None)
            if work is not None:
                amount, tag = work(args, kwargs, out)
                spans[idx] = (name, parent, t0, t1, self._op, amount, tag)
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, work in self._targets():
            fn = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(fn, name, work))
            self._patches.append((owner, attr, fn))

    def remove(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -------------------------------------------------------------- operations

    def begin_op(self) -> None:
        self._op = len(self.op_walls)
        self.sessions.clear()

    def end_op(self, wall: float) -> None:
        from hybridkit.mixers import KvCache

        self.op_walls.append(wall)
        self.kv_mb.append(sum(st.nbytes() for s in self.sessions for st in s.states
                              if isinstance(st, KvCache)) / MB)
        self.sessions.clear()
        self._op = -1

    # ----------------------------------------------------------------- summary

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics except the overhead ratio: name -> (value, unit).

        Times, bytes, GFLOP and calls are per traced operation; work done
        outside operations (distill's closing save) is spread over them.
        """
        n_ops = max(1, len(self.op_walls))
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        work: dict[str, float] = {}
        calls: dict[str, int] = {}
        tagged: dict[str, float] = {}
        top = [0.0] * len(self.op_walls)
        child = [0.0] * len(self.spans)
        prefill_in_generate = 0.0
        for name, parent, t0, t1, op, amount, tag in self.spans:
            dt = t1 - t0
            if parent >= 0:
                child[parent] += dt
                if name == "model.prefill" and self.spans[parent][0] == "model.generate":
                    prefill_in_generate += dt
            elif op >= 0:
                top[op] += dt
        for i, (name, parent, t0, t1, op, amount, tag) in enumerate(self.spans):
            dt = t1 - t0
            total[name] = total.get(name, 0.0) + dt
            self_s[name] = self_s.get(name, 0.0) + dt - child[i]
            work[name] = work.get(name, 0.0) + amount
            calls[name] = calls.get(name, 0) + 1
            if tag is not None:
                tagged[tag] = tagged.get(tag, 0.0) + dt

        def per_op(table, *keys):
            return sum(table.get(k, 0.0) for k in keys) / n_ops

        mm_s = total.get("tensor.matmul", 0.0)
        mm_gflop = work.get("tensor.matmul", 0.0)
        coverage = [t / w for t, w in zip(top, self.op_walls)] or [0.0]
        uncovered = [w - t for t, w in zip(top, self.op_walls)] or [0.0]
        return {
            "tensor.matmul.s": (per_op(total, "tensor.matmul"), "s"),
            "tensor.matmul.gflop": (mm_gflop / n_ops, "GFLOP"),
            "tensor.matmul.gflops": (mm_gflop / mm_s if mm_s > 0 else 0.0, "GFLOP/s"),
            "tensor.sigmoid.s": (per_op(total, "tensor.sigmoid", "tensor.silu"), "s"),
            "tensor.softmax_rows.s": (per_op(total, "tensor.softmax_rows"), "s"),
            "tensor.rmsnorm.s": (per_op(total, "tensor.rmsnorm"), "s"),
            "tensor.repeat_axis.s": (per_op(total, "tensor.repeat_axis"), "s"),
            "tensor.repeat_axis.mb": (per_op(work, "tensor.repeat_axis"), "MB"),
            "tensor.backward.s": (per_op(total, "tensor.backward"), "s"),
            "tensor.loss.s": (per_op(total, "tensor.loss"), "s"),
            "positional.rope_apply.s": (per_op(total, "positional.rope_apply"), "s"),
            "positional.rope_apply.calls": (calls.get("positional.rope_apply", 0) / n_ops, "count"),
            "mixers.attention.s": (per_op(total, "mixers.attention"), "s"),
            "mixers.attention.self_s": (per_op(self_s, "mixers.attention"), "s"),
            "mixers.lightning.s": (per_op(total, "mixers.lightning"), "s"),
            "mixers.lightning.self_s": (per_op(self_s, "mixers.lightning"), "s"),
            "mixers.kv_cache.mb": (statistics.median(self.kv_mb) if self.kv_mb else 0.0, "MB"),
            "model.forward.s": (per_op(total, "model.forward"), "s"),
            "model.prefill.s": (per_op(total, "model.prefill"), "s"),
            # single-token steps plus generate_greedy's loop after its prefill
            "model.decode.s": (per_op(total, "model.decode", "model.generate")
                               - prefill_in_generate / n_ops, "s"),
            "model.mlp.s": (per_op(tagged, "mlp") + per_op(total, "tensor.silu"), "s"),
            "model.unembed.s": (per_op(tagged, "unembed"), "s"),
            "model.copy.s": (per_op(total, "model.copy"), "s"),
            "data.batch.s": (per_op(total, "data.batch"), "s"),
            "halo.candidate_model.s": (per_op(total, "halo.candidate_model"), "s"),
            "halo.clip_grad_norm.s": (per_op(total, "halo.clip_grad_norm"), "s"),
            "halo.adamw_step.s": (per_op(total, "halo.adamw_step"), "s"),
            "evals.score_recall.s": (per_op(total, "evals.score_recall"), "s"),
            "evals.score_csr.s": (per_op(total, "evals.score_csr"), "s"),
            "checkpoint.save.s": (per_op(total, "checkpoint.save"), "s"),
            "checkpoint.save.mb": (per_op(work, "checkpoint.save"), "MB"),
            "checkpoint.load.s": (per_op(total, "checkpoint.load"), "s"),
            "checkpoint.load.mb": (per_op(work, "checkpoint.load"), "MB"),
            "trace.coverage_min": (min(coverage), "ratio"),
            "trace.uncovered_s": (statistics.median(uncovered), "s"),
        }

    def top_level(self) -> dict[str, float]:
        """Seconds per operation of each top-level span name."""
        n_ops = max(1, len(self.op_walls))
        out: dict[str, float] = {}
        for name, parent, t0, t1, op, _, _ in self.spans:
            if parent < 0 and op >= 0:
                out[name] = out.get(name, 0.0) + (t1 - t0) / n_ops
        return out
