"""Operator command line.

Subcommands: train, halo, select-layers, distill, finetune, eval, bench,
inspect.  Global flags: --seed, --precision {extended,standard}, --threads N,
--dry-run.  Exit codes: 0 success, 2 configuration error, 3 runtime abort.

Heavy imports happen inside handlers so --threads can pin BLAS thread counts
before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hybridkit",
                                description="Desk-scale hybrid attention-RNN lab")
    p.add_argument("--seed", type=int, default=None,
                   help="override every configured seed")
    p.add_argument("--precision", choices=("extended", "standard"),
                   default="standard", help="f64 oracles vs f32 training (default)")
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS/OpenMP thread cap")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved configuration and exit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from scratch")
    t.add_argument("config", help="run-config JSON path")
    t.add_argument("out", help="checkpoint output path")

    h = sub.add_parser("halo", help="convert an attention-only checkpoint")
    h.add_argument("teacher", help="teacher checkpoint")
    h.add_argument("config", help="run-config JSON path")
    h.add_argument("out", help="output directory")
    h.add_argument("--stage", choices=("all", "1", "select", "2", "3"),
                   default="all", help="run one stage from persisted artifacts")

    s = sub.add_parser("select-layers", help="score layers and pick attention set")
    s.add_argument("teacher", help="teacher checkpoint")
    s.add_argument("stage1_dir", help="directory with stage1_layer*.ckpt")
    s.add_argument("--config", default=None, help="run-config JSON path")

    d = sub.add_parser("distill", help="stage-2 distillation from artifacts")
    d.add_argument("teacher", help="teacher checkpoint")
    d.add_argument("hybrid", help="assembled hybrid checkpoint")
    d.add_argument("config", help="run-config JSON path")
    d.add_argument("out", help="checkpoint output path")

    f = sub.add_parser("finetune", help="stage-3 long-context finetuning")
    f.add_argument("ckpt", help="hybrid checkpoint")
    f.add_argument("config", help="run-config JSON path")
    f.add_argument("out", help="checkpoint output path")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("ckpt")
    e.add_argument("--task", choices=("niah", "csr", "ppl"), default="niah")
    e.add_argument("--lengths", default="256,512,1024",
                   help="comma-separated context lengths")
    e.add_argument("--samples", type=int, default=200)
    e.add_argument("--eval-seed", type=int, default=0)
    g = e.add_mutually_exclusive_group()
    g.add_argument("--scale-base", type=float, default=None,
                   help="override the logits-scaling base a")
    g.add_argument("--no-scaling", action="store_true",
                   help="force s_t = 1 everywhere")
    g.add_argument("--constant-scaling", type=float, default=None,
                   help="force s_t = S at every position")
    e.add_argument("--out", default=None, help="write the plot-data table here")

    b = sub.add_parser("bench", help="timing and state-memory measurements")
    b.add_argument("ckpt")
    b.add_argument("--mode", choices=("prefill", "decode"), default="decode")
    b.add_argument("--lengths", default="1024,4096,16384")
    b.add_argument("--reps", type=int, default=5)
    b.add_argument("--decode-tokens", type=int, default=16,
                   help="decode steps timed per repetition")
    b.add_argument("--out", default=None)

    i = sub.add_parser("inspect", help="summarize a checkpoint")
    i.add_argument("ckpt")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .tensor import ConfigError, set_precision

    set_precision(args.precision)
    try:
        from .checkpoint import CheckpointError
        from .halo import TrainingDiverged
        try:
            return _dispatch(args)
        except CheckpointError as e:
            print(f"checkpoint error: {e}", file=sys.stderr)
            return 2
        except TrainingDiverged as e:
            print(f"aborted: {e}", file=sys.stderr)
            return 3
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return 0


def _dispatch(args) -> int:
    handler = {
        "train": cmd_train,
        "halo": cmd_halo,
        "select-layers": cmd_select_layers,
        "distill": cmd_distill,
        "finetune": cmd_finetune,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "inspect": cmd_inspect,
    }[args.command]
    return handler(args)


# --------------------------------------------------------------------------
# helpers

def _resolve_scale(args):
    from .positional import ConstantScale, ScaleBase

    if getattr(args, "no_scaling", False):
        return None, "none"
    if getattr(args, "constant_scaling", None) is not None:
        return ConstantScale(args.constant_scaling), f"const{args.constant_scaling:g}"
    if getattr(args, "scale_base", None) is not None:
        return ScaleBase(args.scale_base), f"base{args.scale_base:g}"
    return "config", "config"


def _positive_int(flag: str, text) -> int:
    """`text` as an integer >= 1; anything else is a ConfigError naming flag."""
    from .tensor import ConfigError

    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ConfigError(f"{flag} must be a positive integer, got {text!r}")
    return value


def _lengths(text: str) -> list[int]:
    """The --lengths list: comma-separated positive integers, at least one."""
    from .tensor import ConfigError

    lengths = [_positive_int("--lengths", x) for x in text.split(",") if x]
    if not lengths:
        raise ConfigError(f"--lengths needs at least one length, got {text!r}")
    return lengths


def _print_config(rc, model) -> None:
    from .checkpoint import config_to_dict

    print(json.dumps({"model": config_to_dict(model.cfg),
                      "train": {k: getattr(rc.train, k) for k in
                                ("steps", "batch_size", "context_len", "lr_max",
                                 "lr_min", "schedule", "warmup_steps",
                                 "weight_decay", "grad_clip", "seed")},
                      "data": rc.data_kind,
                      "parameters": model.num_params()}, indent=2))


# --------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    from . import tensor as T
    from .checkpoint import save_model
    from .halo import _train_loop, stream_for
    from .model import forward, init_model
    from .runconfig import load_run_config

    rc = load_run_config(args.config, seed_override=args.seed)
    model = init_model(rc.model, seed=rc.train.seed)
    if args.dry_run:
        _print_config(rc, model)
        return 0
    stream = stream_for(rc.train, rc.data_kind)
    params = dict(model.named_parameters())

    def make_loss(step):
        batch = stream.batch(step)
        return T.cross_entropy(forward(model, batch[:, :-1]), batch[:, 1:])

    report = _train_loop("train", params, rc.train, make_loss)
    save_model(args.out, model)
    report.write_jsonl(str(args.out) + ".report.jsonl")
    print(f"trained {rc.train.steps} steps; final loss "
          f"{report.losses[-1]:.4f}; wrote {args.out}")
    return 0


# --------------------------------------------------------------------------
# halo pipeline with persisted stages

def _halo_paths(out: Path) -> dict:
    return {
        "stage1": lambda l: out / f"stage1_layer{l}.ckpt",
        "stage1_report": lambda l: out / f"stage1_layer{l}.report.jsonl",
        "scores": out / "scores.tsv",
        "selection": out / "selection.json",
        "hybrid_init": out / "hybrid_init.ckpt",
        "stage2": out / "hybrid_stage2.ckpt",
        "stage2_report": out / "stage2.report.jsonl",
        "stage3": out / "final.ckpt",
        "stage3_report": out / "stage3.report.jsonl",
    }


def cmd_halo(args) -> int:
    """Run the pipeline's stages in order, or one of them from the artifacts
    the earlier stages left in the output directory."""
    from . import halo
    from .checkpoint import load_model, save_mixer, save_model
    from .runconfig import load_run_config

    rc = load_run_config(args.config, seed_override=args.seed)
    hc = rc.halo
    teacher = load_model(args.teacher)
    k = halo.resolve_k(hc.k, teacher.cfg.L)  # a bad k fails before any stage
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dry_run:
        print(json.dumps({"stages": args.stage, "teacher_params": teacher.num_params(),
                          "k": k}, indent=2))
        return 0
    paths = _halo_paths(out)
    stages = ("1", "select", "2", "3") if args.stage == "all" else (args.stage,)
    alone = len(stages) == 1  # a stage run alone reads its inputs from out
    if "1" in stages:
        aligned = {}
        for l, (weights, report) in halo.run_stage1(teacher, hc).items():
            save_mixer(paths["stage1"](l), weights, meta={"layer": l, **report.final_metrics})
            _write_report(report, paths["stage1_report"](l))
            aligned[l] = weights
    if "select" in stages:
        if alone:
            aligned = _load_stage1(teacher.cfg.L, paths)
        I_attn = _select(teacher, aligned, hc, paths)
    if "2" in stages:
        if alone:
            I_attn = json.loads(_require(paths["selection"], "selection artifact")
                                .read_text())["I_attn"]
            aligned = _load_stage1(teacher.cfg.L, paths)
        hybrid = halo.assemble_hybrid(teacher, I_attn, aligned, hc.seed)
        save_model(paths["hybrid_init"], hybrid)
        report = halo.run_stage2(teacher, hybrid, hc)
        save_model(paths["stage2"], hybrid)
        _write_report(report, paths["stage2_report"])
    if "3" in stages:
        if alone:
            hybrid = load_model(_require(paths["stage2"], "stage-2 checkpoint"))
        report = halo.run_stage3(hybrid, hc)
        save_model(paths["stage3"], hybrid)
        _write_report(report, paths["stage3_report"])
    return 0


def _require(path: Path, what: str) -> Path:
    from .checkpoint import CheckpointError

    if not path.exists():
        raise CheckpointError(f"missing {what}: {path}")
    return path


def _load_stage1(L: int, paths: dict) -> dict:
    from .checkpoint import load_mixer

    return {l: load_mixer(_require(paths["stage1"](l), f"stage-1 weights for layer {l}"))
            for l in range(L)}


def _write_report(report, path) -> None:
    """Write a stage's report and print its probe metrics."""
    report.write_jsonl(path)
    print(f"{report.stage}: " + ", ".join(f"{name} {value:.5g}" for name, value
                                         in report.final_metrics.items()))


def _select(teacher, aligned: dict, hc, paths: dict) -> tuple:
    """Selection over the stage-1 candidates; writes scores.tsv (by
    descending importance) and selection.json."""
    from .fileio import write_text_atomic
    from .halo import select_layers

    I_attn, scores = select_layers(teacher, aligned, hc)
    lines = ["layer\trecall\tcloze\timportance"]
    for row in sorted(scores, key=lambda r: (-r["importance"], r["layer"])):
        lines.append(f"{row['layer']}\t{row['recall']:.4f}\t{row['cloze']:.4f}"
                     f"\t{row['importance']:.6g}")
    write_text_atomic(paths["scores"], "\n".join(lines) + "\n")
    write_text_atomic(paths["selection"],
                      json.dumps({"I_attn": I_attn, "k": len(I_attn)}) + "\n")
    print("\n".join(lines))
    print(f"selected I_attn = {list(I_attn)}")
    return I_attn


def cmd_select_layers(args) -> int:
    from .checkpoint import load_model
    from .runconfig import RunConfig, load_run_config

    teacher = load_model(args.teacher)
    rc = (load_run_config(args.config, seed_override=args.seed)
          if args.config else RunConfig({}, seed_override=args.seed))
    paths = _halo_paths(Path(args.stage1_dir))
    _select(teacher, _load_stage1(teacher.cfg.L, paths), rc.halo, paths)
    return 0


def cmd_distill(args) -> int:
    from .checkpoint import load_model, save_model
    from .halo import run_stage2
    from .runconfig import load_run_config

    rc = load_run_config(args.config, seed_override=args.seed)
    teacher, hybrid = load_model(args.teacher), load_model(args.hybrid)
    report = run_stage2(teacher, hybrid, rc.halo)
    save_model(args.out, hybrid)
    _write_report(report, f"{args.out}.report.jsonl")
    return 0


def cmd_finetune(args) -> int:
    from .checkpoint import load_model, save_model
    from .halo import run_stage3
    from .runconfig import load_run_config

    rc = load_run_config(args.config, seed_override=args.seed)
    hybrid = load_model(args.ckpt)
    report = run_stage3(hybrid, rc.halo)
    save_model(args.out, hybrid)
    _write_report(report, f"{args.out}.report.jsonl")
    return 0


# --------------------------------------------------------------------------
# eval / bench / inspect

def cmd_eval(args) -> int:
    import numpy as np

    from .checkpoint import load_model
    from .data import StreamConfig, TokenStream
    from .evals import (EvalResult, gen_csr_proxy, length_sweep, perplexity,
                        score_csr, write_plot_data)

    lengths = _lengths(args.lengths)
    _positive_int("--samples", args.samples)
    model = load_model(args.ckpt)
    scale, tag = _resolve_scale(args)
    if args.task == "niah":
        results = length_sweep(model, lengths, scale_base=scale,
                               n_samples=args.samples, seed=args.eval_seed)
    elif args.task == "csr":
        samples = gen_csr_proxy(args.eval_seed, args.samples)
        res = score_csr(model, samples, scale_base=scale)
        results = [res]
    else:
        stream = TokenStream(StreamConfig(kind="niah_mix", context_len=max(lengths),
                                          batch_size=1, seed=args.eval_seed))
        corpus = np.concatenate([stream.batch(i)[0] for i in range(8)])
        results = [EvalResult(task="ppl", context_len=ln,
                              value=perplexity(model, corpus, ln, scale_base=scale),
                              metric="perplexity", n_samples=corpus.size // ln,
                              seed=args.eval_seed) for ln in lengths]
    for r in results:
        print(f"{r.task}\t{r.context_len}\t{r.metric}={r.value:.6f}\tn={r.n_samples}")
    if args.out:
        write_plot_data(results, args.out)
        print(f"wrote {args.out} (scaling: {tag})")
    return 0


def cmd_bench(args) -> int:
    import numpy as np

    from .checkpoint import load_model
    from .fileio import write_text_atomic
    from .mixers import KvCache, RecurrentState
    from .model import new_session, prefill, _advance

    lengths = _lengths(args.lengths)
    _positive_int("--reps", args.reps)
    _positive_int("--decode-tokens", args.decode_tokens)
    model = load_model(args.ckpt)
    unit = "seconds_per_token" if args.mode == "decode" else "seconds_per_sequence"
    rows = [f"length\tmode\t{unit}\tkv_bytes\tstate_bytes"]
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    for ln in lengths:
        prompt = rng.integers(0, model.cfg.vocab, size=(1, ln))
        times = []
        if args.mode == "prefill":
            for rep in range(args.reps + 1):  # first iteration is the warmup
                session = new_session(model)
                t0 = time.monotonic()
                prefill(model, session, prompt)
                dt = time.monotonic() - t0
                if rep > 0:
                    times.append(dt)
        else:
            session = new_session(model)
            prefill(model, session, prompt)
            tok = prompt[:, -1:]
            for rep in range(args.reps + 1):
                t0 = time.monotonic()
                for _ in range(args.decode_tokens):
                    logits = _advance(model, tok, session)
                    tok = logits.data[:, -1, :].argmax(-1)[:, None]
                dt = time.monotonic() - t0
                if rep > 0:
                    times.append(dt / args.decode_tokens)
        kv_bytes = sum(s.nbytes() for s in session.states if isinstance(s, KvCache))
        state_bytes = sum(s.s.nbytes for s in session.states
                          if isinstance(s, RecurrentState))
        med = sorted(times)[len(times) // 2]
        rows.append(f"{ln}\t{args.mode}\t{med:.6e}\t{kv_bytes}\t{state_bytes}")
    table = "\n".join(rows)
    print(table)
    if args.out:
        write_text_atomic(args.out, table + "\n")
    return 0


def cmd_inspect(args) -> int:
    from .checkpoint import load_tensors

    config, tensors = load_tensors(args.ckpt)
    print(json.dumps(config, indent=2))
    total = 0
    for name, arr in tensors.items():
        print(f"{name}\t{arr.dtype}\t{list(arr.shape)}")
        total += arr.size
    print(f"parameters: {total}")
    if config.get("kind") == "model":
        print(f"I_attn: {config['model']['I_attn']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
