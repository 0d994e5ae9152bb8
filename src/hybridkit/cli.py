"""Operator command line.

Subcommands: train, halo, eval, bench, inspect; `halo --stage` runs one
HALO stage (1, select, 2 or 3) from the artifacts of the earlier ones.
Global flags: --seed, --precision {extended,standard}, --threads N,
--dry-run.  Exit codes: 0 success, 2 configuration error or a path that
cannot be read or written, 3 runtime abort.

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

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("ckpt")
    e.add_argument("--task", choices=("niah", "csr", "ppl"), default="niah")
    e.add_argument("--lengths", default=None,
                   help="comma-separated context lengths for niah and ppl "
                        "(default 256,512,1024); csr has a fixed length")
    e.add_argument("--samples", type=int, default=None,
                   help="samples per length for niah and csr (default 200); "
                        "ppl reads a fixed corpus")
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
    if args.threads is not None and args.threads < 1:
        # checked before numpy loads, so no ConfigError yet
        print(f"config error: --threads must be a positive integer, got {args.threads}",
              file=sys.stderr)
        return 2
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
        except OSError as e:  # a path given that cannot be read or written
            print(f"file error: {e}", file=sys.stderr)
            return 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return 0


def _dispatch(args) -> int:
    from .tensor import ConfigError

    out = Path(args.out) if args.command in ("train", "eval", "bench") and args.out else None
    if out is not None:  # checked before any work
        if not out.parent.is_dir():
            raise ConfigError(f"output {out}: no directory {out.parent}")
        _check_outputs([out, _train_report(out)] if args.command == "train" else [out])
    handler = {
        "train": cmd_train,
        "halo": cmd_halo,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "inspect": cmd_inspect,
    }[args.command]
    return handler(args)


# --------------------------------------------------------------------------
# helpers

def _check_outputs(paths) -> None:
    """Raise ConfigError, naming it, for an output path that is a directory."""
    from .tensor import ConfigError

    for path in paths:
        if path.is_dir():
            raise ConfigError(f"output {path} is a directory")


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
    from .runconfig import STAGE_DEFAULTS

    print(json.dumps({"model": config_to_dict(model.cfg),
                      "train": {k: getattr(rc.train, k) for k in STAGE_DEFAULTS},
                      "data": rc.data_kind,
                      "parameters": model.num_params()}, indent=2))


# --------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    from . import tensor as T
    from .checkpoint import save_model
    from .data import check_vocab
    from .halo import _train_loop, stream_for
    from .model import forward, init_model
    from .runconfig import load_run_config

    rc = load_run_config(args.config, seed_override=args.seed)
    check_vocab(rc.model.vocab, rc.data_kind)
    model = init_model(rc.model, seed=rc.train.seed)
    if args.dry_run:
        _print_config(rc, model)
        return 0
    stream = stream_for(rc.train, rc.data_kind)
    params = dict(model.named_parameters())

    def make_loss(step):  # s_t = 1 in training; the checkpoint keeps the base
        batch = stream.batch(step)
        return T.cross_entropy(forward(model, batch[:, :-1], scale_base=None),
                               batch[:, 1:])

    report = _train_loop("train", params, rc.train, make_loss)
    save_model(args.out, model)
    report.write_jsonl(_train_report(args.out))
    final = f"; final loss {report.losses[-1]:.4f}" if report.losses else ""
    print(f"trained {rc.train.steps} steps{final}; wrote {args.out}")
    return 0


# --------------------------------------------------------------------------
# halo pipeline with persisted stages

def _train_report(out) -> Path:
    """Where `train` writes the report of the checkpoint `out`."""
    return Path(f"{out}.report.jsonl")


# the _halo_paths entries each stage writes
_STAGE_OUTPUTS = {"1": ("stage1", "stage1_report"), "select": ("scores", "selection"),
                  "2": ("hybrid_init", "stage2", "stage2_report"),
                  "3": ("stage3", "stage3_report")}


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
    the earlier stages left in the output directory.  Raises RuntimeError,
    after the last stage, when a stage changed the teacher's weights."""
    from . import halo
    from .checkpoint import load_model, save_mixer, save_model
    from .runconfig import load_run_config

    rc = load_run_config(args.config, seed_override=args.seed)
    hc = rc.halo
    teacher = load_model(args.teacher)
    k = halo.check_teacher(teacher, hc)  # a bad arch, k, vocab or dtype fails before any stage
    if args.dry_run:
        print(json.dumps({"stages": args.stage, "teacher_params": teacher.num_params(),
                          "k": k}, indent=2))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = _halo_paths(out)
    stages = ("1", "select", "2", "3") if args.stage == "all" else (args.stage,)
    alone = len(stages) == 1  # a stage run alone reads its inputs from out
    for stage in stages:  # every file the stages write, before the first starts
        for key in _STAGE_OUTPUTS[stage]:
            entry = paths[key]
            _check_outputs(map(entry, range(teacher.cfg.L)) if callable(entry) else [entry])
    frozen = teacher.state_bytes()
    if "1" in stages:
        aligned = {}
        for l, (weights, report) in halo.run_stage1(teacher, hc).items():
            save_mixer(paths["stage1"](l), weights, meta={"layer": l, **report.final_metrics})
            _write_report(report, paths["stage1_report"](l))
            aligned[l] = weights
    if "select" in stages:
        if alone:
            aligned = _load_stage1(teacher.cfg, paths)
        I_attn = _select(teacher, aligned, hc, paths)
    if "2" in stages:
        if alone:
            I_attn = _load_selection(paths["selection"], teacher.cfg)
            aligned = _load_stage1(teacher.cfg, paths)
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
    if teacher.state_bytes() != frozen:
        raise RuntimeError("teacher weights changed during conversion")
    return 0


def _require(path: Path, what: str) -> Path:
    from .checkpoint import CheckpointError

    if not path.exists():
        raise CheckpointError(f"missing {what}: {path}")
    return path


def _load_selection(path: Path, teacher_cfg) -> list[int]:
    """The I_attn of a selection artifact, checked by building the hybrid
    config it selects from `teacher_cfg`.  Raises CheckpointError, naming
    the file, for a missing or malformed one."""
    from .checkpoint import CheckpointError
    from .model import hybrid_config

    try:
        I_attn = json.loads(_require(path, "selection artifact").read_text())["I_attn"]
        if not (isinstance(I_attn, list) and all(type(i) is int for i in I_attn)):
            raise TypeError(f"I_attn must be a list of integers, got {json.dumps(I_attn)}")
        hybrid_config(teacher_cfg, I_attn)
    except (OSError, ValueError, KeyError, TypeError) as e:  # ConfigError is a ValueError
        raise CheckpointError(f"{path}: malformed selection ({e!r})") from None
    return I_attn


def _load_stage1(cfg, paths: dict) -> dict:
    """Every layer's stage-1 mixer for the teacher config `cfg`.  Raises
    CheckpointError, naming the file, for a missing one or one whose
    (d, n_h, d_h) is not the teacher's (`load_mixer` checks the rest of the
    RNN layout)."""
    from .checkpoint import CheckpointError, load_mixer

    want = (cfg.d, cfg.n_h, cfg.d_h)
    aligned = {}
    for l in range(cfg.L):
        path = _require(paths["stage1"](l), f"stage-1 weights for layer {l}")
        mixer = load_mixer(path)
        got = (mixer.d, mixer.n_h, mixer.d_h)
        if got != want:
            raise CheckpointError(f"{path}: mixer (d, n_h, d_h) = {got} does not fit "
                                  f"the teacher's RNN layout {want}")
        aligned[l] = mixer
    return aligned


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


# --------------------------------------------------------------------------
# eval / bench / inspect

def cmd_eval(args) -> int:
    import numpy as np

    from .checkpoint import load_model
    from .data import StreamConfig, TokenStream, check_vocab
    from .evals import (EvalResult, gen_csr_proxy, length_sweep, perplexity,
                        score_csr, write_plot_data)
    from .model import with_scaling
    from .tensor import ConfigError

    if args.task == "csr" and args.lengths is not None:
        raise ConfigError("--lengths does not apply to --task csr: the cloze proxy "
                          "scores fixed-length prefixes and continuations")
    if args.task == "ppl" and args.samples is not None:
        raise ConfigError("--samples does not apply to --task ppl: perplexity reads "
                          "a fixed corpus of 8 documents")
    lengths = _lengths("256,512,1024" if args.lengths is None else args.lengths)
    n_samples = 200 if args.samples is None else _positive_int("--samples", args.samples)
    scale, tag = _resolve_scale(args)
    model = load_model(args.ckpt)
    check_vocab(model.cfg.vocab, args.task)
    if scale != "config":  # another scaling is another model over the same weights
        model = with_scaling(model, scale)
    if args.task == "niah":
        results = length_sweep(model, lengths, n_samples=n_samples, seed=args.eval_seed)
    elif args.task == "csr":
        samples = gen_csr_proxy(args.eval_seed, n_samples)
        results = [score_csr(model, samples)]
    else:
        stream = TokenStream(StreamConfig(kind="niah_mix", context_len=max(lengths),
                                          batch_size=1, seed=args.eval_seed))
        corpus = np.concatenate([stream.batch(i)[0] for i in range(8)])
        results = [EvalResult(task="ppl", context_len=ln,
                              value=perplexity(model, corpus, ln),
                              metric="perplexity", n_samples=corpus.size // ln)
                   for ln in lengths]
    for r in results:
        print(f"{r.task}\t{r.context_len}\t{r.metric}={r.value:.6f}\tn={r.n_samples}")
    if args.out:
        write_plot_data(results, args.out)
        print(f"wrote {args.out} (scaling: {tag})")
    return 0


def cmd_bench(args) -> int:
    from .checkpoint import load_model
    from .fileio import write_text_atomic
    from .mixers import KvCache, RecurrentState
    from .model import new_session, prefill, _advance
    from .tensor import Rng

    lengths = _lengths(args.lengths)
    _positive_int("--reps", args.reps)
    _positive_int("--decode-tokens", args.decode_tokens)
    model = load_model(args.ckpt)
    unit = "seconds_per_token" if args.mode == "decode" else "seconds_per_sequence"
    rows = [f"length\tmode\t{unit}\tkv_bytes\tstate_bytes"]
    rng = Rng(0 if args.seed is None else args.seed)
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
    from .checkpoint import CheckpointError, load_tensors

    config, tensors = load_tensors(args.ckpt)
    is_model = config.get("kind") == "model"
    if is_model and not (isinstance(config.get("model"), dict)
                         and "I_attn" in config["model"]):
        raise CheckpointError(f"{args.ckpt}: a model header needs a 'model' object "
                              f"with I_attn")
    print(json.dumps(config, indent=2))
    total = 0
    for name, arr in tensors.items():
        print(f"{name}\t{arr.dtype}\t{list(arr.shape)}")
        total += arr.size
    print(f"parameters: {total}")
    if is_model:
        print(f"I_attn: {config['model']['I_attn']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
