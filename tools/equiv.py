"""Bit-identity battery: SHA-256 digests of what hybridkit computes, and a
comparison of them against another revision.

Run from the repository root:

    python3 tools/equiv.py [--tiny] [--out FILE]
    python3 tools/equiv.py [--tiny] --against REV

The battery calls public functions only:
- distill: 3 stage-2 KD steps on the desk hybrid (B=8, T=256, the
  benchmark's `distill` operation without its checkpoint): every loss, and
  the hybrid's `state_bytes()` after the steps; seeds 1-3 in f32, 1 in f64;
- ce: the cross-entropy loss and every parameter gradient of the desk hybrid
  for one B=2, T=300 batch (seed 1), in f32 and f64;
- layer_select: every candidate's (recall, cloze) after one stage-1 step at
  B=4, T=256 for all 8 layers (the benchmark's `layer_select`); seeds 1-3;
- halo: a tiny `hybridkit halo` run (a 2-layer teacher trained 4 steps,
  seed 2) in f32 and f64: scores.tsv, selection.json, the stage-1 mixers and
  every checkpoint, byte for byte (the reports hold wall times and are left
  out);
- infer: on the desk teacher and hybrid (seed 1) in f32 and f64, the logits
  of a B=2, T=700 `prefill` (two prompt chunks), full and `last_only`, 12
  `generate_greedy` tokens after B=2, 64-token prompts, and the
  `choice_logprobs` of 6 cloze samples; tiny_infer takes the same outputs
  of the halo run's trained teacher and final hybrid.
`--tiny` runs the halo and tiny_infer parts alone, in a few seconds.

The digests go to --out as one JSON object, artifact name -> SHA-256 (stdout
without --out).  With --against REV the battery runs on this checkout and on
a `git worktree` of REV, each in a fresh process; every artifact whose digest
differs is printed, and the exit status is 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_RUN = {
    "model": {"arch": "transformer", "L": 2, "d": 16, "d_h": 4, "n_h": 4, "n_kv_heads": 2,
              "ffn_width": 24, "vocab": 512, "rope_theta": 1000.0},
    "train": {"steps": 4, "batch_size": 2, "context_len": 64, "warmup_steps": 1},
    "halo": {"stage1": {"steps": 3, "batch_size": 2, "context_len": 64, "lr_max": 1e-3,
                        "warmup_steps": 1},
             "stage2": {"steps": 3, "batch_size": 2, "context_len": 64, "lr_max": 1e-4,
                        "warmup_steps": 1},
             "stage3": {"steps": 2, "batch_size": 1, "context_len": 128, "lr_max": 1e-5,
                        "schedule": "constant", "warmup_steps": 1},
             "rc_samples": 4},
}
PRECISIONS = {"f32": "standard", "f64": "extended"}


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def distill(seed: int, precision: str) -> dict[str, str]:
    import hybridkit.halo as halo
    import hybridkit.model as hm
    import hybridkit.tensor as T
    from hybridkit.data import StreamConfig, TokenStream
    from hybridkit.runconfig import build_halo_config

    T.set_precision(precision)
    teacher = hm.init_model(hm.transformer_config(), seed)
    hybrid = hm.init_hybrid_from_teacher(teacher, (0, 4), seed)
    cfg = replace(build_halo_config({}, seed_override=seed).stage2, batch_size=8,
                  context_len=256)
    stream = TokenStream(StreamConfig(kind="niah_mix", context_len=256, batch_size=8,
                                      seed=seed))
    params, opt, losses = dict(hybrid.named_parameters()), halo.AdamWState(), []
    for i in range(3):
        x = stream.batch(i)[:, :-1]
        ref = hm.forward(teacher, x).data
        with T.Tape():
            loss = T.kl_divergence(ref, hm.forward(hybrid, x, scale_base=None))
        T.backward(loss)
        halo.clip_grad_norm(params, cfg.grad_clip)
        halo.adamw_step(params, opt, halo.lr_at(i, cfg), cfg.betas, cfg.weight_decay)
        losses.append(loss.data.tobytes())
    return {"losses": sha(*losses), "state_bytes": sha(hybrid.state_bytes())}


def cross_entropy(precision: str) -> dict[str, str]:
    import hybridkit.model as hm
    import hybridkit.tensor as T
    from hybridkit.data import StreamConfig, TokenStream

    T.set_precision(precision)
    hybrid = hm.init_hybrid_from_teacher(hm.init_model(hm.transformer_config(), 1), (0, 4), 1)
    x = TokenStream(StreamConfig(kind="niah_mix", context_len=300, batch_size=2,
                                 seed=1)).batch(0)
    with T.Tape():
        loss = T.cross_entropy(hm.forward(hybrid, x[:, :-1], scale_base=None), x[:, 1:])
    T.backward(loss)
    return {"loss": sha(loss.data.tobytes()),
            "grads": sha(*(p.grad.tobytes() for p in hybrid.parameters()))}


def layer_select(seed: int) -> str:
    import numpy as np

    import hybridkit.evals as evals
    import hybridkit.halo as halo
    import hybridkit.model as hm
    import hybridkit.tensor as T
    from hybridkit.data import StreamConfig, TokenStream
    from hybridkit.runconfig import build_halo_config

    T.set_precision("standard")
    teacher = hm.init_model(hm.transformer_config(), seed)
    hcfg = build_halo_config({}, seed_override=seed)
    cfg1 = replace(hcfg.stage1, batch_size=4, context_len=256, steps=1, warmup_steps=0)
    stream = TokenStream(StreamConfig(kind=hcfg.data_kind, context_len=256, batch_size=4,
                                      seed=seed))
    L = teacher.cfg.L
    aligned = halo.stage1_align_all(teacher, range(L), stream, cfg1)
    suite = evals.build_rc_suite(256, seed=seed, n_samples=8)
    scores = [halo.evaluate_RC(halo.candidate_model(teacher, l, aligned[l][0]), suite)
              for l in range(L)]
    return sha(np.asarray(scores, dtype=np.float64).tobytes())


def inference(**models) -> dict[str, str]:
    """What each model computes at inference on seed-1 inputs (see the
    module docstring), keyed by its name."""
    import hybridkit.model as hm
    from hybridkit.evals import gen_csr_proxy
    from hybridkit.tensor import Rng

    cloze = gen_csr_proxy(1, 6)
    digests = {}
    for name, model in models.items():
        tokens = Rng(1).integers(0, model.cfg.vocab, size=(2, 700))
        full = hm.prefill(model, hm.new_session(model, batch=2), tokens)
        last = hm.prefill(model, hm.new_session(model, batch=2), tokens, last_only=True)
        greedy = hm.generate_greedy(model, tokens[:, :64], 12)
        logprobs = hm.choice_logprobs(model, cloze.prefixes, cloze.choices)
        digests.update({f"{name}/prefill": sha(full.data.tobytes()),
                        f"{name}/prefill_last": sha(last.data.tobytes()),
                        f"{name}/greedy": sha(greedy.tobytes()),
                        f"{name}/choice_logprobs": sha(logprobs.tobytes())})
    return digests


def desk_inference(precision: str) -> dict[str, str]:
    import hybridkit.model as hm
    import hybridkit.tensor as T

    T.set_precision(precision)
    teacher = hm.init_model(hm.transformer_config(), 1)
    return inference(teacher=teacher, hybrid=hm.init_hybrid_from_teacher(teacher, (0, 4), 1))


def halo_run(precision: str, work: Path) -> dict[str, str]:
    from hybridkit.cli import main

    work.mkdir()
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(TINY_RUN))
    teacher, out = work / "teacher.ckpt", work / "halo"
    flags = ["--seed", "2", "--precision", precision]
    for argv in (["train", str(cfg), str(teacher)], ["halo", str(teacher), str(cfg), str(out)]):
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the digests
            status = main(flags + argv)
        if status != 0:
            raise RuntimeError(f"hybridkit {' '.join(flags + argv)} failed")
    files = [teacher] + sorted(p for p in out.iterdir() if not p.name.endswith(".jsonl"))
    return {p.name: sha(p.read_bytes()) for p in files}


def tiny_inference(precision: str, work: Path) -> dict[str, str]:
    """`inference` of the teacher and final hybrid that `halo_run` wrote."""
    import hybridkit.tensor as T
    from hybridkit.checkpoint import load_model

    T.set_precision(precision)
    return inference(teacher=load_model(work / "teacher.ckpt"),
                     hybrid=load_model(work / "halo" / "final.ckpt"))


def battery(tiny: bool) -> dict[str, str]:
    digests: dict[str, str] = {}

    def add(prefix: str, found: dict[str, str]) -> None:
        digests.update({f"{prefix}/{k}": v for k, v in found.items()})

    with tempfile.TemporaryDirectory() as tmp:
        for name, precision in PRECISIONS.items():
            add(f"halo/{name}", halo_run(precision, Path(tmp) / name))
            add(f"tiny_infer/{name}", tiny_inference(precision, Path(tmp) / name))
    if not tiny:
        for seed in (1, 2, 3):
            add(f"distill/f32/seed{seed}", distill(seed, "standard"))
            digests[f"layer_select/seed{seed}"] = layer_select(seed)
        add("distill/f64/seed1", distill(1, "extended"))
        for name, precision in PRECISIONS.items():
            add(f"ce/{name}", cross_entropy(precision))
            add(f"infer/{name}", desk_inference(precision))
    return dict(sorted(digests.items()))


def run_battery(src: Path, tiny: bool, out: Path) -> dict[str, str]:
    """The battery's digests for the hybridkit under `src`, from a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--out", str(out)]
    subprocess.run(cmd + ["--tiny"] * tiny, check=True)
    return json.loads(out.read_text())


def against(rev: str, tiny: bool) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            theirs = run_battery(tree / "src", tiny, Path(tmp) / "rev.json")
            ours = run_battery(ROOT / "src", tiny, Path(tmp) / "ours.json")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    differ = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} artifacts differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="SHA-256 digests of hybridkit's outputs, "
                                            "compared against another revision")
    p.add_argument("--tiny", action="store_true", help="run the tiny halo part alone")
    p.add_argument("--out", type=Path, default=None, help="write the digests here")
    p.add_argument("--against", metavar="REV", default=None,
                   help="compare this checkout's digests with revision REV's")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="the source tree whose hybridkit runs the battery")
    args = p.parse_args(argv)
    if args.against is not None:
        return against(args.against, args.tiny)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import hybridkit

    if Path(hybridkit.__file__).resolve().parent != src / "hybridkit":
        raise RuntimeError(f"imported {hybridkit.__file__}, not the hybridkit under {src}")
    text = json.dumps(battery(args.tiny), indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
