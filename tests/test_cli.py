"""Checkpoint format, run configs, CLI subcommands, exit codes."""

import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.checkpoint import (MAGIC, CheckpointError, load_mixer,
                                  load_model, load_tensors, save_mixer,
                                  save_model, save_tensors)
from hybridkit.cli import main
from hybridkit.model import (desk_config, forward, init_model, transformer_config,
                             with_scaling)
from hybridkit.positional import ConstantScale, RopeParams
from hybridkit.runconfig import RunConfig, build_halo_config, load_run_config
from hybridkit.tensor import ConfigError, Rng


TINY_MODEL = {"arch": "transformer", "L": 2, "d": 16, "d_h": 4, "n_h": 4,
              "n_kv_heads": 2, "ffn_width": 24, "vocab": 512,
              "rope_theta": 1000.0}


def write_cfg(tmp_path, train=None, model=None, halo=None) -> str:
    doc = {"model": dict(TINY_MODEL)}
    doc["train"] = {"steps": 4, "batch_size": 2, "context_len": 64,
                    "warmup_steps": 1, **(train or {})}
    if model:
        doc["model"].update(model)
    if halo is not None:
        doc["halo"] = halo
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


# --------------------------------------------------------------------------
# checkpoint container

def test_checkpoint_roundtrip_bit_exact_both_precisions(tmp_path):
    for mode in ("extended", "standard"):
        T.set_precision(mode)
        cfg = desk_config(L=2, I_attn=(0,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                          ffn_width=24, vocab=64,
                          rope=RopeParams(theta=100.0, head_dim=4))
        model = init_model(cfg, seed=1)
        path = tmp_path / f"m_{mode}.ckpt"
        save_model(path, model)
        back = load_model(path)
        for (na, ta), (nb, tb) in zip(model.named_parameters(),
                                      back.named_parameters()):
            assert na == nb
            assert ta.data.dtype == tb.data.dtype
            np.testing.assert_array_equal(ta.data, tb.data)
        assert back.cfg == cfg


def test_checkpoint_double_roundtrip_stable(tmp_path):
    cfg = desk_config(L=1, I_attn=(0,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                      ffn_width=24, vocab=64,
                      rope=RopeParams(theta=100.0, head_dim=4))
    model = init_model(cfg, seed=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(p1, model)
    save_model(p2, load_model(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_model_refuses_a_constant_scaling_and_writes_nothing(tmp_path):
    """A header records a ScaleBase or no scaling; a ConstantScale view is an
    eval-time ablation and is refused before the file is opened."""
    cfg = desk_config(L=1, I_attn=(0,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                      ffn_width=24, vocab=64, rope=RopeParams(theta=100.0, head_dim=4))
    path = tmp_path / "const.ckpt"
    with pytest.raises(ConfigError, match=r"ConstantScale\(s=1.5\)"):
        save_model(path, with_scaling(init_model(cfg, seed=2), ConstantScale(1.5)))
    assert not path.exists() and not any(tmp_path.iterdir())


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_tensors(path)


def test_checkpoint_corrupted_header_len(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_tensors(path, {"kind": "x"}, {"a": np.zeros(3, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, len(MAGIC), 2**40)  # absurd header length
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="header"):
        load_tensors(path)


def test_checkpoint_offsets_cover_payload(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"kind": "x"},
                 {"a": np.arange(4, dtype=np.float32),
                  "b": np.arange(6, dtype=np.float64).reshape(2, 3)})
    cfg, tensors = load_tensors(path)
    assert tensors["a"].dtype == np.float32
    assert tensors["b"].dtype == np.float64
    np.testing.assert_array_equal(tensors["b"], np.arange(6).reshape(2, 3))
    # appending junk makes the payload no longer exactly covered
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(path)


def test_checkpoint_save_that_fails_leaves_the_earlier_file(tmp_path, monkeypatch):
    """The write goes to a temporary file beside the target; when it fails
    partway the temporary file is removed and the old checkpoint loads."""
    import builtins

    import hybridkit.fileio as fileio

    path = tmp_path / "m.ckpt"
    save_tensors(path, {"kind": "x"}, {"a": np.arange(4, dtype=np.float32)})
    before = path.read_bytes()
    opened = []

    class FailsAfterMagic:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            if self.f.tell() > 0:
                raise OSError("disk full")
            self.f.write(data)

    def failing_open(name, mode):
        opened.append(Path(name))
        return FailsAfterMagic(builtins.open(name, mode))

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    for target in (path, tmp_path / "new.ckpt"):
        with pytest.raises(OSError, match="disk full"):
            save_tensors(target, {"kind": "y"}, {"b": np.zeros(8, dtype=np.float64)})
    monkeypatch.undo()
    assert [p.parent for p in opened] == [tmp_path, tmp_path]
    assert path not in opened
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
    assert path.read_bytes() == before
    assert load_tensors(path)[0] == {"kind": "x"}


def test_write_atomic_syncs_the_file_before_the_rename_and_the_directory_after(
        tmp_path, monkeypatch):
    """The temporary file, with every byte written, is synced to disk
    before it is renamed over path, and the directory after, so a crash of
    the machine right after a save cannot leave path truncated."""
    import stat

    from hybridkit.fileio import write_atomic

    path = tmp_path / "m.ckpt"
    data = bytes(range(256)) * 64
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(src), Path(dst), os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_atomic(path, lambda f: f.write(data))
    tmp_ino = events[1][3]
    assert events[0] == ("fsync", False, tmp_ino, len(data))
    assert events[1][:3] == ("replace", tmp_path / "m.ckpt.tmp", path)
    assert events[2][:3] == ("fsync", True, os.stat(tmp_path).st_ino)
    assert len(events) == 3 and path.read_bytes() == data


def _write_scores_and_selection(path, version):
    """cli._select over a stubbed selection, writing beside `path`."""
    import hybridkit.halo as halo
    from hybridkit.cli import _halo_paths, _select

    rows = [{"layer": 0, "recall": 0.5, "cloze": 0.25, "importance": float(version)}]
    real = halo.select_layers
    halo.select_layers = lambda teacher, aligned, hc: ((0,), rows)
    try:
        _select(None, {}, None, _halo_paths(path.parent))
    finally:
        halo.select_layers = real


def _text_writers():
    from hybridkit.evals import EvalResult, write_plot_data
    from hybridkit.halo import StageReport

    return {
        "report": lambda path, v: StageReport("stage2", losses=[float(v)], lrs=[0.1],
                                              final_metrics={"kl": 1.0}).write_jsonl(path),
        "plot": lambda path, v: write_plot_data(
            [EvalResult("niah", 64, float(v), "accuracy", 4)], path),
        "scores": _write_scores_and_selection,
    }


@pytest.mark.parametrize("writer", ["report", "plot", "scores"])
def test_text_artifact_write_that_fails_leaves_the_earlier_file(tmp_path, monkeypatch,
                                                                writer):
    """Text artifacts go through the same temporary-file-and-rename as
    checkpoints: a write that fails partway leaves the earlier file and no
    temporary file behind."""
    import builtins

    import hybridkit.fileio as fileio

    write = _text_writers()[writer]
    path = tmp_path / "scores.tsv"
    write(path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write(path, 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    class FailsHalfway:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(fileio, "open", lambda name, mode: FailsHalfway(builtins.open(name, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --------------------------------------------------------------------------
# run config

def test_runconfig_unknown_key_names_it(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"train": {"stepz": 3}}))
    with pytest.raises(ConfigError, match="train.stepz"):
        load_run_config(p)


def test_runconfig_unknown_section(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"nonsense": {}}))
    with pytest.raises(ConfigError, match="nonsense"):
        load_run_config(p)


def test_runconfig_model_defaults_are_the_desk_model():
    assert RunConfig({}).model == desk_config()


def test_runconfig_arch_defaults():
    rc = RunConfig({"model": {"arch": "transformer", "L": 4}})
    assert rc.model.arch == "transformer" and rc.model.I_attn == (0, 1, 2, 3)
    rc = RunConfig({"model": {"arch": "hypenet", "L": 8}})
    assert rc.model.arch == "hypenet" and rc.model.I_attn == (0, 4)


@pytest.mark.parametrize("doc,key", [
    ({"train": {"tokens_budget": 10}}, "train.tokens_budget"),
    ({"halo": {"stage1": {"tokens_budget": 10}}}, "halo.stage1.tokens_budget"),
    ({"eval": {"n_samples": 8}}, "'eval'"),
])
def test_runconfig_rejects_keys_nothing_reads(doc, key):
    with pytest.raises(ConfigError, match=key):
        RunConfig(doc)


@pytest.mark.parametrize("stage", ["stage1", "stage2", "stage3"])
def test_halo_stage_section_rejects_data(stage):
    """The stream kind of every stage is halo.data; a stage section takes
    only the training keys."""
    with pytest.raises(ConfigError, match=f"halo.{stage}.data"):
        build_halo_config({stage: {"data": "grammar"}})
    assert build_halo_config({"data": "grammar"}).data_kind == "grammar"


def test_cli_halo_stage_data_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, halo={"stage2": {"data": "grammar"}})
    out = tmp_path / "halo"
    assert main(["halo", str(tmp_path / "t.ckpt"), cfg, str(out)]) == 2
    assert "halo.stage2.data" in capsys.readouterr().err
    assert not out.exists()


def test_runconfig_seed_override():
    rc = RunConfig({"train": {"seed": 5}}, seed_override=9)
    assert rc.train.seed == 9 and rc.halo.stage1.seed == 9


# --------------------------------------------------------------------------
# CLI: train

def test_cli_train_smoke_and_report(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "m.ckpt"
    assert main(["train", cfg, str(out)]) == 0
    assert out.exists()
    report = [json.loads(l) for l in
              Path(str(out) + ".report.jsonl").read_text().splitlines()]
    steps = [r for r in report if "loss" in r]
    assert len(steps) == 4
    assert all(np.isfinite(r["loss"]) for r in steps)


def test_cli_dry_run_trains_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "m.ckpt"
    assert main(["--dry-run", "train", cfg, str(out)]) == 0
    assert not out.exists()
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"] > 0
    assert doc["train"]["steps"] == 4


def test_cli_train_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(["--precision", "extended", "--seed", "3", "train", cfg, str(a)]) == 0
    assert main(["--precision", "extended", "--seed", "3", "train", cfg, str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_error_exit_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"train": {"bogus_key": 1}}))
    assert main(["train", str(p), str(tmp_path / "x.ckpt")]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_cli_train_zero_steps_writes_the_untrained_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path, train={"steps": 0, "warmup_steps": 0})
    out = tmp_path / "m.ckpt"
    assert main(["--seed", "3", "train", cfg, str(out)]) == 0
    assert capsys.readouterr().out.startswith("trained 0 steps; wrote")
    T.set_precision("standard")  # the CLI's default
    untrained = init_model(load_run_config(cfg, seed_override=3).model, seed=3)
    assert load_model(out).state_bytes() == untrained.state_bytes()


def _write_doc(tmp_path, bad) -> str:
    """The small train-and-halo document with `bad`'s keys put into its
    sections; a `bad` that is not an object is the whole document."""
    path = Path(write_cfg(tmp_path, halo=SMALL_HALO))
    if isinstance(bad, dict):
        doc = json.loads(path.read_text())
        for section, values in bad.items():
            if isinstance(values, dict):
                doc[section].update(values)
            else:
                doc[section] = values
        bad = doc
    path.write_text(json.dumps(bad))
    return str(path)


# (bad part of a run config, the key its error names)
BAD_DOCUMENTS = [([], "run config"), (5, "run config"), (None, "run config"),
                 ({"halo": []}, "halo")]
BAD_TRAIN_VALUES = [
    ({"model": {"L": "8"}}, "model.L"),
    ({"model": {"L": True}}, "model.L"),
    ({"model": {"I_attn": [0, "a"]}}, "model.I_attn"),
    ({"model": {"scale_base": "2"}}, "model.scale_base"),
    ({"model": {"scale_base": 0.5}}, "model.scale_base"),
    ({"model": {"rope_theta": 0}}, "model.rope_theta"),
    ({"model": {"arch": 1}}, "model.arch"),
    ({"model": {"arch": "rope"}}, "model.arch"),
    ({"model": {"I_attn": [0]}}, "model.I_attn"),  # a transformer has no RNN layer
    ({"model": {"chunk": None}}, "model.chunk"),
    ({"model": {"L": -1}}, "model.L"),
    ({"model": {"d": 0}}, "model.d"),
    ({"model": {"d_h": 0}}, "model.d_h"),
    ({"model": {"d_h": 3}}, "model.d_h"),
    ({"model": {"n_h": 0}}, "model.n_h"),
    ({"model": {"n_kv_heads": 0}}, "model.n_kv_heads"),
    ({"model": {"ffn_width": 0}}, "model.ffn_width"),
    ({"model": {"vocab": 0}}, "model.vocab"),
    ({"model": {"chunk": 0}}, "model.chunk"),
    ({"train": {"grad_clip": "a"}}, "train.grad_clip"),
    ({"train": {"data": 3}}, "train.data"),
    ({"train": {"data": "nope"}}, "train.data"),
    ({"train": {"seed": 1.5}}, "train.seed"),
    ({"train": {"batch_size": 0}}, "train: batch_size"),
    ({"train": {"batch_size": -2}}, "train: batch_size"),
    ({"train": {"context_len": 0}}, "train: context_len"),
    ({"train": {"warmup_steps": -3}}, "train: warmup_steps"),
    ({"train": {"steps": -1, "warmup_steps": 0}}, "train: steps"),
    ({"train": {"lr_max": -1.0, "lr_min": -2.0}}, "train: lr_max"),
    ({"train": {"grad_clip": -1.0}}, "train: grad_clip"),
]
BAD_HALO_VALUES = [
    ({"halo": {"rc_samples": -1}}, "halo.rc_samples"),
    ({"halo": {"rc_samples": 2.5}}, "halo.rc_samples"),
    ({"halo": {"rc_samples": 0}}, "halo.rc_samples"),
    ({"halo": {"rc_seed": -1}}, "halo.rc_seed"),
    ({"halo": {"data": "nope"}}, "halo.data"),
    ({"halo": {"stage2": {"batch_size": 0}}}, "halo.stage2: batch_size"),
    ({"halo": {"stage3": {"seed": -4}}}, "halo.stage3: seed"),
    ({"halo": {"stage1": {"weight_decay": -0.5}}}, "halo.stage1: weight_decay"),
]


def _ids(cases):
    return [json.dumps(bad) for bad, _ in cases]


def _assert_config_error(capsys, key):
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    if re.fullmatch(r"\w+\.\w+", key):  # the error blames no other key of the section
        assert set(re.findall(rf"\b{key.split('.')[0]}\.\w+", err)) == {key}


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("bad, key", BAD_DOCUMENTS + BAD_TRAIN_VALUES,
                         ids=_ids(BAD_DOCUMENTS + BAD_TRAIN_VALUES))
def test_cli_train_bad_config_value_exits_2_and_writes_nothing(tmp_path, capsys, bad, key,
                                                               dry_run):
    cfg = _write_doc(tmp_path, bad)
    assert main(["--dry-run"] * dry_run + ["train", cfg, str(tmp_path / "m.ckpt")]) == 2
    _assert_config_error(capsys, key)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("bad, key", BAD_DOCUMENTS + BAD_HALO_VALUES,
                         ids=_ids(BAD_DOCUMENTS + BAD_HALO_VALUES))
def test_cli_halo_bad_config_value_exits_2_before_any_stage(tmp_path, capsys, bad, key):
    teacher = _teacher_with_vocab(tmp_path, 512)
    out = tmp_path / "halo"
    assert main(["halo", str(teacher), _write_doc(tmp_path, bad), str(out)]) == 2
    _assert_config_error(capsys, key)
    assert not out.exists()


def _teacher_with_vocab(tmp_path, vocab: int, precision: str = "standard"):
    """An untrained transformer checkpoint of the tiny shape, saved at
    `precision` (by default the CLI's)."""
    cfg = transformer_config(L=2, d=16, d_h=4, n_h=4, n_kv_heads=2, ffn_width=24,
                             vocab=vocab, rope=RopeParams(theta=1000.0, head_dim=4))
    path = tmp_path / f"vocab{vocab}.ckpt"
    before = T.precision()
    T.set_precision(precision)
    try:
        save_model(path, init_model(cfg, seed=1))
    finally:
        T.set_precision(before)
    return path


def test_cli_train_vocab_below_the_data_exits_2(tmp_path, capsys):
    """niah_mix ids reach 511 and grammar ids 247: a vocabulary short of the
    data is a config error, and grammar trains at vocab 256."""
    for data, vocab in (("niah_mix", 128), ("niah_mix", 256), ("grammar", 200)):
        out = tmp_path / f"{data}{vocab}.ckpt"
        cfg = write_cfg(tmp_path, train={"data": data}, model={"vocab": vocab})
        assert main(["train", cfg, str(out)]) == 2
        assert f"vocab {vocab} is too small for '{data}'" in capsys.readouterr().err
        assert not out.exists()
    cfg = write_cfg(tmp_path, train={"data": "grammar", "steps": 1, "warmup_steps": 0},
                    model={"vocab": 256})
    assert main(["train", cfg, str(tmp_path / "grammar.ckpt")]) == 0


def test_cli_eval_vocab_below_the_task_exits_2(tmp_path, capsys):
    """Recall prompts and the perplexity corpus carry needle ids up to 511;
    the cloze proxy stays in the filler alphabet."""
    ckpt = str(_teacher_with_vocab(tmp_path, 256))
    for task, samples in (("niah", ["--samples", "2"]), ("ppl", [])):
        assert main(["eval", ckpt, "--task", task, "--lengths", "64"] + samples) == 2
        assert f"vocab 256 is too small for '{task}'" in capsys.readouterr().err
    assert main(["eval", ckpt, "--task", "csr", "--samples", "2"]) == 0


def test_cli_halo_vocab_below_the_recall_suite_exits_2_before_any_stage(tmp_path, capsys):
    """Selection scores candidates on needles, so even a grammar-data run
    needs vocab 512; the run stops before it creates the output directory."""
    teacher = _teacher_with_vocab(tmp_path, 256)
    cfg = write_cfg(tmp_path, halo={"data": "grammar"})
    out = tmp_path / "halo"
    assert main(["halo", str(teacher), cfg, str(out)]) == 2
    assert "vocab 256 is too small for 'niah'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("saved,flag", [("extended", "standard"), ("standard", "extended")])
def test_cli_halo_teacher_of_another_precision_exits_2_before_any_stage(
        tmp_path, capsys, saved, flag):
    """A teacher saved in f64 run at --precision standard (and an f32 one at
    extended) is refused, naming its dtype and the flag, before the output
    directory is made; at its own precision the dry run passes."""
    teacher = _teacher_with_vocab(tmp_path, 512, precision=saved)
    dtype = {"extended": "float64", "standard": "float32"}[saved]
    cfg = write_cfg(tmp_path)
    out = tmp_path / "halo"
    for dry in ([], ["--dry-run"]):
        assert main(dry + ["--precision", flag, "halo", str(teacher), cfg, str(out)]) == 2
        err = capsys.readouterr().err
        assert f"holds {dtype} tensors" in err and f"--precision {saved}" in err
        assert not out.exists()
    assert main(["--precision", saved, "--dry-run", "halo", str(teacher), cfg, str(out)]) == 0


def test_cli_halo_hypenet_teacher_exits_2_before_any_stage(tiny_hybrid_ckpt, tmp_path,
                                                           capsys):
    """Only a transformer converts: a hypenet checkpoint is refused by the
    dry run and the real run alike, before the output directory is made."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "halo"
    for dry in (["--dry-run"], []):
        assert main(dry + ["halo", str(tiny_hybrid_ckpt), cfg, str(out)]) == 2
        err = capsys.readouterr().err
        assert "must be a transformer, got arch 'hypenet'" in err
        assert not out.exists()


def test_cli_halo_output_that_is_a_file_exits_2(tmp_path, capsys):
    teacher = _teacher_with_vocab(tmp_path, 512)
    out = tmp_path / "halo"
    out.write_text("not a directory\n")
    assert main(["halo", str(teacher), write_cfg(tmp_path), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error:") and str(out) in err and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_cli_eval_out_in_a_missing_directory_exits_2_before_evaluating(tmp_path, capsys):
    ckpt = _teacher_with_vocab(tmp_path, 512)
    out = tmp_path / "absent" / "csr.tsv"
    assert main(["eval", str(ckpt), "--task", "csr", "--samples", "2",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no result line: nothing was evaluated
    assert captured.err.startswith("config error:") and str(out) in captured.err
    assert not out.parent.exists()


@pytest.mark.parametrize("where", ["in_a_missing_directory", "a_directory"])
@pytest.mark.parametrize("command", ["train", "eval", "bench"])
def test_cli_output_that_cannot_be_written_exits_2_before_any_work(tmp_path, capsys,
                                                                   command, where):
    """An output in a missing directory, or one that is a directory, is a
    config error naming it, before anything is trained, evaluated or timed."""
    ckpt = str(_teacher_with_vocab(tmp_path, 512))
    out = tmp_path / "absent" / "out" if where == "in_a_missing_directory" else tmp_path / "out"
    if where == "a_directory":
        out.mkdir()
    argv = {"train": ["train", write_cfg(tmp_path), str(out)],
            "eval": ["eval", ckpt, "--lengths", "64", "--samples", "2", "--out", str(out)],
            "bench": ["bench", ckpt, "--lengths", "32", "--reps", "1", "--out", str(out)]}
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and str(out) in captured.err
    assert ".tmp" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert where != "a_directory" or not any(out.iterdir())


def test_cli_train_report_that_is_a_directory_exits_2_before_training(tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    report = tmp_path / "m.ckpt.report.jsonl"
    report.mkdir()
    assert main(["train", write_cfg(tmp_path), str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no "trained" line: nothing was trained
    assert captured.err.startswith("config error:") and str(report) in captured.err
    assert not out.exists() and not any(report.iterdir())


@pytest.mark.parametrize("stage, name", [
    ("all", "stage1_layer1.report.jsonl"), ("all", "scores.tsv"),
    ("all", "hybrid_init.ckpt"), ("all", "final.ckpt"),
    ("1", "stage1_layer0.ckpt"), ("3", "stage3.report.jsonl")])
def test_cli_halo_output_that_is_a_directory_exits_2_before_any_stage(tmp_path, capsys,
                                                                      stage, name):
    """Every file the stages to run would write is checked before the
    first of them starts; stage 3 alone would otherwise load its input."""
    teacher = _teacher_with_vocab(tmp_path, 512)
    out = tmp_path / "halo"
    (out / name).mkdir(parents=True)
    assert main(["halo", str(teacher), write_cfg(tmp_path, halo=SMALL_HALO), str(out),
                 "--stage", stage]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no stage printed its metrics
    assert captured.err.startswith("config error:") and str(out / name) in captured.err
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("flag, value", [("--scale-base", "nan"), ("--scale-base", "inf"),
                                         ("--constant-scaling", "inf"),
                                         ("--constant-scaling", "nan")])
def test_cli_eval_non_finite_scaling_exits_2_before_evaluating(tmp_path, capsys, flag, value):
    ckpt = str(_teacher_with_vocab(tmp_path, 512))
    assert main(["eval", ckpt, "--lengths", "64", "--samples", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "finite" in captured.err


@pytest.mark.parametrize("section, key, text", [
    ("model", "scale_base", "NaN"), ("model", "rope_theta", "NaN"),
    ("model", "rope_theta", "Infinity"), ("train", "lr_max", "NaN"),
    ("train", "lr_max", "-Infinity"), ("train", "lr_max", "1e999")])
@pytest.mark.parametrize("command", ["train", "halo"])
def test_cli_non_finite_number_in_the_config_exits_2_before_any_work(
        tmp_path, capsys, command, section, key, text):
    """JSON's NaN and Infinity, and a number too large for a float, are
    refused when the config is read, naming the file and the number."""
    path = Path(write_cfg(tmp_path))
    doc = json.loads(path.read_text())
    doc[section][key] = "@"
    path.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(ConfigError, match="not a finite number"):
        load_run_config(path)
    out = tmp_path / "out"
    argv = {"train": ["train", str(path), str(out)],
            "halo": ["halo", str(_teacher_with_vocab(tmp_path, 512)), str(path), str(out)]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert f"{text} is not a finite number" in err
    assert not out.exists()


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["train", str(tmp_path / "absent.json"), "x.ckpt"]) == 2


def test_cli_unreadable_config_exits_2_naming_it(tmp_path, capsys):
    """A config that is not UTF-8 text, or is a directory, is a config error
    that names the path, not a traceback."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"model": {"arch": "caf\u00e9"}}'.encode("latin-1"))
    folder = tmp_path / "cfg.d"
    folder.mkdir()
    for path, why in ((latin1, "invalid JSON"), (folder, "cannot read")):
        with pytest.raises(ConfigError, match=why):
            load_run_config(path)
        assert main(["train", str(path), str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err and why in err
    assert not (tmp_path / "m.ckpt").exists()


def _raw_checkpoint(path, header, payload: bytes):
    """A file in the checkpoint container with `header` as its JSON header."""
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + payload)
    return path


def test_cli_bad_checkpoint_exit_2(tmp_path, capsys):
    """Each defect raises a CheckpointError naming the path, and every
    command that reads a checkpoint exits 2 on it."""
    garbage = tmp_path / "bad.ckpt"
    garbage.write_bytes(b"garbage!")
    entry = {"name": "a", "dtype": "f32", "shape": [3], "offset": 0, "length": 12}
    payload = np.arange(3, dtype=np.float32).tobytes()
    no_offset = {k: v for k, v in entry.items() if k != "offset"}
    corrupt = {
        "garbage": garbage,
        "missing file": tmp_path / "absent.ckpt",
        "directory": tmp_path,
        "header is a list": _raw_checkpoint(tmp_path / "list.ckpt", [entry], payload),
        "no tensors key": _raw_checkpoint(tmp_path / "notensors.ckpt",
                                          {"config": {}}, payload),
        "entry without offset": _raw_checkpoint(tmp_path / "nooffset.ckpt",
                                                {"config": {}, "tensors": [no_offset]},
                                                payload),
        "length disagrees with shape": _raw_checkpoint(
            tmp_path / "length.ckpt",
            {"config": {}, "tensors": [{**entry, "shape": [2]}]}, payload),
    }
    # sound containers whose model header lacks a model object
    headers = {
        "model header without model": _raw_checkpoint(
            tmp_path / "nomodel.ckpt", {"config": {"kind": "model"}, "tensors": []}, b""),
        "model header with a number for model": _raw_checkpoint(
            tmp_path / "number.ckpt", {"config": {"kind": "model", "model": 5},
                                       "tensors": []}, b""),
    }
    for path in corrupt.values():
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_tensors(path)
    for what, path in {**corrupt, **headers}.items():
        for argv in (["inspect", str(path)],
                     ["eval", str(path), "--lengths", "64", "--samples", "2"]):
            assert main(argv) == 2, (what, argv)
            assert f"checkpoint error: {path}" in capsys.readouterr().err, (what, argv)


# --------------------------------------------------------------------------
# CLI: eval and bench

@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ck")
    cfg = write_cfg(tmp)
    out = tmp / "model.ckpt"
    assert main(["--seed", "1", "train", cfg, str(out)]) == 0
    return out


def test_cli_eval_matches_library_calls(tiny_ckpt, tmp_path):
    out = tmp_path / "sweep.tsv"
    assert main(["eval", str(tiny_ckpt), "--task", "niah", "--lengths", "64,96",
                 "--samples", "8", "--no-scaling", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "length\tmetric\tvalue\tn_samples"
    assert len(lines) == 3

    from hybridkit.evals import length_sweep
    T.set_precision("standard")
    model = with_scaling(load_model(tiny_ckpt), None)
    ref = length_sweep(model, [64, 96], n_samples=8, seed=0)
    for line, r in zip(lines[1:], ref):
        cols = line.split("\t")
        assert int(cols[0]) == r.context_len
        assert float(cols[2]) == pytest.approx(r.value, abs=0)


def test_cli_eval_scaling_variants_distinct_files(tiny_ckpt, tmp_path):
    a, b = tmp_path / "fit.tsv", tmp_path / "none.tsv"
    assert main(["eval", str(tiny_ckpt), "--lengths", "64", "--samples", "4",
                 "--scale-base", "100", "--out", str(a)]) == 0
    assert main(["eval", str(tiny_ckpt), "--lengths", "64", "--samples", "4",
                 "--no-scaling", "--out", str(b)]) == 0
    assert a.exists() and b.exists() and a != b


def test_cli_eval_rejects_conflicting_scaling(tiny_ckpt):
    with pytest.raises(SystemExit):
        main(["eval", str(tiny_ckpt), "--no-scaling", "--scale-base", "5"])


@pytest.fixture(scope="module")
def scaled_ckpt(tmp_path_factory):
    """The tiny checkpoint trained with scale_base 2.0 in its config, and the
    same run with null."""
    tmp = tmp_path_factory.mktemp("scaled")
    paths = {}
    for name, base in (("scaled", 2.0), ("plain", None)):
        run = tmp / name
        run.mkdir()
        paths[name] = run / "model.ckpt"
        cfg = write_cfg(run, model={"scale_base": base})
        assert main(["--seed", "1", "train", cfg, str(paths[name])]) == 0
    return paths


def test_cli_train_runs_at_unit_scaling_and_keeps_the_base(scaled_ckpt):
    """Training ignores the configured base (s_t = 1); the checkpoint saves
    it for inference."""
    (cfg_s, scaled), (cfg_p, plain) = (load_tensors(scaled_ckpt[k]) for k in ("scaled", "plain"))
    assert cfg_s["model"]["scale_base"] == 2.0 and cfg_p["model"]["scale_base"] is None
    assert {**cfg_s["model"], "scale_base": None} == cfg_p["model"]
    assert scaled.keys() == plain.keys()
    for name in scaled:
        np.testing.assert_array_equal(scaled[name], plain[name], err_msg=name)


def _eval_values(argv, capsys) -> list[str]:
    assert main(["eval"] + argv) == 0
    return [line.split("\t")[2] for line in capsys.readouterr().out.splitlines()]


def test_library_evals_apply_the_configured_base_as_the_cli_does(scaled_ckpt, capsys):
    from hybridkit.data import StreamConfig, TokenStream
    from hybridkit.evals import NiahSpec, gen_csr_proxy, gen_niah, perplexity, score_csr, score_recall

    ckpt = str(scaled_ckpt["scaled"])
    cli_ppl = _eval_values([ckpt, "--task", "ppl", "--lengths", "64,128"], capsys)
    cli_niah = _eval_values([ckpt, "--task", "niah", "--lengths", "64", "--samples", "8"],
                            capsys)
    cli_csr = _eval_values([ckpt, "--task", "csr", "--samples", "16"], capsys)
    T.set_precision("standard")  # the CLI's default
    model = load_model(ckpt)
    stream = TokenStream(StreamConfig(kind="niah_mix", context_len=128, batch_size=1, seed=0))
    corpus = np.concatenate([stream.batch(i)[0] for i in range(8)])
    lib_ppl = [f"perplexity={perplexity(model, corpus, ln):.6f}" for ln in (64, 128)]
    assert lib_ppl == cli_ppl
    unscaled = with_scaling(model, None)
    assert [f"perplexity={perplexity(unscaled, corpus, ln):.6f}" for ln in (64, 128)] != lib_ppl
    recall = score_recall(model, gen_niah(NiahSpec(context_len=64, n_samples=8, seed=0)))
    assert [f"accuracy={recall.value:.6f}"] == cli_niah
    assert [f"accuracy={score_csr(model, gen_csr_proxy(0, 16)).value:.6f}"] == cli_csr


def test_cli_bench_decode_and_prefill(tiny_ckpt, capsys):
    assert main(["bench", str(tiny_ckpt), "--mode", "decode",
                 "--lengths", "32,64", "--reps", "2", "--decode-tokens", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("length\tmode\tseconds_per_token")
    rows = [l.split("\t") for l in out[1:]]
    assert [r[0] for r in rows] == ["32", "64"]
    kv32, kv64 = int(rows[0][3]), int(rows[1][3])
    # decode appends a few tokens beyond the prompt; cache grows with length
    assert kv64 > kv32 > 0

    assert main(["bench", str(tiny_ckpt), "--mode", "prefill",
                 "--lengths", "32", "--reps", "2"]) == 0


def _edited_copy(src, dst, edit):
    config, tensors = load_tensors(src)
    edit(tensors)
    save_tensors(dst, config, tensors)
    return dst


def test_checkpoint_missing_tensor_is_named(tiny_ckpt, tmp_path, capsys):
    bad = _edited_copy(tiny_ckpt, tmp_path / "missing.ckpt",
                       lambda t: t.pop("layers.1.pre_mlp_gain"))
    with pytest.raises(CheckpointError, match="'layers.1.pre_mlp_gain'"):
        load_model(bad)
    assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
    assert "layers.1.pre_mlp_gain" in capsys.readouterr().err


def test_checkpoint_wrong_shape_is_named(tiny_ckpt, tmp_path, capsys):
    def halve(t):
        t["layers.0.mlp.w_up"] = t["layers.0.mlp.w_up"][:, : TINY_MODEL["ffn_width"] // 2].copy()

    bad = _edited_copy(tiny_ckpt, tmp_path / "narrow.ckpt", halve)
    with pytest.raises(CheckpointError, match=r"'layers.0.mlp.w_up' has shape \[16, 12\]"):
        load_model(bad)
    assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
    assert "layers.0.mlp.w_up" in capsys.readouterr().err

    bad = _edited_copy(tiny_ckpt, tmp_path / "gain.ckpt",
                       lambda t: t.update({"layers.1.mixer.qk_gain_k":
                                           np.ones((4, 1, 4), dtype=np.float32)}))
    with pytest.raises(CheckpointError, match="'layers.1.mixer.qk_gain_k'"):
        load_model(bad)
    bad = _edited_copy(tiny_ckpt, tmp_path / "extra.ckpt",
                       lambda t: t.update({"unembed": t["embed"].copy()}))
    with pytest.raises(CheckpointError, match="unexpected tensor 'unembed'"):
        load_model(bad)


@pytest.fixture(scope="module")
def tiny_hybrid_ckpt(tmp_path_factory):
    """A hypenet: a gated attention layer (layer 0), then an RNN layer."""
    cfg = desk_config(L=2, I_attn=(0,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                      ffn_width=24, vocab=512, rope=RopeParams(theta=1000.0, head_dim=4))
    path = tmp_path_factory.mktemp("hy") / "hybrid.ckpt"
    save_model(path, init_model(cfg, seed=4))
    return path


def _drop(*names):
    return lambda t: [t.pop(name) for name in names]


def _add_gate(layer):
    def add(t):
        w_o = t[f"layers.{layer}.mixer.w_o"]
        t[f"layers.{layer}.mixer.w_z"] = np.zeros_like(w_o)
        t[f"layers.{layer}.mixer.out_gain"] = np.ones((4, 1, 4), dtype=w_o.dtype)
    return add


LAYOUT_DEFECTS = {
    "teacher_without_qk_gain_q": ("teacher", _drop("layers.1.mixer.qk_gain_q"),
                                  "missing tensor 'layers.1.mixer.qk_gain_q'"),
    "rnn_without_gate": ("hybrid", _drop("layers.1.mixer.w_z", "layers.1.mixer.out_gain"),
                         "missing tensor 'layers.1.mixer.w_z'"),
    "rnn_without_out_gain": ("hybrid", _drop("layers.1.mixer.out_gain"),
                             "missing tensor 'layers.1.mixer.out_gain'"),
    "ungated_teacher_with_gate": ("teacher", _add_gate(0),
                                  "unexpected tensor 'layers.0.mixer.out_gain'"),
    "gated_attention_without_gate": ("hybrid", _drop("layers.0.mixer.out_gain"),
                                     "missing tensor 'layers.0.mixer.out_gain'"),
}


@pytest.mark.parametrize("defect", list(LAYOUT_DEFECTS))
def test_checkpoint_tensors_must_be_the_layout_the_header_implies(
        tiny_ckpt, tiny_hybrid_ckpt, tmp_path, capsys, defect):
    """QK-norm gains on every layer, a gate on every RNN layer and on a
    hypenet's attention layers, and on no transformer layer: any other set
    of tensors is refused, naming one, and never loads as a different
    model."""
    source, change, message = LAYOUT_DEFECTS[defect]
    src = tiny_ckpt if source == "teacher" else tiny_hybrid_ckpt
    load_model(src)
    bad = _edited_copy(src, tmp_path / "bad.ckpt", change)
    with pytest.raises(CheckpointError, match=message):
        load_model(bad)
    assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert message.split("'")[1] in err and "Traceback" not in err


def test_stage1_mixer_without_gate_is_refused(tmp_path):
    """A stage-1 file holds an RNN mixer, and every RNN mixer is gated: one
    with one KV head per query head but no gate does not load."""
    from hybridkit.model import init_rnn_from_attention

    cfg = transformer_config(L=1, d=16, d_h=4, n_h=4, n_kv_heads=4, ffn_width=24,
                             vocab=64, rope=RopeParams(theta=1000.0, head_dim=4))
    teacher_mixer = init_model(cfg, seed=5).layers[0].mixer
    good = tmp_path / "rnn.ckpt"
    save_mixer(good, init_rnn_from_attention(teacher_mixer, Rng(1)))
    load_mixer(good)
    for names in (("w_z", "out_gain"), ("out_gain",)):
        bad = _edited_copy(good, tmp_path / "ungated.ckpt", _drop(*names))
        with pytest.raises(CheckpointError, match=f"missing tensor '{names[0]}'"):
            load_mixer(bad)
    # the teacher's own ungated mixer is not a stage-1 mixer either
    save_mixer(tmp_path / "attn.ckpt", teacher_mixer)
    with pytest.raises(CheckpointError, match="missing tensor 'w_z'"):
        load_mixer(tmp_path / "attn.ckpt")


def _edited_header(src, dst, edit):
    config, tensors = load_tensors(src)
    edit(config)
    save_tensors(dst, config, tensors)
    return dst


def test_checkpoint_layer_kinds_must_agree_with_I_attn(tiny_hybrid_ckpt, tmp_path, capsys):
    """I_attn is the one record of which layers are attention; a header whose
    layer kinds say otherwise is refused, whichever of the two was edited."""
    kinds = _edited_header(tiny_hybrid_ckpt, tmp_path / "kinds.ckpt",
                           lambda c: c.update({"layer_kinds": ["lightning", "attention"]}))
    attn = _edited_header(tiny_hybrid_ckpt, tmp_path / "attn.ckpt",
                          lambda c: c["model"].update({"I_attn": [1]}))
    for bad in (kinds, attn):
        with pytest.raises(CheckpointError, match="disagree with I_attn"):
            load_model(bad)
        assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
        assert "layer kinds" in capsys.readouterr().err


# header keys of retired switches, each with the one value the model keeps
RETIRED = [("rnn_kind", "lightning"), ("pe_rnn", "rope"), ("tie_embeddings", True),
           ("attn_qk_norm", True), ("rnn_qk_norm", True), ("rnn_gate", True)]


def _key_ids(cases):
    return [f"{key}={json.dumps(value)}" for key, value in cases]


@pytest.mark.parametrize("key, kept", RETIRED, ids=_key_ids(RETIRED))
def test_checkpoint_header_with_a_retired_key_loads(tmp_path, key, kept):
    """Older headers that still carry a retired key with its one value load
    with the same tensors and config; saving again drops the key."""
    cfg = desk_config(L=2, I_attn=(1,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                      ffn_width=24, vocab=64, rope=RopeParams(theta=100.0, head_dim=4))
    model = init_model(cfg, seed=3)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    assert key not in load_tensors(path)[0]["model"]
    old = _edited_header(path, tmp_path / "old.ckpt", lambda c: c["model"].update({key: kept}))
    back = load_model(old)
    assert back.cfg == cfg
    assert [n for n, _ in back.named_parameters()] == [n for n, _ in model.named_parameters()]
    assert back.state_bytes() == model.state_bytes()
    save_model(tmp_path / "again.ckpt", back)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


# (header key, a value the model cannot take)
BAD_HEADER_VALUES = [("rnn_kind", "diag"), ("pe_rnn", "nope"), ("tie_embeddings", False),
                     ("attn_qk_norm", False), ("rnn_qk_norm", False), ("rnn_gate", False),
                     ("rnn_gate", 1), ("n_kv_heads", 0), ("I_attn", [1]),
                     ("arch", "rope")]


def _header_error(key, value) -> str:
    """The part of load_model's error that names `key` and `value`."""
    if key in dict(RETIRED):
        return f"unsupported {key} {json.dumps(value)}"
    return {"n_kv_heads": f"n_kv_heads must be an integer >= 1, got {value!r}",
            "I_attn": "skips a layer; a transformer has no RNN layer",
            "arch": f"arch must be 'transformer' or 'hypenet', got {value!r}"}[key]


@pytest.mark.parametrize("arch", ["transformer", "hypenet"])
def test_checkpoint_header_from_before_arch_loads(tiny_ckpt, tiny_hybrid_ckpt, tmp_path,
                                                  arch):
    """A header written before `arch` holds the pair pe_attention/attn_gate
    instead: ("rope", false) loads as a transformer and ("nope", true) as a
    hypenet, with the same tensors; saving again writes `arch`."""
    src = tiny_ckpt if arch == "transformer" else tiny_hybrid_ckpt
    pair = {"transformer": ("rope", False), "hypenet": ("nope", True)}[arch]

    def to_pair(config):
        del config["model"]["arch"]
        config["model"].update(zip(("pe_attention", "attn_gate"), pair))

    old = _edited_header(src, tmp_path / "old.ckpt", to_pair)
    model = load_model(old)
    assert model.cfg == load_model(src).cfg and model.cfg.arch == arch
    assert model.state_bytes() == load_model(src).state_bytes()
    save_model(tmp_path / "again.ckpt", model)
    assert (tmp_path / "again.ckpt").read_bytes() == src.read_bytes()


@pytest.mark.parametrize("pair", [("nope", False), ("rope", True), ("rope", 0),
                                  ("alibi", True)], ids=json.dumps)
def test_checkpoint_header_pair_of_neither_arch_exits_2(tiny_ckpt, tmp_path, capsys, pair):
    def to_pair(config):
        del config["model"]["arch"]
        config["model"].update(zip(("pe_attention", "attn_gate"), pair))

    bad = _edited_header(tiny_ckpt, tmp_path / "bad.ckpt", to_pair)
    with pytest.raises(CheckpointError, match="unsupported pe_attention, attn_gate"):
        load_model(bad)
    assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and json.dumps(list(pair)) in err


@pytest.mark.parametrize("key, value", BAD_HEADER_VALUES, ids=_key_ids(BAD_HEADER_VALUES))
def test_checkpoint_header_value_the_model_cannot_take_exits_2(tiny_ckpt, tmp_path, capsys,
                                                               key, value):
    bad = _edited_header(tiny_ckpt, tmp_path / "bad.ckpt",
                         lambda c: c["model"].update({key: value}))
    with pytest.raises(CheckpointError, match=re.escape(_header_error(key, value))):
        load_model(bad)
    assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and str(bad) in err
    assert _header_error(key, value) in err
    assert "Traceback" not in err


RETIRED_RUN_KEYS = RETIRED + [("rnn_kind", "diag"), ("pe_attention", "rope"),
                              ("attn_gate", True), ("chunk", 64)]


@pytest.mark.parametrize("key, value", RETIRED_RUN_KEYS, ids=_key_ids(RETIRED_RUN_KEYS))
def test_runconfig_retired_key_is_an_unknown_key(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, model={key: value})
    out = tmp_path / "m.ckpt"
    assert main(["train", cfg, str(out)]) == 2
    assert f"unknown key model.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("chunk", [64, 32])
def test_checkpoint_header_with_a_chunk_loads_as_the_same_model(tiny_hybrid_ckpt, tmp_path,
                                                                chunk):
    """Headers used to record the Lightning chunk width, which never changed
    what a model computes: any stored value is dropped, and saving again
    writes the header without it."""
    old = _edited_header(tiny_hybrid_ckpt, tmp_path / "old.ckpt",
                         lambda c: c["model"].update(chunk=chunk))
    model = load_model(old)
    assert model.cfg == load_model(tiny_hybrid_ckpt).cfg
    assert model.state_bytes() == load_model(tiny_hybrid_ckpt).state_bytes()
    save_model(tmp_path / "again.ckpt", model)
    assert (tmp_path / "again.ckpt").read_bytes() == tiny_hybrid_ckpt.read_bytes()


def test_model_config_run_config_and_header_name_the_same_keys(tiny_ckpt):
    """ModelConfig's fields, the run config's model keys (rope_theta sets
    rope) and a saved header's model keys are one set, so a retired field
    cannot linger in one of them."""
    from dataclasses import fields

    from hybridkit.model import ModelConfig
    from hybridkit.runconfig import MODEL_DEFAULTS

    names = {f.name for f in fields(ModelConfig)}
    assert {"rope" if key == "rope_theta" else key for key in MODEL_DEFAULTS} == names
    assert set(load_tensors(tiny_ckpt)[0]["model"]) == names


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--lengths", "512,256"], "sorted ascending"),
    (["eval", "--lengths", ""], "--lengths"),
    (["eval", "--samples", "0"], "--samples"),
    (["bench", "--reps", "0"], "--reps"),
    (["bench", "--decode-tokens", "0"], "--decode-tokens"),
    (["bench", "--lengths", "0"], "--lengths"),
])
def test_cli_bad_numeric_argument_exits_2(tiny_ckpt, capsys, argv, flag):
    assert main([argv[0], str(tiny_ckpt)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err


def test_cli_eval_csr_refuses_lengths(tiny_ckpt, tmp_path, capsys):
    """The cloze proxy has a fixed length, so an explicit --lengths is an
    error rather than a flag that is silently ignored; niah and ppl keep
    their default lengths."""
    out = tmp_path / "csr.tsv"
    assert main(["eval", str(tiny_ckpt), "--task", "csr", "--lengths", "4096",
                 "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--lengths" in err and "csr" in err
    assert not out.exists()
    assert main(["eval", str(tiny_ckpt), "--task", "ppl"]) == 0
    assert [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()] == [
        "256", "512", "1024"]


def test_cli_eval_ppl_refuses_samples(tiny_ckpt, tmp_path, capsys):
    """Perplexity reads a fixed 8-document corpus, so --samples is an error
    rather than a flag that is silently ignored; without it ppl prints the
    library's perplexity at the default lengths."""
    from hybridkit.data import StreamConfig, TokenStream
    from hybridkit.evals import perplexity

    out = tmp_path / "ppl.tsv"
    for samples in ("1", "200"):
        assert main(["eval", str(tiny_ckpt), "--task", "ppl", "--samples", samples,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--samples" in err and "ppl" in err
    assert not out.exists()
    assert main(["eval", str(tiny_ckpt), "--task", "ppl"]) == 0
    printed = capsys.readouterr().out.splitlines()
    T.set_precision("standard")  # the CLI's default
    model = load_model(tiny_ckpt)
    stream = TokenStream(StreamConfig(kind="niah_mix", context_len=1024, batch_size=1, seed=0))
    corpus = np.concatenate([stream.batch(i)[0] for i in range(8)])
    assert printed == [f"ppl\t{ln}\tperplexity={perplexity(model, corpus, ln):.6f}"
                       f"\tn={corpus.size // ln}" for ln in (256, 512, 1024)]


@pytest.mark.parametrize("command", ["train", "eval", "bench"])
def test_cli_negative_seed_exits_2_and_writes_nothing(tiny_ckpt, tmp_path, capsys, command):
    out, cfg = tmp_path / "out", write_cfg(tmp_path)
    argv = {"train": ["--seed", "-1", "train", cfg, str(out)],
            "eval": ["eval", str(tiny_ckpt), "--lengths", "64", "--samples", "2",
                     "--eval-seed", "-1", "--out", str(out)],
            "bench": ["--seed", "-1", "bench", str(tiny_ckpt), "--lengths", "32",
                      "--reps", "1", "--out", str(out)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "non-negative" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_threads_below_one_exits_2_before_setting_the_environment(
        tiny_ckpt, capsys, monkeypatch, threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert main(["--threads", threads, "inspect", str(tiny_ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--threads" in err
    assert not {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ)


def test_mixer_checkpoint_validated(tiny_ckpt, tmp_path):
    from hybridkit.model import init_rnn_from_attention

    mixer = init_rnn_from_attention(load_model(tiny_ckpt).layers[0].mixer, Rng(0))
    good = tmp_path / "mixer.ckpt"
    save_mixer(good, mixer)
    back = load_mixer(good)
    for (na, ta), (nb, tb) in zip(mixer.named(), back.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    bad = _edited_copy(good, tmp_path / "no_wk.ckpt", lambda t: t.pop("w_k"))
    with pytest.raises(CheckpointError, match="missing tensor 'w_k'"):
        load_mixer(bad)
    bad = _edited_copy(good, tmp_path / "narrow_wv.ckpt",
                       lambda t: t.update({"w_v": np.zeros((16, 8), dtype=np.float32)}))
    with pytest.raises(CheckpointError, match="'w_v' has shape"):
        load_mixer(bad)


def test_cli_inspect_param_count_closed_form(tiny_ckpt, capsys):
    assert main(["inspect", str(tiny_ckpt)]) == 0
    out = capsys.readouterr().out
    count = int([l for l in out.splitlines() if l.startswith("parameters:")][0]
                .split(":")[1])
    m = TINY_MODEL
    d, dh, nh, nkv, f, L, v = (m["d"], m["d_h"], m["n_h"], m["n_kv_heads"],
                               m["ffn_width"], m["L"], m["vocab"])
    per_attn = d * nh * dh * 2 + d * nkv * dh * 2 + nh * dh + nkv * dh  # proj + qk gains
    per_layer = per_attn + 2 * d + 3 * d * f
    assert count == v * d + L * per_layer + d


# --------------------------------------------------------------------------
# CLI: halo pipeline with stage reruns

def test_cli_halo_end_to_end_and_stage_rerun(tmp_path):
    cfg = write_cfg(
        tmp_path,
        halo={"stage1": {"steps": 3, "batch_size": 2, "context_len": 64,
                         "lr_max": 1e-3, "warmup_steps": 1},
              "stage2": {"steps": 3, "batch_size": 2, "context_len": 64,
                         "lr_max": 1e-4, "warmup_steps": 1},
              "stage3": {"steps": 2, "batch_size": 1, "context_len": 128,
                         "lr_max": 1e-5, "schedule": "constant",
                         "warmup_steps": 1},
              "rc_samples": 4},
    )
    teacher_path = tmp_path / "teacher.ckpt"
    assert main(["--seed", "2", "train", cfg, str(teacher_path)]) == 0
    out = tmp_path / "halo"
    assert main(["--seed", "2", "halo", str(teacher_path), cfg, str(out)]) == 0
    for name in ("scores.tsv", "selection.json", "hybrid_init.ckpt",
                 "hybrid_stage2.ckpt", "final.ckpt"):
        assert (out / name).exists(), name
    sel = json.loads((out / "selection.json").read_text())
    assert len(sel["I_attn"]) == 1  # floor(2/4) -> min 1

    # stage-2 rerun from persisted artifacts is bit-reproducible
    first = (out / "hybrid_stage2.ckpt").read_bytes()
    assert main(["--seed", "2", "halo", str(teacher_path), cfg, str(out),
                 "--stage", "2"]) == 0
    assert (out / "hybrid_stage2.ckpt").read_bytes() == first


def test_cli_halo_select_missing_artifact_names_layer(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    teacher_path = tmp_path / "t.ckpt"
    assert main(["train", cfg, str(teacher_path)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["halo", str(teacher_path), cfg, str(empty), "--stage", "select"]) == 2
    assert "layer 0" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["select", "2"])
@pytest.mark.parametrize("misfit", ["d24", "gqa"])
def test_cli_halo_stage1_mixer_that_does_not_fit_the_teacher_exits_2(tmp_path, capsys,
                                                                      stage, misfit):
    """Stage-1 mixers of another width (d=24 for a d=16 teacher), or with
    the attention layout's shared KV heads, are refused naming the file."""
    from hybridkit.model import init_rnn_from_attention

    teacher = _teacher_with_vocab(tmp_path, 512)
    if misfit == "d24":
        cfg = transformer_config(L=2, d=24, d_h=4, n_h=4, n_kv_heads=2, ffn_width=24,
                                 vocab=512, rope=RopeParams(theta=1000.0, head_dim=4))
        other = init_model(cfg, seed=3)
        mixers = [init_rnn_from_attention(lw.mixer, Rng(l)) for l, lw in enumerate(other.layers)]
    else:
        mixers = [lw.mixer for lw in load_model(teacher).layers]
    out = tmp_path / "halo"
    out.mkdir()
    for l, mixer in enumerate(mixers):
        save_mixer(out / f"stage1_layer{l}.ckpt", mixer, meta={"layer": l})
    (out / "selection.json").write_text('{"I_attn": [0], "k": 1}\n')
    before = sorted(p.name for p in out.iterdir())
    assert main(["halo", str(teacher), write_cfg(tmp_path), str(out), "--stage", stage]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "stage1_layer0.ckpt" in err
    assert "RNN layout" in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("text", ['{"k": 1}', '{"I_attn": [0', '{"I_attn": ["a"]}',
                                  '{"I_attn": 5}', '{"I_attn": [2]}', '{"I_attn": [1, 1]}'])
def test_cli_halo_stage2_malformed_selection_exits_2(tmp_path, capsys, text):
    teacher = _teacher_with_vocab(tmp_path, 512)
    out = tmp_path / "halo"
    out.mkdir()
    (out / "selection.json").write_text(text)
    assert main(["halo", str(teacher), write_cfg(tmp_path), str(out), "--stage", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "selection.json" in err
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["selection.json"]


@pytest.mark.parametrize("k", [0, -1, 2.5, "x", True])
def test_halo_k_must_be_positive_int(k):
    with pytest.raises(ConfigError, match="halo.k"):
        build_halo_config({"k": k})
    assert build_halo_config({"k": None}).k is None
    assert build_halo_config({"k": 3}).k == 3


@pytest.mark.parametrize("k", [0, 3])  # not positive; more than the 2 layers
def test_cli_halo_bad_k_exits_2_before_any_stage(tmp_path, capsys, k):
    teacher_path = tmp_path / "t.ckpt"
    assert main(["train", write_cfg(tmp_path), str(teacher_path)]) == 0
    cfg = write_cfg(tmp_path, halo={"k": k})
    out = tmp_path / "halo"
    assert main(["halo", str(teacher_path), cfg, str(out)]) == 2
    assert "halo.k" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_halo_dry_run_and_selection_agree_on_default_k(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, model={"L": 8},
        halo={"stage1": {"steps": 1, "batch_size": 2, "context_len": 64,
                         "warmup_steps": 0},
              "rc_samples": 2})
    teacher_path = tmp_path / "t.ckpt"
    assert main(["train", cfg, str(teacher_path)]) == 0
    out = tmp_path / "halo"
    capsys.readouterr()
    assert main(["--dry-run", "halo", str(teacher_path), cfg, str(out)]) == 0
    dry_k = json.loads(capsys.readouterr().out)["k"]
    assert dry_k == 2  # floor(8 / 4)
    assert not out.exists()
    assert main(["halo", str(teacher_path), cfg, str(out), "--stage", "1"]) == 0
    assert main(["halo", str(teacher_path), cfg, str(out), "--stage", "select"]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["k"] == dry_k and len(sel["I_attn"]) == dry_k


# --------------------------------------------------------------------------
# one tier-1-sized run of every stage

SMALL_HALO = {"stage1": {"steps": 3, "batch_size": 2, "context_len": 64,
                         "lr_max": 1e-3, "warmup_steps": 1},
              "stage2": {"steps": 3, "batch_size": 2, "context_len": 64,
                         "lr_max": 1e-4, "warmup_steps": 1},
              "stage3": {"steps": 2, "batch_size": 1, "context_len": 128,
                         "lr_max": 1e-5, "schedule": "constant", "warmup_steps": 1},
              "rc_samples": 4}


@pytest.fixture(scope="module")
def halo_all(tmp_path_factory):
    """A 4-layer teacher and its `hybridkit halo` run over all stages."""
    tmp = tmp_path_factory.mktemp("halo")
    cfg = write_cfg(tmp, model={"L": 4}, halo=SMALL_HALO)
    teacher = tmp / "teacher.ckpt"
    assert main(["--seed", "2", "train", cfg, str(teacher)]) == 0
    out = tmp / "all"
    assert main(["--seed", "2", "halo", str(teacher), cfg, str(out)]) == 0
    return teacher, cfg, out


def test_cli_halo_writes_the_hybrid_it_selects(halo_all):
    """Selection scores every layer and keeps floor(4/4) = 1; the final
    checkpoint is the hybrid of that selection, whose attention layer keeps
    the teacher's grouped KV heads and whose RNN layers have one per query
    head; stage 2 reports each of its 3 steps."""
    from hybridkit.model import hybrid_config

    teacher, cfg, out = halo_all
    T.set_precision("standard")  # the CLI's default
    teacher_cfg = load_model(teacher).cfg
    scores = (out / "scores.tsv").read_text().splitlines()[1:]
    assert sorted(int(row.split("\t")[0]) for row in scores) == [0, 1, 2, 3]
    I_attn = json.loads((out / "selection.json").read_text())["I_attn"]
    assert len(I_attn) == 1
    final = load_model(out / "final.ckpt")
    assert final.cfg == hybrid_config(teacher_cfg, I_attn)
    for l, lw in enumerate(final.layers):
        n_kv = teacher_cfg.n_kv_heads if l in I_attn else teacher_cfg.n_h
        assert lw.mixer.n_kv_heads == n_kv
    report = (out / "stage2.report.jsonl").read_text().splitlines()
    assert sum("loss" in json.loads(line) for line in report) == 3


@pytest.mark.parametrize("stage", ["all", "2"])
def test_cli_halo_refuses_a_stage_that_mutates_the_teacher(tmp_path, monkeypatch, stage):
    """The stages must leave the teacher as they found it: a stage that
    writes a teacher weight fails the run, whole or staged, after its last
    stage."""
    import hybridkit.halo as halo

    teacher, cfg = _teacher_with_vocab(tmp_path, 512), _write_doc(tmp_path, {})
    out = tmp_path / "halo"
    if stage != "all":
        assert main(["halo", str(teacher), cfg, str(out), "--stage", "1"]) == 0
        assert main(["halo", str(teacher), cfg, str(out), "--stage", "select"]) == 0
    real = halo.run_stage2

    def mutating(teacher, hybrid, hc):
        teacher.layers[0].mlp.w_up.data[0, 0] += 1.0
        return real(teacher, hybrid, hc)

    monkeypatch.setattr(halo, "run_stage2", mutating)
    with pytest.raises(RuntimeError, match="teacher weights changed"):
        main(["halo", str(teacher), cfg, str(out), "--stage", stage])


def test_cli_halo_staged_run_writes_the_same_bytes_as_all(halo_all, tmp_path):
    teacher, cfg, out = halo_all
    staged = tmp_path / "staged"
    for stage in ("1", "select", "2", "3"):
        assert main(["--seed", "2", "halo", str(teacher), cfg, str(staged),
                     "--stage", stage]) == 0
    names = sorted(p.name for p in out.iterdir() if p.suffix in (".ckpt", ".json", ".tsv"))
    assert len(names) == 4 + 3 + 2  # stage-1 mixers, three hybrids, selection and scores
    assert sorted(p.name for p in staged.iterdir()
                  if p.suffix in (".ckpt", ".json", ".tsv")) == names
    for name in names:
        assert (staged / name).read_bytes() == (out / name).read_bytes(), name


def test_runconfig_docstring_lists_exactly_the_keys():
    """The key table of runconfig's module docstring names each model, train
    and halo key once and no other, so a retired key cannot stay in it."""
    import hybridkit.runconfig as rcmod

    sections = {"model": "model keys", "train": "train keys", "halo": "halo keys"}
    listed, section = {name: [] for name in sections}, None
    for line in rcmod.__doc__.splitlines():
        for name, title in sections.items():
            if line.startswith(title):
                section = name
        match = re.match(r"  (\w+) \(", line)
        if section and match:
            listed[section].append(match.group(1))
    assert sorted(listed["model"]) == sorted(rcmod.MODEL_DEFAULTS)
    assert sorted(listed["train"]) == sorted(rcmod.TRAIN_DEFAULTS)  # stage keys and data
    assert sorted(listed["halo"]) == sorted(rcmod.HALO_EXTRA_DEFAULTS)
