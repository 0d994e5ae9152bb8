"""Checkpoint format, run configs, CLI subcommands, exit codes."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.checkpoint import (MAGIC, CheckpointError, load_mixer,
                                  load_model, load_tensors, save_mixer,
                                  save_model, save_tensors)
from hybridkit.cli import main
from hybridkit.model import desk_config, forward, init_model
from hybridkit.positional import RopeParams
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
            [EvalResult("niah", 64, float(v), "accuracy", 4, 0)], path),
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


def test_runconfig_arch_defaults():
    rc = RunConfig({"model": {"arch": "transformer", "L": 4}})
    assert rc.model.I_attn == (0, 1, 2, 3)
    assert rc.model.pe_attention == "rope" and not rc.model.attn_gate
    rc = RunConfig({"model": {"arch": "hypenet", "L": 8}})
    assert rc.model.I_attn == (0, 4)
    assert rc.model.pe_attention == "nope" and rc.model.attn_gate


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


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["train", str(tmp_path / "absent.json"), "x.ckpt"]) == 2


def test_cli_bad_checkpoint_exit_2(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage!")
    assert main(["inspect", str(bad)]) == 2


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
    model = load_model(tiny_ckpt)
    ref = length_sweep(model, [64, 96], scale_base=None, n_samples=8, seed=0)
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


def _edited_header(src, dst, edit):
    config, tensors = load_tensors(src)
    edit(config)
    save_tensors(dst, config, tensors)
    return dst


def test_checkpoint_layer_kinds_must_agree_with_I_attn(tiny_ckpt, tmp_path, capsys):
    """I_attn is the one record of which layers are attention; a header whose
    layer kinds say otherwise is refused, whichever of the two was edited."""
    kinds = _edited_header(tiny_ckpt, tmp_path / "kinds.ckpt",
                           lambda c: c.update({"layer_kinds": ["attention", "lightning"]}))
    attn = _edited_header(tiny_ckpt, tmp_path / "attn.ckpt",
                          lambda c: c["model"].update({"I_attn": [1]}))
    for bad in (kinds, attn):
        with pytest.raises(CheckpointError, match="disagree with I_attn"):
            load_model(bad)
        assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
        assert "layer kinds" in capsys.readouterr().err


def test_checkpoint_header_naming_lightning_rnn_kind_loads(tmp_path):
    """Headers that still carry `rnn_kind: "lightning"` load with the same
    tensors and config; saving again drops the key."""
    cfg = desk_config(L=2, I_attn=(1,), d=16, d_h=4, n_h=4, n_kv_heads=2,
                      ffn_width=24, vocab=64, rope=RopeParams(theta=100.0, head_dim=4))
    model = init_model(cfg, seed=3)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    assert "rnn_kind" not in load_tensors(path)[0]["model"]
    old = _edited_header(path, tmp_path / "old.ckpt",
                         lambda c: c["model"].update({"rnn_kind": "lightning"}))
    back = load_model(old)
    assert back.cfg == cfg
    assert [n for n, _ in back.named_parameters()] == [n for n, _ in model.named_parameters()]
    assert back.state_bytes() == model.state_bytes()
    save_model(tmp_path / "again.ckpt", back)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_diag_rnn_kind_exits_2(tiny_ckpt, tmp_path, capsys):
    bad = _edited_header(tiny_ckpt, tmp_path / "diag.ckpt",
                         lambda c: c["model"].update({"rnn_kind": "diag"}))
    with pytest.raises(CheckpointError, match="'diag'"):
        load_model(bad)
    assert main(["eval", str(bad), "--lengths", "64", "--samples", "2"]) == 2
    assert "unsupported RNN kind 'diag'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["diag", "lightning"])
def test_runconfig_rnn_kind_is_an_unknown_key(tmp_path, capsys, kind):
    cfg = write_cfg(tmp_path, model={"rnn_kind": kind})
    out = tmp_path / "m.ckpt"
    assert main(["train", cfg, str(out)]) == 2
    assert "unknown key model.rnn_kind" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--lengths", "512,256"], "sorted ascending"),
    (["eval", "--samples", "0"], "--samples"),
    (["bench", "--reps", "0"], "--reps"),
    (["bench", "--decode-tokens", "0"], "--decode-tokens"),
    (["bench", "--lengths", "0"], "--lengths"),
])
def test_cli_bad_numeric_argument_exits_2(tiny_ckpt, capsys, argv, flag):
    assert main([argv[0], str(tiny_ckpt)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err


def test_mixer_checkpoint_validated(tiny_ckpt, tmp_path):
    mixer = load_model(tiny_ckpt).layers[0].mixer
    good = tmp_path / "mixer.ckpt"
    save_mixer(good, mixer)
    back = load_mixer(good)
    for (na, ta), (nb, tb) in zip(mixer.named(), back.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    bad = _edited_copy(good, tmp_path / "no_wk.ckpt", lambda t: t.pop("w_k"))
    with pytest.raises(CheckpointError, match="missing tensor 'w_k'"):
        load_mixer(bad)
    bad = _edited_copy(good, tmp_path / "wide_wv.ckpt",
                       lambda t: t.update({"w_v": np.zeros((16, 16), dtype=np.float32)}))
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


def test_cli_select_layers_missing_artifact_names_layer(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    teacher_path = tmp_path / "t.ckpt"
    assert main(["train", cfg, str(teacher_path)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["select-layers", str(teacher_path), str(empty)]) == 2
    assert "layer 0" in capsys.readouterr().err


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
    assert main(["halo", str(teacher_path), cfg, str(out), "--stage", "1"]) == 0
    assert main(["halo", str(teacher_path), cfg, str(out), "--stage", "select"]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["k"] == dry_k and len(sel["I_attn"]) == dry_k


# --------------------------------------------------------------------------
# the CLI pipeline and run_halo share every stage

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


def test_cli_halo_final_checkpoint_equals_run_halo(halo_all):
    from hybridkit.halo import run_halo

    teacher, cfg, out = halo_all
    T.set_precision("standard")  # the CLI's default
    result = run_halo(load_model(teacher), load_run_config(cfg, seed_override=2).halo)
    final = load_model(out / "final.ckpt")
    assert final.cfg == result.hybrid.cfg
    assert final.state_bytes() == result.hybrid.state_bytes()
    assert json.loads((out / "selection.json").read_text())["I_attn"] == list(result.I_attn)


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
