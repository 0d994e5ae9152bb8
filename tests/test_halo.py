"""Optimizer, schedules, importance scoring, selection, and the three stages."""

import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.data import StreamConfig, TokenStream
from hybridkit.halo import (AdamWState, HaloConfig, StageReport, TrainConfig,
                            TrainingDiverged, adamw_step, candidate_model,
                            check_teacher, clip_grad_norm, evaluate_RC,
                            layer_importance, lr_at, select_attention_layers,
                            stage1_align_all, stage2_distill, stage3_finetune,
                            _train_loop)
from hybridkit.mixers import lightning_forward_chunked
from hybridkit.model import (capture_many, desk_config, forward, init_model,
                             init_rnn_from_attention, transformer_config)
from hybridkit.positional import RopeParams
from hybridkit.tensor import ConfigError, Rng, Tensor

TINY = dict(d=16, d_h=4, n_h=4, n_kv_heads=2, ffn_width=24, vocab=512,
            rope=RopeParams(theta=1000.0, head_dim=4))


def tiny_teacher(L=4, seed=0):
    return init_model(transformer_config(L=L, **TINY), seed=seed)


# --------------------------------------------------------------------------
# learning-rate schedule

def cos_cfg(steps=101, warmup=10, lr_max=1e-3, lr_min=1e-5, schedule="cosine"):
    return TrainConfig(context_len=8, batch_size=1, steps=steps, lr_max=lr_max,
                       lr_min=lr_min, schedule=schedule, warmup_steps=warmup)


def test_lr_warmup_start_is_zero():
    assert lr_at(0, cos_cfg()) == 0.0


def test_lr_at_warmup_end_is_max():
    cfg = cos_cfg()
    assert lr_at(cfg.warmup_steps, cfg) == cfg.lr_max


def test_lr_cosine_midpoint():
    cfg = cos_cfg(steps=111, warmup=10)  # span 100, midpoint at step 60
    mid = cfg.warmup_steps + (cfg.steps - 1 - cfg.warmup_steps) // 2
    assert abs(lr_at(mid, cfg) - (cfg.lr_max + cfg.lr_min) / 2) < 1e-12


def test_lr_continuous_at_boundary():
    cfg = cos_cfg()
    below = lr_at(cfg.warmup_steps, cfg)
    above = lr_at(cfg.warmup_steps + 1, cfg)
    assert abs(below - cfg.lr_max) < 1e-15
    assert above < below and below - above < cfg.lr_max * 0.01


def test_lr_final_step_reaches_min():
    cfg = cos_cfg()
    assert abs(lr_at(cfg.steps - 1, cfg) - cfg.lr_min) < 1e-15


def test_lr_constant_schedule():
    cfg = cos_cfg(schedule="constant")
    assert lr_at(cfg.warmup_steps + 5, cfg) == cfg.lr_max
    assert lr_at(cfg.steps - 1, cfg) == cfg.lr_max


def test_lr_out_of_range():
    with pytest.raises(ValueError):
        lr_at(101, cos_cfg(steps=101))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(context_len=8, batch_size=1, steps=10, lr_max=1e-4, lr_min=1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(context_len=8, batch_size=1, steps=10, lr_max=1e-3, warmup_steps=11)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.5],
                         ids=["nan", "inf", "-inf", "negative"])
@pytest.mark.parametrize("field", ["lr_max", "lr_min", "grad_clip", "weight_decay"])
def test_train_config_refuses_non_finite_floats_naming_the_field(field, value):
    """A non-finite or negative rate, decay or clip is refused, naming the
    field: a negative lr_max would ascend the loss, a negative grad_clip
    turn clipping off."""
    from hybridkit.runconfig import RunConfig

    error = f"{field} must be finite and >= 0"
    with pytest.raises(ConfigError, match=f"^{error}"):
        TrainConfig(**{"context_len": 8, "batch_size": 1, "steps": 10, "lr_max": 1e-3,
                       field: value})
    with pytest.raises(ConfigError, match=f"^train: {error}"):
        RunConfig({"train": {field: value}})
    with pytest.raises(ConfigError, match=f"^halo.stage2: {error}"):
        RunConfig({"halo": {"stage2": {field: value}}})


def test_train_config_takes_zero_rates_decay_and_clip():
    cfg = TrainConfig(context_len=8, batch_size=1, steps=10, lr_max=0.0, lr_min=0.0,
                      weight_decay=0.0, grad_clip=0.0)
    assert (cfg.lr_max, cfg.lr_min, cfg.weight_decay, cfg.grad_clip) == (0.0,) * 4


# --------------------------------------------------------------------------
# AdamW

def test_adamw_zero_grad_no_decay_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    state = AdamWState()
    adamw_step({"p": p}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_constant_grad_step_magnitude_approaches_lr():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamWState()
    lr = 1e-3
    prev = p.data.copy()
    for _ in range(200):
        p.grad = np.array([0.37])
        prev = p.data.copy()
        adamw_step({"p": p}, state, lr=lr)
    step = float(np.abs(p.data - prev)[0])
    assert abs(step - lr) / lr < 0.01


def test_adamw_decoupled_decay_shrinks_by_factor():
    p = Tensor(np.array([2.0]), requires_grad=True)
    state = AdamWState()
    lr, wd = 0.01, 0.1
    p.grad = np.zeros(1)
    adamw_step({"p": p}, state, lr=lr, weight_decay=wd)
    np.testing.assert_allclose(p.data, [2.0 * (1 - lr * wd)], rtol=1e-12)


def test_adamw_skips_nonfinite_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    state = AdamWState()
    assert adamw_step({"p": p}, state, lr=0.1) is False
    np.testing.assert_array_equal(p.data, [1.0])
    assert p.grad is None and state.t == 0


def test_clip_grad_norm():
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    norm = clip_grad_norm({"p": p}, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, rtol=1e-12)


def test_clip_grad_norm_scales_leaves_that_received_one_gradient_array_once():
    """add() hands the same gradient array to both operands; each leaf's
    grad must be its own memory, or the in-place clip scales it twice."""
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
    c = Tensor(np.array([[1.0], [1.0], [1.0]]), requires_grad=True)
    with T.Tape():
        loss = T.sum_all(T.mul_const(T.add(a, b), np.array([3.0, 4.0, 0.0])))
    T.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    norm = clip_grad_norm({"a": a, "b": b}, 1.0)
    assert abs(norm - np.sqrt(50.0)) < 1e-12
    expected = np.array([3.0, 4.0, 0.0]) / np.sqrt(50.0)  # [0.424, 0.566, 0]
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
    np.testing.assert_allclose(b.grad, expected, rtol=1e-12)
    # a view of the shared array (reshape's vjp) counts as sharing too
    d = Tensor(np.zeros(3), requires_grad=True)
    with T.Tape():
        loss = T.sum_all(T.add(d, T.reshape(c, (3,))))
    T.backward(loss)
    assert not np.shares_memory(d.grad, c.grad)
    c.grad *= 0.0
    np.testing.assert_array_equal(d.grad, np.ones(3))


# --------------------------------------------------------------------------
# importance and selection

def test_importance_layer_at_both_maxima_scores_zero():
    s = layer_importance([(0.9, 0.7), (0.5, 0.5)])
    assert s[0] == 0.0  # max recall -> zero numerator


def test_importance_direct_arithmetic():
    s = layer_importance([(0.9, 0.8), (0.5, 0.8)])
    assert s[0] == 0.0
    np.testing.assert_allclose(s[1], 0.4 / 1e-6, rtol=1e-12)


def test_importance_identical_layers_all_zero():
    s = layer_importance([(0.6, 0.4)] * 5)
    assert s == [0.0] * 5


def test_importance_empty_errors():
    with pytest.raises(ValueError):
        layer_importance([])


def brute_force_importance(pairs, eps=1e-6):
    rmax = max(r for r, _ in pairs)
    cmax = max(c for _, c in pairs)
    return [(rmax - r) / (cmax - c + eps) for r, c in pairs]


def test_importance_matches_brute_force_1000_vectors():
    rng = Rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 12))
        pairs = [(float(a), float(b)) for a, b in zip(rng.uniform((n,)), rng.uniform((n,)))]
        got = layer_importance(pairs)
        ref = brute_force_importance(pairs)
        np.testing.assert_array_equal(got, ref)


def test_select_topk_matches_full_sort_oracle():
    rng = Rng(100)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        s = list(rng.uniform((n,)))
        k = int(rng.integers(1, n + 1))
        got = select_attention_layers(s, k)
        oracle = sorted(sorted(range(n), key=lambda i: (-s[i], i))[:k])
        assert got == oracle


def test_select_table_fixture_qwen_1p7b_ordering():
    """Published importance order 3,21,2,9,25,6,8,... boxed top-7 set."""
    order = [3, 21, 2, 9, 25, 6, 8, 19, 16, 24, 12, 26, 23, 11, 27, 14, 18,
             4, 7, 17, 13, 15, 20, 10, 22, 1, 0, 5]
    # build (R, C) pairs whose importance reproduces this exact ranking:
    # the most important layer suffers the largest recall drop (smallest R)
    rs = np.empty(28)
    for rank, layer in enumerate(order):
        rs[layer] = rank / 28.0
    pairs = [(float(rs[i]), 0.5) for i in range(28)]
    importance = layer_importance(pairs)
    assert select_attention_layers(importance, 7) == sorted([3, 21, 2, 9, 25, 6, 8])


def test_select_k_equals_L_returns_all():
    assert select_attention_layers([0.3, 0.1, 0.9], 3) == [0, 1, 2]


def test_select_ties_break_to_lower_index():
    assert select_attention_layers([0.5, 0.5, 0.5, 0.1], 2) == [0, 1]


def test_select_invalid_k():
    with pytest.raises(ValueError):
        select_attention_layers([0.1], 0)
    with pytest.raises(ValueError):
        select_attention_layers([0.1], 2)


# --------------------------------------------------------------------------
# stage 1

def stream_for(cfg: TrainConfig, kind="niah_mix", seed=0):
    return TokenStream(StreamConfig(kind=kind, context_len=cfg.context_len,
                                    batch_size=cfg.batch_size, seed=seed))


def test_stage1_zero_loss_fixed_point():
    """A candidate that already equals the target mixer has ~zero loss."""
    cfg = desk_config(L=2, I_attn=(1,), **TINY)
    model = init_model(cfg, seed=5)
    toks = Rng(1).integers(0, cfg.vocab, size=(2, 24))
    x_in, y_ref = capture_many(model, toks, [0])[0]  # layer 0 is lightning
    w = model.layers[0].mixer
    y, _ = lightning_forward_chunked(Tensor(x_in.data), w, model.gammas, rope=cfg.rope)
    mse = float(T.mean_all(T.mul(T.sub(y, Tensor(y_ref.data)),
                                 T.sub(y, Tensor(y_ref.data)))).data)
    assert mse < 1e-10


def quick_lm_train(model, steps=40, ctx=64, batch=2, lr=3e-3, seed=0):
    """A few language-modeling steps so the model has actual structure."""
    cfg = TrainConfig(context_len=ctx, batch_size=batch, steps=steps,
                      lr_max=lr, warmup_steps=2, seed=seed)
    stream = stream_for(cfg, seed=seed)
    params = dict(model.named_parameters())

    def make_loss(step):
        b = stream.batch(step)
        return T.cross_entropy(forward(model, b[:, :-1]), b[:, 1:])

    return _train_loop("pretrain", params, cfg, make_loss)


def test_stage1_transferred_init_carries_teacher_structure():
    """Weight transfer starts far better correlated with the target than
    random init; the remaining headroom is (mostly) one output scale, which
    the first alignment steps absorb.  The comparison is scale-invariant
    because the fresh unit-RMS output norm inflates the transferred output's
    magnitude regardless of how good its direction is."""
    teacher = tiny_teacher(L=2, seed=6)
    quick_lm_train(teacher, steps=300)
    from hybridkit.model import capture_many, hybrid_config, _init_mixer
    from hybridkit.mixers import lightning_forward_chunked

    hyb_cfg = hybrid_config(teacher.cfg, I_attn=())
    cfg = TrainConfig(context_len=64, batch_size=2, steps=1, lr_max=1e-3, seed=3)
    batch = stream_for(cfg).batch(0)[:, :-1]
    x_in, y_ref = capture_many(teacher, batch, [0])[0]
    y = y_ref.data

    def best_scale_mse(w):
        yh = lightning_forward_chunked(Tensor(x_in.data), w, teacher.gammas,
                                       rope=teacher.cfg.rope)[0].data
        alpha = float((y * yh).sum() / ((yh * yh).sum() + 1e-30))
        return float(((y - alpha * yh) ** 2).mean())

    transferred = init_rnn_from_attention(teacher.layers[0].mixer, Rng(1))
    random_w = _init_mixer(Rng(2), hyb_cfg, 0)
    assert best_scale_mse(transferred) < best_scale_mse(random_w)


def test_stage1_trains_only_target_layer_and_reduces_loss():
    teacher = tiny_teacher(L=2, seed=7)
    frozen = teacher.state_bytes()
    cfg = TrainConfig(context_len=64, batch_size=2, steps=25, lr_max=3e-3,
                      warmup_steps=2, seed=4)
    weights, report = stage1_align_all(teacher, [1], stream_for(cfg), cfg)[1]
    assert teacher.state_bytes() == frozen
    assert len(report.losses) == cfg.steps
    assert report.final_metrics["mse_final"] < report.final_metrics["mse_initial"]


def test_stage1_captures_the_probe_batch_once(monkeypatch):
    """The teacher is frozen, so one probe capture serves both mse_initial
    and mse_final: a run captures steps + 1 batches."""
    import hybridkit.halo as halo

    teacher = tiny_teacher(L=2, seed=8)
    real, batches = halo.capture_many, []

    def counting(model, tokens, layers):
        batches.append(np.asarray(tokens).shape)
        return real(model, tokens, layers)

    monkeypatch.setattr(halo, "capture_many", counting)
    cfg = TrainConfig(context_len=64, batch_size=2, steps=3, lr_max=1e-3,
                      warmup_steps=1, seed=4)
    reports = stage1_align_all(teacher, [0, 1], stream_for(cfg), cfg)
    assert len(batches) == cfg.steps + 1
    for _, report in reports.values():
        assert set(report.final_metrics) >= {"mse_initial", "mse_final"}


def test_stage1_frees_each_layers_capture_once_its_step_has_run(monkeypatch):
    """A step's teacher captures are freed layer by layer: when layer j's
    optimizer step starts, the captures of the layers before it in that step
    are gone, and so are every earlier step's."""
    import weakref

    import hybridkit.halo as halo

    teacher = tiny_teacher(L=3, seed=9)
    real_capture, real_step = halo.capture_many, halo._train_step
    probe, captured = [], []  # per step's capture: per layer, weakrefs to its arrays

    def capture(model, tokens, layers):
        caps = real_capture(model, tokens, layers)
        if probe:  # the first capture is the probe batch's, kept on purpose
            captured.append([[weakref.ref(t.data) for t in pair] for pair in caps.values()])
        probe.append(True)
        return caps

    alive = []  # at each optimizer step, the layers whose captures are alive

    def step(report, *args):
        alive.append(sum(any(r() is not None for r in refs)
                         for caps in captured for refs in caps))
        return real_step(report, *args)

    monkeypatch.setattr(halo, "capture_many", capture)
    monkeypatch.setattr(halo, "_train_step", step)
    cfg = TrainConfig(context_len=64, batch_size=2, steps=2, lr_max=1e-3, seed=4)
    stage1_align_all(teacher, [0, 1, 2], stream_for(cfg), cfg)
    assert alive == [3, 2, 1] * cfg.steps


def test_stage1_trains_a_layer_named_twice_once():
    teacher = tiny_teacher(L=2, seed=7)
    cfg = TrainConfig(context_len=64, batch_size=2, steps=2, lr_max=1e-3, seed=4)
    reports = stage1_align_all(teacher, [1, 1], stream_for(cfg), cfg)
    assert list(reports) == [1] and len(reports[1][1].losses) == cfg.steps


def test_stage1_rejects_non_attention_layer():
    """Stage 1 aligns a transformer's layers only: a hypenet is refused,
    even one with attention in every layer."""
    cfg = TrainConfig(context_len=64, batch_size=1, steps=1, lr_max=1e-3)
    for I_attn in ((0,), (0, 1)):
        model = init_model(desk_config(L=2, I_attn=I_attn, **TINY), seed=0)
        with pytest.raises(ConfigError, match="must be a transformer"):
            stage1_align_all(model, [1], stream_for(cfg), cfg)


# --------------------------------------------------------------------------
# stage 2 / 3

def test_stage2_self_distillation_fixed_point():
    teacher = tiny_teacher(L=2, seed=8)
    student = teacher.copy()
    cfg = TrainConfig(context_len=64, batch_size=2, steps=2, lr_max=1e-5,
                      warmup_steps=0, seed=5)
    report = stage2_distill(teacher, student, stream_for(cfg), cfg)
    assert report.final_metrics["kl_initial"] < 1e-10


def test_stage2_reduces_probe_kl_and_freezes_teacher():
    teacher = tiny_teacher(L=2, seed=9)
    from hybridkit.model import init_hybrid_from_teacher
    hybrid = init_hybrid_from_teacher(teacher, (0,), seed=1)
    frozen = teacher.state_bytes()
    cfg = TrainConfig(context_len=64, batch_size=2, steps=30, lr_max=3e-3,
                      warmup_steps=3, seed=6)
    report = stage2_distill(teacher, hybrid, stream_for(cfg), cfg)
    assert teacher.state_bytes() == frozen
    assert report.final_metrics["kl_final"] < report.final_metrics["kl_initial"]


def test_stage2_tape_holds_only_the_student_and_the_loss(monkeypatch):
    """The teacher's parameters require grad, yet its forward records nothing:
    each step's tape holds exactly what a student forward plus the KL loss
    records."""
    import hybridkit.halo as halo
    from hybridkit.model import init_hybrid_from_teacher

    teacher = tiny_teacher(L=2, seed=9)
    hybrid = init_hybrid_from_teacher(teacher, (0,), seed=1)
    cfg = TrainConfig(context_len=64, batch_size=2, steps=2, lr_max=1e-4, seed=6)
    stream = stream_for(cfg)
    x = stream.batch(0)[:, :-1]
    t_logits = forward(teacher, x).data
    with T.Tape() as ref:
        T.kl_divergence(t_logits, forward(hybrid, x, scale_base=None))
    sizes = []

    class CountingTape(T.Tape):
        def backward(self, loss):
            sizes.append(len(self._records))
            super().backward(loss)

    monkeypatch.setattr(halo, "Tape", CountingTape)
    stage2_distill(teacher, hybrid, stream, cfg)
    assert sizes == [len(ref._records)] * cfg.steps


def _assert_tape_matches_oracle(named_params, make_loss):
    """The loss and per-parameter gradients under ``T.Tape`` equal, bit for
    bit, those under the oracle tape, which holds every op's output and
    inputs until backward returns and attaches no recipes, so nothing is
    rebuilt there."""
    from conftest import OracleTape

    def loss_and_grads(tape_cls):
        with tape_cls() as tape:
            loss = make_loss()
        tape.backward(loss)
        grads = {name: p.grad for name, p in named_params}
        for _, p in named_params:
            p.grad = None
        return loss.data, grads

    loss, grads = loss_and_grads(T.Tape)
    ref_loss, ref_grads = loss_and_grads(OracleTape)
    assert loss.tobytes() == ref_loss.tobytes()
    assert list(grads) == list(ref_grads)
    for name, g in grads.items():
        assert g.dtype == ref_grads[name].dtype
        np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_stage2_step_gradients_match_the_tape_that_keeps_everything(mode):
    """The tape that keeps only what backward reads gives a stage-2 loss and
    per-parameter gradients bit-identical to the oracle tape, which holds
    every op's output and inputs until backward returns.  The context spans
    two attention query blocks, so the key slices are differentiated too."""
    from hybridkit.model import init_hybrid_from_teacher

    T.set_precision(mode)
    teacher = tiny_teacher(L=2, seed=9)
    hybrid = init_hybrid_from_teacher(teacher, (0,), seed=1)
    cfg = TrainConfig(context_len=192, batch_size=2, steps=1, lr_max=1e-4, seed=6)
    x = stream_for(cfg).batch(0)[:, :-1]
    with T.no_record():
        t_logits = forward(teacher, x).data
    _assert_tape_matches_oracle(
        list(hybrid.named_parameters()),
        lambda: T.kl_divergence(t_logits, forward(hybrid, x, scale_base=None)))


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("case", ["transformer", "stage3", "stage1"])
def test_training_gradients_match_the_tape_that_keeps_everything(mode, case):
    """As the stage-2 test, for the other training losses: a transformer's
    cross-entropy step (rotated q and k rebuilt through the RoPE recipe),
    a stage-3 cross-entropy step on the hybrid, and the stage-1 candidate
    loss on one aligned RNN layer (a constant input, so its projections'
    inputs are plain arrays while everything after them is rebuilt)."""
    from hybridkit.halo import _candidate_loss
    from hybridkit.model import init_hybrid_from_teacher

    T.set_precision(mode)
    teacher = tiny_teacher(L=2, seed=9)
    cfg = TrainConfig(context_len=192, batch_size=2, steps=1, lr_max=1e-4, seed=6)
    batch = stream_for(cfg).batch(0)
    if case == "stage1":
        cand = init_rnn_from_attention(teacher.layers[1].mixer, Rng(3))
        x_in, y_ref = capture_many(teacher, batch[:, :-1], [1])[1]
        _assert_tape_matches_oracle(
            list(cand.named()), lambda: _candidate_loss(cand, x_in.data, y_ref.data, teacher))
        return
    model = teacher if case == "transformer" else init_hybrid_from_teacher(teacher, (0,), seed=1)
    _assert_tape_matches_oracle(
        list(model.named_parameters()),
        lambda: T.cross_entropy(forward(model, batch[:, :-1], scale_base=None), batch[:, 1:]))


def test_stage2_with_the_teacher_off_the_tape_computes_the_same_numbers(monkeypatch):
    """Recording the teacher's forward (no_record made a no-op) and not
    recording it give bit-identical losses, gradient norms, probe KLs and
    weights, in f32 as stage 2 runs."""
    from contextlib import nullcontext

    from hybridkit.model import init_hybrid_from_teacher

    T.set_precision("standard")
    teacher = tiny_teacher(L=4, seed=9)
    cfg = TrainConfig(context_len=64, batch_size=2, steps=3, lr_max=1e-3,
                      warmup_steps=1, seed=6)

    def run():
        hybrid = init_hybrid_from_teacher(teacher, (1,), seed=1)
        report = stage2_distill(teacher, hybrid, stream_for(cfg), cfg)
        return (report.losses, report.grad_norms, report.final_metrics,
                hybrid.state_bytes())

    off_tape = run()
    monkeypatch.setattr(T, "no_record", nullcontext)
    on_tape = run()
    assert off_tape == on_tape


def _cli_train(tmp_path, mode):
    """Three steps of `hybridkit train` on a tiny transformer: each step's
    (loss, gradient norm) from its report, and the checkpoint's bytes."""
    import json

    from hybridkit.cli import main

    cfg = tmp_path / "cfg.json"
    model = {"arch": "transformer", "L": 2, "rope_theta": 1000.0,
             **{k: v for k, v in TINY.items() if k != "rope"}}
    cfg.write_text(json.dumps({"model": model, "train": {
        "steps": 3, "batch_size": 2, "context_len": 64, "warmup_steps": 1}}))
    out = tmp_path / "m.ckpt"
    assert main(["--precision", mode, "--seed", "3", "train", str(cfg), str(out)]) == 0
    lines = (tmp_path / "m.ckpt.report.jsonl").read_text().splitlines()
    steps = [json.loads(line) for line in lines[:-1]]
    return [(r["loss"], r["grad_norm"]) for r in steps], out.read_bytes()


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("stage", ["train", "stage2", "stage3"])
def test_training_with_the_checkpointed_mlp_computes_the_unwrapped_numbers(
        mode, stage, monkeypatch, tmp_path):
    """The MLP record, which recomputes its activations in backward,
    changes what the tape keeps, not what it computes: three steps of
    `hybridkit train`, stage 2 and stage 3 give the losses, gradient norms
    and weights they give when the MLP is its ops recorded one by one."""
    import hybridkit.model as hm
    from hybridkit.model import init_hybrid_from_teacher
    from test_model import _composed_mlp

    def run():
        T.set_precision(mode)
        if stage == "train":
            return _cli_train(tmp_path, mode)
        teacher = tiny_teacher(L=4, seed=9)
        hybrid = init_hybrid_from_teacher(teacher, (1,), seed=1)
        cfg = TrainConfig(context_len=64, batch_size=2, steps=3, lr_max=1e-3,
                          warmup_steps=1, seed=7)
        if stage == "stage2":
            report = stage2_distill(teacher, hybrid, stream_for(cfg), cfg)
        else:
            report = stage3_finetune(hybrid, stream_for(cfg), cfg)
        return (report.losses, report.grad_norms, report.final_metrics,
                hybrid.state_bytes())

    recomputed = run()
    monkeypatch.setattr(hm, "_swiglu", _composed_mlp)
    assert recomputed == run()


def test_stage3_zero_steps_leaves_model_unchanged():
    model = tiny_teacher(L=2, seed=10)
    before = model.state_bytes()
    cfg = TrainConfig(context_len=64, batch_size=1, steps=0, lr_max=1e-5,
                      schedule="constant")
    stage3_finetune(model, stream_for(cfg), cfg, stage2_context=32)
    assert model.state_bytes() == before


def test_stage3_warns_when_context_shrinks():
    model = tiny_teacher(L=2, seed=11)
    cfg = TrainConfig(context_len=64, batch_size=1, steps=0, lr_max=1e-5,
                      schedule="constant")
    with pytest.warns(UserWarning, match="below"):
        stage3_finetune(model, stream_for(cfg), cfg, stage2_context=128)


def test_train_loop_divergence_aborts_with_report():
    p = Tensor(np.array([1.0]), requires_grad=True)
    cfg = TrainConfig(context_len=8, batch_size=1, steps=5, lr_max=1e-3)

    def make_loss(step):
        if step == 2:
            return Tensor(np.array(np.nan))
        return T.sum_all(T.mul(p, p))

    with pytest.raises(TrainingDiverged) as e:
        _train_loop("test", {"p": p}, cfg, make_loss)
    assert len(e.value.report.losses) == 3


def test_stage1_divergence_aborts_with_the_layer_report():
    """Stage 1 takes the same step as every stage: a non-finite loss stops
    the run with the partial report of the layer that diverged."""
    from hybridkit.halo import stage1_align_all

    teacher = tiny_teacher(L=2, seed=7)
    teacher.layers[1].mixer.w_v.data[:] = np.nan  # layer 1's target is NaN
    cfg = TrainConfig(context_len=64, batch_size=2, steps=3, lr_max=1e-3, seed=4)
    with pytest.raises(TrainingDiverged, match="stage1/layer1: .* step 0") as e:
        stage1_align_all(teacher, [0, 1], stream_for(cfg), cfg)
    report = e.value.report
    assert report.stage == "stage1/layer1"
    assert len(report.losses) == len(report.lrs) == 1 and report.grad_norms == []
    assert report.wall_time > 0


# --------------------------------------------------------------------------
# evaluate_RC and the full pipeline

def test_evaluate_rc_perfect_copy_matches_teacher_scores():
    from hybridkit.evals import build_rc_suite

    teacher = tiny_teacher(L=2, seed=12)
    suite = build_rc_suite(24, seed=0, n_samples=16)
    r_t, c_t = evaluate_RC(teacher, suite)
    # replace layer 0 with ... itself (the ideal zero-loss alignment)
    twin = teacher.copy()
    r_m, c_m = evaluate_RC(twin, suite)
    assert abs(r_m - r_t) <= 0.02 and abs(c_m - c_t) <= 0.02


def test_evaluate_rc_zero_mixer_collapses_recall():
    """Destroying a mid-stack mixer must not *raise* recall above teacher's."""
    from hybridkit.evals import build_rc_suite
    from hybridkit.halo import candidate_model
    from hybridkit.model import _init_mixer, hybrid_config

    teacher = tiny_teacher(L=2, seed=13)
    suite = build_rc_suite(24, seed=0, n_samples=16)
    dead = _init_mixer(Rng(0), hybrid_config(teacher.cfg, I_attn=()), 1)
    dead.w_o = T.zeros(dead.w_o.shape)  # mixer output identically zero
    cand = candidate_model(teacher, 1, dead)
    r_dead, _ = evaluate_RC(cand, suite)
    r_teacher, _ = evaluate_RC(teacher, suite)
    assert r_dead <= r_teacher + 0.02


def test_candidate_shares_every_teacher_tensor_but_the_swapped_mixer():
    from hybridkit.evals import build_rc_suite
    from hybridkit.halo import candidate_model

    teacher = tiny_teacher(L=3, seed=14)
    rnn = init_rnn_from_attention(teacher.layers[1].mixer, Rng(3))
    cand = candidate_model(teacher, 1, rnn)
    assert cand.cfg.I_attn == (0, 2)
    swapped = {id(t) for _, t in cand.layers[1].mixer.named()}
    assert not swapped & {id(t) for t in teacher.parameters()}
    assert not swapped & {id(t) for _, t in rnn.named()}
    for (name, t), (t_name, t_ref) in zip(
            [(n, t) for n, t in cand.named_parameters() if not n.startswith("layers.1.mixer.")],
            [(n, t) for n, t in teacher.named_parameters()
             if not n.startswith("layers.1.mixer.")]):
        assert name == t_name and t is t_ref, name
    assert teacher.layers[1].mixer is not cand.layers[1].mixer  # teacher untouched
    assert teacher.cfg.I_attn == (0, 1, 2)

    suite = build_rc_suite(24, seed=0, n_samples=16)
    before = teacher.state_bytes()
    shared = evaluate_RC(cand, suite)
    assert teacher.state_bytes() == before
    deep = teacher.copy()
    deep.layers[1].mixer = rnn.copy()
    deep.cfg = cand.cfg
    assert evaluate_RC(deep, suite) == shared


def test_evaluate_rc_deterministic():
    from hybridkit.evals import build_rc_suite

    teacher = tiny_teacher(L=2, seed=14)
    suite = build_rc_suite(24, seed=3, n_samples=8)
    assert evaluate_RC(teacher, suite) == evaluate_RC(teacher, suite)


def test_assemble_hybrid_puts_the_aligned_mixers_in_its_rnn_layers():
    from hybridkit.halo import assemble_hybrid, stage1_align_all
    from hybridkit.model import init_hybrid_from_teacher

    teacher = tiny_teacher(L=3, seed=16)
    cfg = TrainConfig(context_len=64, batch_size=2, steps=1, lr_max=1e-3, seed=2)
    aligned = {l: w for l, (w, _) in
               stage1_align_all(teacher, range(3), stream_for(cfg), cfg).items()}
    hybrid = assemble_hybrid(teacher, [1], aligned, seed=5)
    ref = init_hybrid_from_teacher(teacher, (1,), seed=5)
    assert hybrid.cfg == ref.cfg
    for l in (0, 2):
        assert hybrid.layers[l].mixer is aligned[l]
        ref.layers[l].mixer = aligned[l]
    assert hybrid.state_bytes() == ref.state_bytes()


@pytest.mark.parametrize("saved, active", [("extended", "standard"),
                                           ("standard", "extended")])
def test_check_teacher_refuses_a_teacher_of_another_precision(saved, active):
    """The stages mix the teacher's activations with tensors made at the
    active precision, so a teacher of another dtype is a ConfigError that
    names both dtypes and the flag that fits it."""
    T.set_precision(saved)
    teacher = tiny_teacher(L=2, seed=17)
    mk = TrainConfig(context_len=16, batch_size=1, steps=1, lr_max=1e-3)
    cfg = HaloConfig(stage1=mk, stage2=mk, stage3=mk, rc_samples=2)
    assert check_teacher(teacher, cfg) == 1
    T.set_precision(active)
    with pytest.raises(ConfigError) as info:
        check_teacher(teacher, cfg)
    msg = str(info.value)
    assert str(teacher.embed.data.dtype) in msg and str(T.active_dtype()) in msg
    assert f"--precision {saved}" in msg


def test_select_layers_keeps_the_top_k_by_importance(monkeypatch):
    """With per-layer (recall, cloze) that differ, selection must follow the
    scores: the top-k layers here are neither the lowest indices nor the
    layers with the lowest recall alone."""
    import hybridkit.halo as halo

    teacher = tiny_teacher(L=5, seed=16)
    aligned = {l: init_rnn_from_attention(lw.mixer, Rng(l))
               for l, lw in enumerate(teacher.layers)}
    rc = {0: (0.9, 0.5), 1: (0.2, 0.5 - 1e-3), 2: (0.6, 0.4), 3: (0.1, 0.45),
          4: (0.8, 0.3)}
    scored = []

    def fake_evaluate_rc(model, suite):
        layer, = [l for l in range(model.cfg.L) if l not in model.cfg.I_attn]
        assert model.layers[layer].mixer is not aligned[layer]  # a copy
        np.testing.assert_array_equal(model.layers[layer].mixer.w_q.data,
                                      aligned[layer].w_q.data)
        scored.append(layer)
        return rc[layer]

    monkeypatch.setattr(halo, "evaluate_RC", fake_evaluate_rc)
    mk = TrainConfig(context_len=16, batch_size=1, steps=1, lr_max=1e-3, warmup_steps=0)
    cfg = HaloConfig(stage1=mk, stage2=mk, stage3=mk, k=2, rc_samples=2)
    I_attn, rows = halo.select_layers(teacher, aligned, cfg)
    # s_i = (max R - R_i) / (max C - C_i + 1e-6) with max R = 0.9, max C = 0.5
    expected = [0.0, 0.7 / (1e-3 + 1e-6), 0.3 / (0.1 + 1e-6), 0.8 / (0.05 + 1e-6),
                0.1 / (0.2 + 1e-6)]
    assert scored == [0, 1, 2, 3, 4]
    assert I_attn == (1, 3)
    assert [r["layer"] for r in rows] == [0, 1, 2, 3, 4]
    assert [(r["recall"], r["cloze"]) for r in rows] == [rc[l] for l in range(5)]
    np.testing.assert_allclose([r["importance"] for r in rows], expected, rtol=1e-12)
    cfg3 = HaloConfig(stage1=mk, stage2=mk, stage3=mk, k=3, rc_samples=2)
    assert halo.select_layers(teacher, aligned, cfg3)[0] == (1, 2, 3)


def test_stage_report_jsonl(tmp_path):
    rep = StageReport(stage="s", losses=[1.0, 0.5], lrs=[1e-3, 9e-4])
    rep.final_metrics["x"] = 1.0
    path = tmp_path / "r.jsonl"
    rep.write_jsonl(path)
    import json
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0] == {"step": 0, "lr": 1e-3, "loss": 1.0}
    assert lines[-1]["final"] == {"x": 1.0}


def _strict_json(line):
    """json.loads that refuses NaN and Infinity, as RFC 8259 parsers do."""
    import json

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(line, parse_constant=refuse)


def _jsonl_steps(report, path):
    report.write_jsonl(path)
    return [_strict_json(l) for l in path.read_text().splitlines()[:-1]]


def test_stage_reports_record_preclip_grad_norm_per_step(tmp_path):
    # d/dp sum(p*p) = 2p, so each step's pre-clip norm is known exactly
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    cfg = TrainConfig(context_len=8, batch_size=1, steps=3, lr_max=1e-3, grad_clip=0.5)
    expected = []

    def make_loss(step):
        expected.append(2.0 * float(np.linalg.norm(p.data)))
        return T.sum_all(T.mul(p, p))

    recs = _jsonl_steps(_train_loop("t", {"p": p}, cfg, make_loss), tmp_path / "a.jsonl")
    assert [r["grad_norm"] for r in recs] == pytest.approx(expected, rel=1e-12)
    assert min(expected) > cfg.grad_clip

    teacher = tiny_teacher(L=2, seed=7)
    cfg1 = TrainConfig(context_len=64, batch_size=2, steps=3, lr_max=1e-3, seed=4)
    _, report = stage1_align_all(teacher, [1], stream_for(cfg1), cfg1)[1]
    recs = _jsonl_steps(report, tmp_path / "b.jsonl")
    assert [r["step"] for r in recs] == [0, 1, 2]
    assert all(np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0 for r in recs)


def test_stage_reports_record_step_time_and_tokens_per_second(tmp_path):
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    cfg = TrainConfig(context_len=8, batch_size=3, steps=3, lr_max=1e-3)
    recs = _jsonl_steps(_train_loop("t", {"p": p}, cfg, lambda step: T.sum_all(T.mul(p, p))),
                        tmp_path / "a.jsonl")
    assert [r["step"] for r in recs] == [0, 1, 2]
    for r in recs:
        assert np.isfinite(r["step_s"]) and r["step_s"] > 0
        assert r["tok_per_s"] == pytest.approx(3 * 8 / r["step_s"], rel=1e-12)


def test_stage_report_says_why_a_step_was_skipped(tmp_path):
    """Step 1's loss is finite but its gradient is not: AdamW skips it, its
    record says why, and the other records carry no skip key.  Every line
    is strict JSON: the skipped step's non-finite grad_norm is null."""
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    cfg = TrainConfig(context_len=8, batch_size=1, steps=3, lr_max=1e-3)
    after = []

    def make_loss(step):
        after.append(p.data.copy())
        if step == 1:
            return T.emit(np.asarray(p.data.sum()),
                           [(p, lambda g: np.full(p.shape, np.nan))])
        return T.sum_all(T.mul(p, p))

    report = _train_loop("t", {"p": p}, cfg, make_loss)
    recs = _jsonl_steps(report, tmp_path / "a.jsonl")
    assert [r.get("skipped") for r in recs] == [None, "non-finite gradient", None]
    assert np.isfinite(recs[1]["loss"])
    assert not np.isfinite(report.grad_norms[1]) and recs[1]["grad_norm"] is None
    np.testing.assert_array_equal(after[2], after[1])  # step 1 left p alone
    assert not np.array_equal(after[1], after[0])
    final = _strict_json((tmp_path / "a.jsonl").read_text().splitlines()[-1])
    assert final["skipped_steps"] == report.skipped_steps == 1
