"""Optimizer, schedules, importance scoring, selection, and the three stages."""

import numpy as np
import pytest

from hybridkit import tensor as T
from hybridkit.data import StreamConfig, TokenStream
from hybridkit.halo import (AdamWState, HaloConfig, StageReport, TrainConfig,
                            TrainingDiverged, adamw_step, candidate_model,
                            clip_grad_norm, evaluate_RC, layer_importance,
                            lr_at, run_halo, select_attention_layers,
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
    y = lightning_forward_chunked(Tensor(x_in.data), w, model.gammas,
                                  cfg.chunk, rope=cfg.rope)
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
                                       teacher.cfg.chunk, rope=teacher.cfg.rope).data
        alpha = float((y * yh).sum() / ((yh * yh).sum() + 1e-30))
        return float(((y - alpha * yh) ** 2).mean())

    transferred = init_rnn_from_attention(teacher.layers[0].mixer, hyb_cfg, Rng(1))
    random_w = _init_mixer(Rng(2), hyb_cfg, attn=False)
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


def test_stage1_rejects_non_attention_layer():
    model = init_model(desk_config(L=2, I_attn=(0,), **TINY), seed=0)
    cfg = TrainConfig(context_len=64, batch_size=1, steps=1, lr_max=1e-3)
    with pytest.raises(ConfigError):
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
    dead = _init_mixer(Rng(0), hybrid_config(teacher.cfg, I_attn=()), attn=False)
    dead.w_o = T.zeros(dead.w_o.shape)  # mixer output identically zero
    cand = candidate_model(teacher, 1, dead)
    r_dead, _ = evaluate_RC(cand, suite)
    r_teacher, _ = evaluate_RC(teacher, suite)
    assert r_dead <= r_teacher + 0.02


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


def test_run_halo_mini_pipeline():
    teacher = tiny_teacher(L=4, seed=15)
    frozen = teacher.state_bytes()
    mk = lambda ctx, steps, lr: TrainConfig(context_len=ctx, batch_size=2,
                                            steps=steps, lr_max=lr,
                                            warmup_steps=1, seed=1)
    cfg = HaloConfig(stage1=mk(64, 3, 1e-3), stage2=mk(64, 3, 1e-4),
                     stage3=replace_schedule(mk(128, 2, 1e-5)), rc_samples=6)
    result = run_halo(teacher, cfg)
    assert len(result.I_attn) == 1  # floor(4/4)
    assert teacher.state_bytes() == frozen
    assert result.hybrid.cfg.I_attn == result.I_attn
    assert {s["layer"] for s in result.scores} == set(range(4))
    assert len(result.reports["stage2"].losses) == 3
    # attention layers keep grouped KV heads, RNN layers one per query head
    for l, lw in enumerate(result.hybrid.layers):
        n_kv = teacher.cfg.n_kv_heads if l in result.I_attn else teacher.cfg.n_h
        assert lw.mixer.n_kv_heads == n_kv


def test_select_layers_keeps_the_top_k_by_importance(monkeypatch):
    """With per-layer (recall, cloze) that differ, selection must follow the
    scores: the top-k layers here are neither the lowest indices nor the
    layers with the lowest recall alone."""
    import hybridkit.halo as halo

    teacher = tiny_teacher(L=5, seed=16)
    aligned = {l: init_rnn_from_attention(lw.mixer, teacher.cfg, Rng(l))
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


def replace_schedule(cfg: TrainConfig) -> TrainConfig:
    from dataclasses import replace
    return replace(cfg, schedule="constant")


def test_stage_report_jsonl(tmp_path):
    rep = StageReport(stage="s", losses=[1.0, 0.5], lrs=[1e-3, 9e-4])
    rep.final_metrics["x"] = 1.0
    path = tmp_path / "r.jsonl"
    rep.write_jsonl(path)
    import json
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0] == {"step": 0, "lr": 1e-3, "loss": 1.0}
    assert lines[-1]["final"] == {"x": 1.0}


def _jsonl_steps(report, path):
    import json
    report.write_jsonl(path)
    return [json.loads(l) for l in path.read_text().splitlines()[:-1]]


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
