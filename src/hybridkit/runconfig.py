"""Validated JSON run configuration.

A run document has sections ``model``, ``train`` and (for conversions)
``halo``; every key has a default listed below, and unknown keys are hard
errors so typos cannot silently fall back to defaults.

model keys (defaults in parentheses):
  arch ("hypenet")          "transformer" (attention-only) or "hypenet"
  L (8)                     layer count
  d (256)                   hidden size, channels
  d_h (64)                  head width, channels
  n_h (4)                   query heads
  n_kv_heads (2)            attention KV heads (grouped-query sharing)
  ffn_width (768)           MLP inner width, channels
  vocab (512)               vocabulary size, tokens
  rope_theta (50000.0)      rotary base frequency
  I_attn (null)             attention layer indices, every other layer is
                            a Lightning RNN layer; null = arch default
                            (all layers / every fourth layer from 0)
  pe_attention (null)       "rope"|"nope"; null = arch default
  pe_rnn ("rope")           position encoding inside RNN layers
  tie_embeddings (true)     share the unembedding with the embedding
  attn_qk_norm (true)       QK-RMSNorm in attention layers
  rnn_qk_norm (true)        QK-RMSNorm in RNN layers
  attn_gate (null)          output gates on attention; null = arch default
  rnn_gate (true)           output gates on RNN layers
  chunk (64)                chunk width of the RNN training form, tokens
  scale_base (null)         attention-logits scaling base a (> 1), or null

train keys:
  steps (600)               optimizer steps
  batch_size (16)           sequences per step
  context_len (256)         tokens per sequence
  lr_max (3e-3)             peak learning rate
  lr_min (1e-5)             final learning rate of the cosine schedule
  schedule ("cosine")       "cosine" | "constant"
  warmup_steps (50)         linear warmup from 0, steps
  weight_decay (0.1)        decoupled weight decay
  grad_clip (1.0)           global gradient-norm cap
  seed (0)                  run seed (overridden by the global --seed flag)
  data ("niah_mix")         "niah_mix" | "grammar" stream kind

halo keys: stage1/stage2/stage3 (sub-objects of the train keys other than
data), plus
  k (null)                  attention layers kept, a positive integer
                            <= L; null = floor(L/4), at least 1
  data ("niah_mix")         stream kind for all stages
  rc_samples (64)           samples per metric during layer selection
  rc_seed (0)               selection-suite seed
"""

from __future__ import annotations

import json
from pathlib import Path

from .halo import HaloConfig, TrainConfig
from .model import ModelConfig
from .positional import RopeParams, ScaleBase
from .tensor import ConfigError

MODEL_DEFAULTS = {
    "arch": "hypenet", "L": 8, "d": 256, "d_h": 64, "n_h": 4, "n_kv_heads": 2,
    "ffn_width": 768, "vocab": 512, "rope_theta": 50_000.0, "I_attn": None,
    "pe_attention": None, "pe_rnn": "rope", "tie_embeddings": True,
    "attn_qk_norm": True, "rnn_qk_norm": True, "attn_gate": None,
    "rnn_gate": True, "chunk": 64, "scale_base": None,
}

# the keys TrainConfig reads; a halo stage section accepts only these
STAGE_DEFAULTS = {
    "steps": 600, "batch_size": 16, "context_len": 256, "lr_max": 3e-3,
    "lr_min": 1e-5, "schedule": "cosine", "warmup_steps": 50,
    "weight_decay": 0.1, "grad_clip": 1.0, "seed": 0,
}

TRAIN_DEFAULTS = {**STAGE_DEFAULTS, "data": "niah_mix"}

HALO_STAGE_DEFAULTS = {
    "stage1": {**STAGE_DEFAULTS, "steps": 250, "lr_max": 1e-3, "warmup_steps": 20,
               "weight_decay": 0.0},
    "stage2": {**STAGE_DEFAULTS, "steps": 400, "lr_max": 1e-4, "warmup_steps": 20,
               "weight_decay": 0.0},
    "stage3": {**STAGE_DEFAULTS, "steps": 100, "batch_size": 4,
               "context_len": 1024, "lr_max": 1e-5, "schedule": "constant",
               "warmup_steps": 10, "weight_decay": 0.0},
}

HALO_EXTRA_DEFAULTS = {"k": None, "data": "niah_mix", "rc_samples": 64, "rc_seed": 0}


def _merge(section: str, user: dict, defaults: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key {section}.{unknown[0]}")
    out = dict(defaults)
    out.update(user)
    return out


def build_model_config(md: dict) -> ModelConfig:
    md = _merge("model", md, MODEL_DEFAULTS)
    arch = md.pop("arch")
    if arch not in ("transformer", "hypenet"):
        raise ConfigError(f"model.arch must be 'transformer' or 'hypenet', got {arch!r}")
    if md["I_attn"] is None:
        if arch == "transformer":
            md["I_attn"] = tuple(range(md["L"]))
        else:
            md["I_attn"] = tuple(range(0, md["L"], 4))
    else:
        md["I_attn"] = tuple(int(i) for i in md["I_attn"])
    if md["pe_attention"] is None:
        md["pe_attention"] = "rope" if arch == "transformer" else "nope"
    if md["attn_gate"] is None:
        md["attn_gate"] = arch != "transformer"
    theta = md.pop("rope_theta")
    md["rope"] = RopeParams(theta=float(theta), head_dim=md["d_h"])
    sb = md.pop("scale_base")
    md["scale_base"] = None if sb is None else ScaleBase(float(sb))
    return ModelConfig(**md)


def build_train_config(td: dict, seed_override: int | None = None) -> tuple[TrainConfig, str]:
    td = _merge("train", td, TRAIN_DEFAULTS)
    data = td.pop("data")
    if seed_override is not None:
        td["seed"] = seed_override
    return TrainConfig(**td), data


def build_halo_config(hd: dict, seed_override: int | None = None) -> HaloConfig:
    defaults = {**{k: dict(v) for k, v in HALO_STAGE_DEFAULTS.items()},
                **HALO_EXTRA_DEFAULTS}
    hd = _merge("halo", hd, defaults)
    stages = {}
    for name in ("stage1", "stage2", "stage3"):
        sd = _merge(f"halo.{name}", hd[name], HALO_STAGE_DEFAULTS[name])
        if seed_override is not None:
            sd["seed"] = seed_override
        stages[name] = TrainConfig(**sd)
    return HaloConfig(stage1=stages["stage1"], stage2=stages["stage2"],
                      stage3=stages["stage3"], data_kind=hd["data"],
                      k=hd["k"], rc_samples=hd["rc_samples"],
                      rc_seed=hd["rc_seed"],
                      seed=seed_override if seed_override is not None else 0)


class RunConfig:
    """Parsed and validated run document."""

    def __init__(self, doc: dict, seed_override: int | None = None):
        unknown = sorted(set(doc) - {"model", "train", "halo"})
        if unknown:
            raise ConfigError(f"unknown section {unknown[0]!r}")
        self.model = build_model_config(doc.get("model", {}))
        self.train, self.data_kind = build_train_config(doc.get("train", {}),
                                                        seed_override)
        self.halo = build_halo_config(doc.get("halo", {}), seed_override)
        self.raw = doc


def load_run_config(path, seed_override: int | None = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return RunConfig(doc, seed_override)
