"""Validated JSON run configuration.

A run document is a JSON object with sections ``model``, ``train`` and (for
conversions) ``halo``; every key has a default listed below, and unknown keys
are hard errors so typos cannot silently fall back to defaults.  A value
must have its default's JSON type (an integer is a number, but true is not
an integer); null is allowed only where the default is null.  A number is
finite: the JSON extensions NaN, Infinity and -Infinity are refused.

model keys (defaults in parentheses):
  arch ("hypenet")          "transformer" (rotary attention in every layer)
                            or "hypenet" (gated attention, no rotary encoding)
  L (8)                     layer count, >= 0
  d (256)                   hidden size, channels
  d_h (64)                  head width, channels
  n_h (4)                   query heads
  n_kv_heads (2)            attention KV heads (grouped-query sharing)
  ffn_width (768)           MLP inner width, channels
  vocab (512)               vocabulary size, tokens
  rope_theta (50000.0)      rotary base frequency
  I_attn (null)             attention layer indices, every other layer is
                            a Lightning RNN layer; null = all layers (all a
                            transformer takes) / every fourth layer from 0
  scale_base (null)         attention-logits scaling base a (> 1), or null;
                            saved in the checkpoint and applied at
                            inference, never in training (s_t = 1)
d, d_h, n_h, n_kv_heads, ffn_width and vocab are integers >= 1.
Fixed, not keys: RNN layers carry rotary encoding, QK-norm and output
gates, attention layers QK-norm, and the unembedding is the embedding.

train keys:
  steps (600)               optimizer steps
  batch_size (16)           sequences per step
  context_len (256)         tokens per sequence
  lr_max (3e-3)             peak learning rate
  lr_min (1e-5)             final learning rate of the cosine schedule
  schedule ("cosine")       "cosine" | "constant"
  warmup_steps (50)         linear warmup from 0, steps
  weight_decay (0.1)        decoupled weight decay
  grad_clip (1.0)           global gradient-norm cap; 0 turns clipping off
  seed (0)                  run seed (overridden by the global --seed flag)
  data ("niah_mix")         "niah_mix" | "grammar" stream kind
Counts are integers: steps, warmup_steps and seed >= 0, batch_size and
context_len >= 1.  The rates, decay and clip are >= 0, lr_min <= lr_max.

halo keys: stage1/stage2/stage3 (sub-objects of the train keys other than
data), plus
  k (null)                  attention layers kept, a positive integer
                            <= L; null = floor(L/4), at least 1
  data ("niah_mix")         stream kind for all stages
  rc_samples (64)           samples per metric during layer selection, >= 1
  rc_seed (0)               selection-suite seed, >= 0
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .data import STREAM_KINDS
from .halo import HaloConfig, TrainConfig
from .model import ModelConfig, desk_config
from .positional import RopeParams, ScaleBase, check_rope_head_dim
from .tensor import ConfigError

# the desk model's sizes, so that an empty model section builds desk_config()
_DESK = desk_config()
MODEL_DEFAULTS = {
    **{k: getattr(_DESK, k) for k in ("arch", "L", "d", "d_h", "n_h", "n_kv_heads",
                                      "ffn_width", "vocab")},
    "rope_theta": _DESK.rope.theta, "I_attn": None, "scale_base": None,
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

DOCUMENT_DEFAULTS = {"model": {}, "train": {}, "halo": {}}

# the type of the values other than null that a key with a null default takes
NULLABLE = {"model.I_attn": list, "model.scale_base": float, "halo.k": int}

_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
               int: "an integer", float: "a number"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_value(name: str, value, default) -> None:
    """Raise ConfigError, naming the key, unless `value` has the JSON type of
    `default` (or the type NULLABLE gives a key whose default is null)."""
    if value is None and default is None:
        return
    kind = NULLABLE[name] if default is None else type(default)
    if kind is int:
        ok = _is_int(value)
    elif kind is float:
        ok = _is_int(value) or isinstance(value, float)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    if name == "model.I_attn" and not all(_is_int(i) for i in value):
        raise ConfigError(f"model.I_attn must be a list of integers, got {json.dumps(value)}")
    if name in ("train.data", "halo.data") and value not in STREAM_KINDS:
        raise ConfigError(f"{name} must be one of {', '.join(STREAM_KINDS)}, "
                          f"got {json.dumps(value)}")


def _merge(section: str, user, defaults: dict) -> dict:
    """`defaults` updated with the keys of the JSON object `user`, each
    checked by _check_value; `section` prefixes the key names ('' for the
    whole document)."""
    if not isinstance(user, dict):
        raise ConfigError(f"{section or 'a run config'} must be a JSON object, "
                          f"got {json.dumps(user)}")
    for key, value in user.items():
        name = f"{section}.{key}" if section else key
        if key not in defaults:
            raise ConfigError(f"unknown key {name}" if section else f"unknown section {key!r}")
        _check_value(name, value, defaults[key])
    out = dict(defaults)
    out.update(user)
    return out


def _naming(prefix: str, make):
    """make(), with `prefix`, which names the run-config keys, put before the
    message of any ConfigError it raises."""
    try:
        return make()
    except ConfigError as e:
        raise ConfigError(f"{prefix}{e}") from None


def build_model_config(md: dict) -> ModelConfig:
    md = _merge("model", md, MODEL_DEFAULTS)
    step = 1 if md["arch"] == "transformer" else 4  # the arch's default I_attn
    md["I_attn"] = tuple(range(0, md["L"], step) if md["I_attn"] is None else md["I_attn"])
    theta, sb = md.pop("rope_theta"), md.pop("scale_base")
    # the rotary head width is d_h; checking it first leaves theta to RopeParams
    _naming("model.d_h: ", lambda: check_rope_head_dim(md["d_h"]))
    md["rope"] = _naming("model.rope_theta: ",
                         lambda: RopeParams(theta=float(theta), head_dim=md["d_h"]))
    md["scale_base"] = None if sb is None else _naming("model.scale_base: ",
                                                       lambda: ScaleBase(float(sb)))
    # ModelConfig's messages begin with the field's name
    return _naming("model.", lambda: ModelConfig(**md))


def build_train_config(td: dict, seed_override: int | None = None) -> tuple[TrainConfig, str]:
    td = _merge("train", td, TRAIN_DEFAULTS)
    data = td.pop("data")
    if seed_override is not None:
        td["seed"] = seed_override
    return _naming("train: ", lambda: TrainConfig(**td)), data


def build_halo_config(hd: dict, seed_override: int | None = None) -> HaloConfig:
    defaults = {**{k: dict(v) for k, v in HALO_STAGE_DEFAULTS.items()},
                **HALO_EXTRA_DEFAULTS}
    hd = _merge("halo", hd, defaults)
    stages = {}
    for name in ("stage1", "stage2", "stage3"):
        sd = _merge(f"halo.{name}", hd[name], HALO_STAGE_DEFAULTS[name])
        if seed_override is not None:
            sd["seed"] = seed_override
        stages[name] = _naming(f"halo.{name}: ", lambda: TrainConfig(**sd))
    return HaloConfig(stage1=stages["stage1"], stage2=stages["stage2"],
                      stage3=stages["stage3"], data_kind=hd["data"],
                      k=hd["k"], rc_samples=hd["rc_samples"],
                      rc_seed=hd["rc_seed"],
                      seed=seed_override if seed_override is not None else 0)


class RunConfig:
    """Parsed and validated run document."""

    def __init__(self, doc: dict, seed_override: int | None = None):
        sections = _merge("", doc, DOCUMENT_DEFAULTS)
        self.model = build_model_config(sections["model"])
        self.train, self.data_kind = build_train_config(sections["train"], seed_override)
        self.halo = build_halo_config(sections["halo"], seed_override)


def load_run_config(path, seed_override: int | None = None) -> RunConfig:
    def finite(text: str) -> float:  # JSON's NaN, Infinity, and a float's overflow
        if not math.isfinite(value := float(text)):
            raise ConfigError(f"{path}: {text} is not a finite number")
        return value

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         parse_float=finite, parse_constant=finite)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return RunConfig(doc, seed_override)
