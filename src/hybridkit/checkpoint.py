"""Self-describing binary checkpoints.

Layout: 8-byte magic ``HYPENET1``, an unsigned little-endian 64-bit header
length, a UTF-8 JSON header (config plus a tensor index of name/dtype/shape/
offset/length), then the raw little-endian tensor payload.  Offsets are
ascending, non-overlapping, and cover the payload exactly; loading what was
saved reproduces every tensor bit for bit (tensors are stored in their
native precision, recorded per entry by the dtype code).

A model header's config lists the `ModelConfig` fields.  Older headers also
carry keys for switches that are now fixed conventions (`RETIRED_KEYS`);
such a header loads when each key holds the one value the model keeps, and
is refused, naming the key, otherwise; one from before `arch` holds a pair
that `PAIR_ARCH` maps to it instead.  A stored `chunk` (a tiling, which
never changed what a model computes) is dropped.  New headers omit these keys.

A model's tensors are exactly those its config implies: per layer, the
mixer layout of `model.mixer_layout` (KV heads, and whether w_z and
out_gain are present; QK-norm gains always), norms and MLP.  A stage-1
mixer file holds one mixer of the RNN layout.  A missing, misshapen or
extra tensor is a CheckpointError that names it, so no file loads as a
model other than the one its header describes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .fileio import write_atomic
from .mixers import MIXER_FIELDS
from .model import (LayerWeights, MixerWeights, MlpWeights, Model, ModelConfig,
                    mixer_layout)
from .positional import RopeParams, ScaleBase
from .tensor import ConfigError, Tensor

MAGIC = b"HYPENET1"

_DTYPE_CODES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_CODE_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class CheckpointError(RuntimeError):
    """Malformed checkpoint file."""


def save_tensors(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint with a JSON-serializable config object (a dict).

    The file is written under a temporary name in the same directory and
    renamed into place, so `path` never holds a partial checkpoint: a save
    that fails removes its temporary file and leaves any earlier checkpoint
    at `path` as it was.
    """
    index = []
    offset = 0
    blobs = []
    for name, arr in tensors.items():
        code = _CODE_OF.get(arr.dtype)
        if code is None:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        blob = np.ascontiguousarray(arr).astype(_DTYPE_CODES[code], copy=False).tobytes()
        index.append({"name": name, "dtype": code, "shape": list(arr.shape),
                      "offset": offset, "length": len(blob)})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps({"config": config, "tensors": index}).encode("utf-8")

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)

    write_atomic(path, write)


def load_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (config, name -> array).

    Raises CheckpointError, naming `path`, for a file that cannot be read
    and for any defect of the container: magic, header, index or payload.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read ({e.strerror or e})") from None
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic (not a checkpoint file)")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header_end = len(MAGIC) + 8 + header_len
    if header_len == 0 or header_end > len(raw):
        raise CheckpointError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(raw[len(MAGIC) + 8 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: undecodable header ({e})") from None
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError(f"{path}: header must be an object with a 'config' "
                              f"object and a 'tensors' list")
    payload = raw[header_end:]
    tensors: dict[str, np.ndarray] = {}
    expected_offset = 0
    for entry in header["tensors"]:
        name, dtype, shape, offset, length = _index_entry(path, entry)
        if offset != expected_offset:
            raise CheckpointError(f"{path}: tensor offsets must be ascending and "
                                  f"gap-free (at {name!r})")
        need = math.prod(shape) * dtype.itemsize
        if length != need:
            raise CheckpointError(f"{path}: tensor {name!r} has length {length}, but "
                                  f"shape {list(shape)} needs {need} bytes")
        end = offset + length
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at {name!r}")
        tensors[name] = np.frombuffer(payload[offset:end], dtype=dtype).reshape(shape).copy()
        expected_offset = end
    if expected_offset != len(payload):
        raise CheckpointError(f"{path}: payload has {len(payload) - expected_offset} "
                              f"trailing bytes not covered by the index")
    return header["config"], tensors


def _index_entry(path, entry) -> tuple[str, np.dtype, tuple[int, ...], int, int]:
    """(name, dtype, shape, offset, length) of one tensor-index entry."""
    try:
        name, code = entry["name"], entry["dtype"]
        shape, offset, length = tuple(entry["shape"]), entry["offset"], entry["length"]
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed tensor index entry, missing or "
                              f"unreadable field {e}") from None
    dtype = _DTYPE_CODES.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise CheckpointError(f"{path}: unknown dtype code {code!r}")
    if not (isinstance(name, str)
            and all(type(n) is int and n >= 0 for n in (*shape, offset, length))):
        raise CheckpointError(f"{path}: tensor index entry {name!r} needs a string name "
                              f"and non-negative integer shape, offset and length")
    return name, dtype, shape, offset, length


# --------------------------------------------------------------------------
# model (de)serialization

def config_to_dict(cfg: ModelConfig) -> dict:
    """The header form of `cfg`; raises ConfigError for a logits scaling
    other than None or a ScaleBase, which a header cannot record."""
    if not (cfg.scale_base is None or isinstance(cfg.scale_base, ScaleBase)):
        raise ConfigError(f"a checkpoint cannot record the logits scaling "
                          f"{cfg.scale_base!r}, only a ScaleBase or none")
    d = asdict(cfg)
    d["rope"] = {"theta": cfg.rope.theta, "head_dim": cfg.rope.head_dim}
    d["scale_base"] = None if cfg.scale_base is None else cfg.scale_base.a
    d["I_attn"] = list(cfg.I_attn)
    return d


def config_from_dict(d: dict) -> ModelConfig:
    kw = dict(d)
    kw["rope"] = RopeParams(**d["rope"])
    kw["scale_base"] = None if d["scale_base"] is None else ScaleBase(d["scale_base"])
    kw["I_attn"] = tuple(d["I_attn"])
    return ModelConfig(**kw)


def _layer_kinds(cfg: ModelConfig) -> list[str]:
    """The header's per-layer mixer names, derived from I_attn."""
    return ["attention" if l in cfg.I_attn else "lightning" for l in range(cfg.L)]


def save_model(path, model: Model) -> None:
    """Write `model` to `path`; raises ConfigError, writing nothing, when
    its config cannot be recorded (see `config_to_dict`)."""
    tensors = {name: t.data for name, t in model.named_parameters()}
    config = {"kind": "model", "model": config_to_dict(model.cfg),
              "layer_kinds": _layer_kinds(model.cfg)}
    save_tensors(path, config, tensors)


def _mixer_shapes(d: int, n_h: int, n_kv: int, d_h: int) -> dict[str, tuple]:
    """Shape of every mixer tensor, the gate's included: projections are
    [d, heads * d_h] and gains [heads, 1, d_h], with one head per KV head on
    the key/value side."""
    heads = {name: n_kv if name in ("w_k", "w_v", "qk_gain_k") else n_h
             for name in MIXER_FIELDS}
    return {name: (d, h * d_h) if name.startswith("w_") else (h, 1, d_h)
            for name, h in heads.items()}


class _Reader:
    """Hands out checkpoint tensors as parameters, checking name and shape."""

    def __init__(self, path, tensors: dict[str, np.ndarray]):
        self.path, self.tensors, self.seen = path, tensors, set()

    def take(self, name: str, shape: tuple) -> Tensor:
        arr = self.tensors.get(name)
        if arr is None:
            raise CheckpointError(f"{self.path}: missing tensor {name!r}")
        self.seen.add(name)
        if arr.shape != shape:
            raise CheckpointError(f"{self.path}: tensor {name!r} has shape "
                                  f"{list(arr.shape)}, expected {list(shape)}")
        return Tensor(arr, requires_grad=True, dtype=arr.dtype)

    def mixer(self, prefix: str, d: int, n_h: int, d_h: int, n_kv: int,
              gated: bool) -> MixerWeights:
        """The mixer of that layout: every tensor but the gate's, and the
        gate's (w_z, out_gain) exactly when `gated`.  A gate tensor of an
        ungated mixer stays unseen, so `finish` reports it."""
        kw = {name: self.take(prefix + name, shape)
              for name, shape in _mixer_shapes(d, n_h, n_kv, d_h).items()
              if gated or name not in ("w_z", "out_gain")}
        return MixerWeights(n_h=n_h, n_kv_heads=n_kv, d_h=d_h, **kw)

    def finish(self) -> None:
        extra = sorted(set(self.tensors) - self.seen)
        if extra:
            raise CheckpointError(f"{self.path}: unexpected tensor {extra[0]!r}")


# header keys of retired switches, each with the one value the model keeps
RETIRED_KEYS = {"rnn_kind": "lightning", "pe_rnn": "rope", "tie_embeddings": True,
                "attn_qk_norm": True, "rnn_qk_norm": True, "rnn_gate": True}

# the arch named by a header's [pe_attention, attn_gate] from before `arch`
PAIR_ARCH = {'["rope", false]': "transformer", '["nope", true]': "hypenet"}


def load_model(path) -> Model:
    """Load a model checkpoint.

    Raises CheckpointError when the stored config is malformed or holds a
    retired key with another value than the one the model keeps or a pair
    of neither arch, the stored layer kinds disagree with its I_attn, or
    the tensors are not exactly those of the layout the config implies:
    one is missing, has another shape, or is not part of it (a gate on an
    ungated layer, say).
    """
    config, tensors = load_tensors(path)
    if config.get("kind") != "model":
        raise CheckpointError(f"{path}: not a model checkpoint")
    try:
        stored = dict(config["model"])
        for key, kept in RETIRED_KEYS.items():
            value = stored.pop(key, kept)
            if value != kept or type(value) is not type(kept):
                raise CheckpointError(f"{path}: unsupported {key} {json.dumps(value)}; "
                                      f"only {json.dumps(kept)} is supported")
        stored.pop("chunk", None)
        if "arch" not in stored:
            pair = json.dumps([stored.pop("pe_attention"), stored.pop("attn_gate")])
            if pair not in PAIR_ARCH:
                raise CheckpointError(f"{path}: unsupported pe_attention, attn_gate {pair}")
            stored["arch"] = PAIR_ARCH[pair]
        cfg = config_from_dict(stored)
        kinds = list(config["layer_kinds"])
    except (KeyError, TypeError, ConfigError) as e:
        raise CheckpointError(f"{path}: malformed model config ({e!r})") from None
    if kinds != _layer_kinds(cfg):
        raise CheckpointError(f"{path}: layer kinds {kinds} disagree with "
                              f"I_attn={list(cfg.I_attn)} for L={cfg.L}")
    r = _Reader(path, tensors)
    d, f = cfg.d, cfg.ffn_width
    layers = []
    for l in range(cfg.L):
        p = f"layers.{l}."
        layers.append(LayerWeights(
            mixer=r.mixer(p + "mixer.", d, cfg.n_h, cfg.d_h, *mixer_layout(cfg, l)),
            pre_mixer_gain=r.take(p + "pre_mixer_gain", (d,)),
            pre_mlp_gain=r.take(p + "pre_mlp_gain", (d,)),
            mlp=MlpWeights(r.take(p + "mlp.w_gate", (d, f)),
                           r.take(p + "mlp.w_up", (d, f)),
                           r.take(p + "mlp.w_down", (f, d))),
        ))
    embed = r.take("embed", (cfg.vocab, d))
    final_gain = r.take("final_gain", (d,))
    r.finish()
    return Model(cfg, embed, layers, final_gain)


def save_mixer(path, mixer: MixerWeights, meta: dict | None = None) -> None:
    """Persist one mixer's weights (stage-1 per-layer artifacts)."""
    config = {"kind": "mixer", "n_h": mixer.n_h, "n_kv_heads": mixer.n_kv_heads,
              "d_h": mixer.d_h, "meta": meta or {}}
    save_tensors(path, config, {name: t.data for name, t in mixer.named()})


def load_mixer(path) -> MixerWeights:
    """Load one stage-1 mixer, which has the RNN layout (`mixer_layout`):
    one KV head per query head and an output gate.  Raises CheckpointError
    like ``load_model``, and for a header of another layout."""
    config, tensors = load_tensors(path)
    if config.get("kind") != "mixer":
        raise CheckpointError(f"{path}: not a mixer checkpoint")
    try:
        n_h, n_kv, d_h = (int(config[k]) for k in ("n_h", "n_kv_heads", "d_h"))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed mixer config ({e!r})") from None
    if n_kv != n_h:
        raise CheckpointError(f"{path}: mixer has n_kv_heads={n_kv} for n_h={n_h}, but "
                              f"the RNN layout has one KV head per query head")
    w_q = tensors.get("w_q")
    if w_q is None:
        raise CheckpointError(f"{path}: missing tensor 'w_q'")
    if w_q.ndim != 2:
        raise CheckpointError(f"{path}: tensor 'w_q' has shape {list(w_q.shape)}, "
                              f"expected [d, {n_h * d_h}]")
    r = _Reader(path, tensors)
    mixer = r.mixer("", w_q.shape[0], n_h, d_h, n_h, gated=True)
    r.finish()
    return mixer
