"""Self-describing binary checkpoints.

Layout: 8-byte magic ``HYPENET1``, an unsigned little-endian 64-bit header
length, a UTF-8 JSON header (config plus a tensor index of name/dtype/shape/
offset/length), then the raw little-endian tensor payload.  Offsets are
ascending, non-overlapping, and cover the payload exactly; loading what was
saved reproduces every tensor bit for bit (tensors are stored in their
native precision, recorded per entry by the dtype code).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .fileio import write_atomic
from .mixers import MIXER_FIELDS
from .model import (LayerWeights, MixerWeights, MlpWeights, Model, ModelConfig)
from .positional import RopeParams, ScaleBase
from .tensor import Tensor

MAGIC = b"HYPENET1"

_DTYPE_CODES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_CODE_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class CheckpointError(RuntimeError):
    """Malformed checkpoint file."""


def save_tensors(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint with an arbitrary JSON-serializable config block.

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
    """Read a checkpoint; returns (config, name -> array)."""
    raw = Path(path).read_bytes()
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
    payload = raw[header_end:]
    tensors: dict[str, np.ndarray] = {}
    expected_offset = 0
    for entry in header["tensors"]:
        if entry["offset"] != expected_offset:
            raise CheckpointError(f"{path}: tensor offsets must be ascending and "
                                  f"gap-free (at {entry['name']!r})")
        dtype = _DTYPE_CODES.get(entry["dtype"])
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype code {entry['dtype']!r}")
        end = entry["offset"] + entry["length"]
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at {entry['name']!r}")
        arr = np.frombuffer(payload[entry["offset"]:end], dtype=dtype)
        tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()
        expected_offset = end
    if expected_offset != len(payload):
        raise CheckpointError(f"{path}: payload has {len(payload) - expected_offset} "
                              f"trailing bytes not covered by the index")
    return header["config"], tensors


# --------------------------------------------------------------------------
# model (de)serialization

def config_to_dict(cfg: ModelConfig) -> dict:
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
    tensors = {name: t.data for name, t in model.named_parameters()}
    config = {"kind": "model", "model": config_to_dict(model.cfg),
              "layer_kinds": _layer_kinds(model.cfg)}
    save_tensors(path, config, tensors)


def _mixer_shapes(d: int, n_h: int, n_kv: int, d_h: int) -> dict[str, tuple]:
    """Shape of every mixer tensor, optional ones included: projections are
    [d, heads * d_h] and gains [heads, 1, d_h], with one head per KV head on
    the key/value side."""
    heads = {name: n_kv if name in ("w_k", "w_v", "qk_gain_k") else n_h
             for name in MIXER_FIELDS}
    return {name: (d, h * d_h) if name.startswith("w_") else (h, 1, d_h)
            for name, h in heads.items()}


_MIXER_REQUIRED = ("w_q", "w_k", "w_v", "w_o")


class _Reader:
    """Hands out checkpoint tensors as parameters, checking name and shape."""

    def __init__(self, path, tensors: dict[str, np.ndarray]):
        self.path, self.tensors, self.seen = path, tensors, set()

    def take(self, name: str, shape: tuple, required: bool = True) -> Tensor | None:
        arr = self.tensors.get(name)
        if arr is None:
            if required:
                raise CheckpointError(f"{self.path}: missing tensor {name!r}")
            return None
        self.seen.add(name)
        if arr.shape != shape:
            raise CheckpointError(f"{self.path}: tensor {name!r} has shape "
                                  f"{list(arr.shape)}, expected {list(shape)}")
        return Tensor(arr, requires_grad=True, dtype=arr.dtype)

    def mixer(self, prefix: str, d: int, n_h: int, n_kv: int, d_h: int) -> MixerWeights:
        kw = {name: self.take(prefix + name, shape, name in _MIXER_REQUIRED)
              for name, shape in _mixer_shapes(d, n_h, n_kv, d_h).items()}
        if (kw["qk_gain_q"] is None) != (kw["qk_gain_k"] is None):
            raise CheckpointError(f"{self.path}: {prefix}qk_gain_q and "
                                  f"{prefix}qk_gain_k must come together")
        return MixerWeights(n_h=n_h, n_kv_heads=n_kv, d_h=d_h, **kw)

    def finish(self) -> None:
        extra = sorted(set(self.tensors) - self.seen)
        if extra:
            raise CheckpointError(f"{self.path}: unexpected tensor {extra[0]!r}")


def load_model(path) -> Model:
    """Load a model checkpoint.

    Raises CheckpointError when a required tensor is missing, a tensor's
    shape disagrees with the stored config, a tensor is not part of the
    model, or the stored layer kinds disagree with the config's I_attn.
    """
    config, tensors = load_tensors(path)
    if config.get("kind") != "model":
        raise CheckpointError(f"{path}: not a model checkpoint")
    try:
        stored = dict(config["model"])
        # older headers name the RNN family, which can only be Lightning
        rnn_kind = stored.pop("rnn_kind", "lightning")
        cfg = config_from_dict(stored)
        kinds = list(config["layer_kinds"])
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed model config ({e!r})") from None
    if rnn_kind != "lightning":
        raise CheckpointError(f"{path}: unsupported RNN kind {rnn_kind!r}")
    if kinds != _layer_kinds(cfg):
        raise CheckpointError(f"{path}: layer kinds {kinds} disagree with "
                              f"I_attn={list(cfg.I_attn)} for L={cfg.L}")
    r = _Reader(path, tensors)
    d, f = cfg.d, cfg.ffn_width
    layers = []
    for l in range(cfg.L):
        p = f"layers.{l}."
        n_kv = cfg.n_kv_heads if l in cfg.I_attn else cfg.n_h
        layers.append(LayerWeights(
            mixer=r.mixer(p + "mixer.", d, cfg.n_h, n_kv, cfg.d_h),
            pre_mixer_gain=r.take(p + "pre_mixer_gain", (d,)),
            pre_mlp_gain=r.take(p + "pre_mlp_gain", (d,)),
            mlp=MlpWeights(r.take(p + "mlp.w_gate", (d, f)),
                           r.take(p + "mlp.w_up", (d, f)),
                           r.take(p + "mlp.w_down", (f, d))),
        ))
    embed = r.take("embed", (cfg.vocab, d))
    unembed = None if cfg.tie_embeddings else r.take("unembed", (cfg.vocab, d))
    final_gain = r.take("final_gain", (d,))
    r.finish()
    return Model(cfg, embed, layers, final_gain, unembed)


def save_mixer(path, mixer: MixerWeights, meta: dict | None = None) -> None:
    """Persist one mixer's weights (stage-1 per-layer artifacts)."""
    config = {"kind": "mixer", "n_h": mixer.n_h, "n_kv_heads": mixer.n_kv_heads,
              "d_h": mixer.d_h, "meta": meta or {}}
    save_tensors(path, config, {name: t.data for name, t in mixer.named()})


def load_mixer(path) -> MixerWeights:
    """Load one mixer; raises CheckpointError like ``load_model``."""
    config, tensors = load_tensors(path)
    if config.get("kind") != "mixer":
        raise CheckpointError(f"{path}: not a mixer checkpoint")
    try:
        n_h, n_kv, d_h = (int(config[k]) for k in ("n_h", "n_kv_heads", "d_h"))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed mixer config ({e!r})") from None
    w_q = tensors.get("w_q")
    if w_q is None:
        raise CheckpointError(f"{path}: missing tensor 'w_q'")
    if w_q.ndim != 2:
        raise CheckpointError(f"{path}: tensor 'w_q' has shape {list(w_q.shape)}, "
                              f"expected [d, {n_h * d_h}]")
    r = _Reader(path, tensors)
    mixer = r.mixer("", w_q.shape[0], n_h, n_kv, d_h)
    r.finish()
    return mixer
