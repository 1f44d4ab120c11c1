"""Alternating-schedule training with AdamW and binary checkpoints.

One schedule cycle is m clip batches, then n phase batches, then l video
batches; training length is configured in cycles. Alternative modes reuse
the same total batch budget: "single" pools all levels into one loss per
step, "sequential" runs each level's full budget back-to-back instead of
interleaved, and "clip" / "clip_phase" restrict the levels (ablations).

Everything is a pure function of (config, corpus): the same seed gives
bit-identical parameters, logs, and checkpoints, and a saved checkpoint
carries the sampler state needed to resume mid-run bit-exactly.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from hashlib import sha256
from typing import Callable

import numpy as np

from .corpus import Corpus, atomic_file, sample_clip_batch, sample_phase_batch, sample_video_batch
from .encoders import EncoderDims, ModelParams, nonfinite_block
from .errors import (
    CheckpointIntegrityError,
    ConfigError,
    InsufficientDataError,
    NumericError,
    SchemaVersionError,
    check_floats,
    check_ints,
)
from .objectives import LossValue, loss_clip, loss_phase, loss_single, loss_video
from .seeding import substream

CKPT_MAGIC = b"HECV"
CKPT_VERSION = 2

# The levels each mode samples over a run; every mode samples all of its
# levels within the first cycle, since m, n and l are at least 1.
_MODE_LEVELS = {
    "hecvl": ("clip", "phase", "video"),
    "single": ("clip", "phase", "video"),
    "sequential": ("clip", "phase", "video"),
    "clip": ("clip",),
    "clip_phase": ("clip", "phase"),
}
MODES = tuple(_MODE_LEVELS)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    tau: float = 0.07
    m: int = 25
    n: int = 15
    l: int = 115
    b_clip: int = 16
    b_phase: int = 8
    b_video: int = 4
    k_clip: int = 4
    k_phase: int = 8
    k_video: int = 32
    cycles: int = 50
    seed: int = 0
    mode: str = "hecvl"
    d_tok: int = 32
    hidden: int = 64
    d_emb: int = 16

    def __post_init__(self) -> None:
        check_floats(self, ("lr", "eps", "tau"), minimum=0.0, strict=True)
        check_floats(self, ("weight_decay",), minimum=0.0, strict=False)
        check_ints(self, ("m", "n", "l", "b_clip", "b_phase", "b_video",
                          "k_clip", "k_phase", "k_video", "cycles",
                          "d_tok", "hidden", "d_emb"), minimum=1)
        check_ints(self, ("seed",), minimum=0)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")

    @classmethod
    def paper_scale(cls, **overrides) -> "TrainConfig":
        """The published batch sizes; the plain constructor is desk scale."""
        merged = {"b_clip": 120, "b_phase": 60, "b_video": 10}
        merged.update(overrides)
        return cls(**merged)

    @property
    def total_batches(self) -> int:
        return self.cycles * (self.m + self.n + self.l)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return sha256(payload).hexdigest()


def schedule_level(index: int, m: int, n: int, l: int) -> str:
    """Level of the batch at a global index under the alternating schedule."""
    if index < 0:
        raise ConfigError(f"batch index must be >= 0, got {index}")
    r = index % (m + n + l)
    if r < m:
        return "clip"
    if r < m + n:
        return "phase"
    return "video"


def _level_at(cfg: TrainConfig, index: int) -> str:
    if cfg.mode == "hecvl":
        return schedule_level(index, cfg.m, cfg.n, cfg.l)
    if cfg.mode == "single":
        return "single"
    if cfg.mode == "clip":
        return "clip"
    if cfg.mode == "clip_phase":
        r = index % (cfg.m + cfg.n)
        return "clip" if r < cfg.m else "phase"
    # sequential: the same per-level budget as hecvl, run back-to-back
    if index < cfg.cycles * cfg.m:
        return "clip"
    if index < cfg.cycles * (cfg.m + cfg.n):
        return "phase"
    return "video"


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Adam's first and second moments, flat vectors in the parameter layout."""

    first: np.ndarray
    second: np.ndarray
    step: int

    @classmethod
    def initialize(cls, params: ModelParams) -> "OptimizerState":
        zeros = np.zeros(params.dims.size)
        zeros.setflags(write=False)
        return cls(first=zeros, second=zeros, step=0)


def adamw_step(params: ModelParams, g: np.ndarray,
               state: OptimizerState, cfg: TrainConfig) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected Adam update with decoupled weight decay.

    `g` is the flat gradient, laid out like `params.vector`.
    """
    t = state.step + 1
    bad = nonfinite_block(params.dims, g)
    if bad is not None:
        raise NumericError(f"non-finite gradient for parameter block {bad}")
    m1 = cfg.beta1 * state.first + (1.0 - cfg.beta1) * g
    m2 = cfg.beta2 * state.second + (1.0 - cfg.beta2) * (g * g)
    m1_hat = m1 / (1.0 - cfg.beta1 ** t)
    m2_hat = m2 / (1.0 - cfg.beta2 ** t)
    step = cfg.lr * (m1_hat / (np.sqrt(m2_hat) + cfg.eps))
    decay = cfg.lr * cfg.weight_decay * params.vector
    m1.setflags(write=False)
    m2.setflags(write=False)
    return (
        ModelParams(params.dims, params.vector - step - decay),
        OptimizerState(first=m1, second=m2, step=t),
    )


@dataclass(frozen=True)
class Checkpoint:
    config: TrainConfig
    global_batch: int
    params: ModelParams
    opt_state: OptimizerState
    rng_state: dict
    version: int = CKPT_VERSION


@dataclass(frozen=True)
class TrainResult:
    checkpoint: Checkpoint
    log: list[dict]


def _loss_at_level(level: str, corpus: Corpus, cfg: TrainConfig, params: ModelParams,
                   rng: np.random.Generator) -> LossValue:
    if level == "clip":
        batch = sample_clip_batch(corpus, cfg.b_clip, rng, k=cfg.k_clip)
        return loss_clip(batch, params, cfg.tau)
    if level == "phase":
        batch = sample_phase_batch(corpus, cfg.b_phase, rng, k=cfg.k_phase)
        return loss_phase(batch, params, cfg.tau)
    if level == "video":
        batch = sample_video_batch(corpus, cfg.b_video, rng, k=cfg.k_video)
        return loss_video(batch, params, cfg.tau)
    clip = sample_clip_batch(corpus, cfg.b_clip, rng, k=cfg.k_clip)
    phase = sample_phase_batch(corpus, cfg.b_phase, rng, k=cfg.k_phase)
    video = sample_video_batch(corpus, cfg.b_video, rng, k=cfg.k_video)
    return loss_single(clip, phase, video, params, cfg.tau)


def _check_capacity(cfg: TrainConfig, corpus: Corpus) -> None:
    counts = corpus.pair_counts()
    needs = {"clip": cfg.b_clip, "phase": cfg.b_phase, "video": cfg.b_video}
    for level in _MODE_LEVELS[cfg.mode]:
        if counts[level] < needs[level]:
            raise InsufficientDataError(
                f"{level} level: corpus has {counts[level]} pairs, "
                f"batch size {needs[level]} requested"
            )


def train(cfg: TrainConfig, corpus: Corpus, log_path=None,
          resume: Checkpoint | None = None,
          on_batch: Callable[[dict], None] | None = None,
          stop_at: int | None = None) -> TrainResult:
    """Run the schedule from batch 0, or from a checkpoint, up to `stop_at`.

    `stop_at` defaults to the end of the schedule; the returned checkpoint
    resumes from there. A resumed run appends to `log_path`, so a run stopped
    and resumed leaves the same log as an uninterrupted one.
    """
    _check_capacity(cfg, corpus)
    rng = substream(cfg.seed, "train")
    if resume is not None:
        if resume.config != cfg:
            raise ConfigError("checkpoint was written under a different config")
        params, opt, start = resume.params, resume.opt_state, resume.global_batch
        rng.bit_generator.state = resume.rng_state
    else:
        dims = EncoderDims(d_in=corpus.config.d_in, d_tok=cfg.d_tok, hidden=cfg.hidden,
                           d_emb=cfg.d_emb, vocab_size=corpus.config.vocab_size)
        params = ModelParams.initialize(dims, rng)
        opt, start = OptimizerState.initialize(params), 0
    stop = cfg.total_batches if stop_at is None else stop_at
    if not start <= stop <= cfg.total_batches:
        raise ConfigError(f"stop_at must lie in [{start}, {cfg.total_batches}], got {stop_at}")

    log: list[dict] = []
    log_file = open(log_path, "a" if resume is not None else "w",
                    encoding="utf-8") if log_path else None
    try:
        for i in range(start, stop):
            level = _level_at(cfg, i)
            try:
                lv = _loss_at_level(level, corpus, cfg, params, rng)
                params, opt = adamw_step(params, lv.grads, opt, cfg)
            except NumericError as e:
                raise NumericError(f"batch {i} ({level} level): {e}") from e
            entry = {"batch": i, "level": level, "loss": lv.loss,
                     "pos_sim": lv.pos_sim, "neg_sim": lv.neg_sim}
            log.append(entry)
            if log_file:
                log_file.write(json.dumps(entry) + "\n")
            if on_batch:
                on_batch(entry)
    finally:
        if log_file:
            log_file.close()
    ckpt = Checkpoint(
        config=cfg,
        global_batch=stop,
        params=params,
        opt_state=opt,
        rng_state=rng.bit_generator.state,
    )
    return TrainResult(checkpoint=ckpt, log=log)


def untrained_checkpoint(cfg: TrainConfig, corpus: Corpus) -> Checkpoint:
    """Initialization-only checkpoint (the zero-shot chance baseline)."""
    return train(cfg, corpus, stop_at=0).checkpoint


# ---------------------------------------------------------------------------
# Checkpoint file format: magic, version, JSON header, the parameter vector
# and both moment vectors as little-endian float64, SHA-256 of all before it.
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = {
        "config": asdict(ckpt.config),
        "config_digest": ckpt.config.digest(),
        "dims": asdict(ckpt.params.dims),
        "global_batch": ckpt.global_batch,
        "opt_step": ckpt.opt_state.step,
        "rng_state": ckpt.rng_state,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for vector in (ckpt.params.vector, ckpt.opt_state.first, ckpt.opt_state.second):
        blob += vector.astype("<f8").tobytes()
    blob += sha256(bytes(blob)).digest()
    with atomic_file(path, "wb") as f:
        f.write(bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(CKPT_MAGIC) + 8 + 32:
        raise CheckpointIntegrityError(f"{path}: file too short to be a checkpoint")
    if blob[:4] != CKPT_MAGIC:
        raise CheckpointIntegrityError(
            f"{path}: bad magic {blob[:4]!r}, expected {CKPT_MAGIC!r}"
        )
    body, checksum = blob[:-32], blob[-32:]
    if sha256(body).digest() != checksum:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch, payload corrupted")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != CKPT_VERSION:
        raise SchemaVersionError(
            f"{path}: checkpoint version {version}, this build reads {CKPT_VERSION}"
        )
    header_len = struct.unpack_from("<I", blob, 8)[0]
    off = 12
    try:
        header = json.loads(blob[off:off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointIntegrityError(f"{path}: unreadable header: {e}") from e
    off += header_len
    try:
        return _checkpoint_from(header, body, off, version, path)
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        # The checksum held, so the writer produced a header this build cannot read.
        raise CheckpointIntegrityError(f"{path}: malformed header: {e!r}") from e


def _checkpoint_from(header: dict, body: bytes, off: int, version: int, path) -> Checkpoint:
    # Every field is required: a default would silently change the layout.
    dims = EncoderDims(**{f.name: header["dims"][f.name] for f in fields(EncoderDims)})
    expected = 3 * dims.size * 8
    if len(body) - off != expected:
        raise CheckpointIntegrityError(
            f"{path}: {len(body) - off} bytes of vectors, dims need {expected}"
        )
    params, first, second = np.frombuffer(body, dtype="<f8", offset=off).reshape(3, -1)
    cfg = TrainConfig(**header["config"])
    if cfg.digest() != header["config_digest"]:
        raise CheckpointIntegrityError(f"{path}: config digest mismatch")
    return Checkpoint(
        config=cfg,
        global_batch=header["global_batch"],
        params=ModelParams(dims, params),
        opt_state=OptimizerState(first=first, second=second, step=header["opt_step"]),
        rng_state=_restore_rng_state(header["rng_state"]),
        version=version,
    )


def _restore_rng_state(state: dict) -> dict:
    # JSON round-trips Python's big ints exactly; only the nesting needs care.
    inner = dict(state["state"])
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in inner.items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }
