"""Alternating-schedule training with AdamW and binary checkpoints.

One schedule cycle is m clip batches, then n phase batches, then l video
batches; training length is configured in cycles. A mode is the run lengths
of its cycle (`_RUNS`): "sequential" stretches the cycle to the whole run,
so each level's full budget runs back-to-back, and "clip" / "clip_phase"
zero the runs of the levels they drop (ablations). "single" pools all levels
into one loss per step. Every mode runs the same total batch budget.

Everything is a pure function of (config, corpus): the same seed gives
bit-identical parameters, logs, and checkpoints, and a saved checkpoint
carries the sampler state needed to resume mid-run bit-exactly.

`train` copies the parameters and Adam moments into a `TrainState`, which
`adamw_step` updates in place; the losses read one read-only view of its
parameters for the whole run, and only frozen copies leave `train`.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from hashlib import sha256
from typing import Callable

import numpy as np

from .corpus import Corpus, atomic_file, sample_clip_batch, sample_phase_batch, sample_video_batch
from .encoders import EncoderDims, ModelParams, check_finite
from .errors import (
    CheckpointIntegrityError,
    ConfigError,
    InsufficientDataError,
    NumericError,
    SchemaVersionError,
    ShapeError,
    check_floats,
    check_ints,
)
from .objectives import LossValue, loss_clip, loss_phase, loss_single, loss_video
from .seeding import substream

CKPT_MAGIC = b"HECV"
CKPT_VERSION = 2

# Each mode's (clip, phase, video) run lengths: the level of batch i is
# schedule_level(i, *runs). A level with run 0 is never sampled.
_RUNS = {
    "hecvl": lambda c: (c.m, c.n, c.l),
    "single": lambda c: (c.m, c.n, c.l),
    "sequential": lambda c: (c.cycles * c.m, c.cycles * c.n, c.cycles * c.l),
    "clip": lambda c: (c.m, 0, 0),
    "clip_phase": lambda c: (c.m, c.n, 0),
}
MODES = tuple(_RUNS)


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
        check_floats(self, ("weight_decay", "beta1", "beta2"), minimum=0.0, strict=False)
        check_ints(self, ("m", "n", "l", "b_clip", "b_phase", "b_video",
                          "k_clip", "k_phase", "k_video", "cycles",
                          "d_tok", "hidden", "d_emb"), minimum=1)
        check_ints(self, ("seed",), minimum=0)
        if not (self.beta1 < 1.0 and self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not math.isfinite(self.lr * self.weight_decay):
            raise ConfigError(f"lr * weight_decay must be finite, got "
                              f"{self.lr} * {self.weight_decay}")
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
    if cfg.mode == "single":
        return "single"
    return schedule_level(index, *_RUNS[cfg.mode](cfg))


class TrainState:
    """The loop's writable parameters, 2 x size Adam moments and scratch; `params` views `theta`."""

    def __init__(self, params: ModelParams, moments: np.ndarray, step: int) -> None:
        self.theta, self.moments = np.array(params.vector), np.array(moments)
        self.first, self.second = self.moments
        self.scratch, self.step = np.empty((2, params.dims.size)), step
        self.params = ModelParams._viewing(params.dims, self.theta)

    def frozen(self) -> tuple[ModelParams, np.ndarray]:
        """Read-only copies that share no memory with the loop's arrays."""
        moments = self.moments.copy()
        moments.flags.writeable = False
        return ModelParams(self.params.dims, self.theta), moments


def adamw_step(state: TrainState, g: np.ndarray, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update with decoupled weight decay, in place on `state`.

    `g` is the flat gradient, laid out like `state.theta`; the float temporaries are
    the two scratch vectors. A non-finite gradient or result raises NumericError naming its block.
    """
    check_finite(state.params.dims, g, NumericError, "non-finite gradient for parameter block {}")
    state.step += 1
    s1, s2 = state.scratch
    state.first *= cfg.beta1
    state.first += np.multiply(g, 1.0 - cfg.beta1, out=s1)
    state.second *= cfg.beta2
    state.second += np.multiply(np.multiply(g, g, out=s1), 1.0 - cfg.beta2, out=s1)
    np.divide(state.first, 1.0 - cfg.beta1 ** state.step, out=s1)
    np.sqrt(np.divide(state.second, 1.0 - cfg.beta2 ** state.step, out=s2), out=s2)
    s2 += cfg.eps
    s1 /= s2
    s1 *= cfg.lr
    np.multiply(state.theta, cfg.lr * cfg.weight_decay, out=s2)  # the decay, from the old theta
    state.theta -= s1
    state.theta -= s2
    check_finite(state.params.dims, state.theta, NumericError,
                 "parameter block {} is not finite after the update")


@dataclass(frozen=True)
class Checkpoint:
    config: TrainConfig
    global_batch: int
    params: ModelParams
    moments: np.ndarray  # Adam's first and second moments, read-only, 2 x params.dims.size
    rng_state: dict


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


def check_capacity(cfg: TrainConfig, corpus: Corpus) -> None:
    """Raise InsufficientDataError unless each level the mode samples fills its batch."""
    counts = corpus.pair_counts()
    needs = {"clip": cfg.b_clip, "phase": cfg.b_phase, "video": cfg.b_video}
    for level, run in zip(needs, _RUNS[cfg.mode](cfg)):
        if run and counts[level] < needs[level]:
            raise InsufficientDataError(
                f"{level} level: corpus has {counts[level]} pairs, "
                f"batch size {needs[level]} requested"
            )


def check_compatible(params: ModelParams, corpus: Corpus) -> None:
    """Raise ShapeError unless the model reads the corpus's frames and tokens."""
    if params.d_in != corpus.config.d_in:
        raise ShapeError(
            f"checkpoint expects {params.d_in}-dim frames, "
            f"corpus has {corpus.config.d_in}"
        )
    if params.vocab_size != corpus.config.vocab_size:
        raise ShapeError(
            f"checkpoint vocabulary {params.vocab_size} != "
            f"corpus vocabulary {corpus.config.vocab_size}"
        )


def train(cfg: TrainConfig, corpus: Corpus, log_path=None,
          resume: Checkpoint | None = None,
          on_batch: Callable[[dict], None] | None = None,
          stop_at: int | None = None) -> TrainResult:
    """Run the schedule from batch 0, or from a checkpoint, up to `stop_at`.

    `stop_at` defaults to the end of the schedule; the returned checkpoint
    resumes from there. A resumed run appends to `log_path`, so a run stopped
    and resumed leaves the same log as an uninterrupted one. A resume first
    checks the checkpoint against the corpus (`check_compatible`).
    """
    check_capacity(cfg, corpus)
    rng = substream(cfg.seed, "train")
    if resume is not None:
        if resume.config != cfg:
            raise ConfigError("checkpoint was written under a different config")
        check_compatible(resume.params, corpus)
        params, moments, start = resume.params, resume.moments, resume.global_batch
        rng.bit_generator.state = resume.rng_state
    else:
        dims = EncoderDims(d_in=corpus.config.d_in, d_tok=cfg.d_tok, hidden=cfg.hidden,
                           d_emb=cfg.d_emb, vocab_size=corpus.config.vocab_size)
        params, moments, start = ModelParams.initialize(dims, rng), np.zeros((2, dims.size)), 0
    state = TrainState(params, moments, start)
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
                lv = _loss_at_level(level, corpus, cfg, state.params, rng)
                adamw_step(state, lv.grads, cfg)
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
    params, moments = state.frozen()
    ckpt = Checkpoint(config=cfg, global_batch=stop, params=params, moments=moments,
                      rng_state=rng.bit_generator.state)
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
        "opt_step": ckpt.global_batch,
        "rng_state": ckpt.rng_state,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for values in (ckpt.params.vector, ckpt.moments):
        blob += values.astype("<f8").tobytes()
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
        return _checkpoint_from(header, body, off, path)
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        # The checksum held, so the writer produced a header this build cannot read.
        raise CheckpointIntegrityError(f"{path}: malformed header: {e!r}") from e


def _checkpoint_from(header: dict, body: bytes, off: int, path) -> Checkpoint:
    # Every field is required: a default would silently change the layout.
    dims = EncoderDims(**{f.name: header["dims"][f.name] for f in fields(EncoderDims)})
    expected = 3 * dims.size * 8
    if len(body) - off != expected:
        raise CheckpointIntegrityError(
            f"{path}: {len(body) - off} bytes of vectors, dims need {expected}"
        )
    vectors = np.frombuffer(body, dtype="<f8", offset=off).reshape(3, -1)
    cfg = TrainConfig(**header["config"])
    if cfg.digest() != header["config_digest"]:
        raise CheckpointIntegrityError(f"{path}: config digest mismatch")
    for name in ("d_tok", "hidden", "d_emb"):
        if getattr(dims, name) != getattr(cfg, name):
            raise CheckpointIntegrityError(f"{path}: dims.{name} {getattr(dims, name)} "
                                           f"!= config.{name} {getattr(cfg, name)}")
    # The loop takes one optimizer step per batch, so the two counts agree.
    batch, step = header["global_batch"], header["opt_step"]
    if type(batch) is not int or not 0 <= batch <= cfg.total_batches:
        raise ValueError(f"global_batch {batch!r} is not an integer in [0, {cfg.total_batches}]")
    if type(step) is not int or step != batch:
        raise ValueError(f"opt_step {step!r} is not global_batch {batch}")
    return Checkpoint(
        config=cfg,
        global_batch=batch,
        params=ModelParams(dims, vectors[0]),
        moments=vectors[1:],
        rng_state=_restore_rng_state(header["rng_state"]),
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
