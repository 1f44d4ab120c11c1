"""Hierarchical video-text corpus: data model, synthetic generator, I/O.

A lecture video is an ordered sequence of clips. Each clip carries frame
features plus two transcript variants of the same narration (as if two
speech recognizers transcribed the same audio). Contiguous clip ranges are
grouped into phase segments, each paired with a concept text and a latent
class label used only for evaluation. Every video also has one abstract
text.

The synthetic generator gives each phase class a frame-prototype vector
and a private block of the token vocabulary; frames are noisy copies of
the prototype and texts are (noisy) draws from the block, so corpora have
a known latent structure that zero-shot evaluation can measure against.
"""
from __future__ import annotations

import base64
import binascii
import json
import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from hashlib import sha256
from itertools import accumulate, chain
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CorpusFormatError,
    InsufficientDataError,
    SchemaVersionError,
    check_floats,
    check_ints,
)
from .numerics import Matrix
from .encoders import sample_frames
from .seeding import substream

SCHEMA = "hiercorpus/2"

NARRATION_LEN = 10
CONCEPT_LEN = 8
ABSTRACT_LEN = 24
# Concept texts are cleaner than narrations: fraction of the narration
# token-noise rate applied to them.
CONCEPT_NOISE_FACTOR = 0.25


@dataclass(frozen=True)
class GeneratorConfig:
    num_videos: int = 40
    num_classes: int = 6
    clips_per_phase: int = 4
    frames_per_clip: int = 6
    d_in: int = 32
    vocab_size: int = 256
    noise_scale: float = 2.0
    token_noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_ints(self, ("num_videos", "num_classes", "clips_per_phase", "frames_per_clip",
                          "d_in", "vocab_size"), minimum=1)
        check_ints(self, ("seed",), minimum=0)
        if not 0.0 <= self.token_noise < 1.0:
            raise ConfigError(f"token_noise must lie in [0, 1), got {self.token_noise}")
        check_floats(self, ("noise_scale",), minimum=0.0, strict=False)
        if self.num_classes > self.vocab_size:
            raise ConfigError(
                f"{self.num_classes} classes need {self.num_classes} vocabulary blocks, "
                f"but vocab_size is only {self.vocab_size}"
            )

    def class_block(self, cls: int) -> tuple[int, int]:
        """Half-open token id range owned by a class."""
        width = self.vocab_size // self.num_classes
        return cls * width, (cls + 1) * width


@dataclass(frozen=True)
class VideoClip:
    clip_id: str
    frames: Matrix
    narration_a: tuple[int, ...]
    narration_b: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.frames.rows < 1:
            raise CorpusFormatError(f"clip {self.clip_id} has no frames")
        if not self.narration_a or not self.narration_b:
            raise CorpusFormatError(f"clip {self.clip_id} has an empty narration")


@dataclass(frozen=True)
class PhaseSegment:
    start: int
    end: int
    concept: tuple[int, ...]
    phase_class: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise CorpusFormatError(f"bad segment range [{self.start}, {self.end})")
        if not self.concept:
            raise CorpusFormatError("segment has an empty concept text")


@dataclass(frozen=True)
class LectureVideo:
    video_id: str
    clips: tuple[VideoClip, ...]
    phases: tuple[PhaseSegment, ...]
    abstract: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.clips:
            raise CorpusFormatError(f"video {self.video_id} has no clips")
        if not self.abstract:
            raise CorpusFormatError(f"video {self.video_id} has an empty abstract")
        prev_end = 0
        for seg in self.phases:
            if seg.start < prev_end:
                raise CorpusFormatError(
                    f"video {self.video_id}: segment ranges overlap or are unordered"
                )
            if seg.end > len(self.clips):
                raise CorpusFormatError(
                    f"video {self.video_id}: segment end {seg.end} exceeds {len(self.clips)} clips"
                )
            prev_end = seg.end


@dataclass(frozen=True)
class Corpus:
    config: GeneratorConfig
    videos: tuple[LectureVideo, ...]

    def clip_sources(self) -> list[tuple[int, int]]:
        return [(vi, ci) for vi, v in enumerate(self.videos) for ci in range(len(v.clips))]

    def phase_sources(self) -> list[tuple[int, int]]:
        return [(vi, pi) for vi, v in enumerate(self.videos) for pi in range(len(v.phases))]

    def pair_counts(self) -> dict[str, int]:
        return {
            "clip": len(self.clip_sources()),
            "phase": len(self.phase_sources()),
            "video": len(self.videos),
        }

    def split(self, holdout_fraction: float) -> tuple["Corpus", "Corpus"]:
        """Deterministic train/holdout split: the last fraction of videos.

        Videos are generated i.i.d., so position carries no information and
        no extra randomness is needed.
        """
        if not 0.0 < holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction must lie in (0, 1), got {holdout_fraction}")
        n_hold = max(1, int(round(len(self.videos) * holdout_fraction)))
        if n_hold >= len(self.videos):
            raise InsufficientDataError(
                f"cannot hold out {n_hold} of {len(self.videos)} videos"
            )
        cut = len(self.videos) - n_hold
        return (
            Corpus(self.config, self.videos[:cut]),
            Corpus(self.config, self.videos[cut:]),
        )


def _noisy_tokens(rng: np.random.Generator, base: np.ndarray, rate: float,
                  vocab_size: int) -> tuple[int, ...]:
    corrupt = rng.random(base.size) < rate
    noise = rng.integers(0, vocab_size, base.size)
    return tuple(int(t) for t in np.where(corrupt, noise, base))


def generate_synthetic(cfg: GeneratorConfig) -> Corpus:
    """Build a corpus with known latent phase structure, fully seed-determined."""
    rng = substream(cfg.seed, "generate")
    prototypes = rng.standard_normal((cfg.num_classes, cfg.d_in))
    videos = []
    for vi in range(cfg.num_videos):
        order = rng.permutation(cfg.num_classes)
        clips: list[VideoClip] = []
        phases: list[PhaseSegment] = []
        for cls in order:
            lo, hi = cfg.class_block(int(cls))
            start = len(clips)
            for _ in range(cfg.clips_per_phase):
                frames = prototypes[cls] + cfg.noise_scale * rng.standard_normal(
                    (cfg.frames_per_clip, cfg.d_in)
                )
                base = rng.integers(lo, hi, NARRATION_LEN)
                clips.append(VideoClip(
                    clip_id=f"v{vi:03d}c{len(clips):02d}",
                    frames=Matrix(frames),
                    narration_a=_noisy_tokens(rng, base, cfg.token_noise, cfg.vocab_size),
                    narration_b=_noisy_tokens(rng, base, cfg.token_noise, cfg.vocab_size),
                ))
            concept_base = rng.integers(lo, hi, CONCEPT_LEN)
            phases.append(PhaseSegment(
                start=start,
                end=len(clips),
                concept=_noisy_tokens(rng, concept_base,
                                      cfg.token_noise * CONCEPT_NOISE_FACTOR,
                                      cfg.vocab_size),
                phase_class=int(cls),
            ))
        abstract_classes = rng.integers(0, cfg.num_classes, ABSTRACT_LEN)
        width = cfg.vocab_size // cfg.num_classes
        abstract = tuple(
            int(c) * width + int(t)
            for c, t in zip(abstract_classes, rng.integers(0, width, ABSTRACT_LEN))
        )
        videos.append(LectureVideo(
            video_id=f"v{vi:03d}",
            clips=tuple(clips),
            phases=tuple(phases),
            abstract=abstract,
        ))
    return Corpus(config=cfg, videos=tuple(videos))


# ---------------------------------------------------------------------------
# Persistence: JSON Lines, one header record then one video per line. A
# clip's frames are the base64 text of their row-major little-endian float64
# bytes; the row count follows from the header's d_in.
# ---------------------------------------------------------------------------


def _video_to_record(v: LectureVideo) -> dict:
    return {
        "video_id": v.video_id,
        "clips": [
            {
                "id": c.clip_id,
                "frames": base64.b64encode(c.frames.array.astype("<f8", copy=False)
                                           .tobytes()).decode("ascii"),
                "narration_a": list(c.narration_a),
                "narration_b": list(c.narration_b),
            }
            for c in v.clips
        ],
        "phases": [
            {"start": p.start, "end": p.end, "concept": list(p.concept),
             "class": p.phase_class}
            for p in v.phases
        ],
        "abstract": list(v.abstract),
    }


def _check_tokens(texts: list[tuple], vocab_size: int) -> None:
    """Every token of every text must be an int (not a bool) in [0, vocab_size)."""
    flat = list(chain.from_iterable(texts))
    # One pass per video, not per text; min/max only run on all-int tokens.
    if flat and (set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= vocab_size):
        bad = next(t for t in flat if type(t) is not int or not 0 <= t < vocab_size)
        raise CorpusFormatError(f"token {bad!r} is not an integer id in [0, {vocab_size})")


def _index(value, limit: int, what: str) -> int:
    if type(value) is not int or not 0 <= value < limit:
        raise CorpusFormatError(f"{what} must be an integer in [0, {limit}), got {value!r}")
    return value


def _frame_bytes(clip: dict, d_in: int) -> bytes:
    try:
        raw = base64.b64decode(clip["frames"], validate=True)
    except binascii.Error as e:
        raise CorpusFormatError(f"clip {clip['id']}: frames are not base64: {e}") from e
    if not raw or len(raw) % (8 * d_in):
        raise CorpusFormatError(
            f"clip {clip['id']}: {len(raw)} frame bytes is not a positive multiple "
            f"of {8 * d_in} (d_in={d_in})"
        )
    return raw


def _video_from_record(rec: dict, config: GeneratorConfig) -> LectureVideo:
    raws = [_frame_bytes(c, config.d_in) for c in rec["clips"]]
    # One decode and one finiteness check per video; clips get row views.
    values = np.frombuffer(b"".join(raws), dtype="<f8").reshape(-1, config.d_in)
    ends = list(accumulate(len(raw) // (8 * config.d_in) for raw in raws))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        clip = rec["clips"][bisect_right(ends, bad)]
        raise CorpusFormatError(f"clip {clip['id']}: non-finite frame value")
    clips = tuple(
        VideoClip(
            clip_id=c["id"],
            frames=Matrix._wrap(values[start:end]),
            narration_a=tuple(c["narration_a"]),
            narration_b=tuple(c["narration_b"]),
        )
        for c, start, end in zip(rec["clips"], [0, *ends], ends)
    )
    limit = len(clips) + 1
    phases = tuple(
        PhaseSegment(start=_index(p["start"], limit, "segment start"),
                     end=_index(p["end"], limit, "segment end"),
                     concept=tuple(p["concept"]),
                     phase_class=_index(p["class"], config.num_classes, "phase class"))
        for p in rec["phases"]
    )
    abstract = tuple(rec["abstract"])
    _check_tokens([abstract, *(p.concept for p in phases),
                   *(t for c in clips for t in (c.narration_a, c.narration_b))],
                  config.vocab_size)
    return LectureVideo(
        video_id=rec["video_id"],
        clips=clips,
        phases=phases,
        abstract=abstract,
    )


def save_corpus(corpus: Corpus, path) -> None:
    with atomic_file(path) as f:
        header = {"schema": SCHEMA, "config": asdict(corpus.config)}
        f.write(json.dumps(header) + "\n")
        for v in corpus.videos:
            f.write(json.dumps(_video_to_record(v)) + "\n")


def load_corpus(path) -> Corpus:
    # Bytes, decoded line by line, so a bad UTF-8 byte is reported by line.
    # Video lines run to tens of KB, and readline on the default 8 KiB
    # buffer joins many reads per line.
    with open(path, "rb", buffering=1 << 20) as f:
        first = f.readline()
        if not first:
            raise CorpusFormatError("line 1: file is empty")
        header = _parse_line(first, 1)
        tag = header.get("schema")
        if tag != SCHEMA:
            raise SchemaVersionError(
                f"unsupported corpus schema {tag!r}, this build reads {SCHEMA!r}; "
                "regenerate the corpus with `hiercl generate --config` from the "
                "generator config in its header"
            )
        try:
            config = GeneratorConfig(**header["config"])
        except (TypeError, KeyError, ConfigError) as e:
            raise CorpusFormatError(f"line 1: bad generator config: {e}") from e
        videos = []
        for i, line in enumerate(f, start=2):
            rec = _parse_line(line, i)
            try:
                videos.append(_video_from_record(rec, config))
            except (KeyError, TypeError, ValueError, CorpusFormatError) as e:
                raise CorpusFormatError(f"line {i}: bad video record: {e}") from e
    return Corpus(config=config, videos=tuple(videos))


def _parse_line(line: bytes, lineno: int) -> dict:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorpusFormatError(f"line {lineno}: not valid UTF-8: {e}") from e
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as e:
        raise CorpusFormatError(f"line {lineno}: invalid JSON: {e}") from e
    if not isinstance(rec, dict):
        raise CorpusFormatError(f"line {lineno}: expected an object")
    return rec


@contextmanager
def atomic_file(path, mode: str = "w") -> Iterator[IO]:
    """Write through `<path>.tmp` and move it over `path` once the body returns.

    If the body raises, the temporary file is removed and `path` keeps its
    old contents. Text modes write UTF-8.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def corpus_digest(path) -> str:
    h = sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Batches. All entries within a batch come from distinct sources.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClipExample:
    source_id: str
    frames: Matrix  # k_clip sampled frames
    narration_a: tuple[int, ...]
    narration_b: tuple[int, ...]


@dataclass(frozen=True)
class PhaseExample:
    source_id: str
    clip_ids: tuple[str, ...]
    frames: Matrix  # k_phase frames sampled across the segment
    narrations: tuple[tuple[int, ...], ...]  # every in-segment narration
    concept: tuple[int, ...]


@dataclass(frozen=True)
class VideoExample:
    source_id: str
    clip_ids: tuple[str, ...]
    frames: Matrix  # k_video frames sampled across the whole video
    narrations: tuple[tuple[int, ...], ...]  # evenly sampled clip narrations
    abstract: tuple[int, ...]


def _check_distinct(entries, level: str) -> None:
    ids = [e.source_id for e in entries]
    if len(set(ids)) != len(ids):
        raise InsufficientDataError(f"{level} batch repeats a source")


@dataclass(frozen=True)
class ClipBatch:
    entries: tuple[ClipExample, ...]

    def __post_init__(self) -> None:
        _check_distinct(self.entries, "clip")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PhaseBatch:
    entries: tuple[PhaseExample, ...]

    def __post_init__(self) -> None:
        _check_distinct(self.entries, "phase")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VideoBatch:
    entries: tuple[VideoExample, ...]

    def __post_init__(self) -> None:
        _check_distinct(self.entries, "video")

    def __len__(self) -> int:
        return len(self.entries)


def _draw(rng: np.random.Generator, n: int, b: int, level: str) -> list[int]:
    if b < 1:
        raise ConfigError(f"batch size must be >= 1, got {b}")
    if b > n:
        raise InsufficientDataError(
            f"{level} level: requested batch of {b} but only {n} sources available"
        )
    return [int(i) for i in rng.choice(n, size=b, replace=False)]


def sample_clip_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                      k: int = 4) -> ClipBatch:
    sources = corpus.clip_sources()
    entries = []
    for si in _draw(rng, len(sources), b, "clip"):
        vi, ci = sources[si]
        clip = corpus.videos[vi].clips[ci]
        entries.append(ClipExample(
            source_id=clip.clip_id,
            frames=sample_frames(clip.frames, k),
            narration_a=clip.narration_a,
            narration_b=clip.narration_b,
        ))
    return ClipBatch(entries=tuple(entries))


def sample_phase_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 8) -> PhaseBatch:
    sources = corpus.phase_sources()
    entries = []
    for si in _draw(rng, len(sources), b, "phase"):
        vi, pi = sources[si]
        video = corpus.videos[vi]
        seg = video.phases[pi]
        in_range = video.clips[seg.start:seg.end]
        frames = Matrix._wrap(np.vstack([c.frames.array for c in in_range]))
        entries.append(PhaseExample(
            source_id=f"{video.video_id}p{pi}",
            clip_ids=tuple(c.clip_id for c in in_range),
            frames=sample_frames(frames, k),
            narrations=tuple(c.narration_a for c in in_range),
            concept=seg.concept,
        ))
    return PhaseBatch(entries=tuple(entries))


def sample_video_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 32) -> VideoBatch:
    entries = []
    for vi in _draw(rng, len(corpus.videos), b, "video"):
        video = corpus.videos[vi]
        frames = Matrix._wrap(np.vstack([c.frames.array for c in video.clips]))
        n_clips = len(video.clips)
        n_narr = min(n_clips, k)
        clip_idx = [j * n_clips // n_narr for j in range(n_narr)]
        entries.append(VideoExample(
            source_id=video.video_id,
            clip_ids=tuple(video.clips[i].clip_id for i in clip_idx),
            frames=sample_frames(frames, k),
            narrations=tuple(video.clips[i].narration_a for i in clip_idx),
            abstract=video.abstract,
        ))
    return VideoBatch(entries=tuple(entries))
