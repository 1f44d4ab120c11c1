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
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from hashlib import sha256
from itertools import accumulate, chain, islice
from typing import IO, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    CorpusFormatError,
    InsufficientDataError,
    SchemaVersionError,
    check_floats,
    check_ints,
)
from .numerics import Matrix
from .encoders import FrameStack, pick_frames
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
        check_floats(self, ("noise_scale", "token_noise"), minimum=0.0, strict=False)
        if not self.token_noise < 1.0:
            raise ConfigError(f"token_noise must lie in [0, 1), got {self.token_noise}")
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


class RowRanges(NamedTuple):
    """Segments of a frame table: each one's first row and row count."""

    starts: np.ndarray
    lengths: np.ndarray


@dataclass(frozen=True)
class Corpus:
    config: GeneratorConfig
    videos: tuple[LectureVideo, ...]

    @cached_property
    def frame_table(self) -> np.ndarray:
        """Every clip's frames in corpus order: one read-only rows x d_in array.

        Generated, loaded and split corpora are built on their table, and each
        clip's frames are a row view of it. A corpus built by hand from
        separate arrays stacks them here, once.
        """
        clips = self.clip_table
        table = (np.concatenate([c.frames.array for c in clips]) if clips
                 else np.empty((0, self.config.d_in)))
        table.setflags(write=False)
        return table

    @cached_property
    def clip_table(self) -> tuple[VideoClip, ...]:
        """Every clip of every video, in corpus order: the clip-level sources."""
        return tuple(chain.from_iterable(v.clips for v in self.videos))

    @cached_property
    def phase_table(self) -> tuple[tuple[LectureVideo, int, PhaseSegment], ...]:
        """(video, index, segment) of every phase segment: the phase-level sources."""
        return tuple((v, pi, seg) for v in self.videos for pi, seg in enumerate(v.phases))

    @cached_property
    def clip_offsets(self) -> list[int]:
        """Index in clip_table of each video's first clip, then the clip count."""
        return list(accumulate((len(v.clips) for v in self.videos), initial=0))

    @cached_property
    def _row_bounds(self) -> np.ndarray:
        """First row in frame_table of each clip, then the row count."""
        return np.cumsum([0, *(c.frames.rows for c in self.clip_table)], dtype=np.intp)

    def _rows(self, first: Sequence[int], stop: Sequence[int]) -> RowRanges:
        """Rows of the clip spans [first, stop) of clip_table."""
        starts = self._row_bounds[first]
        return RowRanges(starts, self._row_bounds[stop] - starts)

    @cached_property
    def clip_rows(self) -> RowRanges:
        """Rows of each clip, in clip_table order."""
        return RowRanges(self._row_bounds[:-1], np.diff(self._row_bounds))

    @cached_property
    def phase_rows(self) -> RowRanges:
        """Rows of each phase segment, in phase_table order."""
        segments = [(first, seg) for first, v in zip(self.clip_offsets, self.videos)
                    for seg in v.phases]
        return self._rows([first + seg.start for first, seg in segments],
                          [first + seg.end for first, seg in segments])

    @cached_property
    def video_rows(self) -> RowRanges:
        """Rows of each video, in corpus order."""
        return self._rows(self.clip_offsets[:-1], self.clip_offsets[1:])

    def pair_counts(self) -> dict[str, int]:
        return {
            "clip": len(self.clip_table),
            "phase": len(self.phase_table),
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
        row = self._row_bounds[self.clip_offsets[cut]]
        return (
            _on_table(self.config, self.videos[:cut], self.frame_table[:row]),
            _on_table(self.config, self.videos[cut:], self.frame_table[row:]),
        )


def _on_table(config: GeneratorConfig, videos: tuple[LectureVideo, ...],
              table: np.ndarray) -> Corpus:
    """A corpus whose clips' frames are consecutive row views of `table`."""
    corpus = Corpus(config, videos)
    vars(corpus)["frame_table"] = table  # fills the cached property
    return corpus


def _noisy_tokens(rng: np.random.Generator, base: np.ndarray, rate: float,
                  vocab_size: int) -> tuple[int, ...]:
    corrupt = rng.random(base.size) < rate
    noise = rng.integers(0, vocab_size, base.size)
    return tuple(np.where(corrupt, noise, base).tolist())


def generate_synthetic(cfg: GeneratorConfig) -> Corpus:
    """Build a corpus with known latent phase structure, fully seed-determined."""
    rng = substream(cfg.seed, "generate")
    prototypes = rng.standard_normal((cfg.num_classes, cfg.d_in))
    table = np.empty((cfg.num_videos * cfg.num_classes * cfg.clips_per_phase
                      * cfg.frames_per_clip, cfg.d_in))
    clip_frames = iter(table.reshape(-1, cfg.frames_per_clip, cfg.d_in))  # in corpus order
    width = cfg.vocab_size // cfg.num_classes
    videos = []
    for vi in range(cfg.num_videos):
        order = rng.permutation(cfg.num_classes)
        clips: list[VideoClip] = []
        phases: list[PhaseSegment] = []
        for cls in order:
            lo, hi = cfg.class_block(int(cls))
            start = len(clips)
            for frames in islice(clip_frames, cfg.clips_per_phase):
                # prototype + noise_scale * N(0, 1), computed in place
                rng.standard_normal(out=frames)
                frames *= cfg.noise_scale
                frames += prototypes[cls]
                base = rng.integers(lo, hi, NARRATION_LEN)
                clips.append(VideoClip(
                    clip_id=f"v{vi:03d}c{len(clips):02d}",
                    frames=Matrix._wrap(frames),
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
        abstract = tuple((abstract_classes * width
                          + rng.integers(0, width, ABSTRACT_LEN)).tolist())
        videos.append(LectureVideo(
            video_id=f"v{vi:03d}",
            clips=tuple(clips),
            phases=tuple(phases),
            abstract=abstract,
        ))
    table.setflags(write=False)
    return _on_table(cfg, tuple(videos), table)


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


def _string(value, what: str) -> str:
    if type(value) is not str:
        raise CorpusFormatError(f"{what} must be a JSON string, got {value!r}")
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


def _video_from_record(rec: dict, config: GeneratorConfig, rows: np.ndarray) -> LectureVideo:
    """The video on one line; its frames are written to the first of `rows`."""
    raws = [_frame_bytes(c, config.d_in) for c in rec["clips"]]
    # One decode and one finiteness check per video; clips get row views.
    raw = b"".join(raws)
    values = rows[:len(raw) // (8 * config.d_in)]
    values[...] = np.frombuffer(raw, dtype="<f8").reshape(-1, config.d_in)
    ends = list(accumulate(len(r) // (8 * config.d_in) for r in raws))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        clip = rec["clips"][bisect_right(ends, bad)]
        raise CorpusFormatError(f"clip {clip['id']}: non-finite frame value")
    clips = tuple(
        VideoClip(
            clip_id=_string(c["id"], "clip id"),
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
        video_id=_string(rec["video_id"], "video id"),
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
    """Read a corpus file; every clip's frames become a row view of one table.

    Frames are base64 text in the file, so their bytes fill at most three
    quarters of it. The table is the start of one buffer of that size: it
    never moves, so each line's clips view their rows as soon as the line
    is checked, and pages past the last frame are never written.
    """
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
        frames = np.empty((os.fstat(f.fileno()).st_size * 3 // 4 // (8 * config.d_in),
                           config.d_in))
        row = 0
        # Ids name batch sources, and a batch must not repeat a source.
        seen_videos: set[str] = set()
        seen_clips: set[str] = set()
        for i, line in enumerate(f, start=2):
            rec = _parse_line(line, i)
            try:
                video = _video_from_record(rec, config, frames[row:])
                if video.video_id in seen_videos:
                    raise CorpusFormatError(f"duplicate video id {video.video_id!r}")
                seen_videos.add(video.video_id)
                for clip in video.clips:
                    if clip.clip_id in seen_clips:
                        raise CorpusFormatError(f"duplicate clip id {clip.clip_id!r}")
                    seen_clips.add(clip.clip_id)
            except (KeyError, TypeError, ValueError, CorpusFormatError) as e:
                raise CorpusFormatError(f"line {i}: bad video record: {e}") from e
            videos.append(video)
            row += sum(c.frames.rows for c in video.clips)
    table = frames[:row]
    table.setflags(write=False)
    return _on_table(config, tuple(videos), table)


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
# Batches: one column per field, one item per source. All items within a
# batch come from distinct sources.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Batch:
    level: ClassVar[str]
    source_ids: tuple[str, ...]
    frames: Sequence[Matrix]  # k sampled frames per item; sampled batches hold a FrameStack

    def __post_init__(self) -> None:
        if len(set(self.source_ids)) != len(self.source_ids):
            raise InsufficientDataError(f"{self.level} batch repeats a source")
        if any(len(getattr(self, f.name)) != len(self.source_ids) for f in fields(self)):
            raise ContractError(f"{self.level} batch columns differ in length")

    def __len__(self) -> int:
        return len(self.source_ids)


@dataclass(frozen=True)
class ClipBatch(_Batch):
    narration_a: tuple[tuple[int, ...], ...]
    narration_b: tuple[tuple[int, ...], ...]
    level = "clip"


@dataclass(frozen=True)
class PhaseBatch(_Batch):
    narrations: tuple[tuple[tuple[int, ...], ...], ...]  # every in-segment narration
    concept: tuple[tuple[int, ...], ...]
    level = "phase"


@dataclass(frozen=True)
class VideoBatch(_Batch):
    narrations: tuple[tuple[tuple[int, ...], ...], ...]  # evenly spread clip narrations
    abstract: tuple[tuple[int, ...], ...]
    level = "video"


def _draw(rng: np.random.Generator, n: int, b: int, level: str) -> np.ndarray:
    if b < 1:
        raise ConfigError(f"batch size must be >= 1, got {b}")
    if b > n:
        raise InsufficientDataError(
            f"{level} level: requested batch of {b} but only {n} sources available"
        )
    return rng.choice(n, size=b, replace=False)


def _frames(corpus: Corpus, ranges: RowRanges, drawn: np.ndarray, k: int) -> FrameStack:
    """k frames of each drawn source, picked from the corpus frame table."""
    return pick_frames(corpus.frame_table, ranges.starts[drawn], ranges.lengths[drawn], k)


def sample_clip_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                      k: int = 4) -> ClipBatch:
    table = corpus.clip_table
    drawn = _draw(rng, len(table), b, "clip")
    clips = [table[i] for i in drawn.tolist()]
    return ClipBatch(
        source_ids=tuple(c.clip_id for c in clips),
        frames=_frames(corpus, corpus.clip_rows, drawn, k),
        narration_a=tuple(c.narration_a for c in clips),
        narration_b=tuple(c.narration_b for c in clips),
    )


def sample_phase_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 8) -> PhaseBatch:
    table = corpus.phase_table
    drawn = _draw(rng, len(table), b, "phase")
    phases = [table[i] for i in drawn.tolist()]
    members = [video.clips[seg.start:seg.end] for video, _, seg in phases]
    return PhaseBatch(
        source_ids=tuple(f"{video.video_id}p{pi}" for video, pi, _ in phases),
        frames=_frames(corpus, corpus.phase_rows, drawn, k),
        narrations=tuple(tuple(c.narration_a for c in clips) for clips in members),
        concept=tuple(seg.concept for _, _, seg in phases),
    )


def _spread_narrations(clips: Sequence[VideoClip], k: int) -> tuple[tuple[int, ...], ...]:
    """At most k narrations, at clip indices floor(j*n/min(n, k))."""
    n = min(len(clips), k)
    return tuple(clips[j * len(clips) // n].narration_a for j in range(n))


def sample_video_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 32) -> VideoBatch:
    drawn = _draw(rng, len(corpus.videos), b, "video")
    videos = [corpus.videos[i] for i in drawn.tolist()]
    return VideoBatch(
        source_ids=tuple(v.video_id for v in videos),
        frames=_frames(corpus, corpus.video_rows, drawn, k),
        narrations=tuple(_spread_narrations(v.clips, k) for v in videos),
        abstract=tuple(v.abstract for v in videos),
    )
