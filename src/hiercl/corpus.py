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
from functools import cache, cached_property
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
    ShapeError,
    check_floats,
    check_ints,
)
from .numerics import Matrix
from .encoders import FrameStack, TokenSets, TokenStack, frame_rows
from .seeding import substream

SCHEMA = "hiercorpus/2"

NARRATION_LEN = 10
CONCEPT_LEN = 8
ABSTRACT_LEN = 24
# Concept texts are cleaner than narrations: fraction of the narration
# token-noise rate applied to them.
CONCEPT_NOISE_FACTOR = 0.25
# The kinds of text in a corpus, in token_table order.
TEXT_KINDS = ("narration_a", "narration_b", "concept", "abstract")


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
    """Runs of a table (frames, tokens or clips): each one's first row and row count."""

    starts: np.ndarray
    lengths: np.ndarray


class Level(NamedTuple):
    """The sources of one level (clip, phase or video), in table order."""

    ids: tuple[str, ...]
    clips: RowRanges  # runs of clip_table
    rows: RowRanges  # runs of frame_table


@dataclass(frozen=True)
class Corpus:
    config: GeneratorConfig
    videos: tuple[LectureVideo, ...]

    def __post_init__(self) -> None:
        for clip in self.clip_table:
            if clip.frames.cols != self.config.d_in:
                raise ShapeError(f"clip {clip.clip_id} has frames {clip.frames.cols} wide, "
                                 f"not the config's d_in={self.config.d_in}")

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

    def _texts_of(self, kind: str) -> list[tuple[int, ...]]:
        if kind == "concept":
            return [seg.concept for _, _, seg in self.phase_table]
        if kind == "abstract":
            return [v.abstract for v in self.videos]
        return [getattr(c, kind) for c in self.clip_table]

    @cached_property
    def token_runs(self) -> dict[str, RowRanges]:
        """Each kind's texts as runs of token_table, in source order."""
        texts = [self._texts_of(kind) for kind in TEXT_KINDS]
        lengths = np.fromiter(map(len, chain.from_iterable(texts)), dtype=np.intp,
                              count=sum(map(len, texts)))
        starts = np.cumsum(lengths) - lengths
        cuts = list(accumulate(map(len, texts)))[:-1]
        return {kind: RowRanges(s, n) for kind, s, n in
                zip(TEXT_KINDS, np.split(starts, cuts), np.split(lengths, cuts))}

    @cached_property
    def token_table(self) -> np.ndarray:
        """Every text's token ids, kind after kind of TEXT_KINDS: one read-only intp array.

        Built on first use, so generating, loading and splitting never pay for it.
        """
        texts = chain.from_iterable(map(self._texts_of, TEXT_KINDS))
        size = sum(int(runs.lengths.sum()) for runs in self.token_runs.values())
        table = np.fromiter(chain.from_iterable(texts), dtype=np.intp, count=size)
        table.setflags(write=False)
        return table

    def texts(self, kind: str, index=slice(None)) -> TokenStack:
        """The `kind` texts of the indexed sources, as runs of token_table; nothing gathered."""
        runs = self.token_runs[kind]
        return TokenStack(self.token_table, runs.starts[index], runs.lengths[index])

    @cached_property
    def levels(self) -> dict[str, Level]:
        """The sources of each level, as runs of clip_table and of frame_table.

        A clip is a run of one clip; a phase segment or a video, the run of its clips.
        """
        firsts = np.cumsum([0, *(len(v.clips) for v in self.videos)], dtype=np.intp)
        clips = {
            "clip": RowRanges(np.arange(firsts[-1], dtype=np.intp),
                              np.ones(firsts[-1], dtype=np.intp)),
            "phase": RowRanges(
                np.array([first + seg.start for first, v in zip(firsts.tolist(), self.videos)
                          for seg in v.phases], dtype=np.intp),
                np.array([seg.end - seg.start for _, _, seg in self.phase_table], dtype=np.intp)),
            "video": RowRanges(firsts[:-1], np.diff(firsts)),
        }
        ids = {"clip": tuple(c.clip_id for c in self.clip_table),
               "phase": tuple(f"{v.video_id}p{pi}" for v, pi, _ in self.phase_table),
               "video": tuple(v.video_id for v in self.videos)}
        bounds = np.cumsum([0, *(c.frames.rows for c in self.clip_table)], dtype=np.intp)
        levels = {}
        for level, runs in clips.items():
            rows = bounds[runs.starts]
            levels[level] = Level(ids[level], runs,
                                  RowRanges(rows, bounds[runs.starts + runs.lengths] - rows))
        return levels

    @cached_property
    def _frame_rows(self) -> dict[tuple[str, int], np.ndarray]:
        return {}  # (level, k): read-only `frame_rows` of all the level's sources

    def frames_of(self, level: str, sources: np.ndarray, k: int) -> FrameStack:
        """k frames of each given source of a level, at rows built once per k: one gather."""
        rows = self._frame_rows.get((level, k))
        if rows is None:
            rows = self._frame_rows[level, k] = frame_rows(*self.levels[level].rows, k)
            rows.flags.writeable = False
        return FrameStack.at(self.frame_table, rows[sources])

    def pair_counts(self) -> dict[str, int]:
        # Table lengths, so `generate` and the capacity check build no level index.
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
        row = sum(c.frames.rows for v in self.videos[:cut] for c in v.clips)
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


def _replay_video(rng: np.random.Generator, cfg: GeneratorConfig, vi: int,
                  frames: np.ndarray) -> LectureVideo:
    """Video `vi` drawn one rng call per draw; its N(0, 1) frames go to `frames`.

    The draws and their order are those that `_decoded_video` decodes from raw words.
    """
    order = rng.permutation(cfg.num_classes)
    width = cfg.vocab_size // cfg.num_classes
    clip_frames = iter(frames)
    clips: list[VideoClip] = []
    phases: list[PhaseSegment] = []
    for cls in order:
        lo, hi = cfg.class_block(int(cls))
        start = len(clips)
        for rows in islice(clip_frames, cfg.clips_per_phase):
            rng.standard_normal(out=rows)
            base = rng.integers(lo, hi, NARRATION_LEN)
            clips.append(VideoClip(
                clip_id=f"v{vi:03d}c{len(clips):02d}",
                frames=Matrix._wrap(rows),
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
    return LectureVideo(video_id=f"v{vi:03d}", clips=tuple(clips), phases=tuple(phases),
                        abstract=abstract)


# A video's text draws, decoded from raw PCG64 words. On PCG64, `random()` is
# (w >> 11) * 2**-53 of one word w, and `integers(lo, lo + r)` with 2 <= r <= 2**32
# is Lemire's lo + ((u * r) >> 32) of one 32-bit half-word u: the words' halves,
# low half first, carried from call to call by the generator's half-word buffer.
# Lemire redraws u when (u * r) mod 2**32 < (2**32 - r) mod r.
_HALF = 0xFFFFFFFF


class _RawTexts(NamedTuple):
    """Where one config's text draws fall in a video's raw words."""

    width: int  # of a class block
    counts: tuple[int, ...]  # raw words drawn after each clip's frames
    is_id: np.ndarray  # per word: two id half-words (else one uniform)
    ranges: np.ndarray  # per id half-word: its integers() range, uint64
    thresholds: np.ndarray  # per id half-word: Lemire's rejection bound
    rates: np.ndarray  # per uniform: the token-noise rate it is compared with

    @classmethod
    def of(cls, cfg: GeneratorConfig) -> "_RawTexts | None":
        """The layout, or None if a range is 1 (no draw) or above 2**32 (64-bit Lemire)."""
        width, vocab, rate = cfg.vocab_size // cfg.num_classes, cfg.vocab_size, cfg.token_noise
        if not all(2 <= r <= 1 << 32 for r in (width, vocab, cfg.num_classes)):
            return None
        # Each draw as (integers() range, or None for random(); count; random()'s rate).
        n = NARRATION_LEN
        clip = [(width, n, None), (None, n, rate), (vocab, n, None), (None, n, rate),
                (vocab, n, None)]
        phase = [(width, CONCEPT_LEN, None), (None, CONCEPT_LEN, rate * CONCEPT_NOISE_FACTOR),
                 (vocab, CONCEPT_LEN, None)]
        video = [(cfg.num_classes, ABSTRACT_LEN, None), (width, ABSTRACT_LEN, None)]

        def words(draws):  # every count is even, so an id draw leaves the buffer as it was
            return [count if r is None else count // 2 for r, count, _ in draws]

        # The last clip of a segment also draws its concept; the video's last, its abstract.
        counts = [sum(words(clip))] * cfg.clips_per_phase
        counts[-1] += sum(words(phase))
        counts *= cfg.num_classes
        counts[-1] += sum(words(video))
        draws = [*clip * cfg.clips_per_phase, *phase] * cfg.num_classes + video
        ids = [(r, count) for r, count, _ in draws if r is not None]
        uniforms = [(p, count) for r, count, p in draws if r is None]
        ranges = np.repeat(np.array([r for r, _ in ids], dtype=np.uint64),
                           [count for _, count in ids])
        return cls(
            width=width,
            counts=tuple(counts),
            is_id=np.repeat([r is not None for r, _, _ in draws], words(draws)),
            ranges=ranges,
            thresholds=((1 << 32) - ranges) % ranges,
            rates=np.repeat([p for p, _ in uniforms], [count for _, count in uniforms]),
        )


def _decoded_video(rng: np.random.Generator, cfg: GeneratorConfig, raw: _RawTexts, vi: int,
                   frames: np.ndarray) -> LectureVideo | None:
    """Video `vi` from one standard_normal and one random_raw per clip.

    Draws what `_replay_video` draws, in the same order, and leaves the
    generator in the same state. Returns None, with the generator back where
    it started, if an id draw meets a Lemire rejection.
    """
    bits = rng.bit_generator
    start = bits.state
    order = rng.permutation(cfg.num_classes)
    carry = bits.state  # permutation draws half-words, so the buffer varies
    chunks = []
    for rows, n in zip(frames, raw.counts):
        rng.standard_normal(out=rows)
        chunks.append(bits.random_raw(n))
    words = np.concatenate(chunks)
    id_words = words[raw.is_id]
    halves = np.empty(2 * id_words.size + 1, dtype=np.uint64)
    halves[0] = carry["uinteger"]
    halves[1::2] = id_words & _HALF
    halves[2::2] = id_words >> 32
    buffered = carry["has_uint32"]
    scaled = halves[1 - buffered:halves.size - buffered] * raw.ranges
    if ((scaled & _HALF) < raw.thresholds).any():
        bits.state = start
        return None
    # random_raw bypasses the half-word buffer: leave it as the draws would.
    end = bits.state
    end["has_uint32"], end["uinteger"] = buffered, int(halves[-1])
    bits.state = end

    ids = (scaled >> 32).astype(np.int64)
    corrupt = (words[~raw.is_id] >> 11) * 2.0 ** -53 < raw.rates
    # A segment's ids are each clip's base, noise-a and noise-b ids, then its concept's
    # base and noise ids; its uniforms are each clip's a and b ones, then its concept's.
    num_classes, per_phase, width = cfg.num_classes, cfg.clips_per_phase, raw.width
    segment_ids = ids[:-2 * ABSTRACT_LEN].reshape(num_classes, -1)
    segment_corrupt = corrupt.reshape(num_classes, -1)
    clip_ids, concept_ids = np.split(segment_ids, [3 * per_phase * NARRATION_LEN], axis=1)
    clip_corrupt, concept_corrupt = np.split(segment_corrupt, [2 * per_phase * NARRATION_LEN],
                                             axis=1)
    clip_ids = clip_ids.reshape(num_classes, per_phase, 3, NARRATION_LEN)
    concept_ids = concept_ids.reshape(num_classes, 2, CONCEPT_LEN)
    low = order * width  # where each segment's class block starts
    narrations = np.where(clip_corrupt.reshape(num_classes, per_phase, 2, NARRATION_LEN),
                          clip_ids[:, :, 1:], clip_ids[:, :, :1] + low[:, None, None, None])
    concepts = np.where(concept_corrupt, concept_ids[:, 1], concept_ids[:, 0] + low[:, None])
    abstract_classes, abstract_ids = ids[-2 * ABSTRACT_LEN:].reshape(2, ABSTRACT_LEN)
    abstract = abstract_classes * width + abstract_ids

    video_id = f"v{vi:03d}"
    clips = tuple(
        VideoClip(clip_id=f"{video_id}c{ci:02d}", frames=Matrix._wrap(rows),
                  narration_a=tuple(a), narration_b=tuple(b))
        for ci, (rows, (a, b)) in enumerate(zip(frames, narrations.reshape(
            -1, 2, NARRATION_LEN).tolist())))
    phases = tuple(
        PhaseSegment(start=p * per_phase, end=(p + 1) * per_phase, concept=tuple(concept),
                     phase_class=cls)
        for p, (concept, cls) in enumerate(zip(concepts.tolist(), order.tolist())))
    return LectureVideo(video_id=video_id, clips=clips, phases=phases,
                        abstract=tuple(abstract.tolist()))


def generate_synthetic(cfg: GeneratorConfig) -> Corpus:
    """Build a corpus with known latent phase structure, fully seed-determined.

    Each video is decoded from raw generator words (`_decoded_video`); one
    that meets a rejection, or a config with a range the decode does not
    cover, is drawn call by call (`_replay_video`). Both yield the same bytes.
    """
    rng = substream(cfg.seed, "generate")
    prototypes = rng.standard_normal((cfg.num_classes, cfg.d_in))
    clips_per_video = cfg.num_classes * cfg.clips_per_phase
    table = np.empty((cfg.num_videos * clips_per_video * cfg.frames_per_clip, cfg.d_in))
    clip_frames = table.reshape(-1, cfg.frames_per_clip, cfg.d_in)  # in corpus order
    raw = _RawTexts.of(cfg)
    videos = []
    for vi in range(cfg.num_videos):
        frames = clip_frames[vi * clips_per_video:(vi + 1) * clips_per_video]
        video = raw and _decoded_video(rng, cfg, raw, vi, frames)
        videos.append(video or _replay_video(rng, cfg, vi, frames))
    # prototype + noise_scale * N(0, 1), in place over the whole table
    table *= cfg.noise_scale
    classes = [seg.phase_class for v in videos for seg in v.phases]
    table.reshape(len(classes), -1, cfg.d_in)[...] += prototypes[classes][:, None]
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
_fields = cache(fields)  # a batch class's columns, looked up once per class


@dataclass(frozen=True)
class _Batch:
    level: ClassVar[str]
    source_ids: tuple[str, ...]
    frames: Sequence[Matrix]  # k sampled frames per item; sampled batches hold a FrameStack

    def __post_init__(self) -> None:
        if len(set(self.source_ids)) != len(self.source_ids):
            raise InsufficientDataError(f"{self.level} batch repeats a source")
        if len({len(getattr(self, f.name)) for f in _fields(type(self))}) > 1:
            raise ContractError(f"{self.level} batch columns differ in length")

    def __len__(self) -> int:
        return len(self.source_ids)


# Sampled batches hold their texts as runs of the corpus token table (a
# TokenStack, or TokenSets for narration sets); hand-built ones may hold tuples.


@dataclass(frozen=True)
class ClipBatch(_Batch):
    narration_a: Sequence[tuple[int, ...]]
    narration_b: Sequence[tuple[int, ...]]
    level = "clip"


@dataclass(frozen=True)
class CoarseBatch(_Batch):
    """A phase or video batch: each item's narrations and its summary text."""

    narrations: Sequence[tuple[tuple[int, ...], ...]]
    summary: Sequence[tuple[int, ...]]  # a phase's concept or a video's abstract


class PhaseBatch(CoarseBatch):
    level = "phase"  # narrations: every in-segment narration


class VideoBatch(CoarseBatch):
    level = "video"  # narrations: at most k evenly spread clip narrations


def _draw(corpus: Corpus, level: str, b: int,
          rng: np.random.Generator) -> tuple[np.ndarray, tuple[str, ...]]:
    """Indices of b distinct sources of a level, and their ids."""
    ids = corpus.levels[level].ids
    if b < 1:
        raise ConfigError(f"batch size must be >= 1, got {b}")
    if b > len(ids):
        raise InsufficientDataError(
            f"{level} level: requested batch of {b} but only {len(ids)} sources available"
        )
    drawn = rng.choice(len(ids), size=b, replace=False)
    return drawn, tuple(map(ids.__getitem__, drawn.tolist()))


def sample_clip_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                      k: int = 4) -> ClipBatch:
    drawn, ids = _draw(corpus, "clip", b, rng)
    return ClipBatch(
        source_ids=ids,
        frames=corpus.frames_of("clip", drawn, k),
        narration_a=corpus.texts("narration_a", drawn),
        narration_b=corpus.texts("narration_b", drawn),
    )


def sample_phase_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 8) -> PhaseBatch:
    """Every member narration of each drawn phase segment."""
    drawn, ids = _draw(corpus, "phase", b, rng)
    clips = RowRanges(*(column[drawn] for column in corpus.levels["phase"].clips))
    return PhaseBatch(
        source_ids=ids,
        frames=corpus.frames_of("phase", drawn, k),
        narrations=TokenSets.spread(corpus.texts("narration_a"), *clips, clips.lengths),
        summary=corpus.texts("concept", drawn),
    )


def sample_video_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 32) -> VideoBatch:
    """At most k narrations of each drawn video, at clip indices floor(j*n/min(n, k))."""
    drawn, ids = _draw(corpus, "video", b, rng)
    clips = RowRanges(*(column[drawn] for column in corpus.levels["video"].clips))
    return VideoBatch(
        source_ids=ids,
        frames=corpus.frames_of("video", drawn, k),
        narrations=TokenSets.spread(corpus.texts("narration_a"), *clips,
                                    np.minimum(clips.lengths, k)),
        summary=corpus.texts("abstract", drawn),
    )
