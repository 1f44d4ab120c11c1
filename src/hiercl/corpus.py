"""Hierarchical video-text corpus: its tables, synthetic generator, I/O, batches.

A lecture video is an ordered sequence of clips. Each clip carries frame
features plus two transcript variants of the same narration (as if two
speech recognizers transcribed the same audio). Contiguous clip ranges are
grouped into phase segments, each paired with a concept text and a latent
class label used only for evaluation. Every video also has one abstract
text.

A `Corpus` is tables: one of frames, one of token ids, and the counts,
segments and ids that cut them into clips, phases and videos. Generating,
loading and splitting fill or slice the tables and build no per-clip
object. `VideoClip`, `PhaseSegment` and `LectureVideo` are one video's
records, which `Corpus.videos` reads from the tables.

The synthetic generator gives each phase class a frame-prototype vector
and a private block of the token vocabulary; frames are noisy copies of
the prototype and texts are (noisy) draws from the block, so corpora have
a known latent structure that zero-shot evaluation can measure against.
"""
from __future__ import annotations

import binascii
import json
import os
import stat
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from hashlib import file_digest
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from typing import IO, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    CorpusFormatError,
    InsufficientDataError,
    SchemaVersionError,
    check_array_bytes,
    check_floats,
    check_ints,
)
from .encoders import FrameStack, TokenSets, TokenStack, frame_rows
from .seeding import substream

SCHEMA = "hiercorpus/3"

NARRATION_LEN = 10
CONCEPT_LEN = 8
ABSTRACT_LEN = 24
# Concept texts are cleaner than narrations: fraction of the narration
# token-noise rate applied to them.
CONCEPT_NOISE_FACTOR = 0.25
# The kinds of text in a corpus, in token_table order.
TEXT_KINDS = ("narration_a", "narration_b", "concept", "abstract")
# A frame is noise_scale * z + p, z and p drawn by standard_normal, whose ziggurat tail
# (from r = 3.654, 53-bit doubles) stays below r + sqrt(106 ln 2) = 12.23: none overflows.
_NOISE_MAX = float(np.finfo(np.float64).max) / 16
_VOCAB_MAX = 1 << 63  # token ids are int64, so there are at most 2**63 of them


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
        if self.noise_scale > _NOISE_MAX:
            raise ConfigError(f"noise_scale must be <= {_NOISE_MAX}, got {self.noise_scale}")
        if self.vocab_size > _VOCAB_MAX:
            raise ConfigError(f"vocab_size must be <= 2**63, got {self.vocab_size}")
        if not self.token_noise < 1.0:
            raise ConfigError(f"token_noise must lie in [0, 1), got {self.token_noise}")
        if self.num_classes > self.vocab_size:
            raise ConfigError(
                f"{self.num_classes} classes need {self.num_classes} vocabulary blocks, "
                f"but vocab_size is only {self.vocab_size}"
            )
        if (end := self.class_block(self.num_classes - 1)[1]) >= _VOCAB_MAX:
            raise ConfigError(f"{self.num_classes} class blocks of vocab_size {self.vocab_size} "
                              f"would end at {end}, past the largest int64 token id")
        # The tables `generate_synthetic` shapes, of 8-byte values: frames, every text's
        # token ids, and one video's id draws (those of each clip, each segment and the video).
        clips = self.num_classes * self.clips_per_phase  # per video
        for what, values in (
                ("the frame table", self.num_videos * clips * self.frames_per_clip * self.d_in),
                ("the token table", self.num_videos * (
                    clips * 2 * NARRATION_LEN + self.num_classes * CONCEPT_LEN + ABSTRACT_LEN)),
                ("a video's id draws", sum(
                    times * sum(count for r, count, _ in draws if r is not None)
                    for times, draws in zip((clips, self.num_classes, 1), _text_draws(self))))):
            check_array_bytes(f"{what} of this config", 8 * values)

    def class_block(self, cls: int) -> tuple[int, int]:
        """Half-open token id range owned by a class (or by each of an array of classes)."""
        width = self.vocab_size // self.num_classes
        return cls * width, (cls + 1) * width


def _text_draws(cfg: GeneratorConfig) -> tuple[tuple, tuple, tuple]:
    """A video's text draws, each as (integers() range, or None for random(); count;
    random()'s rate): a clip's, after its frames; a segment's concept, after its last
    clip's; the video's abstract, its classes then their offsets, after its last clip's."""
    width, vocab, rate, n = (cfg.vocab_size // cfg.num_classes, cfg.vocab_size,
                             cfg.token_noise, NARRATION_LEN)
    return (((width, n, None), (None, n, rate), (vocab, n, None), (None, n, rate),
             (vocab, n, None)),
            ((width, CONCEPT_LEN, None), (None, CONCEPT_LEN, rate * CONCEPT_NOISE_FACTOR),
             (vocab, CONCEPT_LEN, None)),
            ((cfg.num_classes, ABSTRACT_LEN, None), (width, ABSTRACT_LEN, None)))


# The records of one video, as `Corpus.videos` reads them; they check nothing themselves.


@dataclass(frozen=True)
class VideoClip:
    clip_id: str
    frames: FrameStack  # one segment: the clip's rows of frame_table
    narration_a: tuple[int, ...]
    narration_b: tuple[int, ...]


@dataclass(frozen=True)
class PhaseSegment:
    start: int  # first clip, counted within the video
    end: int
    concept: tuple[int, ...]
    phase_class: int


@dataclass(frozen=True)
class LectureVideo:
    video_id: str
    clips: tuple[VideoClip, ...]
    phases: tuple[PhaseSegment, ...]
    abstract: tuple[int, ...]


class RowRanges(NamedTuple):
    """Runs of a table (frames, tokens or clips): each one's first row and row count."""

    starts: np.ndarray
    lengths: np.ndarray


def _token_runs(lengths: Sequence[np.ndarray]) -> dict[str, RowRanges]:
    """Runs of texts laid out kind after kind of TEXT_KINDS, from each kind's text lengths."""
    flat = np.concatenate(lengths)
    starts = np.cumsum(flat) - flat
    cuts = np.cumsum([len(n) for n in lengths[:-1]])
    return {kind: RowRanges(s, n) for kind, s, n in
            zip(TEXT_KINDS, np.split(starts, cuts), lengths)}


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus as tables, every row in corpus order; arrays are read-only intp or float64.

    `generate_synthetic`, `load_corpus` and `split` fill or slice them.
    """

    config: GeneratorConfig
    video_ids: tuple[str, ...]
    clip_ids: tuple[str, ...]
    video_clips: np.ndarray  # per video: its clip count
    clip_rows: np.ndarray  # per clip: its frame_table row count
    segments: np.ndarray  # per phase segment: first clip, end clip (corpus clip indices), class
    frame_table: np.ndarray  # every clip's frames: rows x d_in
    token_table: np.ndarray  # every text's token ids, kind after kind of TEXT_KINDS
    token_runs: dict[str, RowRanges]  # each kind's texts as consecutive runs of token_table

    def __post_init__(self) -> None:
        for array in (self.video_clips, self.clip_rows, self.segments, self.frame_table,
                      self.token_table, *chain.from_iterable(self.token_runs.values())):
            array.setflags(write=False)

    @property
    def videos(self) -> tuple[LectureVideo, ...]:
        """Every video as records, built from the tables on each read; frames are table rows."""
        tokens = self.token_table.tolist()
        a, b, concepts, abstracts = ([tuple(tokens[s:s + n]) for s, n in zip(
            *map(np.ndarray.tolist, runs))] for runs in map(self.token_runs.get, TEXT_KINDS))
        rows = self.clip_rows.tolist()
        # One lengths array per row count, shared: a view per clip would cost 0.1 KB each.
        lengths = {n: np.full(1, n, dtype=np.intp) for n in set(rows)}
        frames = map(FrameStack, np.split(self.frame_table, np.cumsum(self.clip_rows)[:-1]),
                     map(lengths.get, rows))
        clips = list(map(VideoClip, self.clip_ids, frames, a, b))
        firsts = list(accumulate(self.video_clips.tolist(), initial=0))
        cuts = np.searchsorted(self.segments[:, 0], firsts).tolist()
        phases = list(zip(self.segments.tolist(), concepts))
        return tuple(
            LectureVideo(video_id, tuple(clips[lo:hi]),
                         tuple(PhaseSegment(start - lo, end - lo, concept, cls)
                               for (start, end, cls), concept in phases[s0:s1]), abstract)
            for video_id, lo, hi, s0, s1, abstract in zip(
                self.video_ids, firsts, firsts[1:], cuts, cuts[1:], abstracts))

    def texts(self, kind: str, index=slice(None)) -> TokenStack:
        """The `kind` texts of the indexed sources, as runs of token_table; nothing gathered."""
        runs = self.token_runs[kind]
        return TokenStack(self.token_table, runs.starts[index], runs.lengths[index])

    @cached_property
    def levels(self) -> dict[str, RowRanges]:
        """Each level's sources as runs of clips, in table order: a clip is a run of one
        clip; a phase segment or a video, the run of its clips."""
        starts, ends, _ = self.segments.T
        return {"clip": RowRanges(np.arange(len(self.clip_ids), dtype=np.intp),
                                  np.ones_like(self.clip_rows)),
                "phase": RowRanges(starts, ends - starts),
                "video": RowRanges(np.cumsum(self.video_clips) - self.video_clips,
                                   self.video_clips)}

    @cached_property
    def _frame_rows(self) -> dict[tuple[str, int], np.ndarray]:
        return {}  # (level, k): read-only `frame_rows` of all the level's sources

    def frames_of(self, level: str, sources: np.ndarray, k: int) -> FrameStack:
        """k frames of each given source of a level, at rows built once per k: one gather."""
        rows = self._frame_rows.get((level, k))
        if rows is None:  # the frame rows of the level's clip runs
            first, count = self.levels[level]
            bounds = np.append(0, np.cumsum(self.clip_rows))  # each clip's first row, then the end
            rows = self._frame_rows[level, k] = frame_rows(
                bounds[first], bounds[first + count] - bounds[first], k)
            rows.flags.writeable = False
        return FrameStack.at(self.frame_table, rows[sources])

    def pair_counts(self) -> dict[str, int]:
        return {level: len(runs.starts) for level, runs in self.levels.items()}

    def split(self, holdout_fraction: float) -> tuple["Corpus", "Corpus"]:
        """Deterministic train/holdout split: the last fraction of videos.

        Videos are generated i.i.d., so position carries no information and
        no extra randomness is needed. Both halves slice this corpus's tables
        and share its token table.
        """
        if not 0.0 < holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction must lie in (0, 1), got {holdout_fraction}")
        count = len(self.video_ids)
        n_hold = max(1, int(round(count * holdout_fraction)))
        if n_hold >= count:
            raise InsufficientDataError(f"cannot hold out {n_hold} of {count} videos")
        video = count - n_hold
        clip = int(self.video_clips[:video].sum())
        cuts = (video, clip, np.searchsorted(self.segments[:, 0], clip),
                self.clip_rows[:clip].sum())  # in videos, clips, segments and frame rows
        return (self._slice(*(slice(cut) for cut in cuts)),
                self._slice(*(slice(cut, None) for cut in cuts)))

    def _slice(self, videos: slice, clips: slice, segments: slice, rows: slice) -> "Corpus":
        """The corpus of a run of whole videos, given as slices of each table."""
        first = clips.start or 0
        cuts = dict(zip(TEXT_KINDS, (clips, clips, segments, videos)))  # each kind's sources
        return Corpus(self.config, self.video_ids[videos], self.clip_ids[clips],
                      self.video_clips[videos], self.clip_rows[clips],
                      self.segments[segments] - np.array([first, first, 0], dtype=np.intp),
                      self.frame_table[rows], self.token_table,
                      {kind: RowRanges(runs.starts[cuts[kind]], runs.lengths[cuts[kind]])
                       for kind, runs in self.token_runs.items()})


# On PCG64, `random()` is (w >> 11) * 2**-53 of one raw word w, and `integers(0, r)`
# with 2 <= r <= 2**32 is Lemire's (u * r) >> 32 of one 32-bit half-word u: the words'
# halves, low half first, carried from call to call by the generator's half-word buffer.
# Lemire redraws u when (u * r) mod 2**32 < (2**32 - r) mod r.
_HALF = 0xFFFFFFFF
_DECODE_BYTES = 1 << 17  # bound on the ids and uniforms of a block of videos


class _Layout(NamedTuple):
    """One config's text draws, in the order a video makes them after its class order.

    A video's id draws, each an offset in [0, range), and its uniforms fill one
    row each of a block, in this order, whichever path draws them.
    """

    draws: tuple  # per clip: the `_text_draws` it makes after its frames
    ranges: np.ndarray  # per id: its integers() range, uint64
    thresholds: np.ndarray  # per id: Lemire's rejection bound
    rates: np.ndarray  # per uniform: the token-noise rate it is compared with
    counts: tuple[int, ...] | None  # raw words drawn after each clip's frames, or None
    is_id: np.ndarray | None  # per raw word: two id half-words (else one uniform)

    @classmethod
    def of(cls, cfg: GeneratorConfig) -> "_Layout":
        """The layout; raw words only if every range drawn lies in [2, 2**32]: a range of 1
        draws nothing, and one above 2**32 draws 64-bit Lemire words."""
        clip, concept, abstract = _text_draws(cfg)
        # The last clip of a segment also draws its concept; the video's last, its abstract.
        draws = ([clip] * (cfg.clips_per_phase - 1) + [clip + concept]) * cfg.num_classes
        draws[-1] += abstract
        flat = list(chain.from_iterable(draws))
        ids = [(r, count) for r, count, _ in flat if r is not None]
        uniforms = [(p, count) for r, count, p in flat if r is None]
        ranges = np.repeat(np.array([r for r, _ in ids], dtype=np.uint64),
                           [count for _, count in ids])
        counts = is_id = None
        if all(2 <= r <= 1 << 32 for r, _ in ids):
            # Every count is even, so an id draw leaves the half-word buffer as it was.
            words = [[count if r is None else count // 2 for r, count, _ in d] for d in draws]
            counts = tuple(map(sum, words))
            is_id = np.repeat([r is not None for r, _, _ in flat], list(chain(*words)))
        return cls(
            draws=tuple(draws),
            ranges=ranges,
            thresholds=((1 << 32) - ranges) % ranges,
            rates=np.repeat([p for p, _ in uniforms], [count for _, count in uniforms]),
            counts=counts,
            is_id=is_id,
        )


def _replay_video(rng: np.random.Generator, layout: _Layout, vi: int, frames: np.ndarray,
                  ids: np.ndarray, uniforms: np.ndarray) -> None:
    """Video `vi` drawn one rng call per draw: frames into its rows of `frames` (the frame
    table by video, clip and frame), ids and uniforms into its rows of a block.

    `integers(lo, lo + r)` is lo + `integers(0, r)` and consumes the same words, so
    these are the draws that `_drawn_words` takes as raw words.
    """
    i = u = 0
    for rows, draws in zip(frames[vi], layout.draws):
        rng.standard_normal(out=rows)
        for r, count, _ in draws:
            if r is None:
                rng.random(out=uniforms[u:u + count])
                u += count
            else:
                ids[i:i + count] = rng.integers(0, r, count)
                i += count


def _drawn_words(rng: np.random.Generator, layout: _Layout, vi: int, frames: np.ndarray,
                 ids: np.ndarray, uniforms: np.ndarray) -> bool:
    """Video `vi` from one standard_normal and one random_raw per clip: the fast path.

    Draws what `_replay_video` draws, in the same order, writes the same ids and
    uniforms, and leaves the generator in the same state. Returns False, with the
    generator back where it started, if an id draw meets a Lemire rejection.
    """
    bits = rng.bit_generator
    start = bits.state  # the class order draws half-words, so the buffer varies
    chunks = []
    for rows, n in zip(frames[vi], layout.counts):
        rng.standard_normal(out=rows)
        chunks.append(bits.random_raw(n))
    words = np.concatenate(chunks)
    id_words = words[layout.is_id]
    halves = np.empty(2 * id_words.size + 1, dtype=np.uint64)
    halves[0] = start["uinteger"]
    halves[1::2] = id_words & _HALF
    halves[2::2] = id_words >> 32
    buffered = start["has_uint32"]
    scaled = halves[1 - buffered:halves.size - buffered] * layout.ranges
    if ((scaled & _HALF) < layout.thresholds).any():
        bits.state = start
        return False
    # random_raw bypasses the half-word buffer: leave it as the draws would.
    end = bits.state
    end["has_uint32"], end["uinteger"] = buffered, int(halves[-1])
    bits.state = end
    ids[:] = scaled >> 32
    uniforms[:] = (words[~layout.is_id] >> 11) * 2.0 ** -53
    return True


def _decode_block(cfg: GeneratorConfig, layout: _Layout, classes: np.ndarray, ids: np.ndarray,
                  uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The narrations, concepts and abstracts of a block of videos, the j-th's from its
    class order `classes[j]` and row j of `ids` and `uniforms`."""
    m, num_classes = classes.shape
    corrupt = uniforms < layout.rates
    # A segment's ids are each clip's base, noise-a and noise-b ids, then its concept's
    # base and noise ids; its uniforms are each clip's a and b ones, then its concept's.
    segment_ids = ids[:, :-2 * ABSTRACT_LEN].reshape(m, num_classes, -1)
    segment_corrupt = corrupt.reshape(m, num_classes, -1)
    clip_ids = segment_ids[..., :-2 * CONCEPT_LEN].reshape(m, num_classes, -1, 3, NARRATION_LEN)
    concept_ids = segment_ids[..., -2 * CONCEPT_LEN:].reshape(m, num_classes, 2, CONCEPT_LEN)
    clip_corrupt = segment_corrupt[..., :-CONCEPT_LEN].reshape(
        m, num_classes, -1, 2, NARRATION_LEN)
    low, _ = cfg.class_block(classes)  # where each segment's class block starts
    narrations = np.where(clip_corrupt, clip_ids[..., 1:, :],
                          clip_ids[..., :1, :] + low[..., None, None, None])
    concepts = np.where(segment_corrupt[..., -CONCEPT_LEN:], concept_ids[..., 1, :],
                        concept_ids[..., 0, :] + low[..., None])
    abstracts = ids[:, -2 * ABSTRACT_LEN:]  # classes, then offsets in their blocks
    return (narrations.reshape(m, -1, 2, NARRATION_LEN), concepts,
            cfg.class_block(abstracts[:, :ABSTRACT_LEN])[0] + abstracts[:, ABSTRACT_LEN:])


def generate_synthetic(cfg: GeneratorConfig) -> Corpus:
    """Build a corpus with known latent phase structure, fully seed-determined.

    Each video's class order is drawn, then its frames and text draws as raw words
    (`_drawn_words`); one that meets a rejection, or any of a config without raw
    words, is drawn call by call (`_replay_video`) before the next. Both write the
    same ids and uniforms into the video's row of a block, whose texts one mapping
    builds (`_decode_block`). Every value lands straight in the corpus's tables.
    """
    rng = substream(cfg.seed, "generate")
    prototypes = rng.standard_normal((cfg.num_classes, cfg.d_in))
    videos, per_video = cfg.num_videos, cfg.num_classes * cfg.clips_per_phase
    table = np.empty((videos * per_video * cfg.frames_per_clip, cfg.d_in))
    frames = table.reshape(videos, per_video, cfg.frames_per_clip, cfg.d_in)
    classes = np.empty((videos, cfg.num_classes), dtype=np.intp)  # each video's class order
    narrations = np.empty((videos, per_video, 2, NARRATION_LEN), dtype=np.intp)
    concepts = np.empty((videos, cfg.num_classes, CONCEPT_LEN), dtype=np.intp)
    abstracts = np.empty((videos, ABSTRACT_LEN), dtype=np.intp)
    layout = _Layout.of(cfg)
    size = max(1, _DECODE_BYTES // (8 * (layout.ranges.size + layout.rates.size)))
    ids = np.empty((min(videos, size), layout.ranges.size), dtype=np.int64)
    uniforms = np.empty((len(ids), layout.rates.size))
    for first in range(0, videos, len(ids)):
        m = min(len(ids), videos - first)  # videos in this block
        for j, vi in enumerate(range(first, first + m)):
            classes[vi] = rng.permutation(cfg.num_classes)
            if not (layout.counts and _drawn_words(rng, layout, vi, frames, ids[j], uniforms[j])):
                _replay_video(rng, layout, vi, frames, ids[j], uniforms[j])
        block = slice(first, first + m)
        narrations[block], concepts[block], abstracts[block] = _decode_block(
            cfg, layout, classes[block], ids[:m], uniforms[:m])
    del ids, uniforms  # not held through the whole-table passes, which set the peak
    # prototype + noise_scale * N(0, 1), in place over the whole table
    table *= cfg.noise_scale
    classes = classes.ravel()
    table.reshape(len(classes), -1, cfg.d_in)[...] += prototypes[classes][:, None]
    texts = (narrations[:, :, 0], narrations[:, :, 1], concepts, abstracts)
    starts = np.arange(len(classes), dtype=np.intp) * cfg.clips_per_phase
    video_ids = tuple(f"v{vi:03d}" for vi in range(videos))
    return Corpus(
        cfg, video_ids,
        tuple(f"{video_id}c{ci:02d}" for video_id in video_ids for ci in range(per_video)),
        np.full(videos, per_video, dtype=np.intp),
        np.full(videos * per_video, cfg.frames_per_clip, dtype=np.intp),
        np.column_stack([starts, starts + cfg.clips_per_phase, classes]),
        table, np.concatenate([t.ravel() for t in texts]),
        _token_runs([np.full(t[..., 0].size, t.shape[-1], dtype=np.intp) for t in texts]))


# ---------------------------------------------------------------------------
# Persistence: JSON Lines, one header record then one video per line. A clip
# record gives its frame row count and a text its token count; one base64
# payload per video holds what they count: its frame rows, row-major
# little-endian float64, clip after clip, then its token ids, little-endian
# int64, kind after kind of TEXT_KINDS, each kind in source order.
# ---------------------------------------------------------------------------


def _counts(what: str, counts: list) -> int:
    """The sum of `counts`, each of which must be an int (not a bool) of at least 1."""
    if not (set(map(type, counts)) <= {int} and min(counts, default=1) >= 1):
        bad = next(n for n in counts if type(n) is not int or n < 1)
        raise CorpusFormatError(f"{what} must be a positive integer, got {bad!r}")
    return sum(counts)


class _Tables:
    """A corpus's tables, filled one checked video line at a time by `load_corpus`."""

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        # Lists of the Corpus fields of the same names.
        self.video_ids, self.clip_ids, self.video_clips, self.clip_rows, self.segments = (
            [], [], [], [], [])
        self.texts = {kind: ([], []) for kind in TEXT_KINDS}  # each kind's id arrays and lengths
        # Each id names one video or clip, in the file and in `Corpus.videos`.
        self.seen_videos, self.seen_clips = set(), set()

    def add(self, rec: dict, out: np.ndarray) -> int:
        """Check one video's record and append it; the bytes of frame rows it keeps.

        Its payload is decoded into the start of `out`, a uint8 buffer, where its
        frame rows stay. Checked in order: the keys, the row counts, the token
        counts kind by kind, the payload's base64 and byte count, the ids, the
        frame values, the segments and classes, and last the token ids, in one pass.
        """
        d_in, vocab = self.config.d_in, self.config.vocab_size
        video_id, clips, phases = rec["video_id"], rec["clips"], rec["phases"]
        clip_ids = [c["id"] for c in clips]
        rows = [c["rows"] for c in clips]
        lengths = ([c["narration_a"] for c in clips], [c["narration_b"] for c in clips],
                   [p["concept"] for p in phases], [rec["abstract"]])
        bounds = [(p["start"], p["end"], p["class"]) for p in phases]
        frame_bytes = 8 * d_in * _counts(f"video {video_id}: a clip's frame row count", rows)
        totals = [_counts(f"video {video_id}: a {kind} text's token count", n)
                  for kind, n in zip(TEXT_KINDS, lengths)]
        size = _decode_payload(rec["payload"], out)
        if size != frame_bytes + 8 * sum(totals):
            raise CorpusFormatError(
                f"payload holds {size} bytes, not {frame_bytes} frame bytes ({sum(rows)} rows "
                f"at d_in={d_in}) and {8 * sum(totals)} of {sum(totals)} token ids")
        for source_id, level, seen in [(video_id, "video", self.seen_videos),
                                       *((c, "clip", self.seen_clips) for c in clip_ids)]:
            if type(source_id) is not str:
                raise CorpusFormatError(f"{level} id must be a JSON string, got {source_id!r}")
            if source_id in seen:
                raise CorpusFormatError(f"duplicate {level} id {source_id!r}")
            seen.add(source_id)
        if not clip_ids:
            raise CorpusFormatError(f"video {video_id} has no clips")
        frames = out[:frame_bytes].view("<f8").reshape(-1, d_in)
        if not np.logical_and.reduce(np.isfinite(frames), axis=None):
            finite = np.isfinite(frames).all(axis=1)
            clip_id = clip_ids[bisect_right(list(accumulate(rows)), int(np.argmin(finite)))]
            raise CorpusFormatError(f"clip {clip_id}: non-finite frame value")
        first, prev_end, segments = len(self.clip_ids), 0, []
        for start, end, cls in bounds:
            if not (type(start) is type(end) is int and prev_end <= start < end <= len(clip_ids)):
                raise CorpusFormatError(f"video {video_id}: segment [{start!r}, {end!r}) is not "
                                        "a run of its clips after the one before")
            if type(cls) is not int or not 0 <= cls < self.config.num_classes:
                raise CorpusFormatError(f"phase class must be an integer in "
                                        f"[0, {self.config.num_classes}), got {cls!r}")
            segments.append((first + start, first + end, cls))
            prev_end = end
        ids = out[frame_bytes:size].view("<i8").astype(np.intp)
        above = ids.view(np.uint64)  # a negative id reads as one above 2**63 - 1
        if np.maximum.reduce(above) >= vocab:
            bad = ids[np.argmax(above >= vocab)]
            raise CorpusFormatError(f"token {bad} is not an integer id in [0, {vocab})")
        ends = list(accumulate(totals, initial=0))
        for k, (kind_ids, kind_lengths) in enumerate(self.texts.values()):
            kind_ids.append(ids[ends[k]:ends[k + 1]])
            kind_lengths += lengths[k]
        self.video_ids.append(video_id)
        self.clip_ids += clip_ids
        self.video_clips.append(len(clip_ids))
        self.clip_rows += rows
        self.segments += segments
        return frame_bytes

    def corpus(self, frame_table: np.ndarray) -> Corpus:
        """The corpus of every video added, whose frames are the rows of `frame_table`."""
        return Corpus(
            self.config, tuple(self.video_ids), tuple(self.clip_ids),
            np.array(self.video_clips, dtype=np.intp), np.array(self.clip_rows, dtype=np.intp),
            np.array(self.segments, dtype=np.intp).reshape(-1, 3),
            frame_table.astype(np.float64, copy=False),  # a copy only on a big-endian host
            np.concatenate([ids for kind_ids, _ in self.texts.values() for ids in kind_ids]
                           or [np.empty(0, np.intp)]),
            _token_runs([np.array(lengths, dtype=np.intp) for _, lengths in self.texts.values()]))


def _video_lines(corpus: Corpus) -> Iterator[str]:
    """Each video's line in the bytes `json.dumps` gives its record, formatted from the tables.

    Ids take the escaper `json.dumps` uses, counts are ints, and the payload,
    base64 of one join of table slices, needs no escape. Each kind's runs are
    consecutive in the token table, so a video's texts of a kind are one slice.
    """
    frames = np.ascontiguousarray(corpus.frame_table, "<f8")  # no copy on a little-endian host
    tokens = np.ascontiguousarray(corpus.token_table, "<i8")  # nor where intp is int64
    lengths = [corpus.token_runs[kind].lengths.tolist() for kind in TEXT_KINDS]
    # Each text's first token, and after the last, the kind's end.
    bounds = [list(accumulate(n, initial=int(corpus.token_runs[kind].starts[:1].sum())))
              for kind, n in zip(TEXT_KINDS, lengths)]
    # Each clip's first frame row and each video's first clip, then the ends.
    rows, firsts = (list(accumulate(n.tolist(), initial=0))
                    for n in (corpus.clip_rows, corpus.video_clips))
    cuts = np.searchsorted(corpus.segments[:, 0], firsts).tolist()
    segments = corpus.segments.tolist()
    la, lb, lc, lv = lengths
    for vi, (video_id, lo, hi, s0, s1) in enumerate(
            zip(corpus.video_ids, firsts, firsts[1:], cuts, cuts[1:])):
        clips = ", ".join(
            f'{{"id": {encode_basestring_ascii(corpus.clip_ids[j])}, "rows": '
            f'{rows[j + 1] - rows[j]}, "narration_a": {la[j]}, "narration_b": {lb[j]}}}'
            for j in range(lo, hi))
        phases = ", ".join(
            f'{{"start": {start - lo}, "end": {end - lo}, "concept": {lc[k]}, "class": {cls}}}'
            for k, (start, end, cls) in enumerate(segments[s0:s1], s0))
        sources = ((lo, hi), (lo, hi), (s0, s1), (vi, vi + 1))  # of each kind, in TEXT_KINDS
        payload = b"".join([frames[rows[lo]:rows[hi]], *(
            tokens[b[first]:b[end]] for b, (first, end) in zip(bounds, sources))])
        yield (f'{{"video_id": {encode_basestring_ascii(video_id)}, "clips": [{clips}], '
               f'"phases": [{phases}], "abstract": {lv[vi]}, "payload": '
               f'"{binascii.b2a_base64(payload, newline=False).decode()}"}}\n')


def save_corpus(corpus: Corpus, path, hasher=None) -> None:
    """Write `corpus` as UTF-8 bytes (lines end in `\\n` on every platform), feeding each
    line to `hasher`, a `hashlib` object, as it is written."""
    header = json.dumps({"schema": SCHEMA, "config": asdict(corpus.config)}) + "\n"
    with atomic_file(path, "wb") as f:
        for line in chain([header], _video_lines(corpus)):
            data = line.encode()
            f.write(data)
            if hasher is not None:
                hasher.update(data)


def load_corpus(path, hasher=None) -> Corpus:
    """Read a corpus file, every line checked and decoded straight into the tables.

    Each line is checked in full (`_Tables.add`) before the next is read. A
    payload's bytes are at most three quarters of its line, so for a regular
    file the frame table is the start of one byte buffer of three quarters of
    its size, each line's payload decoded into the bytes after the last line's
    frame rows; its token ids are copied out, and pages past the last frame
    are never written. A pipe has no size, so its buffer starts empty and
    doubles whenever a line could overflow it. `hasher`, a `hashlib` object,
    is fed every line as it is read, header first, so it ends as the digest of
    exactly the bytes loaded.
    """
    # Bytes, decoded line by line, so a bad UTF-8 byte is reported by line.
    # Video lines run to tens of KB, and readline on the default 8 KiB
    # buffer joins many reads per line.
    with open(path, "rb", buffering=1 << 20) as f:
        first = f.readline()
        if hasher is not None:
            hasher.update(first)
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
        tables = _Tables(config)
        st = os.fstat(f.fileno())
        buffer = np.empty(st.st_size * 3 // 4 if stat.S_ISREG(st.st_mode) else 0, np.uint8)
        used = 0  # bytes of frame rows
        for i, line in enumerate(f, start=2):
            if hasher is not None:
                hasher.update(line)
            need = used + len(line) * 3 // 4
            if need > len(buffer):
                grown = np.empty(max(need, 2 * len(buffer)), np.uint8)
                grown[:used] = buffer[:used]
                buffer = grown
            rec = _parse_line(line, i)
            try:
                used += tables.add(rec, buffer[used:])
            except (KeyError, TypeError, ValueError, CorpusFormatError) as e:
                raise CorpusFormatError(f"line {i}: bad video record: {e}") from e
    return tables.corpus(buffer[:used].view("<f8").reshape(-1, config.d_in))


@cache
def _base64_pairs() -> np.ndarray:
    """Each base64 character pair's 12 bits, read-only, indexed by its bytes as a little-endian
    uint16 (row: second byte, column: first); 0xFFFF where either byte is not base64."""
    bits = np.full(256, 0xFFFF, np.uint32)  # each byte's 6 bits
    bits[list(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/")] = np.arange(64)
    pairs = np.minimum(bits << 6 | bits[:, None], 0xFFFF).astype(np.uint16).ravel()
    pairs.setflags(write=False)
    return pairs


def _decode_payload(text, out: np.ndarray) -> int:
    """Decode a base64 payload into the start of `out`, a uint8 buffer with room for it; the
    byte count. One numpy pass takes non-empty base64 with no padding; the strict decoder,
    which agrees there, judges every other text."""
    data = text.encode("ascii") if type(text) is str and text.isascii() else b""
    if data and len(data) % 4 == 0:
        pairs = _base64_pairs().take(np.frombuffer(data, "<u2"))
        if np.maximum.reduce(pairs) <= 0xFFF:
            words = pairs[0::2].astype(np.uint32) << 12 | pairs[1::2]  # 3 bytes, high first
            dest = out[:3 * len(words)].reshape(-1, 3)
            dest[:, 0], dest[:, 1], dest[:, 2] = words >> 16, words >> 8, words
            return dest.size
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise CorpusFormatError(f"payload is not base64: {e}") from e
    out[:len(raw)] = np.frombuffer(raw, np.uint8)
    return len(raw)


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
    with open(path, "rb") as f:
        return file_digest(f, "sha256").hexdigest()


# ---------------------------------------------------------------------------
# Batches: one column per field, one item per source. All items within a
# batch come from distinct sources.
# ---------------------------------------------------------------------------
_fields = cache(fields)  # a batch class's columns, looked up once per class


@dataclass(frozen=True)
class _Batch:
    level: ClassVar[str]
    source_ids: tuple  # sampled batches: indices into `Corpus.levels[level]`; hand-built, any ids
    # k sampled frames per item: sampled batches hold a FrameStack, hand-built ones 2-D arrays
    frames: Sequence[np.ndarray | FrameStack]

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


def _draw(corpus: Corpus, level: str, b: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of b distinct sources of a level, into `corpus.levels[level]`."""
    count = len(corpus.levels[level].starts)
    if b < 1:
        raise ConfigError(f"batch size must be >= 1, got {b}")
    if b > count:
        raise InsufficientDataError(
            f"{level} level: requested batch of {b} but only {count} sources available"
        )
    return rng.choice(count, size=b, replace=False)


def sample_clip_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                      k: int = 4) -> ClipBatch:
    drawn = _draw(corpus, "clip", b, rng)
    return ClipBatch(
        source_ids=tuple(drawn.tolist()),
        frames=corpus.frames_of("clip", drawn, k),
        narration_a=corpus.texts("narration_a", drawn),
        narration_b=corpus.texts("narration_b", drawn),
    )


def sample_phase_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 8) -> PhaseBatch:
    """Every member narration of each drawn phase segment."""
    drawn = _draw(corpus, "phase", b, rng)
    clips = RowRanges(*(column[drawn] for column in corpus.levels["phase"]))
    return PhaseBatch(
        source_ids=tuple(drawn.tolist()),
        frames=corpus.frames_of("phase", drawn, k),
        narrations=TokenSets.spread(corpus.texts("narration_a"), *clips, clips.lengths),
        summary=corpus.texts("concept", drawn),
    )


def sample_video_batch(corpus: Corpus, b: int, rng: np.random.Generator,
                       k: int = 32) -> VideoBatch:
    """At most k narrations of each drawn video, at clip indices floor(j*n/min(n, k))."""
    drawn = _draw(corpus, "video", b, rng)
    clips = RowRanges(*(column[drawn] for column in corpus.levels["video"]))
    return VideoBatch(
        source_ids=tuple(drawn.tolist()),
        frames=corpus.frames_of("video", drawn, k),
        narrations=TokenSets.spread(corpus.texts("narration_a"), *clips,
                                    np.minimum(clips.lengths, k)),
        summary=corpus.texts("abstract", drawn),
    )
