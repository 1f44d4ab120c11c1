"""The shared visual and textual encoders.

One parameter set serves all hierarchy levels: a clip's frames, a phase
segment's frames, and a whole video's frames all pass through the same
two-layer visual network, and every text (narration, concept, abstract,
prompt) passes through the same embedding-table-plus-two-layer textual
network. Both encoders emit unit-norm vectors, so dot products downstream
are cosine similarities.

Frames are precomputed feature vectors, not images; a segment of frames has
one frame per row. Texts are sequences of integer token ids, mean-pooled
order-invariantly by `Tape.embed_mean` before the network. A batch column
of texts is a `TokenStack`, runs of one token table; a column of text sets
is a `TokenSets`.

Every weight of both encoders lives in one flat vector; `EncoderDims.layout`
is the one table of where each named block sits in it.

Each encoder takes a whole batch in one pass, whatever the segment frame
counts, text lengths or set sizes: items are stacked row-wise and
`segment_mean` pools each item's rows, so the number of tape nodes does not
depend on the number of items.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    ShapeError,
    check_array_bytes,
    check_ints,
)
from .numerics import Node, Tape

TokenSeq = Sequence[int]


# Every parameter block in layout order: its name, then the EncoderDims
# fields (or the literal 1 of a bias row) that give its rows and columns.
_BLOCKS = (
    ("visual.w1", "d_in", "hidden"),
    ("visual.b1", 1, "hidden"),
    ("visual.w2", "hidden", "d_emb"),
    ("visual.b2", 1, "d_emb"),
    ("text.embed", "vocab_size", "d_tok"),
    ("text.w1", "d_tok", "hidden"),
    ("text.b1", 1, "hidden"),
    ("text.w2", "hidden", "d_emb"),
    ("text.b2", 1, "d_emb"),
)


class Block(NamedTuple):
    """One parameter block: the rows x cols matrix stored row-major at offset."""

    name: str
    offset: int
    rows: int
    cols: int

    @property
    def stop(self) -> int:
        return self.offset + self.rows * self.cols


@dataclass(frozen=True)
class EncoderDims:
    """Width configuration shared by both encoders."""

    d_in: int = 32
    d_tok: int = 32
    hidden: int = 64
    d_emb: int = 16
    vocab_size: int = 256

    def __post_init__(self) -> None:
        check_ints(self, ("d_in", "d_tok", "hidden", "d_emb", "vocab_size"), minimum=1)
        check_array_bytes("the 2 Adam moments of these widths", 2 * 8 * self.size)

    @cached_property
    def layout(self) -> tuple[Block, ...]:
        """Where each parameter block lives in the flat parameter vector."""
        blocks, offset = [], 0
        for name, rows, cols in _BLOCKS:
            b = Block(name, offset, rows if rows == 1 else getattr(self, rows),
                      getattr(self, cols))
            blocks.append(b)
            offset = b.stop
        return tuple(blocks)

    @property
    def size(self) -> int:
        """Number of parameters: the length of the flat vector."""
        return self.layout[-1].stop


def check_finite(dims: EncoderDims, vector: np.ndarray, error: type, message: str) -> None:
    """Raise `error(message)`, with `{}` the first bad block, unless a flat vector is finite."""
    finite = np.isfinite(vector)
    if not finite.all():
        first = int(finite.argmin())
        raise error(message.format(next(b.name for b in dims.layout if first < b.stop)))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All trainable weights; one shared set across every hierarchy level.

    The weights are one read-only float64 vector laid out by `dims.layout`;
    `leaves()` shows each block as a read-only 2-D ndarray view into it.
    """

    dims: EncoderDims
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=np.float64)
        if vector.shape != (self.dims.size,):
            raise ShapeError(f"parameter vector has shape {vector.shape}, "
                             f"layout needs ({self.dims.size},)")
        check_finite(self.dims, vector, ContractError, "{} contains non-finite values")
        self._bind(vector)

    @classmethod
    def _viewing(cls, dims: EncoderDims, vector: np.ndarray) -> "ModelParams":
        """Params over a read-only view of a vector its owner keeps writing: no copy, no check."""
        params = cls.__new__(cls)
        object.__setattr__(params, "dims", dims)
        return params._bind(vector.view())

    def _bind(self, vector: np.ndarray) -> "ModelParams":
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "_leaves", tuple(
            (b.name, vector[b.offset:b.stop].reshape(b.rows, b.cols)) for b in self.dims.layout
        ))
        return self

    @classmethod
    def from_blocks(cls, dims: EncoderDims, blocks: dict[str, np.ndarray]) -> "ModelParams":
        """Params from every named block, each with the shape the layout gives it."""
        names = [b.name for b in dims.layout]
        for name in blocks:
            if name not in names:
                raise ConfigError(f"unknown parameter block {name!r}")
        for b in dims.layout:
            if b.name not in blocks:
                raise ConfigError(f"missing parameter block {b.name!r}")
            if blocks[b.name].shape != (b.rows, b.cols):
                raise ShapeError(f"{b.name}: shape {blocks[b.name].shape} != {(b.rows, b.cols)}")
        return cls(dims, np.concatenate([blocks[b.name].ravel() for b in dims.layout]))

    @classmethod
    def initialize(cls, dims: EncoderDims, rng: np.random.Generator) -> "ModelParams":
        """Seeded uniform Glorot weights, zero biases."""
        return cls.from_blocks(dims, {
            b.name: np.zeros((1, b.cols)) if rows == 1 else _glorot(rng, b.rows, b.cols)
            for (_, rows, _), b in zip(_BLOCKS, dims.layout)
        })

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter blocks in layout order, as read-only views."""
        return list(self._leaves)

    def digest(self) -> str:
        """SHA-256 over all parameter bytes; stable across processes."""
        h = sha256()
        for name, a in self._leaves:
            h.update(name.encode())
            h.update(a.astype("<f8").tobytes())
        return h.hexdigest()


class FrameStack(Sequence["FrameStack"]):
    """Frame segments stacked row-wise: one read-only float64 array and each segment's row count.

    It reads as a sequence of one-segment FrameStacks, each found when it is
    read; the visual encoder reads the array as it is.
    """

    __slots__ = ("array", "lengths")

    def __init__(self, array: np.ndarray, lengths: np.ndarray) -> None:
        array.setflags(write=False)
        self.array = array
        self.lengths = lengths

    @classmethod
    def of(cls, segments: Sequence[np.ndarray | FrameStack]) -> "FrameStack":
        """A FrameStack as it is; other segments, 2-D arrays or FrameStacks of one width,
        copied into one float64 array by one concatenate."""
        if isinstance(segments, FrameStack):
            return segments
        if not len(segments):
            raise EmptyInputError("no segments to encode")
        arrays, lengths = [], []
        for s in segments:
            if isinstance(s, FrameStack):
                arrays.append(s.array)
                lengths.extend(s.lengths.tolist())
                continue
            a = np.asarray(s, dtype=np.float64)
            if a.ndim != 2:
                raise ShapeError(f"a frame segment must be 2-D, got {a.ndim}-D")
            arrays.append(a)
            lengths.append(len(a))
        widths = {a.shape[1] for a in arrays}
        if len(widths) > 1:
            raise ShapeError(f"segments have different widths: {sorted(widths)}")
        return cls(np.concatenate(arrays), np.array(lengths, dtype=np.intp))

    @classmethod
    def at(cls, table: np.ndarray, rows: np.ndarray) -> "FrameStack":
        """The table rows of each segment, one row of `rows` each, by one fancy index."""
        return cls(table[rows.ravel()], np.full(len(rows), rows.shape[1], dtype=np.intp))

    @property
    def rows(self) -> int:
        return len(self.array)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int | slice) -> "FrameStack":
        if isinstance(i, slice):
            parts = np.split(self.array, self.lengths.cumsum()[:-1])[i]
            return FrameStack(np.concatenate([self.array[:0], *parts]), self.lengths[i])
        i = range(len(self))[i]
        start = int(self.lengths[:i].sum())
        return FrameStack(self.array[start:start + self.lengths[i]], self.lengths[i:i + 1])


def frame_rows(starts: Sequence[int], lengths: Sequence[int], k: int) -> np.ndarray:
    """Table rows of k frames per segment, start + floor(j*L/k) for j < k: one row each.

    A segment is the L table rows from its start; rows repeat when L < k.
    """
    if k < 1:
        raise ConfigError(f"frame count must be >= 1, got {k}")
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    if not starts.size:
        raise EmptyInputError("no segments to sample")
    if not lengths.all():
        raise EmptyInputError("cannot sample frames from an empty segment")
    check_array_bytes(f"the frame rows of {starts.size} segments at k={k}", 8 * starts.size * k)
    return starts[:, None] + np.arange(k, dtype=np.intp) * lengths[:, None] // k


class TokenStack(Sequence[tuple[int, ...]]):
    """Texts as runs of one read-only intp token table: each run's start and length.

    It reads as a sequence of int tuples. `ids`, every run's tokens in order,
    is gathered from the table once, on first read. `+` on one table
    concatenates runs; across tables it copies.
    """

    def __init__(self, table: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        self.table = table
        self.starts = starts
        self.lengths = lengths

    @classmethod
    def of(cls, texts: Sequence[TokenSeq]) -> "TokenStack":
        """A TokenStack as it is; other texts flattened into a table of their own."""
        if isinstance(texts, TokenStack):
            return texts
        lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
        table = np.fromiter(chain.from_iterable(texts), dtype=np.intp, count=int(lengths.sum()))
        table.setflags(write=False)
        stack = cls(table, np.cumsum(lengths) - lengths, lengths)
        vars(stack)["ids"] = table  # the runs are the whole table, in order
        return stack

    @cached_property
    def ids(self) -> np.ndarray:
        """Every run's token ids, run after run: one gather from the table."""
        firsts = self.lengths.cumsum() - self.lengths
        shift = (self.starts - firsts).repeat(self.lengths)
        ids = self.table[shift + np.arange(shift.size)]
        ids.setflags(write=False)
        return ids

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int | slice) -> tuple[int, ...] | "TokenStack":
        if isinstance(i, slice):
            return TokenStack(self.table, self.starts[i], self.lengths[i])
        i = range(len(self))[i]
        start = self.starts[i]
        return tuple(self.table[start:start + self.lengths[i]].tolist())

    def __add__(self, other: Sequence[TokenSeq]) -> "TokenStack":
        if isinstance(other, TokenStack) and other.table is self.table:
            return TokenStack(self.table, np.concatenate([self.starts, other.starts]),
                              np.concatenate([self.lengths, other.lengths]))
        return TokenStack.of([*self, *other])


class TokenSets(Sequence[tuple[tuple[int, ...], ...]]):
    """Sets of texts: every member, set after set, as one TokenStack, and each set's size."""

    def __init__(self, members: TokenStack, sizes: np.ndarray) -> None:
        self.members = members
        self.sizes = sizes

    @classmethod
    def spread(cls, texts: TokenStack, firsts: np.ndarray, counts: np.ndarray,
               sizes: np.ndarray) -> "TokenSets":
        """Set i: sizes[i] of the counts[i] texts from firsts[i], at floor(j*n/size); lazy."""
        sets = cls.__new__(cls)
        sets.sizes, sets._spread = sizes, (texts, firsts, counts)
        return sets

    @cached_property
    def members(self) -> TokenStack:
        (texts, firsts, counts), sizes = self._spread, self.sizes
        j = np.arange(sizes.sum()) - (sizes.cumsum() - sizes).repeat(sizes)
        picks = firsts.repeat(sizes) + j * counts.repeat(sizes) // sizes.repeat(sizes)
        return TokenStack(texts.table, texts.starts[picks], texts.lengths[picks])

    @classmethod
    def of(cls, text_sets: Sequence[Sequence[TokenSeq]]) -> "TokenSets":
        """TokenSets as they are; other sets' members flattened by `TokenStack.of`."""
        if isinstance(text_sets, TokenSets):
            return text_sets
        sizes = np.fromiter(map(len, text_sets), dtype=np.intp, count=len(text_sets))
        return cls(TokenStack.of([t for ts in text_sets for t in ts]), sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i: int | slice) -> tuple[tuple[int, ...], ...] | "TokenSets":
        if isinstance(i, slice):
            return TokenSets.of([self[j] for j in range(len(self))[i]])
        i = range(len(self))[i]
        first = int(self.sizes[:i].sum())
        return tuple(self.members[j] for j in range(first, first + self.sizes[i]))


def param_nodes(tape: Tape, params: ModelParams) -> dict[str, Node]:
    """Register every parameter block as a trainable leaf on the tape."""
    return {name: tape.leaf(a) for name, a in params._leaves}


_MLP_KEYS = {p: (f"{p}.w1", f"{p}.b1", f"{p}.w2", f"{p}.b2") for p in ("visual", "text")}


def _mlp(tape: Tape, x: Node, pn: dict[str, Node], prefix: str) -> Node:
    return tape.mlp(x, *map(pn.__getitem__, _MLP_KEYS[prefix]))


def visual_embedding_rows(tape: Tape, pn: dict[str, Node],
                          segments: Sequence[np.ndarray | FrameStack]) -> Node:
    """Unit-norm embedding per frame segment, stacked into one matrix.

    Every frame of every segment goes through the network in one pass; each
    segment's raw frame encodings are then mean-pooled and L2-normalized.
    Segments may have different frame counts. A FrameStack is encoded as it
    is; other segments are stacked into one first.
    """
    stack = FrameStack.of(segments)
    encoded = _mlp(tape, tape.constant(stack.array), pn, "visual")
    return tape.l2_normalize_rows(tape.segment_mean(encoded, stack.lengths))


def text_embedding_rows(tape: Tape, pn: dict[str, Node],
                        texts: Sequence[TokenSeq]) -> Node:
    """Unit-norm embedding per text, stacked into one matrix.

    All tokens of all texts are gathered from the embedding table at once;
    each text's token embeddings are mean-pooled (order-invariant) before
    one pass through the two-layer network. Texts may have different lengths.
    A TokenStack is read as it is; other texts are flattened into one first.
    """
    if not texts:
        raise EmptyInputError("no texts to encode")
    stack = TokenStack.of(texts)
    if 0 in stack.lengths:
        raise EmptyInputError("text has no tokens")
    pooled = tape.embed_mean(pn["text.embed"], stack.ids, stack.lengths)
    return tape.l2_normalize_rows(_mlp(tape, pooled, pn, "text"))


def aggregated_text_rows(tape: Tape, pn: dict[str, Node],
                         text_sets: Sequence[Sequence[TokenSeq]]) -> Node:
    """Average-pooled textual embedding per set of texts, re-normalized.

    This is the textual side of the aggregator that lifts clip-level
    embeddings to the phase or video level. All members of all sets are
    embedded in one pass; sets may differ in size. TokenSets are read as
    they are; other sets are flattened into one first.
    """
    if not text_sets:
        raise EmptyInputError("no text sets to aggregate")
    sets = TokenSets.of(text_sets)
    if 0 in sets.sizes:
        raise EmptyInputError("text set has no members")
    members = text_embedding_rows(tape, pn, sets.members)
    return tape.l2_normalize_rows(tape.segment_mean(members, sets.sizes))

