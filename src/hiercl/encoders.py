"""The shared visual and textual encoders.

One parameter set serves all hierarchy levels: a clip's frames, a phase
segment's frames, and a whole video's frames all pass through the same
two-layer visual network, and every text (narration, concept, abstract,
prompt) passes through the same embedding-table-plus-two-layer textual
network. Both encoders emit unit-norm vectors, so dot products downstream
are cosine similarities.

Frames are precomputed feature vectors, not images; a segment of frames is
a Matrix with one frame per row. Texts are sequences of integer token ids,
mean-pooled order-invariantly before the affine stack.

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
    VocabularyError,
    check_ints,
)
from .numerics import Matrix, Node, Tape

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


def nonfinite_block(dims: EncoderDims, vector: np.ndarray) -> str | None:
    """Name of the block holding the first non-finite entry of a flat vector."""
    finite = np.isfinite(vector)
    if finite.all():
        return None
    first = int(finite.argmin())
    return next(b.name for b in dims.layout if first < b.stop)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Matrix:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return Matrix._wrap(rng.uniform(-a, a, size=(fan_in, fan_out)))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All trainable weights; one shared set across every hierarchy level.

    The weights are one read-only float64 vector laid out by `dims.layout`;
    `leaves()` shows each block as a read-only Matrix view into it.
    """

    dims: EncoderDims
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=np.float64)
        if vector.shape != (self.dims.size,):
            raise ShapeError(f"parameter vector has shape {vector.shape}, "
                             f"layout needs ({self.dims.size},)")
        bad = nonfinite_block(self.dims, vector)
        if bad is not None:
            raise ContractError(f"{bad} contains non-finite values")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "_leaves", tuple(
            (b.name, Matrix._wrap(vector[b.offset:b.stop].reshape(b.rows, b.cols)))
            for b in self.dims.layout
        ))

    @classmethod
    def from_blocks(cls, dims: EncoderDims, blocks: dict[str, Matrix]) -> "ModelParams":
        """Params from every named block, each with the shape the layout gives it."""
        names = [b.name for b in dims.layout]
        for name in blocks:
            if name not in names:
                raise ConfigError(f"unknown parameter block {name!r}")
        for b in dims.layout:
            if b.name not in blocks:
                raise ConfigError(f"missing parameter block {b.name!r}")
            if blocks[b.name].shape != (b.rows, b.cols):
                raise ShapeError(
                    f"{b.name}: shape {blocks[b.name].shape} != {(b.rows, b.cols)}"
                )
        return cls(dims, np.concatenate([blocks[b.name].data for b in dims.layout]))

    @classmethod
    def initialize(cls, dims: EncoderDims, rng: np.random.Generator) -> "ModelParams":
        """Seeded uniform Glorot weights, zero biases."""
        return cls.from_blocks(dims, {
            b.name: Matrix.zeros(1, b.cols) if rows == 1 else _glorot(rng, b.rows, b.cols)
            for (_, rows, _), b in zip(_BLOCKS, dims.layout)
        })

    @property
    def d_in(self) -> int:
        return self.dims.d_in

    @property
    def d_emb(self) -> int:
        return self.dims.d_emb

    @property
    def vocab_size(self) -> int:
        return self.dims.vocab_size

    def leaves(self) -> list[tuple[str, Matrix]]:
        """Named parameter blocks in layout order, as read-only views."""
        return list(self._leaves)

    def digest(self) -> str:
        """SHA-256 over all parameter bytes; stable across processes."""
        h = sha256()
        for name, m in self.leaves():
            h.update(name.encode())
            h.update(m.array.astype("<f8").tobytes())
        return h.hexdigest()


class FrameStack(Sequence[Matrix]):
    """Frame segments stacked row-wise: one read-only array and each segment's row count.

    It reads as a sequence of per-segment Matrix views; the visual encoder
    reads the array as it is.
    """

    __slots__ = ("array", "lengths", "_starts")

    def __init__(self, array: np.ndarray, lengths: np.ndarray) -> None:
        array.setflags(write=False)
        self.array = array
        self.lengths = lengths
        self._starts = np.cumsum(lengths) - lengths

    @classmethod
    def of(cls, segments: Sequence[Matrix]) -> "FrameStack":
        """Separate segments of one width, stacked by one concatenate."""
        if not segments:
            raise EmptyInputError("no segments to encode")
        widths = {s.cols for s in segments}
        if len(widths) > 1:
            raise ShapeError(f"segments have different widths: {sorted(widths)}")
        return cls(np.concatenate([s.array for s in segments]),
                   np.array([s.rows for s in segments], dtype=np.intp))

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> Matrix:
        i = range(len(self))[i]
        start = self._starts[i]
        return Matrix._wrap(self.array[start:start + self.lengths[i]])


def pick_frames(table: np.ndarray, starts: Sequence[int], lengths: Sequence[int],
                k: int) -> FrameStack:
    """k frames per segment of a frame table, at rows start + floor(j*L/k) for j < k.

    A segment is the L table rows from its start; rows repeat when L < k.
    Every pick is made by one fancy index into the table.
    """
    if k < 1:
        raise ConfigError(f"frame count must be >= 1, got {k}")
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    if not starts.size:
        raise EmptyInputError("no segments to sample")
    if not lengths.all():
        raise EmptyInputError("cannot sample frames from an empty segment")
    rows = starts[:, None] + np.arange(k, dtype=np.intp) * lengths[:, None] // k
    return FrameStack(table[rows.ravel()], np.full(starts.size, k, dtype=np.intp))


def param_nodes(tape: Tape, params: ModelParams) -> dict[str, Node]:
    """Register every parameter block as a trainable leaf on the tape."""
    return {name: tape.leaf(m) for name, m in params.leaves()}


def _token_index(texts: Sequence[TokenSeq], vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every text's token ids as one flat intp array, and each text's length."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    if not lengths.all():
        raise EmptyInputError("text has no tokens")
    flat = np.fromiter(chain.from_iterable(texts), dtype=np.intp, count=int(lengths.sum()))
    bad = (flat < 0) | (flat >= vocab_size)
    if bad.any():
        raise VocabularyError(
            f"token id {int(flat[bad.argmax()])} outside vocabulary of size {vocab_size}"
        )
    return flat, lengths


def _affine_stack(tape: Tape, x: Node, pn: dict[str, Node], prefix: str) -> Node:
    h = tape.relu(tape.add(tape.matmul(x, pn[f"{prefix}.w1"]), pn[f"{prefix}.b1"]))
    return tape.add(tape.matmul(h, pn[f"{prefix}.w2"]), pn[f"{prefix}.b2"])


def visual_embedding_rows(tape: Tape, pn: dict[str, Node],
                          segments: Sequence[Matrix]) -> Node:
    """Unit-norm embedding per frame segment, stacked into one matrix.

    Every frame of every segment goes through the network in one pass; each
    segment's raw frame encodings are then mean-pooled and L2-normalized.
    Segments may have different frame counts. A FrameStack is encoded as it
    is; other segments are stacked into one first.
    """
    stack = segments if isinstance(segments, FrameStack) else FrameStack.of(segments)
    encoded = _affine_stack(tape, tape.constant(Matrix._wrap(stack.array)), pn, "visual")
    return tape.l2_normalize_rows(tape.segment_mean(encoded, stack.lengths))


def text_embedding_rows(tape: Tape, pn: dict[str, Node],
                        texts: Sequence[TokenSeq]) -> Node:
    """Unit-norm embedding per text, stacked into one matrix.

    All tokens of all texts are gathered from the embedding table at once;
    each text's token embeddings are mean-pooled (order-invariant) before
    one pass through the affine stack. Texts may have different lengths.
    """
    if not texts:
        raise EmptyInputError("no texts to encode")
    flat, lengths = _token_index(texts, pn["text.embed"].value.shape[0])
    pooled = tape.segment_mean(tape.gather_rows(pn["text.embed"], flat), lengths)
    return tape.l2_normalize_rows(_affine_stack(tape, pooled, pn, "text"))


def aggregated_text_rows(tape: Tape, pn: dict[str, Node],
                         text_sets: Sequence[Sequence[TokenSeq]]) -> Node:
    """Average-pooled textual embedding per set of texts, re-normalized.

    This is the textual side of the aggregator that lifts clip-level
    embeddings to the phase or video level. All members of all sets are
    embedded in one pass; sets may differ in size.
    """
    if not text_sets:
        raise EmptyInputError("no text sets to aggregate")
    sizes = [len(ts) for ts in text_sets]
    if not all(sizes):
        raise EmptyInputError("text set has no members")
    members = text_embedding_rows(tape, pn, [t for ts in text_sets for t in ts])
    return tape.l2_normalize_rows(tape.segment_mean(members, sizes))


# Eager wrappers: evaluate the same graph on a throwaway tape.


def encode_segment(frames: Matrix, params: ModelParams) -> Matrix:
    """Unit-norm visual embedding (1 x d_emb) of one frame segment."""
    if frames.rows < 1:
        raise EmptyInputError("cannot encode an empty segment")
    if frames.cols != params.d_in:
        raise ShapeError(f"frames have width {frames.cols}, encoder expects {params.d_in}")
    tape = Tape()
    pn = param_nodes(tape, params)
    return Matrix._wrap(visual_embedding_rows(tape, pn, [frames]).value)


def encode_text(tokens: TokenSeq, params: ModelParams) -> Matrix:
    """Unit-norm textual embedding (1 x d_emb) of one token sequence."""
    tape = Tape()
    pn = param_nodes(tape, params)
    return Matrix._wrap(text_embedding_rows(tape, pn, [tokens]).value)


def aggregate_texts(texts: Sequence[TokenSeq], params: ModelParams) -> Matrix:
    """Unit-norm mean of the individual text embeddings (1 x d_emb)."""
    tape = Tape()
    pn = param_nodes(tape, params)
    return Matrix._wrap(aggregated_text_rows(tape, pn, [list(texts)]).value)
