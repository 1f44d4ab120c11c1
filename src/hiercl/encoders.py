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

Each encoder takes a whole batch in one pass, whatever the segment frame
counts, text lengths or set sizes: items are stacked row-wise and
`segment_mean` pools each item's rows, so the number of tape nodes does not
depend on the number of items.
"""
from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from itertools import chain
from typing import Sequence

import numpy as np

from . import numerics as nm
from .errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    ShapeError,
    VocabularyError,
)
from .numerics import Matrix, Node, Tape

TokenSeq = Sequence[int]


@dataclass(frozen=True)
class EncoderDims:
    """Width configuration shared by both encoders."""

    d_in: int = 32
    d_tok: int = 32
    hidden: int = 64
    d_emb: int = 16
    vocab_size: int = 256

    def __post_init__(self) -> None:
        for field in ("d_in", "d_tok", "hidden", "d_emb", "vocab_size"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1, got {getattr(self, field)}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Matrix:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return Matrix._wrap(rng.uniform(-a, a, size=(fan_in, fan_out)))


def _check_finite(name: str, m: Matrix) -> None:
    if not m.is_finite():
        raise ContractError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class VisualEncoderParams:
    """Two-layer affine network over frame features: d_in -> hidden -> d_emb."""

    w1: Matrix
    b1: Matrix
    w2: Matrix
    b2: Matrix

    def __post_init__(self) -> None:
        if (
            self.b1.shape != (1, self.w1.cols)
            or self.w2.rows != self.w1.cols
            or self.b2.shape != (1, self.w2.cols)
        ):
            raise ShapeError(
                "visual encoder shapes inconsistent: "
                f"w1 {self.w1.shape}, b1 {self.b1.shape}, w2 {self.w2.shape}, b2 {self.b2.shape}"
            )
        for name in ("w1", "b1", "w2", "b2"):
            _check_finite(f"visual.{name}", getattr(self, name))


@dataclass(frozen=True)
class TextEncoderParams:
    """Token embedding table followed by a two-layer affine network."""

    embed: Matrix
    w1: Matrix
    b1: Matrix
    w2: Matrix
    b2: Matrix

    def __post_init__(self) -> None:
        if (
            self.w1.rows != self.embed.cols
            or self.b1.shape != (1, self.w1.cols)
            or self.w2.rows != self.w1.cols
            or self.b2.shape != (1, self.w2.cols)
        ):
            raise ShapeError(
                "text encoder shapes inconsistent: "
                f"embed {self.embed.shape}, w1 {self.w1.shape}, b1 {self.b1.shape}, "
                f"w2 {self.w2.shape}, b2 {self.b2.shape}"
            )
        for name in ("embed", "w1", "b1", "w2", "b2"):
            _check_finite(f"text.{name}", getattr(self, name))

    @property
    def vocab_size(self) -> int:
        return self.embed.rows


@dataclass(frozen=True)
class ModelParams:
    """All trainable weights; one shared set across every hierarchy level."""

    visual: VisualEncoderParams
    text: TextEncoderParams

    def __post_init__(self) -> None:
        if self.visual.w2.cols != self.text.w2.cols:
            raise ShapeError(
                f"embedding widths differ: visual {self.visual.w2.cols}, text {self.text.w2.cols}"
            )

    @classmethod
    def initialize(cls, dims: EncoderDims, rng: np.random.Generator) -> "ModelParams":
        """Seeded uniform Glorot weights, zero biases."""
        visual = VisualEncoderParams(
            w1=_glorot(rng, dims.d_in, dims.hidden),
            b1=Matrix.zeros(1, dims.hidden),
            w2=_glorot(rng, dims.hidden, dims.d_emb),
            b2=Matrix.zeros(1, dims.d_emb),
        )
        text = TextEncoderParams(
            embed=_glorot(rng, dims.vocab_size, dims.d_tok),
            w1=_glorot(rng, dims.d_tok, dims.hidden),
            b1=Matrix.zeros(1, dims.hidden),
            w2=_glorot(rng, dims.hidden, dims.d_emb),
            b2=Matrix.zeros(1, dims.d_emb),
        )
        return cls(visual=visual, text=text)

    @property
    def d_in(self) -> int:
        return self.visual.w1.rows

    @property
    def d_emb(self) -> int:
        return self.visual.w2.cols

    @property
    def vocab_size(self) -> int:
        return self.text.vocab_size

    def leaves(self) -> list[tuple[str, Matrix]]:
        """Named parameter blocks in a fixed, stable order."""
        return [
            ("visual.w1", self.visual.w1),
            ("visual.b1", self.visual.b1),
            ("visual.w2", self.visual.w2),
            ("visual.b2", self.visual.b2),
            ("text.embed", self.text.embed),
            ("text.w1", self.text.w1),
            ("text.b1", self.text.b1),
            ("text.w2", self.text.w2),
            ("text.b2", self.text.b2),
        ]

    def with_leaves(self, updates: dict[str, Matrix]) -> "ModelParams":
        """Copy of the params with some named blocks replaced."""
        current = dict(self.leaves())
        for name, m in updates.items():
            if name not in current:
                raise ConfigError(f"unknown parameter block {name!r}")
            if m.shape != current[name].shape:
                raise ShapeError(
                    f"{name}: replacement shape {m.shape} != {current[name].shape}"
                )
            current[name] = m
        visual = VisualEncoderParams(
            w1=current["visual.w1"], b1=current["visual.b1"],
            w2=current["visual.w2"], b2=current["visual.b2"],
        )
        text = TextEncoderParams(
            embed=current["text.embed"], w1=current["text.w1"], b1=current["text.b1"],
            w2=current["text.w2"], b2=current["text.b2"],
        )
        return ModelParams(visual=visual, text=text)

    def digest(self) -> str:
        """SHA-256 over all parameter bytes; stable across processes."""
        h = sha256()
        for name, m in self.leaves():
            h.update(name.encode())
            h.update(m.array.astype("<f8").tobytes())
        return h.hexdigest()


def sample_frames(frames: Matrix, k: int) -> Matrix:
    """Pick k frames at indices floor(j*L/k); duplicates appear when L < k."""
    if frames.rows < 1:
        raise EmptyInputError("cannot sample frames from an empty segment")
    if k < 1:
        raise ConfigError(f"frame count must be >= 1, got {k}")
    return Matrix._wrap(frames.array[np.arange(k, dtype=np.intp) * frames.rows // k])


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
    Segments may have different frame counts.
    """
    if not segments:
        raise EmptyInputError("no segments to encode")
    stacked = tape.constant(nm.concat_rows(list(segments)))
    encoded = _affine_stack(tape, stacked, pn, "visual")
    return tape.l2_normalize_rows(tape.segment_mean(encoded, [s.rows for s in segments]))


def text_embedding_rows(tape: Tape, pn: dict[str, Node],
                        texts: Sequence[TokenSeq]) -> Node:
    """Unit-norm embedding per text, stacked into one matrix.

    All tokens of all texts are gathered from the embedding table at once;
    each text's token embeddings are mean-pooled (order-invariant) before
    one pass through the affine stack. Texts may have different lengths.
    """
    if not texts:
        raise EmptyInputError("no texts to encode")
    flat, lengths = _token_index(texts, pn["text.embed"].value.rows)
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
    return visual_embedding_rows(tape, pn, [frames]).value


def encode_text(tokens: TokenSeq, params: ModelParams) -> Matrix:
    """Unit-norm textual embedding (1 x d_emb) of one token sequence."""
    tape = Tape()
    pn = param_nodes(tape, params)
    return text_embedding_rows(tape, pn, [tokens]).value


def aggregate_texts(texts: Sequence[TokenSeq], params: ModelParams) -> Matrix:
    """Unit-norm mean of the individual text embeddings (1 x d_emb)."""
    tape = Tape()
    pn = param_nodes(tape, params)
    return aggregated_text_rows(tape, pn, [list(texts)]).value
