"""Contrastive objectives over the three hierarchy levels.

Each level-specific loss follows the same sum-inside-log pattern: two
batch-softmax probabilities for the matched pair are added, then the
negative mean log is taken over the batch,

    loss = -(1/B) * sum_i log(p1(i) + p2(i)).

At clip level the two probabilities come from the two transcript variants
of one narration; at phase and video level they come from the visual and
the aggregated-text query against the same text targets (concepts or
abstracts). The single-space variant pools positive pairs from all levels
into one plain InfoNCE instead, with one route. Every loss encodes its
batch and ends in one `Tape.info_nce` call over its (queries, targets)
routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import ClipBatch, PhaseBatch, VideoBatch
from .encoders import (
    ModelParams,
    Node,
    aggregated_text_rows,
    param_nodes,
    text_embedding_rows,
    visual_embedding_rows,
)
from .errors import EmptyInputError, NumericError
from .numerics import Tape


@dataclass(frozen=True)
class LossValue:
    """Scalar loss, flat gradient in `EncoderDims.layout` order, similarity diagnostics."""

    loss: float
    grads: np.ndarray
    pos_sim: float
    neg_sim: float


def _sim_diagnostics(sims: list[np.ndarray]) -> tuple[float, float]:
    """Mean matched-pair and mean unmatched-pair cosine similarity."""
    pos = np.concatenate([np.diag(s) for s in sims])
    # Row-major, a BxB matrix's off-diagonal entries are the first B of each B+1 after entry 0.
    neg = np.concatenate([s.ravel()[1:].reshape(len(s) - 1, len(s) + 1)[:, :-1] for s in sims],
                         axis=None)
    return float(np.mean(pos)), float(np.mean(neg)) if neg.size else 0.0


def _finalize(tape: Tape, pn: dict[str, Node], loss_node: Node,
              sims: list[np.ndarray]) -> LossValue:
    loss = float(loss_node.value[0, 0])
    if not math.isfinite(loss):
        raise NumericError(f"contrastive loss is not finite: {loss}")
    pos, neg = _sim_diagnostics(sims)
    return LossValue(loss=loss, grads=tape.backward(loss_node, list(pn.values())),
                     pos_sim=pos, neg_sim=neg)


def loss_clip(batch: ClipBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Clip narrations from both transcript variants as the two routes."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, batch.frames)
    text_a = text_embedding_rows(tape, pn, batch.narration_a)
    text_b = text_embedding_rows(tape, pn, batch.narration_b)
    return _finalize(tape, pn, *tape.info_nce([(visual, text_a), (visual, text_b)], tau))


def loss_phase(batch: PhaseBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Visual and aggregated-narration queries against concept targets."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, batch.frames)
    agg_text = aggregated_text_rows(tape, pn, batch.narrations)
    concepts = text_embedding_rows(tape, pn, batch.concept)
    return _finalize(tape, pn, *tape.info_nce([(visual, concepts), (agg_text, concepts)], tau))


def loss_video(batch: VideoBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Visual and aggregated-narration queries against abstract targets."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, batch.frames)
    agg_text = aggregated_text_rows(tape, pn, batch.narrations)
    abstracts = text_embedding_rows(tape, pn, batch.abstract)
    return _finalize(tape, pn, *tape.info_nce([(visual, abstracts), (agg_text, abstracts)], tau))


def loss_single(clip: ClipBatch, phase: PhaseBatch, video: VideoBatch,
                params: ModelParams, tau: float = 0.07) -> LossValue:
    """One InfoNCE over the pooled positive pairs of all three levels.

    Every item contributes one (visual, text) pair: clip frames with the
    first transcript variant, phase frames with the concept, video frames
    with the abstract. The softmax for each visual query runs over the
    whole pooled target set.
    """
    tape = Tape()
    pn = param_nodes(tape, params)
    visual_parts = []
    texts = []
    for frames, level_texts in ((clip.frames, clip.narration_a),
                                (phase.frames, phase.concept),
                                (video.frames, video.abstract)):
        if frames:  # a level may sit the pool out entirely
            visual_parts.append(visual_embedding_rows(tape, pn, frames))
            texts.extend(level_texts)
    if not visual_parts:
        raise EmptyInputError("pooled batch has no items at any level")
    queries = visual_parts[0] if len(visual_parts) == 1 else tape.concat_rows(visual_parts)
    targets = text_embedding_rows(tape, pn, texts)
    return _finalize(tape, pn, *tape.info_nce([(queries, targets)], tau))
