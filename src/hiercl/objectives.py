"""Contrastive objectives over the three hierarchy levels.

Each level-specific loss follows the same sum-inside-log pattern: two
batch-softmax probabilities for the matched pair are added, then the
negative mean log is taken over the batch,

    loss = -(1/B) * sum_i log(p1(i) + p2(i)).

At clip level the two probabilities come from the two transcript variants
of one narration; at phase and video level they come from the visual and
the aggregated-text query against the same text targets (concepts or
abstracts). The single-space variant pools positive pairs from all levels
into one plain InfoNCE instead.
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
    neg = np.concatenate([s[~np.eye(s.shape[0], dtype=bool)] for s in sims])
    return float(np.mean(pos)), float(np.mean(neg)) if neg.size else 0.0


def _finalize(tape: Tape, loss_node: Node, pn: dict[str, Node],
              sims: list[np.ndarray]) -> LossValue:
    loss = float(loss_node.value.array[0, 0])
    if not math.isfinite(loss):
        raise NumericError(f"contrastive loss is not finite: {loss}")
    pos, neg = _sim_diagnostics(sims)
    return LossValue(loss=loss, grads=tape.backward(loss_node, list(pn.values())),
                     pos_sim=pos, neg_sim=neg)


def _dual_route_loss(tape: Tape, pn: dict[str, Node],
                     routes: list[tuple[Node, Node]], tau: float) -> LossValue:
    """loss = -(1/B) * sum_i log(p_route1(i) + p_route2(i))."""
    b = routes[0][0].value.rows
    (p1, s1), (p2, s2) = (tape.matched_prob(q, t, tau) for q, t in routes)
    loss_node = tape.scale(tape.sum_all(tape.log(tape.add(p1, p2))), -1.0 / b)
    return _finalize(tape, loss_node, pn, [s1, s2])


def loss_clip(batch: ClipBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Clip narrations from both transcript variants as the two routes."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, [e.frames for e in batch.entries])
    text_a = text_embedding_rows(tape, pn, [e.narration_a for e in batch.entries])
    text_b = text_embedding_rows(tape, pn, [e.narration_b for e in batch.entries])
    return _dual_route_loss(tape, pn, [(visual, text_a), (visual, text_b)], tau)


def loss_phase(batch: PhaseBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Visual and aggregated-narration queries against concept targets."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, [e.frames for e in batch.entries])
    agg_text = aggregated_text_rows(tape, pn, [e.narrations for e in batch.entries])
    concepts = text_embedding_rows(tape, pn, [e.concept for e in batch.entries])
    return _dual_route_loss(tape, pn, [(visual, concepts), (agg_text, concepts)], tau)


def loss_video(batch: VideoBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Visual and aggregated-narration queries against abstract targets."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, [e.frames for e in batch.entries])
    agg_text = aggregated_text_rows(tape, pn, [e.narrations for e in batch.entries])
    abstracts = text_embedding_rows(tape, pn, [e.abstract for e in batch.entries])
    return _dual_route_loss(tape, pn, [(visual, abstracts), (agg_text, abstracts)], tau)


def loss_single(clip: ClipBatch, phase: PhaseBatch, video: VideoBatch,
                params: ModelParams, tau: float = 0.07) -> LossValue:
    """One InfoNCE over the pooled positive pairs of all three levels.

    Every entry contributes one (visual, text) pair: clip frames with the
    first transcript variant, phase frames with the concept, video frames
    with the abstract. The softmax for each visual query runs over the
    whole pooled target set.
    """
    tape = Tape()
    pn = param_nodes(tape, params)
    visual_parts = []
    texts = []
    for entries, text_of in ((clip.entries, lambda e: e.narration_a),
                             (phase.entries, lambda e: e.concept),
                             (video.entries, lambda e: e.abstract)):
        if entries:  # a level may sit the pool out entirely
            visual_parts.append(
                visual_embedding_rows(tape, pn, [e.frames for e in entries])
            )
            texts.extend(text_of(e) for e in entries)
    if not visual_parts:
        raise EmptyInputError("pooled batch has no entries at any level")
    queries = visual_parts[0] if len(visual_parts) == 1 else tape.concat_rows(visual_parts)
    targets = text_embedding_rows(tape, pn, texts)
    m = queries.value.rows
    p, sims = tape.matched_prob(queries, targets, tau)
    loss_node = tape.scale(tape.sum_all(tape.log(p)), -1.0 / m)
    return _finalize(tape, loss_node, pn, [sims])
