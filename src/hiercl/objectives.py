"""Contrastive objectives over the three hierarchy levels.

Each level-specific loss follows the same sum-inside-log pattern: two
batch-softmax probabilities for the matched pair are added, then the
negative mean log is taken over the batch,

    loss = -(1/B) * sum_i log(p1(i) + p2(i)).

At clip level the two probabilities come from the two transcript variants
of one narration. The phase and video levels share one coarse loss,
`loss_phase` (`loss_video` is the same function): the visual and the
aggregated-text query are both matched against the batch's `summary` texts,
a phase's concept or a video's abstract. The single-space variant pools
the positive pairs of all three levels into one plain InfoNCE instead,
with one route. Every loss encodes its batch and ends in one
`Tape.info_nce` call over its (queries, targets) routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import ClipBatch, CoarseBatch, PhaseBatch, VideoBatch
from .encoders import (
    ModelParams,
    Node,
    aggregated_text_rows,
    param_nodes,
    text_embedding_rows,
    visual_embedding_rows,
)
from .errors import NumericError
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
    pos = np.concatenate([s.diagonal() for s in sims])
    # Row-major, a BxB matrix's off-diagonal entries are the first B of each B+1 after entry 0.
    neg = np.concatenate([s.ravel()[1:].reshape(len(s) - 1, len(s) + 1)[:, :-1] for s in sims],
                         axis=None)
    return float(pos.sum() / pos.size), float(neg.sum() / neg.size) if neg.size else 0.0


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


def loss_phase(batch: CoarseBatch, params: ModelParams, tau: float = 0.07) -> LossValue:
    """Visual and aggregated-narration queries against the summary targets."""
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, batch.frames)
    agg_text = aggregated_text_rows(tape, pn, batch.narrations)
    summaries = text_embedding_rows(tape, pn, batch.summary)
    return _finalize(tape, pn, *tape.info_nce([(visual, summaries), (agg_text, summaries)], tau))


loss_video = loss_phase  # one coarse loss; the video level keeps its own name


def loss_single(clip: ClipBatch, phase: PhaseBatch, video: VideoBatch,
                params: ModelParams, tau: float = 0.07) -> LossValue:
    """One InfoNCE over the pooled positive pairs of all three levels.

    Every item contributes one (visual, text) pair: clip frames with the
    first transcript variant, phase and video frames with their summary.
    The softmax for each visual query runs over the whole pooled target set.
    """
    tape = Tape()
    pn = param_nodes(tape, params)
    queries = tape.concat_rows([visual_embedding_rows(tape, pn, level.frames)
                                for level in (clip, phase, video)])
    targets = text_embedding_rows(tape, pn, clip.narration_a + phase.summary + video.summary)
    return _finalize(tape, pn, *tape.info_nce([(queries, targets)], tau))
