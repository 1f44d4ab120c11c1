"""Contrastive losses: pinned identities, straight-line oracles, invariances.

The crafted-parameter helpers make both encoders exact identity maps over
nonnegative inputs (identity weights, zero biases, one-hot token table), so
tests can place embeddings at chosen positions and know every cosine.
"""
import math

import numpy as np
import pytest

from hiercl.corpus import (
    ClipBatch,
    ClipExample,
    GeneratorConfig,
    PhaseBatch,
    PhaseExample,
    VideoBatch,
    VideoExample,
    generate_synthetic,
    sample_clip_batch,
    sample_phase_batch,
    sample_video_batch,
)
from hiercl.encoders import (
    EncoderDims,
    ModelParams,
    aggregate_texts,
    encode_segment,
    encode_text,
)
from hiercl.errors import ConfigError, EmptyInputError
from hiercl.numerics import Matrix, finite_diff_check
from hiercl.objectives import _sim_diagnostics, loss_clip, loss_phase, loss_single, loss_video
from hiercl.seeding import substream

LEAF_NAMES = ["visual.w1", "visual.b1", "visual.w2", "visual.b2",
              "text.embed", "text.w1", "text.b1", "text.w2", "text.b2"]


# ---------------------------------------------------------------------------
# Crafted identity encoders
# ---------------------------------------------------------------------------


def identity_params(d: int) -> ModelParams:
    eye = Matrix.identity(d)
    zero_bias = Matrix.zeros(1, d)
    return ModelParams.from_blocks(
        EncoderDims(d_in=d, d_tok=d, hidden=d, d_emb=d, vocab_size=d),
        {"visual.w1": eye, "visual.b1": zero_bias, "visual.w2": eye, "visual.b2": zero_bias,
         "text.embed": eye, "text.w1": eye, "text.b1": zero_bias, "text.w2": eye,
         "text.b2": zero_bias},
    )


def basis_frames(d: int, axis: int, k: int = 2) -> Matrix:
    row = np.zeros(d)
    row[axis] = 1.0
    return Matrix(np.tile(row, (k, 1)))


def clip_entry(i: int, frames: Matrix, tok: int) -> ClipExample:
    return ClipExample(source_id=f"c{i}", frames=frames,
                       narration_a=(tok,), narration_b=(tok,))


def phase_entry(i: int, frames: Matrix, tok: int) -> PhaseExample:
    return PhaseExample(source_id=f"p{i}", clip_ids=(f"c{i}",), frames=frames,
                        narrations=((tok,),), concept=(tok,))


def video_entry(i: int, frames: Matrix, tok: int) -> VideoExample:
    return VideoExample(source_id=f"v{i}", clip_ids=(f"c{i}",), frames=frames,
                        narrations=((tok,),), abstract=(tok,))


def test_identity_params_sanity():
    p = identity_params(4)
    assert np.allclose(encode_text([2], p).array, np.eye(4)[2])
    assert np.allclose(encode_segment(basis_frames(4, 1), p).array, np.eye(4)[1])


# ---------------------------------------------------------------------------
# Pinned loss identities
# ---------------------------------------------------------------------------


def test_singleton_batches_give_minus_log_two():
    p = identity_params(4)
    want = -math.log(2.0)
    clip = ClipBatch((clip_entry(0, basis_frames(4, 0), 0),))
    phase = PhaseBatch((phase_entry(0, basis_frames(4, 0), 0),))
    video = VideoBatch((video_entry(0, basis_frames(4, 0), 0),))
    assert abs(loss_clip(clip, p, 0.07).loss - want) < 1e-9
    assert abs(loss_phase(phase, p, 0.07).loss - want) < 1e-9
    assert abs(loss_video(video, p, 0.07).loss - want) < 1e-9


@pytest.mark.parametrize("b", [2, 4, 8])
def test_identical_embeddings_give_minus_log_two_over_b(b):
    # every entry encodes to the same point, so each softmax row is uniform
    p = identity_params(4)
    frames = basis_frames(4, 0)
    clip = ClipBatch(tuple(clip_entry(i, frames, 0) for i in range(b)))
    phase = PhaseBatch(tuple(phase_entry(i, frames, 0) for i in range(b)))
    video = VideoBatch(tuple(video_entry(i, frames, 0) for i in range(b)))
    want = -math.log(2.0 / b)
    for lv in (loss_clip(clip, p, 0.07), loss_phase(phase, p, 0.07),
               loss_video(video, p, 0.07)):
        assert abs(lv.loss - want) < 1e-9


def test_orthogonal_pair_hand_value():
    # B=2, matched cosine 1, unmatched 0, tau=1:
    # each route's matched probability is e/(e+1), so the per-entry log
    # argument is 2e/(e+1) and the loss is -log(2e/(e+1)) = -0.3799
    p = identity_params(4)
    phase = PhaseBatch((phase_entry(0, basis_frames(4, 0), 0),
                        phase_entry(1, basis_frames(4, 1), 1)))
    lv = loss_phase(phase, p, 1.0)
    prob = math.e / (math.e + 1.0)
    assert abs(prob - 0.73106) < 1e-5
    want = -math.log(2.0 * prob)
    assert abs(lv.loss - want) < 1e-12
    assert round(lv.loss, 3) == -0.380
    assert abs(lv.pos_sim - 1.0) < 1e-12
    assert abs(lv.neg_sim) < 1e-12


def test_equal_transcripts_double_the_probability():
    # narration_a == narration_b forces p_a == p_b
    p = identity_params(4)
    clip = ClipBatch((clip_entry(0, basis_frames(4, 0), 0),
                      clip_entry(1, basis_frames(4, 1), 1)))
    lv = loss_clip(clip, p, 1.0)
    p_a = math.e / (math.e + 1.0)
    assert abs(lv.loss - (-math.log(2.0 * p_a))) < 1e-12


def test_single_pool_of_one_is_zero():
    p = identity_params(4)
    clip = ClipBatch((clip_entry(0, basis_frames(4, 0), 0),))
    lv = loss_single(clip, PhaseBatch(()), VideoBatch(()), p, 0.07)
    assert abs(lv.loss) < 1e-12


def test_single_identical_pool_is_log_m():
    p = identity_params(4)
    frames = basis_frames(4, 0)
    clip = ClipBatch(tuple(clip_entry(i, frames, 0) for i in range(2)))
    phase = PhaseBatch(tuple(phase_entry(i, frames, 0) for i in range(2)))
    video = VideoBatch((video_entry(0, frames, 0),))
    lv = loss_single(clip, phase, video, p, 0.07)
    assert abs(lv.loss - math.log(5.0)) < 1e-9


def test_single_rejects_all_empty():
    p = identity_params(4)
    with pytest.raises(EmptyInputError):
        loss_single(ClipBatch(()), PhaseBatch(()), VideoBatch(()), p, 0.07)


def test_tau_must_be_positive():
    p = identity_params(4)
    frames = basis_frames(4, 0)
    clip = ClipBatch((clip_entry(0, frames, 0),))
    phase = PhaseBatch((phase_entry(0, frames, 0),))
    video = VideoBatch((video_entry(0, frames, 0),))
    for bad in (0.0, -0.5, float("nan")):
        for call in (lambda: loss_clip(clip, p, bad), lambda: loss_phase(phase, p, bad),
                     lambda: loss_video(video, p, bad),
                     lambda: loss_single(clip, phase, video, p, bad)):
            with pytest.raises(ConfigError, match="temperature must be positive"):
                call()


# ---------------------------------------------------------------------------
# Straight-line oracles on random batches
# ---------------------------------------------------------------------------

GEN = GeneratorConfig(num_videos=6, num_classes=3, clips_per_phase=2,
                      frames_per_clip=4, d_in=8, vocab_size=30, seed=21)
DIMS = EncoderDims(d_in=8, d_tok=6, hidden=10, d_emb=5, vocab_size=30)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(GEN)


def _softmax_diag(q: np.ndarray, t: np.ndarray, tau: float) -> np.ndarray:
    e = np.exp(q @ t.T / tau)
    return np.diag(e / e.sum(axis=1, keepdims=True))


def oracle_clip(batch, params, tau):
    v = np.vstack([encode_segment(e.frames, params).array for e in batch.entries])
    ta = np.vstack([encode_text(e.narration_a, params).array for e in batch.entries])
    tb = np.vstack([encode_text(e.narration_b, params).array for e in batch.entries])
    return -np.mean(np.log(_softmax_diag(v, ta, tau) + _softmax_diag(v, tb, tau)))


def oracle_phase(batch, params, tau):
    v = np.vstack([encode_segment(e.frames, params).array for e in batch.entries])
    a = np.vstack([aggregate_texts(list(e.narrations), params).array for e in batch.entries])
    c = np.vstack([encode_text(e.concept, params).array for e in batch.entries])
    return -np.mean(np.log(_softmax_diag(v, c, tau) + _softmax_diag(a, c, tau)))


def oracle_video(batch, params, tau):
    v = np.vstack([encode_segment(e.frames, params).array for e in batch.entries])
    a = np.vstack([aggregate_texts(list(e.narrations), params).array for e in batch.entries])
    t = np.vstack([encode_text(e.abstract, params).array for e in batch.entries])
    return -np.mean(np.log(_softmax_diag(v, t, tau) + _softmax_diag(a, t, tau)))


def oracle_single(clip, phase, video, params, tau):
    v = np.vstack(
        [encode_segment(e.frames, params).array for e in clip.entries]
        + [encode_segment(e.frames, params).array for e in phase.entries]
        + [encode_segment(e.frames, params).array for e in video.entries]
    )
    t = np.vstack(
        [encode_text(e.narration_a, params).array for e in clip.entries]
        + [encode_text(e.concept, params).array for e in phase.entries]
        + [encode_text(e.abstract, params).array for e in video.entries]
    )
    return -np.mean(np.log(_softmax_diag(v, t, tau)))


def test_losses_match_straight_line_oracles(corpus):
    for seed in range(8):
        params = ModelParams.initialize(DIMS, substream(seed, "train"))
        rng = substream(seed, "eval")
        b = 2 + seed % 3
        clip = sample_clip_batch(corpus, b, rng, k=3)
        phase = sample_phase_batch(corpus, b, rng, k=4)
        video = sample_video_batch(corpus, b, rng, k=6)
        tau = (0.07, 0.5, 1.0)[seed % 3]
        assert abs(loss_clip(clip, params, tau).loss - oracle_clip(clip, params, tau)) < 1e-12
        assert abs(loss_phase(phase, params, tau).loss - oracle_phase(phase, params, tau)) < 1e-12
        assert abs(loss_video(video, params, tau).loss - oracle_video(video, params, tau)) < 1e-12
        got = loss_single(clip, phase, video, params, tau).loss
        assert abs(got - oracle_single(clip, phase, video, params, tau)) < 1e-12


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _permuted(batch_cls, entries, perm):
    return batch_cls(tuple(entries[i] for i in perm))


def test_permutation_invariance(corpus):
    params = ModelParams.initialize(DIMS, substream(0, "train"))
    cases = 0
    for seed in range(35):
        rng = substream(seed, "eval")
        b = 2 + seed % 3
        clip = sample_clip_batch(corpus, b, rng, k=3)
        phase = sample_phase_batch(corpus, b, rng, k=4)
        video = sample_video_batch(corpus, b, rng, k=6)
        perm = rng.permutation(b).tolist()
        for fn, batch, cls in ((loss_clip, clip, ClipBatch),
                               (loss_phase, phase, PhaseBatch),
                               (loss_video, video, VideoBatch)):
            base = fn(batch, params, 0.07).loss
            shuffled = fn(_permuted(cls, batch.entries, perm), params, 0.07).loss
            assert abs(base - shuffled) < 1e-12
            cases += 1
    assert cases >= 100


def test_single_permutation_invariance(corpus):
    params = ModelParams.initialize(DIMS, substream(1, "train"))
    rng = substream(40, "eval")
    clip = sample_clip_batch(corpus, 3, rng, k=3)
    phase = sample_phase_batch(corpus, 3, rng, k=4)
    video = sample_video_batch(corpus, 2, rng, k=6)
    base = loss_single(clip, phase, video, params, 0.07).loss
    perm3 = [2, 0, 1]
    got = loss_single(_permuted(ClipBatch, clip.entries, perm3),
                      _permuted(PhaseBatch, phase.entries, perm3),
                      _permuted(VideoBatch, video.entries, [1, 0]),
                      params, 0.07).loss
    assert abs(base - got) < 1e-12


def test_phase_and_video_losses_bounded_below(corpus):
    bound = -math.log(2.0) - 1e-9
    for seed in range(20):
        params = ModelParams.initialize(DIMS, substream(seed, "train"))
        rng = substream(seed + 100, "eval")
        phase = sample_phase_batch(corpus, 3, rng, k=4)
        video = sample_video_batch(corpus, 2, rng, k=6)
        assert loss_phase(phase, params, 0.07).loss >= bound
        assert loss_video(video, params, 0.07).loss >= bound


def test_raising_matched_similarity_never_raises_loss():
    # visual embeddings at angle theta from their targets; unmatched stay 0
    d = 6
    p = identity_params(d)
    shared = d - 1

    def batch_at(theta: float) -> PhaseBatch:
        entries = []
        for i in range(3):
            row = np.zeros(d)
            row[i] = math.cos(theta)
            row[shared] = math.sin(theta)
            frames = Matrix(np.tile(row, (2, 1)))
            entries.append(PhaseExample(source_id=f"p{i}", clip_ids=(f"c{i}",),
                                        frames=frames, narrations=((i,),),
                                        concept=(i,)))
        return PhaseBatch(tuple(entries))

    thetas = np.linspace(0.0, 1.5, 12)  # matched cosine decreasing
    losses = [loss_phase(batch_at(t), p, 0.3).loss for t in thetas]
    for lo, hi in zip(losses, losses[1:]):
        assert lo <= hi + 1e-12


def test_gradients_match_finite_differences(corpus):
    params = ModelParams.initialize(
        EncoderDims(d_in=8, d_tok=6, hidden=10, d_emb=8, vocab_size=30),
        substream(2, "train"),
    )
    rng = substream(3, "eval")
    clip = sample_clip_batch(corpus, 2, rng, k=2)
    phase = sample_phase_batch(corpus, 3, rng, k=2)
    video = sample_video_batch(corpus, 2, rng, k=4)
    leaves = dict(params.leaves())

    def check(fn, *batches):
        def f(leaf_dict):
            lv = fn(*batches, ModelParams.from_blocks(params.dims, leaf_dict), 0.07)
            return lv.loss, lv.grads
        return finite_diff_check(f, leaves, max_coords_per_block=6, seed=0)

    assert check(loss_clip, clip) < 1e-4
    assert check(loss_phase, phase) < 1e-4
    assert check(loss_video, video) < 1e-4
    assert check(loss_single, clip, phase, video) < 1e-4


def test_gradients_cover_every_leaf(corpus):
    params = ModelParams.initialize(DIMS, substream(4, "train"))
    rng = substream(5, "eval")
    lv = loss_clip(sample_clip_batch(corpus, 2, rng), params, 0.07)
    assert sorted(lv.grads) == sorted(LEAF_NAMES)
    for name, ref in params.leaves():
        assert lv.grads[name].shape == ref.shape


def test_unused_token_rows_get_zero_gradient():
    params = ModelParams.initialize(
        EncoderDims(d_in=4, d_tok=4, hidden=6, d_emb=4, vocab_size=10),
        substream(11, "train"),
    )
    rng = np.random.default_rng(12)
    clip = ClipBatch((
        ClipExample("c0", Matrix(rng.standard_normal((2, 4))), (0,), (0,)),
        ClipExample("c1", Matrix(rng.standard_normal((2, 4))), (1,), (1,)),
    ))
    lv = loss_clip(clip, params, 0.07)
    g = lv.grads["text.embed"].array
    assert np.any(g[0] != 0.0) and np.any(g[1] != 0.0)
    assert np.all(g[2:] == 0.0)


def test_diagnostics_ranges(corpus):
    params = ModelParams.initialize(DIMS, substream(6, "train"))
    rng = substream(7, "eval")
    lv = loss_clip(sample_clip_batch(corpus, 4, rng), params, 0.07)
    assert -1.0 - 1e-12 <= lv.pos_sim <= 1.0 + 1e-12
    assert -1.0 - 1e-12 <= lv.neg_sim <= 1.0 + 1e-12
    solo = loss_clip(sample_clip_batch(corpus, 1, rng), params, 0.07)
    assert solo.neg_sim == 0.0


def _list_sim_diagnostics(sims):
    """The element-by-element formula the vectorised diagnostics replace."""
    pos, neg = [], []
    for s in sims:
        pos.extend(np.diag(s))
        if s.shape[0] > 1:
            neg.extend(s[~np.eye(s.shape[0], dtype=bool)])
    return float(np.mean(pos)), float(np.mean(neg)) if neg else 0.0


def test_sim_diagnostics_match_list_formula():
    rng = np.random.default_rng(12)
    for shapes in ([16, 16], [190], [1], [1, 1], [1, 4], [3, 1, 120], [60, 60]):
        sims = [rng.uniform(-1.0, 1.0, (n, n)) for n in shapes]
        assert _sim_diagnostics(sims) == _list_sim_diagnostics(sims)
