"""Contrastive losses: pinned identities, straight-line oracles, invariances.

The crafted-parameter helpers make both encoders exact identity maps over
nonnegative inputs (identity weights, zero biases, one-hot token table), so
tests can place embeddings at chosen positions and know every cosine.
"""
import math
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from hiercl.corpus import (
    ClipBatch,
    GeneratorConfig,
    PhaseBatch,
    VideoBatch,
    generate_synthetic,
    sample_clip_batch,
    sample_phase_batch,
    sample_video_batch,
)
from hiercl.encoders import EncoderDims, ModelParams, TokenStack
from hiercl.errors import ConfigError, EmptyInputError
from hiercl.numerics import Tape, finite_diff_check
from hiercl.objectives import _sim_diagnostics, loss_clip, loss_phase, loss_single, loss_video
from hiercl.seeding import substream
from hiercl.trainer import TrainConfig, train

from eager import aggregate_texts, encode_segment, encode_text, identity_params

LEAF_NAMES = ["visual.w1", "visual.b1", "visual.w2", "visual.b2",
              "text.embed", "text.w1", "text.b1", "text.w2", "text.b2"]


# ---------------------------------------------------------------------------
# Crafted identity encoders
# ---------------------------------------------------------------------------


def basis_frames(d: int, axis: int, k: int = 2) -> np.ndarray:
    row = np.zeros(d)
    row[axis] = 1.0
    return np.tile(row, (k, 1))


def clip_batch(frames: list[np.ndarray], toks: list[int]) -> ClipBatch:
    """Item i: frames[i], both narrations the one token toks[i]."""
    texts = tuple((t,) for t in toks)
    return ClipBatch(tuple(f"c{i}" for i in range(len(frames))), tuple(frames), texts, texts)


def phase_batch(frames: list[np.ndarray], toks: list[int]) -> PhaseBatch:
    """Item i: frames[i], one narration and the summary (concept) the one token toks[i]."""
    texts = tuple((t,) for t in toks)
    return PhaseBatch(tuple(f"p{i}" for i in range(len(frames))), tuple(frames),
                      tuple((t,) for t in texts), texts)


def video_batch(frames: list[np.ndarray], toks: list[int]) -> VideoBatch:
    """Item i: frames[i], one narration and the summary (abstract) the one token toks[i]."""
    texts = tuple((t,) for t in toks)
    return VideoBatch(tuple(f"v{i}" for i in range(len(frames))), tuple(frames),
                      tuple((t,) for t in texts), texts)


def empty(batch_cls):
    return batch_cls(*[()] * len(fields(batch_cls)))


def test_identity_params_sanity():
    p = identity_params(4)
    assert np.allclose(encode_text([2], p), np.eye(4)[2])
    assert np.allclose(encode_segment(basis_frames(4, 1), p), np.eye(4)[1])


# ---------------------------------------------------------------------------
# Pinned loss identities
# ---------------------------------------------------------------------------


def test_singleton_batches_give_minus_log_two():
    p = identity_params(4)
    want = -math.log(2.0)
    clip = clip_batch([basis_frames(4, 0)], [0])
    phase = phase_batch([basis_frames(4, 0)], [0])
    video = video_batch([basis_frames(4, 0)], [0])
    assert abs(loss_clip(clip, p, 0.07).loss - want) < 1e-9
    assert abs(loss_phase(phase, p, 0.07).loss - want) < 1e-9
    assert abs(loss_video(video, p, 0.07).loss - want) < 1e-9


@pytest.mark.parametrize("b", [2, 4, 8])
def test_identical_embeddings_give_minus_log_two_over_b(b):
    # every entry encodes to the same point, so each softmax row is uniform
    p = identity_params(4)
    frames = basis_frames(4, 0)
    clip = clip_batch([frames] * b, [0] * b)
    phase = phase_batch([frames] * b, [0] * b)
    video = video_batch([frames] * b, [0] * b)
    want = -math.log(2.0 / b)
    for lv in (loss_clip(clip, p, 0.07), loss_phase(phase, p, 0.07),
               loss_video(video, p, 0.07)):
        assert abs(lv.loss - want) < 1e-9


def test_orthogonal_pair_hand_value():
    # B=2, matched cosine 1, unmatched 0, tau=1:
    # each route's matched probability is e/(e+1), so the per-entry log
    # argument is 2e/(e+1) and the loss is -log(2e/(e+1)) = -0.3799
    p = identity_params(4)
    phase = phase_batch([basis_frames(4, 0), basis_frames(4, 1)], [0, 1])
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
    clip = clip_batch([basis_frames(4, 0), basis_frames(4, 1)], [0, 1])
    lv = loss_clip(clip, p, 1.0)
    p_a = math.e / (math.e + 1.0)
    assert abs(lv.loss - (-math.log(2.0 * p_a))) < 1e-12


def test_single_identical_pool_is_log_m():
    p = identity_params(4)
    frames = basis_frames(4, 0)
    clip = clip_batch([frames] * 2, [0] * 2)
    phase = phase_batch([frames] * 2, [0] * 2)
    video = video_batch([frames], [0])
    lv = loss_single(clip, phase, video, p, 0.07)
    assert abs(lv.loss - math.log(5.0)) < 1e-9


def test_single_rejects_all_empty():
    p = identity_params(4)
    with pytest.raises(EmptyInputError):
        loss_single(empty(ClipBatch), empty(PhaseBatch), empty(VideoBatch), p, 0.07)


def test_phase_and_video_share_one_loss():
    assert loss_video is loss_phase


def test_tau_must_be_positive():
    p = identity_params(4)
    frames = basis_frames(4, 0)
    clip = clip_batch([frames], [0])
    phase = phase_batch([frames], [0])
    video = video_batch([frames], [0])
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


def _segments(frames, params):
    return [encode_segment(f, params) for f in frames]


def _texts(texts, params):
    return [encode_text(t, params) for t in texts]


def _aggregates(text_sets, params):
    return np.vstack([aggregate_texts(list(ts), params) for ts in text_sets])


def oracle_clip(batch, params, tau):
    v = np.vstack(_segments(batch.frames, params))
    ta = np.vstack(_texts(batch.narration_a, params))
    tb = np.vstack(_texts(batch.narration_b, params))
    return -np.mean(np.log(_softmax_diag(v, ta, tau) + _softmax_diag(v, tb, tau)))


def oracle_coarse(batch, params, tau):
    """Phase or video level: visual and aggregated-narration queries against the summaries."""
    v = np.vstack(_segments(batch.frames, params))
    a = _aggregates(batch.narrations, params)
    t = np.vstack(_texts(batch.summary, params))
    return -np.mean(np.log(_softmax_diag(v, t, tau) + _softmax_diag(a, t, tau)))


def oracle_single(clip, phase, video, params, tau):
    v = np.vstack(_segments([*clip.frames, *phase.frames, *video.frames], params))
    t = np.vstack(_texts(clip.narration_a + phase.summary + video.summary, params))
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
        assert abs(loss_phase(phase, params, tau).loss - oracle_coarse(phase, params, tau)) < 1e-12
        assert abs(loss_video(video, params, tau).loss - oracle_coarse(video, params, tau)) < 1e-12
        got = loss_single(clip, phase, video, params, tau).loss
        assert abs(got - oracle_single(clip, phase, video, params, tau)) < 1e-12


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _permuted(batch, perm):
    return type(batch)(*(tuple(getattr(batch, f.name)[i] for i in perm)
                         for f in fields(batch)))


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
        for fn, batch in ((loss_clip, clip), (loss_phase, phase), (loss_video, video)):
            base = fn(batch, params, 0.07).loss
            shuffled = fn(_permuted(batch, perm), params, 0.07).loss
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
    got = loss_single(_permuted(clip, perm3), _permuted(phase, perm3),
                      _permuted(video, [1, 0]),
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
        frames = []
        for i in range(3):
            row = np.zeros(d)
            row[i] = math.cos(theta)
            row[shared] = math.sin(theta)
            frames.append(np.tile(row, (2, 1)))
        return phase_batch(frames, [0, 1, 2])

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

    def check(fn, *batches):
        def f(vector):
            lv = fn(*batches, ModelParams(params.dims, vector), 0.07)
            return lv.loss, lv.grads
        return finite_diff_check(f, params.vector, params.dims.layout,
                                 max_coords_per_block=6, seed=0)

    assert check(loss_clip, clip) < 1e-4
    assert check(loss_phase, phase) < 1e-4
    assert check(loss_video, video) < 1e-4
    assert check(loss_single, clip, phase, video) < 1e-4


def test_gradients_cover_every_leaf(corpus):
    params = ModelParams.initialize(DIMS, substream(4, "train"))
    rng = substream(5, "eval")
    lv = loss_clip(sample_clip_batch(corpus, 2, rng), params, 0.07)
    # one flat vector in layout order, and every block gets some gradient
    assert [b.name for b in params.dims.layout] == LEAF_NAMES
    assert lv.grads.shape == (params.dims.size,)
    for b in params.dims.layout:
        assert np.any(lv.grads[b.offset:b.stop] != 0.0), b.name


def test_unused_token_rows_get_zero_gradient():
    params = ModelParams.initialize(
        EncoderDims(d_in=4, d_tok=4, hidden=6, d_emb=4, vocab_size=10),
        substream(11, "train"),
    )
    rng = np.random.default_rng(12)
    clip = clip_batch([rng.standard_normal((2, 4)) for _ in range(2)], [0, 1])
    lv = loss_clip(clip, params, 0.07)
    embed = next(b for b in params.dims.layout if b.name == "text.embed")
    g = lv.grads[embed.offset:embed.stop].reshape(embed.rows, embed.cols)
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


# ---------------------------------------------------------------------------
# Memory: the bytes one loss with its gradient holds at once
# ---------------------------------------------------------------------------


def traced_peak(fn) -> int:
    """Most bytes held at once during one call of fn beyond those held before it.

    The first call fills every cache, so the traced second call allocates
    only what each call does.
    """
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_peak_memory_of_one_loss_with_its_gradient():
    # A paper-scale pooled step, and a desk video step, on the seed-0 corpus.
    corpus = generate_synthetic(GeneratorConfig(seed=0))
    params = ModelParams.initialize(EncoderDims(), np.random.default_rng(0))
    paper, rng = TrainConfig.paper_scale(), np.random.default_rng(0)
    pools = (sample_clip_batch(corpus, paper.b_clip, rng, k=paper.k_clip),
             sample_phase_batch(corpus, paper.b_phase, rng, k=paper.k_phase),
             sample_video_batch(corpus, paper.b_video, rng, k=paper.k_video))
    assert traced_peak(lambda: loss_single(*pools, params)) <= 3_000_000
    desk = TrainConfig()
    video = sample_video_batch(corpus, desk.b_video, np.random.default_rng(0), k=desk.k_video)
    assert traced_peak(lambda: loss_video(video, params)) <= 800_000


# ---------------------------------------------------------------------------
# Tape size: nodes recorded per loss
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_tape_nodes_per_loss(monkeypatch, scale):
    # 9 parameter leaves; a visual encoding is 4 nodes, a text encoding 3 and
    # an aggregated one 5; one info_nce node ends every loss.
    cfg = TrainConfig() if scale == "desk" else TrainConfig.paper_scale()
    corpus = generate_synthetic(GeneratorConfig(seed=0))
    params = ModelParams.initialize(EncoderDims(), np.random.default_rng(0))
    rng = np.random.default_rng(0)
    clip = sample_clip_batch(corpus, cfg.b_clip, rng, k=cfg.k_clip)
    phase = sample_phase_batch(corpus, cfg.b_phase, rng, k=cfg.k_phase)
    video = sample_video_batch(corpus, cfg.b_video, rng, k=cfg.k_video)
    counts = []
    backward = Tape.backward

    def counting(tape, loss, wrt):
        counts.append(len(tape))
        return backward(tape, loss, wrt)

    monkeypatch.setattr(Tape, "backward", counting)
    loss_clip(clip, params)
    loss_phase(phase, params)
    loss_video(video, params)
    loss_single(clip, phase, video, params)
    assert counts == [20, 22, 22, 26]


# ---------------------------------------------------------------------------
# Call budget: Python-level calls per loss and per sample
# ---------------------------------------------------------------------------


def python_calls(fn) -> int:
    """Python-level function calls (profile "call" events) made by one call of fn."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_python_calls_per_step():
    # One seed-0 desk loss_clip, desk loss_video, paper-scale loss_single and
    # desk sample_video_batch, each counted on a fresh batch (sampled outside
    # the count) after a first call has filled the corpus's caches, so a
    # loss's count includes the token gathers its batch makes on first read.
    # The counts include the calls inside numpy's Python wrappers (np.repeat,
    # ndarray.sum, np.full, ...) and, on Python 3.11, each comprehension's own
    # call, so they are tied to this environment's numpy (2.4) and Python.
    # Measured there: 110, 129, 154 and 30; each bound is a few calls above.
    corpus = generate_synthetic(GeneratorConfig(seed=0))
    params = ModelParams.initialize(EncoderDims(), np.random.default_rng(0))
    desk, paper = TrainConfig(), TrainConfig.paper_scale()
    rng = np.random.default_rng(0)

    def pools(cfg):
        return (sample_clip_batch(corpus, cfg.b_clip, rng, k=cfg.k_clip),
                sample_phase_batch(corpus, cfg.b_phase, rng, k=cfg.k_phase),
                sample_video_batch(corpus, cfg.b_video, rng, k=cfg.k_video))

    def on_a_fresh_batch(sample, step) -> int:
        step(sample())
        batch = sample()
        return python_calls(lambda: step(batch))

    counts = [
        on_a_fresh_batch(lambda: pools(desk)[0], lambda b: loss_clip(b, params)),
        on_a_fresh_batch(lambda: pools(desk)[2], lambda b: loss_video(b, params)),
        on_a_fresh_batch(lambda: pools(paper), lambda b: loss_single(*b, params)),
        on_a_fresh_batch(lambda: None, lambda _: sample_video_batch(
            corpus, desk.b_video, rng, k=desk.k_video)),
    ]
    assert all(c <= bound for c, bound in zip(counts, (115, 134, 161, 33))), counts


# ---------------------------------------------------------------------------
# Text columns: token ids are gathered only where a loss reads them
# ---------------------------------------------------------------------------


def _gathered(column) -> bool:
    # A TokenSets column works out its member runs on first read; vars()
    # looks without reading.
    stack = vars(column).get("members", column)
    return "ids" in vars(stack)


def test_single_step_gathers_only_the_texts_it_reads(corpus):
    params = ModelParams.initialize(DIMS, substream(0, "train"))
    rng = substream(0, "eval")
    clip = sample_clip_batch(corpus, 4, rng, k=3)
    phase = sample_phase_batch(corpus, 3, rng, k=4)
    video = sample_video_batch(corpus, 2, rng, k=6)
    columns = (clip.narration_a, clip.narration_b, phase.narrations, phase.summary,
               video.narrations, video.summary)
    assert not any(map(_gathered, columns))
    loss_single(clip, phase, video, params)
    # The pooled targets are one concatenation of runs, gathered once as a whole,
    # and the narration sets' member runs are never worked out.
    assert not any(map(_gathered, columns))
    assert not any("members" in vars(batch.narrations) for batch in (phase, video))
    loss_clip(clip, params)
    loss_phase(phase, params)
    assert [_gathered(c) for c in columns] == [True, True, True, True, False, False]
    assert ["members" in vars(batch.narrations) for batch in (phase, video)] == [True, False]


def test_sampled_batches_reach_no_flatten(corpus, monkeypatch):
    flatten = TokenStack.of.__func__

    def only_stacks(cls, texts):
        assert isinstance(texts, TokenStack), "a sampled text column was flattened"
        return flatten(cls, texts)

    monkeypatch.setattr(TokenStack, "of", classmethod(only_stacks))
    for mode in ("hecvl", "single"):
        train(TrainConfig(cycles=1, m=1, n=1, l=1, b_clip=3, b_phase=2, b_video=2, mode=mode,
                          d_tok=6, hidden=10, d_emb=5), corpus)
    with pytest.raises(AssertionError, match="flattened"):
        loss_clip(clip_batch([basis_frames(4, 0)], [0]), identity_params(4))
