"""Schedule, AdamW, the training loop, and checkpoint persistence."""
import hashlib
import json
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercl.corpus import GeneratorConfig, generate_synthetic
from hiercl.encoders import EncoderDims, ModelParams
from hiercl.errors import (
    CheckpointIntegrityError,
    ConfigError,
    InsufficientDataError,
    NumericError,
    SchemaVersionError,
    ShapeError,
)
from hiercl.seeding import substream
from hiercl.trainer import (
    MODES,
    Checkpoint,
    TrainConfig,
    TrainState,
    check_capacity,
    _level_at,
    adamw_step,
    load_checkpoint,
    save_checkpoint,
    schedule_level,
    train,
    untrained_checkpoint,
)

GEN = GeneratorConfig(num_videos=8, num_classes=3, clips_per_phase=2,
                      frames_per_clip=4, d_in=8, vocab_size=30, seed=13)
TINY = dict(m=1, n=1, l=1, b_clip=3, b_phase=2, b_video=2,
            k_clip=2, k_phase=3, k_video=4, d_tok=6, hidden=10, d_emb=5)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(GEN)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(tau=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(m=0)
    with pytest.raises(ConfigError):
        TrainConfig(beta2=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(mode="fancy")


COUNT_FIELDS = ("m", "n", "l", "b_clip", "b_phase", "b_video", "k_clip", "k_phase",
                "k_video", "cycles", "d_tok", "hidden", "d_emb")


@pytest.mark.parametrize("field", COUNT_FIELDS + ("seed",))
@pytest.mark.parametrize("value", [3.5, 4.0, True, "4", None])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


def test_config_rejects_negative_seed_and_accepts_zero():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0


@pytest.mark.parametrize("field", ["lr", "eps", "tau", "weight_decay", "beta1", "beta2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, False,
                                   "0.1", "0.5", None])
def test_config_rejects_non_finite_or_non_numeric_floats(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_config_float_ranges():
    for field in ("lr", "eps", "tau"):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError, match=f"^{field} must be > 0"):
                TrainConfig(**{field: bad})
        assert getattr(TrainConfig(**{field: 1}), field) == 1  # an int is a number
    with pytest.raises(ConfigError, match="^weight_decay must be >= 0"):
        TrainConfig(weight_decay=-1e-3)
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


def test_desk_and_paper_batch_sizes():
    desk = TrainConfig()
    assert (desk.b_clip, desk.b_phase, desk.b_video) == (16, 8, 4)
    paper = TrainConfig.paper_scale()
    assert (paper.b_clip, paper.b_phase, paper.b_video) == (120, 60, 10)
    assert paper.lr == desk.lr == 5e-5
    custom = TrainConfig.paper_scale(cycles=3)
    assert custom.cycles == 3 and custom.b_clip == 120


def test_schedule_defaults_and_totals():
    cfg = TrainConfig()
    assert (cfg.m, cfg.n, cfg.l) == (25, 15, 115)
    assert cfg.total_batches == 50 * 155
    assert (cfg.k_clip, cfg.k_phase, cfg.k_video) == (4, 8, 32)


def test_config_digest_tracks_values():
    assert TrainConfig().digest() == TrainConfig().digest()
    assert TrainConfig().digest() != TrainConfig(lr=1e-4).digest()


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------


def test_schedule_boundaries():
    for idx, want in [(0, "clip"), (24, "clip"), (25, "phase"), (39, "phase"),
                      (40, "video"), (154, "video"), (155, "clip")]:
        assert schedule_level(idx, 25, 15, 115) == want


def test_schedule_unit_cycle():
    got = [schedule_level(i, 1, 1, 1) for i in range(4)]
    assert got == ["clip", "phase", "video", "clip"]


def test_schedule_counts_over_one_period():
    levels = [schedule_level(i, 25, 15, 115) for i in range(155)]
    assert levels.count("clip") == 25
    assert levels.count("phase") == 15
    assert levels.count("video") == 115


def test_schedule_is_periodic():
    for i in range(200):
        assert schedule_level(i, 7, 3, 5) == schedule_level(i + 15, 7, 3, 5)


def test_schedule_rejects_negative_index():
    with pytest.raises(ConfigError):
        schedule_level(-1, 1, 1, 1)
    # The index and run lengths are non-negative ints, and the runs have a positive sum.
    for args, message in (((0, 0, 0, 0), "^run lengths m, n, l must not all be 0$"),
                          ((3, -1, 2, 3), "^m must be >= 0, got -1$"),
                          ((0, 1.5, 1, 1), "^m must be an integer, got 1.5$"),
                          ((0, 1, True, 1), "^n must be an integer, got True$"),
                          ((0, 1, 1, "1"), "^l must be an integer"),
                          ((True, 1, 1, 1), "^index must be an integer, got True$")):
        with pytest.raises(ConfigError, match=message):
            schedule_level(*args)
    assert schedule_level(3, 0, 1, 0) == "phase"


def _level_oracle(cfg: TrainConfig, index: int) -> str:
    """Each mode's level rule written out by hand, one branch per mode."""
    if cfg.mode == "hecvl":
        r = index % (cfg.m + cfg.n + cfg.l)
        return "clip" if r < cfg.m else "phase" if r < cfg.m + cfg.n else "video"
    if cfg.mode == "single":
        return "single"
    if cfg.mode == "clip":
        return "clip"
    if cfg.mode == "clip_phase":
        r = index % (cfg.m + cfg.n)
        return "clip" if r < cfg.m else "phase"
    if cfg.mode == "sequential":
        if index < cfg.cycles * cfg.m:
            return "clip"
        if index < cfg.cycles * (cfg.m + cfg.n):
            return "phase"
        return "video"
    raise AssertionError(f"the oracle has no rule for mode {cfg.mode!r}")


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), l=st.integers(1, 6),
       cycles=st.integers(1, 4))
def test_level_at_matches_per_mode_oracle(mode, m, n, l, cycles):
    cfg = TrainConfig(mode=mode, m=m, n=n, l=l, cycles=cycles)
    got = [_level_at(cfg, i) for i in range(cfg.total_batches)]
    assert got == [_level_oracle(cfg, i) for i in range(cfg.total_batches)]


def test_readme_lists_every_mode():
    # the table under "Training modes" in README has one row per mode
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("Training modes (`--mode`)", 1)[1]
    table = re.search(r"^\|.*?\n(?!\|)", section, re.S | re.M).group(0)
    listed = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert sorted(listed) == sorted(MODES)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def _scalar_setup(theta: float, grad: float):
    dims = EncoderDims(d_in=1, d_tok=1, hidden=1, d_emb=1, vocab_size=1)
    base = ModelParams.initialize(dims, substream(0, "train"))
    params = ModelParams.from_blocks(
        dims,
        {name: np.array([[theta]]) if name == "visual.w1" else np.zeros(m.shape)
         for name, m in base.leaves()},
    )
    grads = np.zeros(dims.size)
    grads[0] = grad  # every block is 1x1, and visual.w1 comes first
    return params, grads


def _fresh(params):
    """The loop's state at batch 0: its own copies of params and zero moments."""
    return TrainState(params, np.zeros((2, params.dims.size)), 0)


def test_adamw_zero_gradient_without_decay_is_fixed_point():
    params, zero_grads = _scalar_setup(1.0, 0.0)
    state = _fresh(params)
    adamw_step(state, zero_grads, TrainConfig(lr=0.1, weight_decay=0.0))
    updated, _ = state.frozen()
    assert updated.digest() == params.digest()
    assert state.step == 1


def test_adamw_first_step_hand_value():
    # theta=1, g=1, lr=0.1: m_hat=1, v_hat=1, theta' = 1 - 0.1/(1 + eps)
    params, grads = _scalar_setup(1.0, 1.0)
    state = _fresh(params)
    adamw_step(state, grads, TrainConfig(lr=0.1, weight_decay=0.0))
    theta = dict(state.params.leaves())["visual.w1"][0, 0]
    assert abs(theta - 0.9) < 1e-8


def test_adamw_decay_only_shrinks_exactly():
    params, zero_grads = _scalar_setup(2.0, 0.0)
    state = _fresh(params)
    adamw_step(state, zero_grads, TrainConfig(lr=0.1, weight_decay=0.01))
    theta = dict(state.params.leaves())["visual.w1"][0, 0]
    assert theta == 2.0 - 0.1 * 0.01 * 2.0  # decoupled decay, exact


def test_adamw_rejects_nonfinite_gradient():
    params, grads = _scalar_setup(1.0, float("nan"))
    with pytest.raises(NumericError, match="visual.w1"):
        adamw_step(_fresh(params), grads, TrainConfig())
    # the message names the first bad block in layout order
    names = [b.name for b in params.dims.layout]
    grads[0] = 1.0
    grads[names.index("text.w1")] = float("inf")
    grads[names.index("text.b2")] = float("nan")
    with pytest.raises(NumericError, match="block text.w1$"):
        adamw_step(_fresh(params), grads, TrainConfig())


def test_adamw_moment_shapes_and_step_counter():
    dims = EncoderDims(d_in=3, d_tok=3, hidden=4, d_emb=2, vocab_size=5)
    state = _fresh(ModelParams.initialize(dims, substream(1, "train")))
    grads = np.ones(dims.size)
    for want_step in (1, 2, 3):
        adamw_step(state, grads, TrainConfig())
        assert state.step == want_step
    params, moments = state.frozen()
    assert moments.shape == (2, dims.size) and params.vector.shape == (dims.size,)


def _adamw_reference(blocks, grads, first, second, t, cfg):
    """Per-block AdamW, updating the three dicts in place: the flat step's reference."""
    for name, theta in blocks.items():
        g = grads[name]
        first[name] = cfg.beta1 * first[name] + (1.0 - cfg.beta1) * g
        second[name] = cfg.beta2 * second[name] + (1.0 - cfg.beta2) * (g * g)
        m1_hat = first[name] / (1.0 - cfg.beta1 ** t)
        m2_hat = second[name] / (1.0 - cfg.beta2 ** t)
        step = cfg.lr * (m1_hat / (np.sqrt(m2_hat) + cfg.eps))
        blocks[name] = theta - step - cfg.lr * cfg.weight_decay * theta


def test_adamw_flat_update_equals_per_block_loop():
    # All five widths differ, so only the two b1 and the two b2 blocks share a shape.
    dims = EncoderDims(d_in=3, d_tok=5, hidden=7, d_emb=2, vocab_size=11)
    params = ModelParams.initialize(dims, substream(4, "train"))
    cfg = TrainConfig(lr=1e-2, weight_decay=0.1)
    state = _fresh(params)
    blocks = dict(params.leaves())
    first = {name: np.zeros(m.shape) for name, m in params.leaves()}
    second = {name: np.zeros(m.shape) for name, m in params.leaves()}
    rng = np.random.default_rng(5)
    for t in (1, 2, 3, 4):
        grads = {name: rng.standard_normal(m.shape) * 10.0 ** rng.integers(-3, 3)
                 for name, m in params.leaves()}
        flat = np.concatenate([grads[b.name].ravel() for b in dims.layout])
        adamw_step(state, flat, cfg)
        _adamw_reference(blocks, grads, first, second, t, cfg)
        for b, (name, m) in zip(dims.layout, state.params.leaves()):
            assert np.array_equal(m, blocks[name])
            assert np.array_equal(state.first[b.offset:b.stop], first[name].ravel())
            assert np.array_equal(state.second[b.offset:b.stop], second[name].ravel())
    assert state.step == 4


def test_adamw_updates_in_place_without_vector_temporaries():
    dims = EncoderDims()  # desk scale: 14,496 parameters
    state = _fresh(ModelParams.initialize(dims, substream(2, "train")))
    buffers = (state.theta, state.first, state.second, state.params.vector)
    grads = [np.random.default_rng(t).standard_normal(dims.size) for t in range(100)]
    cfg = TrainConfig(lr=1e-2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for g in grads:
            adamw_step(state, g, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < state.theta.nbytes / 4, peak
    assert all(now is then for now, then in zip(
        (state.theta, state.first, state.second, state.params.vector), buffers))
    assert np.shares_memory(state.params.vector, state.theta)
    assert not state.params.vector.flags.writeable
    assert state.step == 100


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_train_split():
    return generate_synthetic(GeneratorConfig()).split(0.25)[0]


def _log_line(entry: dict) -> bytes:
    """An entry's line of train_log.jsonl, as `hiercl train` writes it from `on_batch`."""
    return (json.dumps(entry) + "\n").encode()


@pytest.mark.parametrize("cfg, digest", [
    (TrainConfig(cycles=1),
     "4dee3b1ee981873bfa4f0080062ef5ed6976934b017954a729644903f9fd2190"),
    (TrainConfig.paper_scale(cycles=1, mode="single"),
     "f5db9d2d0036a659bc838b48801a9b9672e52878a0ee0653519803271d7a59d5"),
    (TrainConfig(cycles=1, mode="clip_phase"),
     "6ec57c487b0b1f4dbb4debe5d52c312c84034ea47ec6a975c8f2e56ab1c4fc62"),
], ids=["hecvl", "paper-single", "clip_phase"])
def test_trained_digest_is_pinned(default_train_split, cfg, digest):
    # One seed-0 cycle on the default corpus's train split. Any change to
    # the bits of training must update these values on purpose.
    assert train(cfg, default_train_split).checkpoint.params.digest() == digest


@pytest.mark.parametrize("cfg, digest", [
    (TrainConfig(cycles=1),
     "902cc4328058576c4c868d7f537b594b4e8ef82215f9b611799f85a482f24a6a"),
    (TrainConfig.paper_scale(cycles=1, mode="single"),
     "23ac0e1d1ad49b7cbba9c7f3b40aaee75a6e26be83c43c40d008e26fd9f3ac88"),
], ids=["hecvl", "paper-single"])
def test_trained_log_is_pinned(default_train_split, cfg, digest):
    # The parameter digest does not cover the logged loss, pos_sim and
    # neg_sim; this pins the bytes of train_log.jsonl for the same runs.
    hasher = hashlib.sha256()
    train(cfg, default_train_split, on_batch=lambda entry: hasher.update(_log_line(entry)))
    assert hasher.hexdigest() == digest


def test_train_is_deterministic(corpus):
    cfg = TrainConfig(cycles=2, seed=3, **TINY)
    a = train(cfg, corpus)
    b = train(cfg, corpus)
    assert a.checkpoint.params.digest() == b.checkpoint.params.digest()
    assert a.log == b.log
    assert a.checkpoint.rng_state == b.checkpoint.rng_state


def test_unit_cycle_log(corpus):
    cfg = TrainConfig(cycles=1, seed=3, **TINY)
    result = train(cfg, corpus)
    assert [e["level"] for e in result.log] == ["clip", "phase", "video"]
    assert [e["batch"] for e in result.log] == [0, 1, 2]
    for e in result.log:
        assert sorted(e) == ["batch", "level", "loss", "neg_sim", "pos_sim"]
        assert np.isfinite(e["loss"])


def test_mode_level_sequences(corpus):
    base = dict(TINY, cycles=2, seed=3)
    assert all(e["level"] == "single"
               for e in train(TrainConfig(mode="single", **base), corpus).log)
    assert all(e["level"] == "clip"
               for e in train(TrainConfig(mode="clip", **base), corpus).log)
    cp = [e["level"] for e in train(TrainConfig(mode="clip_phase", **base), corpus).log]
    assert cp == ["clip", "phase"] * 3
    seq = [e["level"] for e in train(TrainConfig(mode="sequential", **base), corpus).log]
    assert seq == ["clip", "clip", "phase", "phase", "video", "video"]


def test_sequential_matches_hecvl_level_budget(corpus):
    base = dict(TINY, cycles=3, seed=3)
    hec = [e["level"] for e in train(TrainConfig(mode="hecvl", **base), corpus).log]
    seq = [e["level"] for e in train(TrainConfig(mode="sequential", **base), corpus).log]
    assert sorted(hec) == sorted(seq)
    assert hec != seq


def test_log_file_matches_returned_log(corpus, tmp_path):
    cfg = TrainConfig(cycles=1, seed=4, **TINY)
    path = tmp_path / "log.jsonl"
    with open(path, "wb") as f:
        result = train(cfg, corpus, on_batch=lambda entry: f.write(_log_line(entry)))
    lines = path.read_text().splitlines()
    assert [json.loads(s) for s in lines] == result.log


def test_capacity_check_names_level(corpus):
    cfg = TrainConfig(cycles=1, m=1, n=1, l=1, b_clip=3, b_phase=2, b_video=100)
    with pytest.raises(InsufficientDataError, match="video"):
        train(cfg, corpus)


def test_capacity_check_ignores_unused_levels(corpus):
    # clip-only runs don't care that the video level couldn't fill a batch
    cfg = TrainConfig(cycles=1, mode="clip", **{**TINY, "b_video": 100})
    result = train(cfg, corpus)
    assert len(result.log) == 3


SAMPLED_LEVELS = {
    "hecvl": {"clip", "phase", "video"},
    "single": {"clip", "phase", "video"},
    "sequential": {"clip", "phase", "video"},
    "clip": {"clip"},
    "clip_phase": {"clip", "phase"},
}


@pytest.mark.parametrize("mode", list(SAMPLED_LEVELS))
def test_capacity_check_names_exactly_the_sampled_levels(corpus, mode):
    levels = SAMPLED_LEVELS[mode]
    cfg = TrainConfig(cycles=2, mode=mode, **TINY)
    sampled = {_level_at(cfg, i) for i in range(cfg.total_batches)}
    assert sampled == ({"single"} if mode == "single" else levels)
    counts = corpus.pair_counts()
    for level in ("clip", "phase", "video"):
        oversized = TrainConfig(cycles=2, mode=mode,
                                **{**TINY, f"b_{level}": counts[level] + 1})
        if level in levels:
            with pytest.raises(InsufficientDataError, match=f"^{level} level"):
                check_capacity(oversized, corpus)
        else:
            check_capacity(oversized, corpus)  # e.g. clip_phase ignores b_video


def test_clip_loss_trends_down(corpus):
    cfg = TrainConfig(cycles=4, seed=5, lr=1e-2, d_tok=6, hidden=10, d_emb=5,
                      b_clip=8, b_phase=4, b_video=2, k_clip=2, k_phase=3,
                      k_video=4, m=10, n=4, l=4)
    result = train(cfg, corpus)
    clip_losses = [e["loss"] for e in result.log if e["level"] == "clip"]
    first, last = clip_losses[:10], clip_losses[-10:]
    assert np.mean(last) < np.mean(first)


def test_on_batch_callback_sees_every_entry(corpus):
    seen = []
    cfg = TrainConfig(cycles=1, seed=6, **TINY)
    result = train(cfg, corpus, on_batch=seen.append)
    assert seen == result.log


# ---------------------------------------------------------------------------
# Checkpoints and resume
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(corpus, tmp_path):
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    ckpt = train(cfg, corpus).checkpoint
    path = tmp_path / "ck.bin"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.params.digest() == ckpt.params.digest()
    assert loaded.config == cfg
    assert loaded.global_batch == ckpt.global_batch
    assert loaded.rng_state == ckpt.rng_state
    assert np.array_equal(loaded.params.vector, ckpt.params.vector)
    assert np.array_equal(loaded.moments, ckpt.moments)
    assert loaded.params.dims == ckpt.params.dims
    assert not (tmp_path / "ck.bin.tmp").exists()


def test_load_checkpoint_hashes_the_whole_file_in_its_checksum_pass(corpus, tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(train(TrainConfig(cycles=1, seed=7, **TINY), corpus).checkpoint, path)
    hasher = hashlib.sha256()
    load_checkpoint(path, hasher)
    assert hasher.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_save_checkpoint_hashes_what_it_writes_and_copies_no_vector(default_train_split,
                                                                   tmp_path):
    ckpt = untrained_checkpoint(TrainConfig(), default_train_split)
    path, hasher = tmp_path / "ck.bin", hashlib.sha256()
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, path, hasher)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert len(data) == 348_478
    assert hasher.hexdigest() == hashlib.sha256(data).hexdigest()
    assert peak < 32 * 1024  # the file's parts are written and hashed where they are


def test_checkpoint_file_starts_with_magic(corpus, tmp_path):
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    path = tmp_path / "ck.bin"
    save_checkpoint(train(cfg, corpus).checkpoint, path)
    assert path.read_bytes()[:4] == b"HECV"


def test_checkpoint_detects_flipped_byte(corpus, tmp_path):
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    path = tmp_path / "ck.bin"
    save_checkpoint(train(cfg, corpus).checkpoint, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointIntegrityError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(corpus, tmp_path):
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    path = tmp_path / "ck.bin"
    save_checkpoint(train(cfg, corpus).checkpoint, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(corpus, tmp_path):
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    path = tmp_path / "ck.bin"
    save_checkpoint(train(cfg, corpus).checkpoint, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 99)  # bump version, then re-sign
    body = bytes(blob[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(SchemaVersionError, match="99"):
        load_checkpoint(path)


def test_checkpoint_rejects_version_1(corpus, tmp_path):
    # Version 1 stored 27 per-block arrays, and version 2 wrote the model's widths, the config
    # digest and the step count beside the config; neither is read, only rejected.
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    path = tmp_path / "ck.bin"
    save_checkpoint(train(cfg, corpus).checkpoint, path)
    blob = bytearray(path.read_bytes())
    for version in (1, 2):
        struct.pack_into("<I", blob, 4, version)
        body = bytes(blob[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(SchemaVersionError, match=f"version {version}, this build reads 3"):
            load_checkpoint(path)


@pytest.mark.parametrize("field", ["d_tok", "hidden", "d_emb"])
def test_checkpoint_rejects_dims_that_disagree_with_its_config(corpus, tmp_path, field):
    # The checksum holds, but the config's widths do not fit the vectors written under it.
    cfg = TrainConfig(cycles=1, seed=7, **TINY)
    ckpt = train(cfg, corpus).checkpoint
    path = tmp_path / "ck.bin"
    save_checkpoint(replace(ckpt, config=replace(cfg, **{field: 64})), path)
    need = 3 * 8 * replace(ckpt.params.dims, **{field: 64}).size
    want = f"{3 * 8 * ckpt.params.dims.size} bytes of vectors, dims need {need}"
    with pytest.raises(CheckpointIntegrityError, match=re.escape(want)):
        load_checkpoint(path)


def test_resume_equals_uninterrupted(corpus):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    full = train(cfg, corpus)
    mid = train(cfg, corpus, stop_at=3).checkpoint
    assert mid.global_batch == 3
    resumed = train(cfg, corpus, resume=mid)
    assert resumed.checkpoint.global_batch == cfg.total_batches
    assert resumed.checkpoint.params.digest() == full.checkpoint.params.digest()
    assert resumed.checkpoint.rng_state == full.checkpoint.rng_state
    assert resumed.log == full.log[3:]


def test_resume_twice_from_one_checkpoint(corpus):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    mid = train(cfg, corpus, stop_at=3).checkpoint
    vectors = (mid.params.vector, mid.moments)
    before = [v.copy() for v in vectors]
    a, b = (train(cfg, corpus, resume=mid).checkpoint for _ in range(2))
    for v, was in zip(vectors, before):
        assert np.array_equal(v, was) and not v.flags.writeable
    assert a.params.digest() == b.params.digest()
    assert np.array_equal(a.moments, b.moments)
    assert a.global_batch == b.global_batch == 6
    held = [v for ck in (a, b) for v in (ck.params.vector, ck.moments)]
    for i, v in enumerate(held):
        assert not v.flags.writeable
        for w in held[i + 1:] + list(vectors):
            assert not np.shares_memory(v, w)


def test_nonfinite_update_names_its_batch(corpus):
    # A step of size lr plus the decay overflows, so the first update leaves visual.w1 non-finite.
    cfg = TrainConfig(cycles=1, lr=1.7e308, weight_decay=1.0, **TINY)
    want = r"^batch 0 \(clip level\): parameter block visual.w1 is not finite after the update$"
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=want):
        train(cfg, corpus)


def test_resume_through_file_roundtrip(corpus, tmp_path):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    full = train(cfg, corpus)
    mid = train(cfg, corpus, stop_at=4).checkpoint
    path = tmp_path / "mid.bin"
    save_checkpoint(mid, path)
    resumed = train(cfg, corpus, resume=load_checkpoint(path))
    assert resumed.checkpoint.params.digest() == full.checkpoint.params.digest()


def test_resume_rejects_config_mismatch(corpus):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    mid = train(cfg, corpus, stop_at=3).checkpoint
    other = TrainConfig(cycles=2, seed=9, **TINY)
    with pytest.raises(ConfigError):
        train(other, corpus, resume=mid)


@pytest.mark.parametrize("field, message", [
    ("d_in", "checkpoint expects 8-dim frames, corpus has 16"),
    ("vocab_size", "checkpoint vocabulary 30 != corpus vocabulary 60"),
])
def test_resume_rejects_corpus_the_checkpoint_cannot_read(corpus, field, message):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    mid = train(cfg, corpus, stop_at=3).checkpoint
    other = generate_synthetic(replace(GEN, **{field: 2 * getattr(GEN, field)}))
    entries = []
    with pytest.raises(ShapeError, match=f"^{message}$"):
        train(cfg, other, resume=mid, on_batch=entries.append)
    assert entries == []


def test_untrained_checkpoint(corpus):
    cfg = TrainConfig(cycles=1, seed=10, **TINY)
    a = untrained_checkpoint(cfg, corpus)
    b = untrained_checkpoint(cfg, corpus)
    assert a.global_batch == 0
    assert a.params.digest() == b.params.digest()


def test_stop_at_zero_is_the_untrained_checkpoint(corpus):
    cfg = TrainConfig(cycles=1, seed=10, **TINY)
    stopped = train(cfg, corpus, stop_at=0)
    untrained = untrained_checkpoint(cfg, corpus)
    assert stopped.log == []
    assert stopped.checkpoint.params.digest() == untrained.params.digest()
    assert stopped.checkpoint.global_batch == 0
    assert stopped.checkpoint.rng_state == untrained.rng_state


@pytest.mark.parametrize("stop_at", [-1, 7])
def test_stop_at_out_of_range(corpus, stop_at):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)  # 6 batches
    with pytest.raises(ConfigError, match=r"stop_at must lie in \[0, 6\]"):
        train(cfg, corpus, stop_at=stop_at)


def test_stop_at_below_resume_point(corpus):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    mid = train(cfg, corpus, stop_at=3).checkpoint
    with pytest.raises(ConfigError, match=r"stop_at must lie in \[3, 6\], got 2"):
        train(cfg, corpus, resume=mid, stop_at=2)
    assert train(cfg, corpus, resume=mid, stop_at=3).log == []


def test_stopped_and_resumed_log_file_equals_uninterrupted(corpus, tmp_path):
    cfg = TrainConfig(cycles=2, seed=8, **TINY)
    full_path = tmp_path / "full.jsonl"
    with open(full_path, "wb") as f:
        train(cfg, corpus, on_batch=lambda entry: f.write(_log_line(entry)))
    path = tmp_path / "log.jsonl"
    mid = None
    for mode, stop_at in (("wb", 2), ("ab", 4), ("ab", None)):  # a resumed run appends
        with open(path, mode) as f:
            mid = train(cfg, corpus, resume=mid, stop_at=stop_at,
                        on_batch=lambda entry: f.write(_log_line(entry))).checkpoint
    assert path.read_bytes() == full_path.read_bytes()
