"""Synthetic corpus: generation, persistence, batch sampling."""
import base64
import json
import tempfile
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiercl import corpus as corpus_module
from hiercl.cli import main
from hiercl.corpus import (
    Corpus,
    ClipBatch,
    GeneratorConfig,
    LectureVideo,
    PhaseBatch,
    PhaseSegment,
    VideoBatch,
    VideoClip,
    corpus_digest,
    generate_synthetic,
    load_corpus,
    sample_clip_batch,
    sample_phase_batch,
    sample_video_batch,
    save_corpus,
)
from hiercl.errors import (
    ConfigError,
    ContractError,
    CorpusFormatError,
    InsufficientDataError,
    SchemaVersionError,
)
from hiercl.numerics import Matrix
from hiercl.seeding import substream
from hiercl.trainer import TrainConfig, save_checkpoint, untrained_checkpoint

SMALL = GeneratorConfig(num_videos=5, num_classes=3, clips_per_phase=2,
                        frames_per_clip=4, d_in=8, vocab_size=30, seed=9)


@pytest.fixture
def corpus():
    return generate_synthetic(SMALL)


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(num_videos=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(token_noise=1.0)
    with pytest.raises(ConfigError):
        GeneratorConfig(noise_scale=-1.0)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_classes=10, vocab_size=5)


INT_FIELDS = ("num_videos", "num_classes", "clips_per_phase", "frames_per_clip",
              "d_in", "vocab_size", "seed")


@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("value", [8.5, 8.0, True])
def test_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        GeneratorConfig(**{field: value})


def test_config_rejects_negative_seed_and_accepts_zero():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        GeneratorConfig(seed=-1)
    assert GeneratorConfig(seed=0).seed == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "2.0", -0.5])
def test_config_rejects_bad_noise_scale(value):
    with pytest.raises(ConfigError, match="^noise_scale must be"):
        GeneratorConfig(noise_scale=value)
    assert GeneratorConfig(noise_scale=0).noise_scale == 0


@pytest.mark.parametrize("value", [False, "0.5", float("nan"), float("inf"), -0.1, 1.0])
def test_config_rejects_bad_token_noise(value):
    with pytest.raises(ConfigError, match="^token_noise must"):
        GeneratorConfig(token_noise=value)
    assert GeneratorConfig(token_noise=0).token_noise == 0


def test_load_rejects_float_config_in_header(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["d_in"] = float(header["config"]["d_in"])
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 1: .*d_in must be an integer"):
        load_corpus(path)
    assert _eval_exit_code(path, tmp_path) == 4


def test_class_blocks_partition_vocab():
    cfg = GeneratorConfig(num_classes=4, vocab_size=32)
    edges = [cfg.class_block(c) for c in range(4)]
    assert edges == [(0, 8), (8, 16), (16, 24), (24, 32)]


def test_structure(corpus):
    assert len(corpus.videos) == 5
    for v in corpus.videos:
        assert len(v.clips) == 3 * 2
        assert len(v.phases) == 3
        # every class appears exactly once and segments tile the clip range
        assert sorted(p.phase_class for p in v.phases) == [0, 1, 2]
        covered = []
        for p in v.phases:
            covered.extend(range(p.start, p.end))
        assert covered == list(range(6))
        for c in v.clips:
            assert c.frames.shape == (4, 8)
            assert len(c.narration_a) == len(c.narration_b)
        assert len(v.abstract) > 0


def test_generation_is_deterministic(corpus):
    again = generate_synthetic(SMALL)
    assert corpus.videos[0].clips[0].frames.same_values(again.videos[0].clips[0].frames)
    assert corpus.videos[-1].abstract == again.videos[-1].abstract
    other = generate_synthetic(GeneratorConfig(**{**SMALL.__dict__, "seed": 10}))
    assert corpus.videos[0].abstract != other.videos[0].abstract


def test_zero_token_noise_gives_equal_narrations():
    cfg = GeneratorConfig(num_videos=3, num_classes=2, clips_per_phase=2,
                          frames_per_clip=2, d_in=4, vocab_size=20,
                          token_noise=0.0, seed=1)
    for v in generate_synthetic(cfg).videos:
        for c in v.clips:
            assert c.narration_a == c.narration_b


def test_nonzero_noise_perturbs_some_narrations():
    cfg = GeneratorConfig(num_videos=10, num_classes=2, clips_per_phase=4,
                          frames_per_clip=2, d_in=4, vocab_size=20,
                          token_noise=0.3, seed=1)
    diffs = [c.narration_a != c.narration_b
             for v in generate_synthetic(cfg).videos for c in v.clips]
    assert any(diffs)


def test_clean_texts_stay_in_class_block():
    cfg = GeneratorConfig(num_videos=4, num_classes=3, clips_per_phase=2,
                          frames_per_clip=2, d_in=4, vocab_size=30,
                          token_noise=0.0, seed=2)
    for v in generate_synthetic(cfg).videos:
        for seg in v.phases:
            lo, hi = cfg.class_block(seg.phase_class)
            for c in v.clips[seg.start:seg.end]:
                assert all(lo <= t < hi for t in c.narration_a)
            assert all(lo <= t < hi for t in seg.concept)


def test_frames_carry_class_signal():
    cfg = GeneratorConfig(num_videos=8, num_classes=3, clips_per_phase=2,
                          frames_per_clip=4, d_in=16, vocab_size=30,
                          noise_scale=0.5, seed=3)
    c = generate_synthetic(cfg)
    means = {cls: [] for cls in range(3)}
    for v in c.videos:
        for seg in v.phases:
            for clip in v.clips[seg.start:seg.end]:
                means[seg.phase_class].append(clip.frames.array.mean(axis=0))
    centroids = {cls: np.mean(m, axis=0) for cls, m in means.items()}
    within = np.mean([
        np.linalg.norm(m - centroids[cls])
        for cls, ms in means.items() for m in ms
    ])
    between = np.mean([
        np.linalg.norm(centroids[a] - centroids[b])
        for a in range(3) for b in range(3) if a != b
    ])
    assert between > within


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_roundtrip_is_bit_exact(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.config == corpus.config
    assert len(loaded.videos) == len(corpus.videos)
    for v1, v2 in zip(corpus.videos, loaded.videos):
        assert v1.video_id == v2.video_id
        assert v1.abstract == v2.abstract
        for c1, c2 in zip(v1.clips, v2.clips):
            assert c1.frames.same_values(c2.frames)
            assert c1.narration_a == c2.narration_a
        for p1, p2 in zip(v1.phases, v2.phases):
            assert (p1.start, p1.end, p1.concept, p1.phase_class) == \
                   (p2.start, p2.end, p2.concept, p2.phase_class)


def test_save_is_byte_deterministic(corpus, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(corpus, p1)
    save_corpus(corpus, p2)
    assert corpus_digest(p1) == corpus_digest(p2)


def test_failed_save_keeps_the_previous_file(corpus, tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    before = path.read_bytes()
    calls = []

    def fail_on_second(video):
        calls.append(video)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return to_record(video)

    to_record = corpus_module._video_to_record
    monkeypatch.setattr(corpus_module, "_video_to_record", fail_on_second)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_corpus(generate_synthetic(replace(SMALL, seed=10)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


def test_header_schema_tag(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema"] == "hiercorpus/2"


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"schema": "hiercorpus/v99", "config": {}}\n')
    with pytest.raises(SchemaVersionError, match="hiercorpus/v99"):
        load_corpus(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path)


def test_load_names_bad_line(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    lines[3] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 4"):
        load_corpus(path)


def test_load_names_bad_record(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    del rec["clips"]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 3"):
        load_corpus(path)


def test_load_rejects_frames_narrower_than_a_huge_header_d_in(corpus, tmp_path):
    # The frame table is sized from the file, not from the header's d_in.
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["d_in"] = 2**40
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 2.*frame bytes"):
        load_corpus(path)


def _eval_exit_code(path, tmp_path) -> int:
    """Exit code of `hiercl eval` on a corpus file, with a checkpoint that fits SMALL."""
    cfg = TrainConfig(d_tok=4, hidden=6, d_emb=3)
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(untrained_checkpoint(cfg, generate_synthetic(SMALL)), ckpt)
    out = tmp_path / "eval"
    out.mkdir()
    return main(["eval", "--checkpoint", str(ckpt), "--corpus", str(path),
                 "--out", str(out)])


def test_frames_are_base64_little_endian_float64(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    rec = json.loads(path.read_text().splitlines()[1])
    clip = corpus.videos[0].clips[0]
    raw = base64.b64decode(rec["clips"][0]["frames"])
    assert len(raw) == 8 * clip.frames.rows * SMALL.d_in
    assert raw == clip.frames.array.astype("<f8").tobytes()


def test_load_rejects_v1_corpus(corpus, tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] = "hiercorpus/1"
    v1 = [json.dumps(header)]
    for line, video in zip(lines[1:], corpus.videos):
        rec = json.loads(line)
        for c, clip in zip(rec["clips"], video.clips):
            c["frames"] = clip.frames.tolist()
        v1.append(json.dumps(rec))
    path.write_text("\n".join(v1) + "\n")
    with pytest.raises(SchemaVersionError, match="hiercorpus/1.*hiercorpus/2"):
        load_corpus(path)
    assert _eval_exit_code(path, tmp_path) == 5
    assert "regenerate" in capsys.readouterr().err


def test_load_counts_blank_lines(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    lines.insert(4, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 5: invalid JSON"):
        load_corpus(path)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=40, deadline=None)
@given(st.lists(
    arrays(np.float64, st.tuples(st.integers(1, 3), st.just(3)),
           elements=st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(EXTREMES)),
    min_size=1, max_size=4))
@example([np.array([EXTREMES[:3], EXTREMES[3:6], EXTREMES[4:]])])
def test_roundtrip_preserves_frame_bits(frames):
    cfg = GeneratorConfig(num_videos=1, num_classes=1, d_in=3, vocab_size=4)
    clips = tuple(VideoClip(f"c{i}", Matrix(f), (0, 3), (1,)) for i, f in enumerate(frames))
    video = LectureVideo("v0", clips, (PhaseSegment(0, len(clips), (2,), 0),), (3, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        save_corpus(Corpus(cfg, (video,)), path)
        loaded = load_corpus(path)
    assert len(loaded.videos[0].clips) == len(clips)
    for before, after in zip(clips, loaded.videos[0].clips):
        assert before.frames.same_values(after.frames)
        assert before.frames.array.tobytes() == after.frames.array.tobytes()


def _with_clip(video, ci, **changes):
    clips = list(video.clips)
    clips[ci] = replace(clips[ci], **changes)
    return replace(video, clips=tuple(clips))


def _with_phase(video, pi, **changes):
    phases = list(video.phases)
    phases[pi] = replace(phases[pi], **changes)
    return replace(video, phases=tuple(phases))


def _nan_frames(video):
    frames = video.clips[1].frames.array.copy()
    frames[1, 3] = np.nan
    return _with_clip(video, 1, frames=Matrix(frames))


# Each fault is one a loader must refuse, written by save_corpus itself.
RECORD_FAULTS = {
    "token 9999": lambda v: _with_clip(v, 0, narration_a=(9999,) + v.clips[0].narration_a[1:]),
    "token -3": lambda v: _with_phase(v, 0, concept=(-3,) + v.phases[0].concept[1:]),
    "float token": lambda v: replace(v, abstract=(3.7,) + v.abstract[1:]),
    "bool token": lambda v: _with_clip(v, 2, narration_b=(True,) + v.clips[2].narration_b[1:]),
    "phase class 99": lambda v: _with_phase(v, 1, phase_class=99),
    "frame row too wide": lambda v: _with_clip(v, 0, frames=Matrix.zeros(1, SMALL.d_in + 1)),
    "NaN frame value": _nan_frames,
    "duplicate video id": lambda v: replace(v, video_id="v000"),
    "clip id of an earlier video": lambda v: _with_clip(v, 2, clip_id="v000c01"),
    "clip id repeated in the video": lambda v: _with_clip(v, 2, clip_id=v.clips[0].clip_id),
    "int video id": lambda v: replace(v, video_id=7),
    "float clip id": lambda v: _with_clip(v, 1, clip_id=3.5),
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_load_rejects_bad_record_with_exit_4(fault, corpus, tmp_path, capsys):
    videos = list(corpus.videos)
    videos[1] = RECORD_FAULTS[fault](videos[1])
    path = tmp_path / "c.jsonl"
    save_corpus(replace(corpus, videos=tuple(videos)), path)
    with pytest.raises(CorpusFormatError, match="line 3"):
        load_corpus(path)
    assert _eval_exit_code(path, tmp_path) == 4
    assert "line 3" in capsys.readouterr().err


ENCODING_FAULTS = {
    "not base64": "not base64!",
    "no frame bytes": "",
    "bytes not whole floats": base64.b64encode(bytes(8 * SMALL.d_in + 3)).decode(),
}


@pytest.mark.parametrize("fault", sorted(ENCODING_FAULTS))
def test_load_rejects_bad_frame_encoding(fault, corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["clips"][0]["frames"] = ENCODING_FAULTS[fault]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 3"):
        load_corpus(path)


# ---------------------------------------------------------------------------
# Splitting and counting
# ---------------------------------------------------------------------------


def test_pair_counts(corpus):
    assert corpus.pair_counts() == {"clip": 30, "phase": 15, "video": 5}


def test_split_takes_trailing_videos(corpus):
    train, hold = corpus.split(0.4)
    assert len(train.videos) == 3 and len(hold.videos) == 2
    assert hold.videos[0].video_id == corpus.videos[3].video_id
    assert train.videos[0].video_id == corpus.videos[0].video_id


def test_split_validation(corpus):
    with pytest.raises(ConfigError):
        corpus.split(0.0)
    with pytest.raises(ConfigError):
        corpus.split(1.0)
    with pytest.raises(InsufficientDataError):
        corpus.split(0.99)


# ---------------------------------------------------------------------------
# The frame table: one copy of every corpus's frames
# ---------------------------------------------------------------------------


def assert_frames_are_table_rows(corpus: Corpus) -> None:
    """Each clip's frames are its own rows of the read-only table, which holds nothing else."""
    table = corpus.frame_table
    assert not table.flags.writeable
    assert table.nbytes == sum(c.frames.array.nbytes for c in corpus.clip_table)
    for clip, start in zip(corpus.clip_table, corpus.clip_rows.starts, strict=True):
        assert np.shares_memory(clip.frames.array, table)
        assert clip.frames.array.ctypes.data == table[start:].ctypes.data


def test_generated_frames_are_table_rows(corpus):
    assert_frames_are_table_rows(corpus)


def test_loaded_frames_are_table_rows(corpus, tmp_path):
    save_corpus(corpus, tmp_path / "c.jsonl")
    loaded = load_corpus(tmp_path / "c.jsonl")
    assert_frames_are_table_rows(loaded)
    assert loaded.frame_table.tobytes() == corpus.frame_table.tobytes()


def test_split_shares_the_frame_table(corpus, tmp_path):
    save_corpus(corpus, tmp_path / "c.jsonl")
    for whole in (corpus, load_corpus(tmp_path / "c.jsonl")):
        halves = whole.split(0.4)
        for half in halves:
            assert_frames_are_table_rows(half)
            assert half.frame_table.base is not None
            assert np.shares_memory(half.frame_table, whole.frame_table)
        assert (sum(h.frame_table.nbytes for h in halves) == whole.frame_table.nbytes)
        assert halves[1].frame_table.ctypes.data == whole.frame_table[
            whole.clip_rows.starts[len(halves[0].clip_table)]:].ctypes.data


def test_hand_built_corpus_stacks_its_frames_once(corpus):
    built = Corpus(corpus.config, corpus.videos)
    table = built.frame_table
    assert built.frame_table is table
    assert not table.flags.writeable
    assert table.tobytes() == np.vstack([c.frames.array for c in built.clip_table]).tobytes()
    assert not np.shares_memory(table, corpus.frame_table)


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------


def test_clip_batch_contents(corpus):
    rng = substream(0, "train")
    batch = sample_clip_batch(corpus, 4, rng, k=3)
    assert len(batch) == 4
    assert len(set(batch.source_ids)) == 4
    for frames, narration_a, narration_b in zip(batch.frames, batch.narration_a,
                                                batch.narration_b):
        assert frames.shape == (3, 8)
        assert len(narration_a) == len(narration_b)


def test_phase_batch_has_every_segment_narration(corpus):
    rng = substream(1, "train")
    batch = sample_phase_batch(corpus, 3, rng, k=5)
    assert len(batch) == 3
    for frames, narrations, concept in zip(batch.frames, batch.narrations, batch.concept):
        # clips_per_phase=2, so each phase contributes exactly 2 narrations
        assert len(narrations) == 2
        assert frames.shape == (5, 8)
        assert len(concept) > 0


def test_phase_narrations_match_member_clips(corpus):
    rng = substream(2, "train")
    batch = sample_phase_batch(corpus, 3, rng)
    members = {f"{v.video_id}p{pi}": v.clips[seg.start:seg.end]
               for v in corpus.videos for pi, seg in enumerate(v.phases)}
    for source_id, narrations in zip(batch.source_ids, batch.narrations):
        assert narrations == tuple(c.narration_a for c in members[source_id])


def test_video_batch_narration_subsample(corpus):
    rng = substream(3, "train")
    # 6 clips per video, k=4 -> 4 evenly spaced narrations
    batch = sample_video_batch(corpus, 2, rng, k=4)
    for frames, narrations in zip(batch.frames, batch.narrations, strict=True):
        assert len(narrations) == 4
        assert frames.shape == (4, 8)
    # k larger than the clip count -> one narration per clip, no repeats
    batch = sample_video_batch(corpus, 2, rng, k=32)
    for frames, narrations in zip(batch.frames, batch.narrations, strict=True):
        assert len(narrations) == 6
        assert frames.shape == (32, 8)


def test_sampling_is_stream_deterministic(corpus):
    a = sample_clip_batch(corpus, 4, substream(5, "train"))
    b = sample_clip_batch(corpus, 4, substream(5, "train"))
    assert a.source_ids == b.source_ids


def test_oversized_batch_names_level(corpus):
    rng = substream(6, "train")
    with pytest.raises(InsufficientDataError, match="clip"):
        sample_clip_batch(corpus, 31, rng)
    with pytest.raises(InsufficientDataError, match="phase"):
        sample_phase_batch(corpus, 16, rng)
    with pytest.raises(InsufficientDataError, match="video"):
        sample_video_batch(corpus, 6, rng)
    with pytest.raises(ConfigError):
        sample_clip_batch(corpus, 0, rng)


def test_batch_rejects_repeated_sources():
    frames = Matrix.zeros(2, 3)
    for cls in (ClipBatch, PhaseBatch, VideoBatch):
        with pytest.raises(InsufficientDataError, match=f"{cls.level} batch repeats"):
            cls(("x", "x"), (frames, frames), ((1,), (1,)), ((1,), (1,)))


def test_batch_rejects_columns_of_different_lengths():
    frames = Matrix.zeros(2, 3)
    with pytest.raises(ContractError, match="clip batch columns"):
        ClipBatch(("x", "y"), (frames, frames), ((1,), (1,)), ((1,),))


@st.composite
def ragged_corpora(draw):
    """1-3 videos of 1-5 clips of 1-7 frames each, cut into contiguous phases.

    Every frame value is distinct, so a wrong row is never bit-equal to the
    right one; every text is distinct too.
    """
    frame_ids = count()
    text_ids = count()
    videos = []
    for vi in range(draw(st.integers(1, 3))):
        clips = tuple(
            VideoClip(f"v{vi}c{ci}",
                      Matrix([[next(frame_ids), 0.5] for _ in range(rows)]),
                      (next(text_ids),), (next(text_ids),))
            for ci, rows in enumerate(draw(st.lists(st.integers(1, 7), min_size=1,
                                                    max_size=5)))
        )
        cuts = sorted(draw(st.sets(st.integers(1, len(clips) - 1)))) if len(clips) > 1 else []
        bounds = [0, *cuts, len(clips)]
        phases = tuple(PhaseSegment(lo, hi, (next(text_ids),), pi % 2)
                       for pi, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
        videos.append(LectureVideo(f"v{vi}", clips, phases, (next(text_ids),)))
    cfg = GeneratorConfig(num_videos=len(videos), num_classes=2, d_in=2,
                          vocab_size=next(text_ids))
    return Corpus(cfg, tuple(videos))


def _oracle_frames(clips, k: int) -> np.ndarray:
    stacked = np.vstack([c.frames.array for c in clips])
    return stacked[np.arange(k) * len(stacked) // k]


def _same_bits(got: Matrix, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.array.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(ragged_corpora(), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_sampling_ragged_clips_matches_oracle(built, k, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        save_corpus(built, path)
        loaded = load_corpus(path)
    generated = generate_synthetic(GeneratorConfig(
        num_videos=3, num_classes=2, clips_per_phase=1 + seed % 3,
        frames_per_clip=1 + seed % 5, d_in=2, vocab_size=8, seed=seed))
    # The loaded and generated corpora view one frame table; the built corpus
    # keeps one array per clip and stacks them. All must sample the same bits,
    # and so must the halves of a split, which slice the table.
    corpora = [built, loaded, generated]
    for whole in (built, loaded):
        if len(whole.videos) > 1:
            corpora.extend(whole.split(0.5))
    for corpus in corpora:
        rng = np.random.default_rng(seed)
        clips = {c.clip_id: c for v in corpus.videos for c in v.clips}
        batch = sample_clip_batch(corpus, len(clips), rng, k=k)
        assert sorted(batch.source_ids) == sorted(clips)
        for source_id, frames, narration_a, narration_b in zip(
                batch.source_ids, batch.frames, batch.narration_a, batch.narration_b,
                strict=True):
            clip = clips[source_id]
            assert _same_bits(frames, _oracle_frames([clip], k))
            assert (narration_a, narration_b) == (clip.narration_a, clip.narration_b)

        phases = {f"{v.video_id}p{pi}": (v.clips[seg.start:seg.end], seg)
                  for v in corpus.videos for pi, seg in enumerate(v.phases)}
        batch = sample_phase_batch(corpus, len(phases), rng, k=k)
        assert sorted(batch.source_ids) == sorted(phases)
        for source_id, frames, narrations, concept in zip(
                batch.source_ids, batch.frames, batch.narrations, batch.concept, strict=True):
            members, seg = phases[source_id]
            assert _same_bits(frames, _oracle_frames(members, k))
            assert narrations == tuple(c.narration_a for c in members)
            assert concept == seg.concept

        videos = {v.video_id: v for v in corpus.videos}
        batch = sample_video_batch(corpus, len(videos), rng, k=k)
        assert sorted(batch.source_ids) == sorted(videos)
        for source_id, frames, narrations, abstract in zip(
                batch.source_ids, batch.frames, batch.narrations, batch.abstract, strict=True):
            video = videos[source_id]
            n = len(video.clips)
            assert _same_bits(frames, _oracle_frames(video.clips, k))
            assert narrations == tuple(video.clips[j * n // min(n, k)].narration_a
                                       for j in range(min(n, k)))
            assert abstract == video.abstract
