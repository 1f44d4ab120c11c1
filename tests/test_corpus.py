"""Synthetic corpus: generation, persistence, batch sampling."""
import base64
import json
import tempfile
from dataclasses import replace
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
    ClipExample,
    GeneratorConfig,
    LectureVideo,
    PhaseSegment,
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
# Batch sampling
# ---------------------------------------------------------------------------


def test_clip_batch_contents(corpus):
    rng = substream(0, "train")
    batch = sample_clip_batch(corpus, 4, rng, k=3)
    assert len(batch) == 4
    ids = [e.source_id for e in batch.entries]
    assert len(set(ids)) == 4
    for e in batch.entries:
        assert e.frames.shape == (3, 8)
        assert len(e.narration_a) == len(e.narration_b)


def test_phase_batch_has_every_segment_narration(corpus):
    rng = substream(1, "train")
    batch = sample_phase_batch(corpus, 3, rng, k=5)
    for e in batch.entries:
        # clips_per_phase=2, so each phase contributes exactly 2 narrations
        assert len(e.narrations) == 2
        assert len(e.clip_ids) == 2
        assert e.frames.shape == (5, 8)
        assert len(e.concept) > 0


def test_phase_narrations_match_member_clips(corpus):
    rng = substream(2, "train")
    batch = sample_phase_batch(corpus, 3, rng)
    by_id = {c.clip_id: c for v in corpus.videos for c in v.clips}
    for e in batch.entries:
        for cid, narr in zip(e.clip_ids, e.narrations):
            assert by_id[cid].narration_a == narr


def test_video_batch_narration_subsample(corpus):
    rng = substream(3, "train")
    # 6 clips per video, k=4 -> 4 evenly spaced narrations
    batch = sample_video_batch(corpus, 2, rng, k=4)
    for e in batch.entries:
        assert len(e.narrations) == 4
        assert e.frames.shape == (4, 8)
    # k larger than the clip count -> one narration per clip, no repeats
    batch = sample_video_batch(corpus, 2, rng, k=32)
    for e in batch.entries:
        assert len(e.narrations) == 6
        assert e.frames.shape == (32, 8)


def test_sampling_is_stream_deterministic(corpus):
    a = sample_clip_batch(corpus, 4, substream(5, "train"))
    b = sample_clip_batch(corpus, 4, substream(5, "train"))
    assert [e.source_id for e in a.entries] == [e.source_id for e in b.entries]


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
    e = ClipExample(source_id="x", frames=Matrix.zeros(2, 3),
                    narration_a=(1,), narration_b=(1,))
    with pytest.raises(InsufficientDataError):
        ClipBatch(entries=(e, e))
