"""Synthetic corpus: generation, persistence, batch sampling."""
import base64
import binascii
import hashlib
import json
import os
import re
import tempfile
import threading
import tracemalloc
from dataclasses import asdict, fields, replace
from itertools import count
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from records import header_line, load_records, record_line

from hiercl import corpus as corpus_module
from hiercl.cli import main
from hiercl.corpus import (
    Corpus,
    ClipBatch,
    CoarseBatch,
    GeneratorConfig,
    LectureVideo,
    PhaseBatch,
    PhaseSegment,
    RowRanges,
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
from hiercl.encoders import FrameStack
from hiercl.errors import (
    ConfigError,
    ContractError,
    CorpusFormatError,
    InsufficientDataError,
    SchemaVersionError,
)
from hiercl.seeding import substream
from hiercl.trainer import TrainConfig, save_checkpoint, untrained_checkpoint
from hiercl.zeroshot import default_prompts, evaluate

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
    with pytest.raises(ConfigError, match=rf"^vocab_size must be <= 2\*\*63, got {2**63 + 1}$"):
        GeneratorConfig(vocab_size=2**63 + 1)  # token ids are int64
    # No table may pass the bytes numpy can shape, 2**63 - 1.
    for field in ("num_videos", "clips_per_phase", "frames_per_clip", "d_in"):
        with pytest.raises(ConfigError, match="^the frame table of this config would take"):
            GeneratorConfig(**{field: 2**70})
    one = dict(num_videos=1, num_classes=1, clips_per_phase=1, frames_per_clip=1, vocab_size=1)
    assert GeneratorConfig(**one, d_in=2**59).d_in == 2**59  # 2**62 bytes of frames
    with pytest.raises(ConfigError, match=f"^the frame table .* take {2**63} bytes"):
        GeneratorConfig(**one, d_in=2**60)
    with pytest.raises(ConfigError, match=f"^the token table .* take {2**55 * 52 * 8} bytes"):
        GeneratorConfig(**{**one, "num_videos": 2**55}, d_in=1)  # 52 token ids a video
    clips = 2**63 // 200  # 160 bytes of narration ids a clip, 240 of id draws
    with pytest.raises(ConfigError, match="^a video's id draws of this config would take"):
        GeneratorConfig(**{**one, "clips_per_phase": clips}, d_in=1)


@pytest.mark.parametrize("num_classes", [1, 2, 4, 2**20])
def test_config_rejects_a_class_block_that_ends_past_int64(num_classes):
    # The last block would end at 2**63: a class block's start and end are int64.
    with pytest.raises(ConfigError, match=f"^{num_classes} class blocks of vocab_size "
                                          rf"{2**63} would end at {2**63}, past the largest"):
        GeneratorConfig(num_videos=1, num_classes=num_classes, vocab_size=2**63)
    assert GeneratorConfig(num_classes=num_classes, vocab_size=2**63 - 1).vocab_size == 2**63 - 1


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "2.0", -0.5, 1e308])
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
            assert c.frames.array.shape == (4, 8)
            assert len(c.narration_a) == len(c.narration_b)
        assert len(v.abstract) > 0


def test_generation_is_deterministic(corpus):
    again = generate_synthetic(SMALL)
    assert np.array_equal(corpus.videos[0].clips[0].frames.array,
                          again.videos[0].clips[0].frames.array)
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


def _reference_noisy(rng, base, rate, vocab_size):
    corrupt = rng.random(base.size) < rate
    return tuple(np.where(corrupt, rng.integers(0, vocab_size, base.size), base).tolist())


def _reference_corpus(cfg):
    """The generator as one rng call per draw: frames, ids, texts and classes, in corpus order."""
    rng = substream(cfg.seed, "generate")
    prototypes = rng.standard_normal((cfg.num_classes, cfg.d_in))
    width = cfg.vocab_size // cfg.num_classes
    frames, videos = [], []
    for vi in range(cfg.num_videos):
        clips, phases = [], []
        for cls in rng.permutation(cfg.num_classes):
            lo, hi = cfg.class_block(int(cls))
            start = len(clips)
            for _ in range(cfg.clips_per_phase):
                rows = rng.standard_normal((cfg.frames_per_clip, cfg.d_in))
                rows *= cfg.noise_scale
                rows += prototypes[cls]
                frames.append(rows)
                base = rng.integers(lo, hi, corpus_module.NARRATION_LEN)
                clips.append((f"v{vi:03d}c{len(clips):02d}",
                              _reference_noisy(rng, base, cfg.token_noise, cfg.vocab_size),
                              _reference_noisy(rng, base, cfg.token_noise, cfg.vocab_size)))
            concept_base = rng.integers(lo, hi, corpus_module.CONCEPT_LEN)
            phases.append((start, len(clips), _reference_noisy(
                rng, concept_base, cfg.token_noise * corpus_module.CONCEPT_NOISE_FACTOR,
                cfg.vocab_size), int(cls)))
        abstract_classes = rng.integers(0, cfg.num_classes, corpus_module.ABSTRACT_LEN)
        abstract = tuple((abstract_classes * width
                          + rng.integers(0, width, corpus_module.ABSTRACT_LEN)).tolist())
        videos.append((f"v{vi:03d}", clips, phases, abstract))
    return np.concatenate(frames).tobytes(), videos


def _as_reference(corpus):
    return corpus.frame_table.tobytes(), [
        (v.video_id, [(c.clip_id, c.narration_a, c.narration_b) for c in v.clips],
         [(p.start, p.end, p.concept, p.phase_class) for p in v.phases], v.abstract)
        for v in corpus.videos]


@pytest.fixture
def replays(monkeypatch):
    """The indices of the videos that `generate_synthetic` draws call by call."""
    seen = []
    replay = corpus_module._replay_video

    def spy(rng, layout, vi, *rows):
        seen.append(vi)
        return replay(rng, layout, vi, *rows)

    monkeypatch.setattr(corpus_module, "_replay_video", spy)
    return seen


GRADCHECK_GENERATOR = GeneratorConfig(num_videos=6, num_classes=3, clips_per_phase=2,
                                      frames_per_clip=4, d_in=8, vocab_size=48)


@pytest.mark.parametrize("seed", range(20))
def test_generator_matches_the_per_call_reference(seed, replays):
    cfg = GeneratorConfig(seed=seed)
    assert _as_reference(generate_synthetic(cfg)) == _reference_corpus(cfg)
    assert replays == []  # every video decoded from raw words


@pytest.mark.parametrize("cfg, replayed", [
    (GRADCHECK_GENERATOR, "none"),
    (GeneratorConfig(num_videos=10, vocab_size=1000), "none"),
    # A noise id rejects with probability 1/4, so nearly every video is redrawn.
    (GeneratorConfig(num_videos=10, vocab_size=3 * 2**30), "most"),
    # Width-1 class blocks draw nothing; a range above 2**32 draws 64-bit words.
    (GeneratorConfig(num_videos=5, vocab_size=6), "all"),
    (GeneratorConfig(num_videos=5, vocab_size=2**33), "all"),
    # The raw-word bound's edge: every range drawn lies in [2, 2**32], then one does not.
    (GeneratorConfig(num_videos=5, vocab_size=2**32), "none"),
    (GeneratorConfig(num_videos=5, vocab_size=2**32 + 1), "all"),
    (GeneratorConfig(num_videos=2, vocab_size=2**63), "all"),  # the largest: int64 ids
    (GeneratorConfig(num_videos=5, num_classes=1, vocab_size=5), "all"),
    # About half the videos meet a rejection, over four blocks of videos.
    (GeneratorConfig(num_videos=40, vocab_size=10_000_000), "mixed"),
    (GeneratorConfig(num_videos=1), "none"),
    (GeneratorConfig(num_videos=1, vocab_size=3 * 2**30), "all"),
    # Raw words that cover the config, every video rejected: all replayed, one mapping.
    (GeneratorConfig(), "rejected"),
], ids=["gradcheck", "vocab-1000", "vocab-3x2^30", "width-1", "vocab-over-2^32", "vocab-2^32",
        "vocab-2^32+1", "vocab-2^63", "one-class", "mixed-blocks", "one-video",
        "one-video-replayed", "all-rejected"])
def test_generator_matches_the_reference_on_every_path(cfg, replayed, replays, monkeypatch):
    if replayed == "rejected":
        monkeypatch.setattr(corpus_module, "_drawn_words", lambda *args: False)
        replayed = "all"
    blocks = set()  # per block of a mixed config: (first replayed, last replayed, none decoded)
    for seed in (0, 1, 2):
        replays.clear()
        cfg_seed = replace(cfg, seed=seed)
        assert _as_reference(generate_synthetic(cfg_seed)) == _reference_corpus(cfg_seed)
        if replayed == "none":
            assert replays == []
        elif replayed == "all":
            assert replays == list(range(cfg.num_videos))
        elif replayed == "most":
            assert len(replays) > cfg.num_videos // 2
        else:
            # Videos per block, as generate_synthetic sizes a block of ids and uniforms.
            layout = corpus_module._Layout.of(cfg)
            size = corpus_module._DECODE_BYTES // (8 * (layout.ranges.size + layout.rates.size))
            assert cfg.num_videos > 2 * size
            for first in range(0, cfg.num_videos, size):
                redrawn = [vi in replays for vi in range(first, min(first + size, cfg.num_videos))]
                blocks.add((redrawn[0], redrawn[-1], all(redrawn)))
    if replayed == "mixed":
        # A replayed first video before a decoded one, a replayed last video after
        # one, and a block that decodes no video at all.
        assert any(first and not none for first, _, none in blocks)
        assert any(last and not none for _, last, none in blocks)
        assert any(none for _, _, none in blocks)


# The tracemalloc peak of this generate_synthetic when each video's texts were
# decoded on their own (Python 3.11, numpy 2.4). The block buffers, one row of
# ids and one of uniforms per video of a block, may add _DECODE_BYTES at most;
# freed before the whole-table passes, they add nothing here (10,341,384 bytes).
GENERATE_PEAK_BYTES = 10_349_104


def test_generate_peak_memory_is_bounded():
    generate_synthetic(SMALL)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generate_synthetic(GeneratorConfig(num_videos=200, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= GENERATE_PEAK_BYTES + corpus_module._DECODE_BYTES, peak


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
            assert np.array_equal(c1.frames.array, c2.frames.array)
            assert c1.narration_a == c2.narration_a
        for p1, p2 in zip(v1.phases, v2.phases):
            assert (p1.start, p1.end, p1.concept, p1.phase_class) == \
                   (p2.start, p2.end, p2.concept, p2.phase_class)


def test_save_and_load_hash_the_bytes_they_pass(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    saved, loaded = hashlib.sha256(), hashlib.sha256()
    save_corpus(corpus, path, saved)
    load_corpus(path, loaded)
    assert saved.hexdigest() == loaded.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_load_reads_a_corpus_through_a_pipe(tmp_path):
    # A pipe has no size, so the frame buffer grows as its lines arrive.
    path, pipe = tmp_path / "c.jsonl", tmp_path / "pipe"
    save_corpus(generate_synthetic(GeneratorConfig(num_videos=40, seed=3)), path)
    data = path.read_bytes()
    os.mkfifo(pipe)

    def write():
        try:
            pipe.write_bytes(data)
        except BrokenPipeError:  # the load stopped reading; its error fails the test
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    hasher = hashlib.sha256()
    try:
        piped = load_corpus(pipe, hasher)
    finally:
        writer.join(timeout=60)
    assert _tables(piped) == _tables(load_corpus(path))
    assert hasher.hexdigest() == hashlib.sha256(data).hexdigest()


def test_save_is_byte_deterministic(corpus, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(corpus, p1)
    save_corpus(corpus, p2)
    assert corpus_digest(p1) == corpus_digest(p2)


def test_failed_save_keeps_the_previous_file(corpus, tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    before = path.read_bytes()

    def fail_on_second(corpus):
        for i, line in enumerate(video_lines(corpus)):
            if i == 1:
                raise RuntimeError("interrupted")
            yield line

    video_lines = corpus_module._video_lines
    monkeypatch.setattr(corpus_module, "_video_lines", fail_on_second)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_corpus(generate_synthetic(replace(SMALL, seed=10)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


def test_header_schema_tag(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema"] == "hiercorpus/3"


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
    # A video's payload is its frame rows, clip after clip, then its token ids as
    # little-endian int64, kind after kind; each clip record gives its row count
    # and each text its token count.
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    rec = json.loads(path.read_text().splitlines()[1])
    video = corpus.videos[0]
    raw = base64.b64decode(rec["payload"])
    frame_bytes = 8 * SMALL.d_in * sum(c.frames.rows for c in video.clips)
    assert [c["rows"] for c in rec["clips"]] == [c.frames.rows for c in video.clips]
    assert raw[:frame_bytes] == b"".join(c.frames.array.astype("<f8").tobytes()
                                         for c in video.clips)
    texts = ([c.narration_a for c in video.clips] + [c.narration_b for c in video.clips]
             + [p.concept for p in video.phases] + [video.abstract])
    assert np.frombuffer(raw[frame_bytes:], "<i8").tolist() == _flat(texts)
    assert ([c["narration_a"] for c in rec["clips"]] + [c["narration_b"] for c in rec["clips"]]
            + [p["concept"] for p in rec["phases"]] + [rec["abstract"]]) == list(map(len, texts))


def _old_line(video, frames) -> str:
    """A video's line in schemas 1 and 2: texts as JSON id lists, each clip's frames as
    `frames(array)` and no payload."""
    return json.dumps({
        "video_id": video.video_id,
        "clips": [{"id": c.clip_id, "frames": frames(c.frames.array),
                   "narration_a": c.narration_a, "narration_b": c.narration_b}
                  for c in video.clips],
        "phases": [{"start": p.start, "end": p.end, "concept": p.concept, "class": p.phase_class}
                   for p in video.phases],
        "abstract": video.abstract}) + "\n"


def _write_old_corpus(corpus, path, version: int) -> None:
    """`corpus` as schema `hiercorpus/<version>` wrote it: frames as number lists (1) or
    base64 per clip (2)."""
    frames = {1: np.ndarray.tolist,
              2: lambda a: base64.b64encode(a.astype("<f8").tobytes()).decode()}[version]
    header = json.dumps({"schema": f"hiercorpus/{version}", "config": asdict(corpus.config)})
    path.write_text(header + "\n" + "".join(_old_line(v, frames) for v in corpus.videos))


def test_load_rejects_v1_corpus(corpus, tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    _write_old_corpus(corpus, path, 1)
    with pytest.raises(SchemaVersionError, match="hiercorpus/1.*hiercorpus/3"):
        load_corpus(path)
    assert _eval_exit_code(path, tmp_path) == 5
    assert "regenerate" in capsys.readouterr().err


def test_load_rejects_v2_corpus(corpus, tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    _write_old_corpus(corpus, path, 2)
    with pytest.raises(SchemaVersionError, match="hiercorpus/2.*hiercorpus/3"):
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
    clips = tuple(VideoClip(f"c{i}", FrameStack.of([f]), (0, 3), (1,))
                  for i, f in enumerate(frames))
    video = LectureVideo("v0", clips, (PhaseSegment(0, len(clips), (2,), 0),), (3, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        save_corpus(load_records(cfg, (video,)), path)
        loaded = load_corpus(path)
    assert len(loaded.videos[0].clips) == len(clips)
    for before, after in zip(clips, loaded.videos[0].clips):
        assert np.array_equal(before.frames.array, after.frames.array)
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
    return _with_clip(video, 1, frames=FrameStack.of([frames]))


# Each fault is one a loader must refuse: a video record, written by save_corpus
# itself, or a line whose JSON record is edited after.
def _line(video, edit) -> str:
    """The video's record line, with its JSON record edited in place by `edit`."""
    rec = json.loads(record_line(video))
    edit(rec)
    return json.dumps(rec) + "\n"


RECORD_FAULTS = {
    "token 9999": lambda v: _with_clip(v, 0, narration_a=(9999,) + v.clips[0].narration_a[1:]),
    "token -3": lambda v: _with_phase(v, 0, concept=(-3,) + v.phases[0].concept[1:]),
    # A token id is an int64 of the payload, so a float, bool or 2**70 one has no
    # line; its counterpart is such a token count.
    "float token": lambda v: _line(v, lambda r: r.update(abstract=3.7)),
    "bool token": lambda v: _line(v, lambda r: r["clips"][2].update(narration_b=True)),
    "phase class 99": lambda v: _with_phase(v, 1, phase_class=99),
    "frame row too wide": lambda v: _with_clip(
        v, 0, frames=FrameStack.of([np.zeros((1, SMALL.d_in + 1))])),
    "NaN frame value": _nan_frames,
    "duplicate video id": lambda v: replace(v, video_id="v000"),
    "clip id of an earlier video": lambda v: _with_clip(v, 2, clip_id="v000c01"),
    "clip id repeated in the video": lambda v: _with_clip(v, 2, clip_id=v.clips[0].clip_id),
    "int video id": lambda v: replace(v, video_id=7),
    "float clip id": lambda v: _with_clip(v, 1, clip_id=3.5),
    "token 2**70": lambda v: _line(v, lambda r: r["clips"][1].update(narration_b=2**70)),
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_load_rejects_bad_record_with_exit_4(fault, corpus, tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2] == record_line(corpus.videos[1])
    bad = RECORD_FAULTS[fault](corpus.videos[1])
    lines[2] = bad if isinstance(bad, str) else record_line(bad)
    path.write_text("".join(lines))
    with pytest.raises(CorpusFormatError, match="line 3"):
        load_corpus(path)
    assert _eval_exit_code(path, tmp_path) == 4
    assert "line 3" in capsys.readouterr().err


# Each takes a line's payload bytes and gives its spoiled base64 text, and the fault named.
ENCODING_FAULTS = {
    "not base64": (lambda raw: "not base64!", "payload is not base64"),
    "no frame bytes": (lambda raw: "", "payload holds 0 bytes, not 1536 frame bytes"),
    "bytes not whole floats": (lambda raw: base64.b64encode(raw + bytes(3)).decode(),
                               "payload holds 2883 bytes, not 1536 frame bytes"),
}


@pytest.mark.parametrize("fault", sorted(ENCODING_FAULTS))
def test_load_rejects_bad_frame_encoding(fault, corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    spoil, named = ENCODING_FAULTS[fault]
    rec["payload"] = spoil(base64.b64decode(rec["payload"]))
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=rf"^line 3: bad video record: {named}"):
        load_corpus(path)


def _bad_base64(line: str) -> str:
    rec = json.loads(line)
    rec["payload"] = "not base64!"
    return json.dumps(rec) + "\n"


# Two faults, the first a token on line 3 above the vocabulary: the token is
# named, as it is the first fault in the file. A later fault is made in the
# records the file is written from, or, where records cannot hold it (bad
# base64), in the written line.
LATER_FAULTS = {
    "bad base64 on line 5": ({}, {4: _bad_base64}),
    "token -1 later on line 3": ({1: lambda v: replace(v, abstract=v.abstract[:-1] + (-1,))}, {}),
}


@pytest.mark.parametrize("later", sorted(LATER_FAULTS))
def test_load_names_the_first_fault_in_file_order(later, corpus, tmp_path, capsys):
    vocab, (records, lines) = corpus.config.vocab_size, LATER_FAULTS[later]
    videos = list(corpus.videos)
    videos[1] = _with_clip(videos[1], 0, narration_a=(vocab,) + videos[1].clips[0].narration_a[1:])
    for vi, fault in records.items():
        videos[vi] = fault(videos[vi])
    path = tmp_path / "c.jsonl"
    text = [header_line(corpus.config), *map(record_line, videos)]
    for li, fault in lines.items():
        text[li] = fault(text[li])
    path.write_text("".join(text))
    token = f"bad video record: token {vocab} is not an integer id in [0, {vocab})"
    with pytest.raises(CorpusFormatError, match=rf"^line 3: {re.escape(token)}$"):
        load_corpus(path)
    assert _eval_exit_code(path, tmp_path) == 4
    err = capsys.readouterr().err
    assert f"line 3: {token}" in err and "Traceback" not in err


def _payload_edit(rec, edit) -> None:
    """Rewrite the record's payload as `edit(raw, frame_bytes)` gives it, bytes or base64 text."""
    raw = bytearray(base64.b64decode(rec["payload"]))
    got = edit(raw, 8 * SMALL.d_in * sum(c["rows"] for c in rec["clips"]))
    rec["payload"] = base64.b64encode(raw).decode() if got is None else got


def _set_token(rec, index: int, value: int) -> None:
    """Put token id `value` at `index` of the record's payload ids."""
    def put(raw, frame_bytes):
        at = frame_bytes + 8 * index
        raw[at:at + 8] = value.to_bytes(8, "little", signed=True)
    _payload_edit(rec, put)


# Two faults on line 3, and the one named. The loader reads the video id, then each
# clip key over all clips in turn, then the phases and the abstract; it checks the
# row counts, the token counts kind by kind, the payload's base64 and byte count,
# and the token ids last. Clip 1's frames start at payload byte 256, and
# narration_b's ids after the 60 of narration_a.
LINE_FAULTS = {
    "no narration_a in clip 0, bad base64 in clip 1": (
        lambda r: (r["clips"][0].pop("narration_a"), r.update(
            payload=r["payload"][:352] + "!" + r["payload"][353:])), "'narration_a'"),
    "no narration_a in clip 0, 5 frame bytes in clip 1": (
        lambda r: (r["clips"][0].pop("narration_a"), _payload_edit(
            r, lambda raw, _: base64.b64encode(raw[:256 + 5]).decode())), "'narration_a'"),
    "no id in clip 1, no video_id": (
        lambda r: (r["clips"][1].pop("id"), r.pop("video_id")), "'video_id'"),
    "no narration_a in clip 0, no id in clip 1": (
        lambda r: (r["clips"][0].pop("narration_a"), r["clips"][1].pop("id")), "'id'"),
    "narration_a an int, token 99 in narration_b": (
        lambda r: (r["clips"][0].update(narration_a=5), _set_token(r, 60, 99)),
        "payload holds 2880 bytes, not 1536 frame bytes (24 rows at d_in=8) and 1304 of 163 "
        "token ids"),
    "token 99 in narration_a, concept an int": (
        lambda r: (_set_token(r, 0, 99), r["phases"][0].update(concept=5)),
        "payload holds 2880 bytes, not 1536 frame bytes"),
    "token 99 in narration_a, an empty concept": (
        lambda r: (_set_token(r, 0, 99), r["phases"][2].update(concept=0)),
        "video v001: a concept text's token count must be a positive integer, got 0"),
    "no rows in clip 3, a list for narration_a": (
        lambda r: (r["clips"][3].update(rows=0), r["clips"][0].update(narration_a=[1, 2])),
        "video v001: a clip's frame row count must be a positive integer, got 0"),
}


@pytest.mark.parametrize("faults", sorted(LINE_FAULTS))
def test_load_names_the_first_fault_in_a_line(faults, corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    make, named = LINE_FAULTS[faults]
    make(rec)
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=rf"^line 3: bad video record: {re.escape(named)}"):
        load_corpus(path)


def _strict_payload(text, out):
    """A payload decoded by the strict decoder alone, with the loader's message: the
    reference the loader's one-pass decode must agree with."""
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except (TypeError, ValueError) as e:
        raise CorpusFormatError(f"payload is not base64: {e}") from e
    out[:len(raw)] = np.frombuffer(raw, np.uint8)
    return len(raw)


def _load_outcome(path):
    """Every table of the corpus at `path` as bytes, or the message it is refused with."""
    try:
        corpus = load_corpus(path)
    except CorpusFormatError as e:
        return str(e)
    runs = [a for r in corpus.token_runs.values() for a in r]
    return (corpus.video_ids, corpus.clip_ids, corpus.frame_table.shape,
            *(a.tobytes() for a in (corpus.video_clips, corpus.clip_rows, corpus.segments,
                                    corpus.frame_table, corpus.token_table, *runs)))


# How a payload text is spoiled: each takes the text and a draw in [0, 1).
TEXT_FAULTS = {
    "none": lambda t, u: t,
    "= in the middle": lambda t, u: _put(t, u, "="),
    "bad ASCII character": lambda t, u: _put(t, u, "!"),
    "newline": lambda t, u: _put(t, u, "\n"),
    "non-ASCII character": lambda t, u: _put(t, u, "é"),
    "length not divisible by 4": lambda t, u: t[:-1],
    "one more character": lambda t, u: t + "A",
    "one group fewer": lambda t, u: t[4:],
    "one group more": lambda t, u: t + "AAAA",
    "empty": lambda t, u: "",
    "int": lambda t, u: 5,
    "null": lambda t, u: None,
    "list": lambda t, u: [t],
}


def _put(text: str, u: float, char: str) -> str:
    at = int(u * len(text))
    return text[:at] + char + text[at + 1:]


@settings(max_examples=150, deadline=None)
@given(d_in=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       rows=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       fault=st.sampled_from(sorted(TEXT_FAULTS) + ["missing payload key"]),
       where=st.floats(0, 1, exclude_max=True))
@example(d_in=3, seed=0, rows=[1, 2], fault="none", where=0.0)
@example(d_in=2, seed=0, rows=[1, 2], fault="none", where=0.0)
@example(d_in=3, seed=0, rows=[2, 4], fault="= in the middle", where=0.5)
def test_one_pass_decode_agrees_with_the_strict_decode(d_in, seed, rows, fault, where):
    # A payload of 8 * (d_in * rows + 20 * clips + 32) bytes: padded unless that
    # count is a multiple of 3. Frames are normals, or any bytes (NaN too).
    cfg = GeneratorConfig(num_videos=2, num_classes=1, clips_per_phase=len(rows),
                          frames_per_clip=1, d_in=d_in, vocab_size=4, seed=seed % 7)
    rng = np.random.default_rng(seed)
    lines = [header_line(cfg), *map(record_line, generate_synthetic(cfg).videos)]
    rec = json.loads(lines[1])
    frames = (rng.standard_normal((sum(rows), d_in)).astype("<f8").tobytes() if seed % 5
              else rng.bytes(8 * d_in * sum(rows)))
    ids = base64.b64decode(rec["payload"])[8 * d_in * len(rows):]
    for c, n in zip(rec["clips"], rows):
        c["rows"] = n
    rec["payload"] = base64.b64encode(frames + ids).decode()
    if fault == "missing payload key":
        del rec["payload"]
    else:
        rec["payload"] = TEXT_FAULTS[fault](rec["payload"], where)
    lines[1] = json.dumps(rec) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_text("".join(lines))
        got = _load_outcome(path)
        with patch.object(corpus_module, "_decode_payload", _strict_payload):
            want = _load_outcome(path)
    assert got == want


def test_whole_row_lines_are_decoded_in_one_pass(tmp_path, monkeypatch):
    # A payload of a multiple of 3 bytes has no padding and takes the one pass;
    # a padded one takes the strict decoder.
    calls, strict = [], binascii.a2b_base64
    monkeypatch.setattr(binascii, "a2b_base64", lambda *a, **k: calls.append(a) or strict(*a, **k))
    whole = GeneratorConfig(num_videos=3, d_in=3, frames_per_clip=2)  # 8 * 696 bytes a video
    save_corpus(generate_synthetic(whole), tmp_path / "whole.jsonl")
    assert _tables(load_corpus(tmp_path / "whole.jsonl")) == _tables(generate_synthetic(whole))
    assert not calls
    padded = GeneratorConfig(num_videos=3, num_classes=1, clips_per_phase=1,
                             frames_per_clip=1, d_in=1, vocab_size=4)  # 8 * 53 bytes
    save_corpus(generate_synthetic(padded), tmp_path / "padded.jsonl")
    assert _tables(load_corpus(tmp_path / "padded.jsonl")) == _tables(generate_synthetic(padded))
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Splitting and counting
# ---------------------------------------------------------------------------


def test_pair_counts(corpus):
    assert corpus.pair_counts() == {"clip": 30, "phase": 15, "video": 5}


def _clips(corpus):
    return [c for v in corpus.videos for c in v.clips]


def test_levels_are_runs_of_clips_and_of_their_rows(corpus):
    clip = corpus.levels["clip"]
    clips = _clips(corpus)
    assert clip.starts.tolist() == list(range(30)) and set(clip.lengths) == {1}
    expected = {"clip": [[c] for c in clips],
                "phase": [v.clips[seg.start:seg.end] for v in corpus.videos for seg in v.phases],
                "video": [v.clips for v in corpus.videos]}
    for level, sources in expected.items():
        got = corpus.levels[level]
        assert type(got) is RowRanges and {a.dtype for a in got} == {np.dtype(np.intp)}
        for source, (members, first, count) in enumerate(zip(sources, *got, strict=True)):
            assert [c.clip_id for c in clips[first:first + count]] == [c.clip_id for c in members]
            # As many frames as the run has rows are every row of its clips, in order.
            rows = np.vstack([c.frames.array for c in members])
            assert _same_bits(corpus.frames_of(level, [source], len(rows)), rows)


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
    assert table.nbytes == sum(c.frames.array.nbytes for c in _clips(corpus))
    for clip, start in zip(_clips(corpus), np.cumsum(corpus.clip_rows) - corpus.clip_rows,
                           strict=True):
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
            whole.clip_rows[:len(halves[0].clip_ids)].sum():].ctypes.data


def test_split_builds_no_level_index(corpus, tmp_path):
    save_corpus(corpus, tmp_path / "c.jsonl")
    for whole in (corpus, load_corpus(tmp_path / "c.jsonl")):
        train, hold = whole.split(0.4)
        assert "levels" not in vars(whole)
        table = whole.frame_table
        assert train.frame_table.ctypes.data == table.ctypes.data
        assert hold.frame_table.ctypes.data == table[len(train.frame_table):].ctypes.data
        assert len(train.frame_table) + len(hold.frame_table) == len(table)
        assert train.frame_table.base is not None and hold.frame_table.base is not None
        assert_frames_are_table_rows(train)
        assert_frames_are_table_rows(hold)


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
        assert frames.array.shape == (3, 8)
        assert len(narration_a) == len(narration_b)


def test_phase_batch_has_every_segment_narration(corpus):
    rng = substream(1, "train")
    batch = sample_phase_batch(corpus, 3, rng, k=5)
    assert len(batch) == 3
    for frames, narrations, concept in zip(batch.frames, batch.narrations, batch.summary):
        # clips_per_phase=2, so each phase contributes exactly 2 narrations
        assert len(narrations) == 2
        assert frames.array.shape == (5, 8)
        assert len(concept) > 0


def test_phase_narrations_match_member_clips(corpus):
    rng = substream(2, "train")
    batch = sample_phase_batch(corpus, 3, rng)
    members = [v.clips[seg.start:seg.end] for v in corpus.videos for seg in v.phases]
    for source, narrations in zip(batch.source_ids, batch.narrations):
        assert narrations == tuple(c.narration_a for c in members[source])


def test_video_batch_narration_subsample(corpus):
    rng = substream(3, "train")
    # 6 clips per video, k=4 -> 4 evenly spaced narrations
    batch = sample_video_batch(corpus, 2, rng, k=4)
    for frames, narrations in zip(batch.frames, batch.narrations, strict=True):
        assert len(narrations) == 4
        assert frames.array.shape == (4, 8)
    # k larger than the clip count -> one narration per clip, no repeats
    batch = sample_video_batch(corpus, 2, rng, k=32)
    for frames, narrations in zip(batch.frames, batch.narrations, strict=True):
        assert len(narrations) == 6
        assert frames.array.shape == (32, 8)


def test_sampling_is_stream_deterministic(corpus):
    a = sample_clip_batch(corpus, 4, substream(5, "train"))
    b = sample_clip_batch(corpus, 4, substream(5, "train"))
    assert a.source_ids == b.source_ids


def test_frame_rows_are_built_once_per_level_and_k(corpus):
    rng = substream(7, "train")
    first = sample_video_batch(corpus, 2, rng, k=5)
    picks = corpus._frame_rows
    rows = picks["video", 5]
    second = sample_video_batch(corpus, 3, rng, k=5)
    assert picks["video", 5] is rows and not rows.flags.writeable
    assert list(second.frames.lengths) == [5, 5, 5]
    assert first.frames[1].array.tobytes() == first.frames.array[5:].tobytes()
    with pytest.raises(ConfigError, match="frame count"):
        sample_phase_batch(corpus, 2, rng, k=0)
    assert ("phase", 0) not in picks


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
    frames = np.zeros((2, 3))
    for cls in (ClipBatch, PhaseBatch, VideoBatch):
        with pytest.raises(InsufficientDataError, match=f"{cls.level} batch repeats"):
            cls(("x", "x"), (frames, frames), ((1,), (1,)), ((1,), (1,)))


def test_phase_and_video_batches_share_one_shape():
    names = ("source_ids", "frames", "narrations", "summary")
    for cls, level in ((PhaseBatch, "phase"), (VideoBatch, "video")):
        assert issubclass(cls, CoarseBatch)
        assert tuple(f.name for f in fields(cls)) == names
        assert cls.level == level


def test_batch_rejects_columns_of_different_lengths():
    frames = np.zeros((2, 3))
    with pytest.raises(ContractError, match="clip batch columns"):
        ClipBatch(("x", "y"), (frames, frames), ((1,), (1,)), ((1,),))


@st.composite
def ragged_corpora(draw):
    """1-3 videos of 1-5 clips of 1-7 frames each, cut into contiguous phases.

    Every frame value is distinct, so a wrong row is never bit-equal to the
    right one. Texts hold 1-4 tokens, and every token is distinct too.
    """
    frame_ids = count()
    text_ids = count()

    def text():
        return tuple(next(text_ids) for _ in range(draw(st.integers(1, 4))))

    videos = []
    for vi in range(draw(st.integers(1, 3))):
        clips = tuple(
            VideoClip(f"v{vi}c{ci}",
                      FrameStack.of([[[next(frame_ids), 0.5] for _ in range(rows)]]),
                      text(), text())
            for ci, rows in enumerate(draw(st.lists(st.integers(1, 7), min_size=1,
                                                    max_size=5)))
        )
        cuts = sorted(draw(st.sets(st.integers(1, len(clips) - 1)))) if len(clips) > 1 else []
        bounds = [0, *cuts, len(clips)]
        phases = tuple(PhaseSegment(lo, hi, text(), pi % 2)
                       for pi, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
        videos.append(LectureVideo(f"v{vi}", clips, phases, text()))
    cfg = GeneratorConfig(num_videos=len(videos), num_classes=2, d_in=2,
                          vocab_size=next(text_ids))
    return load_records(cfg, videos)


def _oracle_frames(clips, k: int) -> np.ndarray:
    stacked = np.vstack([c.frames.array for c in clips])
    return stacked[np.arange(k) * len(stacked) // k]


def _same_bits(got: FrameStack, want: np.ndarray) -> bool:
    return got.array.shape == want.shape and got.array.tobytes() == want.tobytes()


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
    # The built corpus is read from its records' lines, the loaded one from the
    # lines save_corpus writes. All must sample the same bits, and so must the
    # halves of a split, which slice the table.
    corpora = [built, loaded, generated]
    for whole in (built, loaded):
        if len(whole.videos) > 1:
            corpora.extend(whole.split(0.5))
    for corpus in corpora:
        rng = np.random.default_rng(seed)
        clips = _clips(corpus)
        batch = sample_clip_batch(corpus, len(clips), rng, k=k)
        assert sorted(batch.source_ids) == list(range(len(clips)))
        for source, frames, narration_a, narration_b in zip(
                batch.source_ids, batch.frames, batch.narration_a, batch.narration_b,
                strict=True):
            clip = clips[source]
            assert _same_bits(frames, _oracle_frames([clip], k))
            assert (narration_a, narration_b) == (clip.narration_a, clip.narration_b)

        phases = [(v.clips[seg.start:seg.end], seg) for v in corpus.videos for seg in v.phases]
        batch = sample_phase_batch(corpus, len(phases), rng, k=k)
        assert sorted(batch.source_ids) == list(range(len(phases)))
        for source, frames, narrations, concept in zip(
                batch.source_ids, batch.frames, batch.narrations, batch.summary, strict=True):
            members, seg = phases[source]
            assert _same_bits(frames, _oracle_frames(members, k))
            assert narrations == tuple(c.narration_a for c in members)
            assert concept == seg.concept

        videos = corpus.videos
        batch = sample_video_batch(corpus, len(videos), rng, k=k)
        assert sorted(batch.source_ids) == list(range(len(videos)))
        for source, frames, narrations, abstract in zip(
                batch.source_ids, batch.frames, batch.narrations, batch.summary, strict=True):
            video = videos[source]
            n = len(video.clips)
            assert _same_bits(frames, _oracle_frames(video.clips, k))
            assert narrations == tuple(video.clips[j * n // min(n, k)].narration_a
                                       for j in range(min(n, k)))
            assert abstract == video.abstract


def _spread_narrations(clips, k: int) -> tuple[tuple[int, ...], ...]:
    """The nested-tuple rule: at most k narrations, at clip indices floor(j*n/min(n, k))."""
    n = min(len(clips), k)
    return tuple(clips[j * len(clips) // n].narration_a for j in range(n))


def _flat(texts) -> list[int]:
    return [t for text in texts for t in text]


@settings(max_examples=30, deadline=None)
@given(ragged_corpora(), st.integers(0, 2**32 - 1))
def test_text_columns_match_nested_tuple_oracle(built, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        save_corpus(built, path)
        corpus = load_corpus(path)
    videos = corpus.videos
    clips = _clips(corpus)
    phases = [(v.clips[seg.start:seg.end], seg) for v in videos for seg in v.phases]
    most = max(len(v.clips) for v in videos)
    rng = np.random.default_rng(seed)
    # k from below the fewest clips of a video to above the most
    for k in range(1, most + 2):
        clip = sample_clip_batch(corpus, len(clips), rng, k=k)
        phase = sample_phase_batch(corpus, len(phases), rng, k=k)
        video = sample_video_batch(corpus, len(videos), rng, k=k)
        want = {
            (clip, "narration_a"): [clips[i].narration_a for i in clip.source_ids],
            (clip, "narration_b"): [clips[i].narration_b for i in clip.source_ids],
            (phase, "summary"): [phases[i][1].concept for i in phase.source_ids],
            (video, "summary"): [videos[i].abstract for i in video.source_ids],
        }
        for (batch, name), texts in want.items():
            column = getattr(batch, name)
            assert column.table is corpus.token_table
            assert list(column) == texts
            assert column.lengths.tolist() == [len(t) for t in texts]
            assert column.ids.tolist() == _flat(texts)
        sets = {
            phase: [tuple(c.narration_a for c in phases[i][0]) for i in phase.source_ids],
            video: [_spread_narrations(videos[i].clips, k) for i in video.source_ids],
        }
        for batch, text_sets in sets.items():
            assert list(batch.narrations) == text_sets
            assert batch.narrations.sizes.tolist() == [len(ts) for ts in text_sets]
            assert batch.narrations.members.ids.tolist() == _flat(_flat(text_sets))
        pooled = clip.narration_a + phase.summary + video.summary
        assert pooled.table is corpus.token_table
        assert pooled.ids.tolist() == _flat(want[clip, "narration_a"] + want[phase, "summary"]
                                            + want[video, "summary"])


def test_token_table_is_built_with_the_corpus(corpus, tmp_path):
    save_corpus(corpus, tmp_path / "c.jsonl")
    for whole in (corpus, load_corpus(tmp_path / "c.jsonl")):
        table = whole.token_table
        assert not table.flags.writeable and table.dtype == np.intp
        videos = whole.videos
        texts = ([c.narration_a for c in _clips(whole)] + [c.narration_b for c in _clips(whole)]
                 + [seg.concept for v in videos for seg in v.phases]
                 + [v.abstract for v in videos])
        assert table.tolist() == _flat(texts)
        assert all(half.token_table is table for half in whole.split(0.4))


# ---------------------------------------------------------------------------
# Records: Corpus.videos reads them from the tables; the hot path builds none
# ---------------------------------------------------------------------------


def test_no_records_are_built_on_the_hot_path(tmp_path, monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (VideoClip, PhaseSegment, LectureVideo):
        monkeypatch.setattr(cls, "__init__", forbidden)
    rng = substream(0, "train")
    # Decoded from raw words, and (width-1 class blocks) replayed call by call.
    for cfg in (SMALL, replace(SMALL, vocab_size=SMALL.num_classes)):
        save_corpus(generate_synthetic(cfg), tmp_path / "c.jsonl")
        corpus = load_corpus(tmp_path / "c.jsonl")
        train, hold = corpus.split(0.4)
        sample_clip_batch(train, 4, rng)
        sample_phase_batch(train, 4, rng)
        sample_video_batch(train, 2, rng)
        evaluate(untrained_checkpoint(TrainConfig(d_tok=4, hidden=6, d_emb=3), corpus), hold,
                 default_prompts(cfg))
    with pytest.raises(AssertionError, match="built a"):
        corpus.videos


# ---------------------------------------------------------------------------
# The writer: every line is the bytes json.dumps gives the video's record
# ---------------------------------------------------------------------------


def _tables(corpus):
    """What a corpus holds, as plain values, and its level index."""
    return (corpus.config, corpus.video_ids, corpus.clip_ids, corpus.video_clips.tolist(),
            corpus.clip_rows.tolist(), corpus.segments.tolist(), corpus.frame_table.dtype,
            corpus.token_table.dtype, corpus.frame_table.tobytes(),
            [(corpus.texts(kind).ids.tolist(), corpus.texts(kind).lengths.tolist())
             for kind in corpus_module.TEXT_KINDS],
            [tuple(a.tolist() for a in runs) for runs in corpus.levels.values()])


def assert_saved_as_records(corpus, path):
    """`save_corpus` writes the header and each video's `record_line`, and the file loads
    back to the same tables, bit for bit, by the loader and by the strict decode alone."""
    save_corpus(corpus, path)
    lines = path.read_bytes().decode("ascii").splitlines(keepends=True)
    assert lines[0] == header_line(corpus.config)
    assert len(lines) == 1 + len(corpus.video_ids)
    for line, video in zip(lines[1:], corpus.videos):
        assert line == record_line(video)
    assert _tables(load_corpus(path)) == _tables(corpus)
    with patch.object(corpus_module, "_decode_payload", _strict_payload):
        assert _tables(load_corpus(path)) == _tables(corpus)


@pytest.mark.parametrize("cfg", [GeneratorConfig(), GeneratorConfig(vocab_size=45_000_000)],
                         ids=["default", "vocab 45M"])
def test_saved_lines_are_json_dumps_of_the_records(cfg, tmp_path):
    corpus = generate_synthetic(cfg)
    for name, c in zip(("whole", "train", "holdout"), (corpus, *corpus.split(0.25))):
        assert_saved_as_records(c, tmp_path / f"{name}.jsonl")


@settings(max_examples=40, deadline=None)
@given(num_videos=st.integers(1, 3), num_classes=st.integers(1, 3),
       clips_per_phase=st.integers(1, 3), frames_per_clip=st.integers(1, 3),
       d_in=st.integers(1, 4), extra_vocab=st.integers(0, 2**62), seed=st.integers(0, 99))
@example(num_videos=2, num_classes=1, clips_per_phase=1, frames_per_clip=1, d_in=1,
         extra_vocab=3, seed=0)  # padded: 53 values a video
@example(num_videos=2, num_classes=2, clips_per_phase=1, frames_per_clip=1, d_in=2,
         extra_vocab=10, seed=0)  # unpadded: 84 values a video
def test_saved_small_corpora_are_json_dumps_of_the_records(num_videos, num_classes,
                                                            clips_per_phase, frames_per_clip,
                                                            d_in, extra_vocab, seed):
    cfg = GeneratorConfig(num_videos=num_videos, num_classes=num_classes,
                          clips_per_phase=clips_per_phase, frames_per_clip=frames_per_clip,
                          d_in=d_in, vocab_size=num_classes + extra_vocab, seed=seed)
    corpus = generate_synthetic(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        for i, c in enumerate((corpus, *(corpus.split(0.5) if num_videos > 1 else ()))):
            assert_saved_as_records(c, Path(tmp) / f"{i}.jsonl")


@settings(max_examples=30, deadline=None)
@given(ragged_corpora())
def test_saved_ragged_lines_are_json_dumps_of_the_records(built):
    # d_in=2 and texts of 1-4 tokens: some payloads are padded, some are not.
    with tempfile.TemporaryDirectory() as tmp:
        for i, c in enumerate((built, *(built.split(0.5) if len(built.video_ids) > 1 else ()))):
            assert_saved_as_records(c, Path(tmp) / f"{i}.jsonl")


def test_saved_lines_escape_ids_and_allow_no_phases(tmp_path):
    cfg = GeneratorConfig(num_videos=2, num_classes=1, d_in=3, vocab_size=4)
    odd = 'q"\\é\x01\ud800'  # quote, backslash, non-ASCII, control, lone surrogate

    def clip(clip_id, rows):
        frames = FrameStack.of([np.arange(3.0 * rows).reshape(rows, 3)])
        return VideoClip(clip_id, frames, (0, 3), (1,))

    videos = (LectureVideo(odd, (clip(odd + "c0", 1), clip("c1", 2)),
                           (PhaseSegment(0, 2, (2,), 0),), (3, 0)),
              LectureVideo("plain", (clip("\t", 3),), (), (1,)))
    assert_saved_as_records(load_records(cfg, videos), tmp_path / "c.jsonl")


# The tracemalloc peak of this save when each line was a record written by
# json.dumps (Python 3.11, numpy 2.4; the table writer reads 2.32 MB). A
# whole-table tobytes() copy alone would add 7.4 MB.
SAVE_PEAK_BYTES = 2_958_369


def test_save_peak_memory_is_bounded(tmp_path):
    corpus = generate_synthetic(GeneratorConfig(num_videos=200, seed=1))
    save_corpus(generate_synthetic(SMALL), tmp_path / "warm.jsonl")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_corpus(corpus, tmp_path / "c.jsonl")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= SAVE_PEAK_BYTES, peak


# Above its frame buffer (three quarters of the file) and the token table, the
# tracemalloc peak of this load holds the file's 1 MiB read buffer, the id lists,
# sets and row counts of the tables, and one line's decode scratch: 2.35 MB
# (Python 3.11, numpy 2.4; 2.38 MB when each clip was decoded on its own). A
# decode scratch as large as the file would add 10.7 MB.
LOAD_SCRATCH_BYTES = 2_600_000


def test_load_peak_memory_is_bounded(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic(GeneratorConfig(num_videos=200, seed=9021)), path)
    save_corpus(generate_synthetic(GeneratorConfig(num_videos=2)), tmp_path / "warm.jsonl")
    load_corpus(tmp_path / "warm.jsonl")  # builds the decode's pair table once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        corpus = load_corpus(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    frame_buffer = path.stat().st_size * 3 // 4
    assert peak <= frame_buffer + corpus.token_table.nbytes + LOAD_SCRATCH_BYTES, peak
