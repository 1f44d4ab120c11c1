"""Release gate: the eight acceptance checks, one printed verdict line each.

Each test prints `[criterion N] <name>: PASS/FAIL — <detail>` straight to the
terminal (bypassing capture) and then asserts, so a plain `pytest -v` run
shows the verdict for every criterion.
"""
import hashlib
import json
import math
import random
import re
import time

import numpy as np
import pytest

from hiercl.cli import main
from hiercl.corpus import (
    ClipBatch,
    GeneratorConfig,
    PhaseBatch,
    VideoBatch,
    generate_synthetic,
    load_corpus,
    sample_clip_batch,
    sample_phase_batch,
    sample_video_batch,
)
from hiercl.encoders import EncoderDims, ModelParams
from hiercl.numerics import Matrix
from hiercl.objectives import loss_clip, loss_phase, loss_video
from hiercl.seeding import substream
from hiercl.trainer import (
    TrainConfig,
    load_checkpoint,
    schedule_level,
    train,
    untrained_checkpoint,
)
from hiercl.zeroshot import classify, compute_metrics, default_prompts, evaluate

from eager import encode_segment, encode_text


def _verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="module")
def corpus_file(workdir):
    """Default synthetic corpus (40 videos, 6 classes, seed 0) via the CLI."""
    path = workdir / "corpus.jsonl"
    assert main(["generate", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    rc = main(["gradcheck", "--seed", "0"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    errs = [float(s) for s in re.findall(r"max rel err (\S+)", out)]
    ok = rc == 0 and len(errs) == 4 and max(errs) < 1e-4 and elapsed < 30.0
    _verdict(capsys, 1, "gradient correctness",
             ok, f"4 losses x 5 batches, worst rel err {max(errs):.2e} "
                 f"(tol 1e-4), {elapsed:.1f}s (limit 30s)")


# ---------------------------------------------------------------------------
# 2. Loss identities
# ---------------------------------------------------------------------------


def _identity_params(d: int) -> ModelParams:
    eye = np.eye(d)
    zero = np.zeros((1, d))
    return ModelParams.from_blocks(
        EncoderDims(d_in=d, d_tok=d, hidden=d, d_emb=d, vocab_size=d),
        {"visual.w1": eye, "visual.b1": zero, "visual.w2": eye, "visual.b2": zero,
         "text.embed": eye, "text.w1": eye, "text.b1": zero, "text.w2": eye, "text.b2": zero},
    )


def _same_embedding_entries(b: int, d: int):
    frames = Matrix(np.tile(np.eye(d)[0], (2, 1)))
    texts = ((0,),) * b
    clips = ClipBatch(tuple(f"c{i}" for i in range(b)), (frames,) * b, texts, texts)
    phases = PhaseBatch(tuple(f"p{i}" for i in range(b)), (frames,) * b, (((0,),),) * b, texts)
    videos = VideoBatch(tuple(f"v{i}" for i in range(b)), (frames,) * b, (((0,),),) * b, texts)
    return clips, phases, videos


def test_criterion_2_loss_identities(capsys):
    params = _identity_params(4)
    clip1, phase1, video1 = _same_embedding_entries(1, 4)
    worst = 0.0
    for loss in (loss_phase(phase1, params, 0.07), loss_video(video1, params, 0.07)):
        worst = max(worst, abs(loss.loss - (-math.log(2.0))))
    for b in (2, 4, 8):
        clip, phase, video = _same_embedding_entries(b, 4)
        want = -math.log(2.0 / b)
        for loss in (loss_clip(clip, params, 0.07),
                     loss_phase(phase, params, 0.07),
                     loss_video(video, params, 0.07)):
            worst = max(worst, abs(loss.loss - want))
    ok = worst < 1e-9
    _verdict(capsys, 2, "loss identities",
             ok, f"-log 2 at B=1 and -log(2/B) for B in {{2,4,8}}, "
                 f"worst deviation {worst:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 3. Schedule exactness
# ---------------------------------------------------------------------------


def test_criterion_3_schedule_exactness(capsys):
    levels = [schedule_level(i, 25, 15, 115) for i in range(155)]
    counts = (levels.count("clip"), levels.count("phase"), levels.count("video"))
    boundary = {0: "clip", 24: "clip", 25: "phase", 39: "phase",
                40: "video", 154: "video", 155: "clip"}
    boundary_ok = all(schedule_level(i, 25, 15, 115) == want
                      for i, want in boundary.items())
    ok = counts == (25, 15, 115) and boundary_ok
    _verdict(capsys, 3, "schedule exactness",
             ok, f"period counts {counts} vs (25, 15, 115), "
                 f"boundary indices {sorted(boundary)} all correct: {boundary_ok}")


# ---------------------------------------------------------------------------
# 4. Determinism and resume
# ---------------------------------------------------------------------------


def test_criterion_4_determinism_and_resume(corpus_file, workdir, capsys):
    config = workdir / "cycles10.json"
    config.write_text(json.dumps({"train": {"cycles": 10}}))
    digests = []
    for tag in ("d1", "d2"):
        run = workdir / tag
        ev = workdir / f"{tag}_eval"
        run.mkdir()
        ev.mkdir()
        assert main(["train", "--config", str(config),
                     "--corpus", str(corpus_file), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--corpus", str(corpus_file), "--out", str(ev)]) == 0
        digests.append((_sha(run / "train_log.jsonl"),
                        _sha(run / "checkpoint.bin"),
                        _sha(ev / "report.json")))
    byte_identical = digests[0] == digests[1]

    cfg = TrainConfig(cycles=10)
    train_split, _ = load_corpus(corpus_file).split(0.25)
    halfway = 5 * (cfg.m + cfg.n + cfg.l)
    resumed = train(cfg, train_split, resume=train(cfg, train_split, stop_at=halfway).checkpoint)
    uninterrupted = load_checkpoint(workdir / "d1" / "checkpoint.bin")
    full_log = [json.loads(s) for s in
                (workdir / "d1" / "train_log.jsonl").read_text().splitlines()]
    resume_exact = (resumed.checkpoint.params.digest() == uninterrupted.params.digest()
                    and resumed.checkpoint.rng_state == uninterrupted.rng_state
                    and resumed.log == full_log[halfway:])

    ok = byte_identical and resume_exact
    _verdict(capsys, 4, "determinism and resume",
             ok, f"log/checkpoint/report byte-identical across reruns: {byte_identical}; "
                 f"resume at batch {halfway} bit-exact: {resume_exact}")


# ---------------------------------------------------------------------------
# 5. Zero-shot learnability
# ---------------------------------------------------------------------------


def test_criterion_5_zero_shot_learnability(corpus_file, capsys):
    t0 = time.time()
    corpus = load_corpus(corpus_file)
    train_split, holdout = corpus.split(0.25)
    cfg = TrainConfig()  # full alternating mode, 50 cycles
    assert cfg.mode == "hecvl" and cfg.cycles <= 50
    prompts = default_prompts(corpus.config)
    trained = train(cfg, train_split).checkpoint
    report = evaluate(trained, holdout, prompts)
    baseline = evaluate(untrained_checkpoint(cfg, train_split), holdout, prompts)
    elapsed = time.time() - t0
    chance_gap = abs(baseline.accuracy - 1.0 / 6.0)
    ok = (report.accuracy >= 0.80 and report.macro_f1 >= 0.75
          and chance_gap <= 0.15 and elapsed < 600.0)
    _verdict(capsys, 5, "zero-shot learnability",
             ok, f"held-out acc {report.accuracy:.3f} (>=0.80), "
                 f"macro F1 {report.macro_f1:.3f} (>=0.75), "
                 f"untrained {baseline.accuracy:.3f} (1/6 +/- 0.15), "
                 f"{elapsed:.0f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 6. Ablation harness
# ---------------------------------------------------------------------------


def test_criterion_6_ablation_non_inferiority(corpus_file, workdir, capsys):
    out = workdir / "ablate"
    out.mkdir()
    rc = main(["ablate", "--corpus", str(corpus_file), "--out", str(out)])
    capsys.readouterr()
    doc = json.loads((out / "ablation.json").read_text())
    acc = {r["variant"]: r["accuracy"] for r in doc["variants"]}
    floor = acc["clip-only"] - 0.05
    ok = (rc == 0 and len(acc) == 4
          and acc["clip+phase"] >= floor and acc["full"] >= floor)
    _verdict(capsys, 6, "ablation non-inferiority",
             ok, f"clip-only {acc['clip-only']:.3f}, clip+phase {acc['clip+phase']:.3f}, "
                 f"single-space {acc['single-space']:.3f}, full {acc['full']:.3f} "
                 f"(floor {floor:.3f})")


# ---------------------------------------------------------------------------
# 7. Metric oracle agreement
# ---------------------------------------------------------------------------


def test_criterion_7_metric_oracle_agreement(capsys):
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(100):
        k = rng.randint(2, 6)
        n = rng.randint(1, 50)
        labels = list(range(k))
        gt = [rng.randrange(k) for _ in range(n)]
        pred = [rng.randrange(k) for _ in range(n)]
        report = compute_metrics(pred, gt, labels=labels)
        acc = sum(1 for p, g in zip(pred, gt) if p == g) / n
        f1s = []
        for c in labels:
            tp = sum(1 for p, g in zip(pred, gt) if p == c and g == c)
            pc = sum(1 for p in pred if p == c)
            gc = sum(1 for g in gt if g == c)
            precision = tp / pc if pc else 0.0
            recall = tp / gc if gc else 0.0
            f1s.append(2 * precision * recall / (precision + recall)
                       if precision + recall > 0 else 0.0)
        if report.accuracy != acc or report.macro_f1 != sum(f1s) / k:
            mismatches += 1
    ok = mismatches == 0
    _verdict(capsys, 7, "metric oracle agreement",
             ok, f"100 random cases (n <= 50), {mismatches} exact mismatches")


# ---------------------------------------------------------------------------
# 8. Invariance suite
# ---------------------------------------------------------------------------


def _permutation_cases(rng) -> float:
    gen = GeneratorConfig(num_videos=8, num_classes=3, clips_per_phase=2,
                          frames_per_clip=4, d_in=8, vocab_size=30, seed=31)
    corpus = generate_synthetic(gen)
    dims = EncoderDims(d_in=8, d_tok=6, hidden=10, d_emb=5, vocab_size=30)
    params = ModelParams.initialize(dims, substream(31, "train"))
    worst = 0.0
    cases = [(loss_clip, sample_clip_batch, ClipBatch, 2),
             (loss_phase, sample_phase_batch, PhaseBatch, 3),
             (loss_video, sample_video_batch, VideoBatch, 4)]
    for i in range(102):
        fn, sampler, cls, k = cases[i % 3]
        b = 2 + (i % 3)
        batch = sampler(corpus, b, rng, k=k)
        perm = rng.permutation(b).tolist()
        base = fn(batch, params, 0.07).loss
        shuffled = fn(cls(*(tuple(col[j] for j in perm) for col in vars(batch).values())),
                      params, 0.07).loss
        worst = max(worst, abs(base - shuffled))
    return worst


def _scale_invariance_cases(rng) -> int:
    bad = 0
    for _ in range(100):
        n, k, d = rng.integers(1, 8), rng.integers(2, 6), rng.integers(2, 7)
        visual = rng.standard_normal((n, d))
        classes = rng.standard_normal((k, d))
        scale = float(rng.uniform(0.01, 100.0))
        if classify(scale * visual, classes) != classify(visual, classes):
            bad += 1
    return bad


def _order_invariance_cases(rng, params) -> float:
    worst = 0.0
    for _ in range(100):
        tokens = [int(t) for t in rng.integers(0, 30, rng.integers(2, 12))]
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        a = encode_text(tokens, params).array
        b = encode_text(shuffled, params).array
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


def _unit_norm_cases(rng, params) -> float:
    worst = 0.0
    for _ in range(100):
        frames = Matrix(rng.standard_normal((int(rng.integers(1, 6)), 8)))
        tokens = [int(t) for t in rng.integers(0, 30, rng.integers(1, 12))]
        for row in (encode_segment(frames, params), encode_text(tokens, params)):
            worst = max(worst, abs(float(np.linalg.norm(row.array)) - 1.0))
    return worst


def test_criterion_8_invariance_suite(capsys):
    rng = substream(8, "eval")
    dims = EncoderDims(d_in=8, d_tok=6, hidden=10, d_emb=5, vocab_size=30)
    params = ModelParams.initialize(dims, substream(8, "train"))
    perm_worst = _permutation_cases(rng)
    scale_bad = _scale_invariance_cases(rng)
    order_worst = _order_invariance_cases(rng, params)
    norm_worst = _unit_norm_cases(rng, params)
    ok = (perm_worst < 1e-12 and scale_bad == 0
          and order_worst < 1e-12 and norm_worst < 1e-12)
    _verdict(capsys, 8, "invariance suite",
             ok, f"loss permutation worst {perm_worst:.1e} (102 cases), "
                 f"classify scale mismatches {scale_bad}/100, "
                 f"text order worst {order_worst:.1e}, "
                 f"unit-norm worst {norm_worst:.1e} (tol 1e-12)")
