"""Prompt embedding, cosine classification, metrics, and evaluation."""
import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from hiercl.corpus import Corpus, GeneratorConfig, generate_synthetic
from hiercl.encoders import EncoderDims, ModelParams
from hiercl.errors import (
    ConfigError,
    ContractError,
    CorpusFormatError,
    CoverageError,
    DegenerateEmbeddingError,
    EmptyInputError,
    SchemaVersionError,
    ShapeError,
    VocabularyError,
)
from hiercl.trainer import TrainConfig, train, untrained_checkpoint
from hiercl.zeroshot import (
    MetricsReport,
    PromptSet,
    classify,
    clip_retrieval_recall,
    compute_metrics,
    default_prompts,
    embed_prompts,
    evaluate,
    format_table,
    load_prompts,
    save_prompts,
)

GEN = GeneratorConfig(num_videos=8, num_classes=3, clips_per_phase=2,
                      frames_per_clip=4, d_in=8, vocab_size=30, seed=21)
TINY = dict(m=1, n=1, l=1, b_clip=3, b_phase=2, b_video=2,
            k_clip=2, k_phase=3, k_video=4, d_tok=6, hidden=10, d_emb=5)


def identity_params(d: int) -> ModelParams:
    eye = np.eye(d)
    zero_bias = np.zeros((1, d))
    return ModelParams.from_blocks(
        EncoderDims(d_in=d, d_tok=d, hidden=d, d_emb=d, vocab_size=d),
        {"visual.w1": eye, "visual.b1": zero_bias, "visual.w2": eye, "visual.b2": zero_bias,
         "text.embed": eye, "text.w1": eye, "text.b1": zero_bias, "text.w2": eye,
         "text.b2": zero_bias},
    )


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(GEN)


@pytest.fixture(scope="module")
def trained(corpus):
    cfg = TrainConfig(cycles=2, seed=3, **TINY)
    return train(cfg, corpus).checkpoint


# ---------------------------------------------------------------------------
# Prompt sets
# ---------------------------------------------------------------------------


def test_prompt_set_validation():
    with pytest.raises(ConfigError):
        PromptSet(classes=(((0, ((1, 2),))),))  # one class
    with pytest.raises(ConfigError):
        PromptSet(classes=((0, ((1,),)), (0, ((2,),))))  # duplicate label
    with pytest.raises(ConfigError, match="class 1"):
        PromptSet(classes=((0, ((1,),)), (1, ())))  # empty prompt list
    with pytest.raises(ConfigError, match="class 1 has an empty prompt"):
        PromptSet(classes=((0, ((1,),)), (1, ((2,), ()))))


def test_default_prompts_stay_in_class_blocks():
    prompts = default_prompts(GEN)
    assert prompts.labels == (0, 1, 2)
    for label, plist in prompts.classes:
        lo, hi = GEN.class_block(label)
        assert len(plist) == 2
        for p in plist:
            assert len(p) == 8
            assert all(lo <= t < hi for t in p)
    again = default_prompts(GEN)
    assert again == prompts  # same seed, same prompts


def test_prompts_roundtrip(tmp_path):
    prompts = default_prompts(GEN)
    path = tmp_path / "p.json"
    save_prompts(prompts, path)
    assert load_prompts(path) == prompts
    blob = path.read_text()
    save_prompts(prompts, path)
    assert path.read_text() == blob


def test_prompts_schema_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"schema": "hierprompts/9", "classes": []}\n')
    with pytest.raises(SchemaVersionError, match="hierprompts/9"):
        load_prompts(path)
    path.write_text("{nope\n")
    with pytest.raises(CorpusFormatError):
        load_prompts(path)


# ---------------------------------------------------------------------------
# embed_prompts / classify
# ---------------------------------------------------------------------------


def test_embed_prompts_identity_oracle():
    # identity text encoder: prompt [t]*L embeds to basis vector e_t
    params = identity_params(4)
    prompts = PromptSet(classes=((0, ((0, 0),)), (1, ((1, 1), (2, 2)))))
    rows = embed_prompts(prompts, params)
    assert np.allclose(rows[0], np.eye(4)[0], atol=1e-12)
    want = (np.eye(4)[1] + np.eye(4)[2]) / math.sqrt(2.0)
    assert np.allclose(rows[1], want, atol=1e-12)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_embed_prompts_duplication_invariant():
    params = identity_params(5)
    base = PromptSet(classes=((0, ((0,), (1,))), (1, ((2,), (3,)))))
    doubled = PromptSet(classes=((0, ((0,), (1,), (0,), (1,))),
                                 (1, ((2,), (3,), (2,), (3,)))))
    assert np.allclose(embed_prompts(base, params), embed_prompts(doubled, params), atol=1e-12)


def test_classify_picks_nearest_basis():
    classes = np.eye(3)
    visual = np.array([[0.1, 0.9, 0.0], [2.0, 0.1, 0.0], [0.0, 0.0, 5.0]])
    assert classify(visual, classes) == [1, 0, 2]


def test_classify_tie_goes_to_lowest_index():
    classes = np.eye(2)
    visual = np.array([[0.5, 0.5]])
    assert classify(visual, classes) == [0]


def test_classify_matches_exhaustive_scan():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n, k, d = rng.integers(1, 9), rng.integers(2, 6), rng.integers(2, 7)
        visual = rng.standard_normal((n, d))
        classes = rng.standard_normal((k, d))
        got = classify(visual, classes)
        for i in range(n):
            best, best_sim = 0, -np.inf
            for j in range(k):
                sim = float(np.dot(visual[i], classes[j])
                            / (np.linalg.norm(visual[i]) * np.linalg.norm(classes[j])))
                if sim > best_sim:
                    best, best_sim = j, sim
            assert got[i] == best


def test_classify_is_scale_invariant():
    rng = np.random.default_rng(23)
    visual = rng.standard_normal((40, 6))
    classes = rng.standard_normal((4, 6))
    base = classify(visual, classes)
    for c in (0.5, 3.0, 100.0):
        assert classify(c * visual, classes) == base
        assert classify(visual, c * classes) == base


def test_classify_rejects_width_mismatch():
    with pytest.raises(ShapeError):
        classify(np.zeros((2, 3)), np.zeros((2, 4)))


def test_classify_rejects_zero_norm_rows():
    # A zero row has no direction: it used to come out as a NaN row, argmax 0.
    visual = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateEmbeddingError, match="^visual row 1 has near-zero norm"):
        classify(visual, np.eye(2))
    classes = np.array([[1.0, 0.0], [1e-13, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="^class-embedding row 1 has near-zero"):
        classify(np.eye(2), classes)
    # just above NORM_GUARD still classifies
    assert classify(np.array([[0.0, 2e-12]]), np.eye(2)) == [1]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _oracle_metrics(pred, gt, labels):
    """Plain dict-counting reimplementation of accuracy and macro F1."""
    acc = sum(1 for p, g in zip(pred, gt) if p == g) / len(gt)
    f1s = []
    for c in labels:
        tp = sum(1 for p, g in zip(pred, gt) if p == c and g == c)
        pc = sum(1 for p in pred if p == c)
        gc = sum(1 for g in gt if g == c)
        precision = tp / pc if pc else 0.0
        recall = tp / gc if gc else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall > 0 else 0.0)
    return acc, sum(f1s) / len(labels)


def test_metrics_hand_example():
    report = compute_metrics([0, 1, 1, 2], [0, 1, 2, 2])
    assert report.accuracy == 0.75
    assert report.macro_f1 == pytest.approx((1.0 + 2 / 3 + 2 / 3) / 3, abs=1e-12)
    assert report.samples == 4
    by_label = {d["label"]: d for d in report.per_class}
    assert by_label[1]["precision"] == 0.5
    assert by_label[1]["recall"] == 1.0
    assert by_label[2]["recall"] == 0.5
    assert by_label[0]["f1"] == 1.0


def test_metrics_equal_oracle_on_random_cases():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(2, 6)
        n = rng.randint(1, 50)
        labels = list(range(k))
        gt = [rng.randrange(k) for _ in range(n)]
        pred = [rng.randrange(k) for _ in range(n)]
        report = compute_metrics(pred, gt, labels=labels)
        acc, macro = _oracle_metrics(pred, gt, labels)
        assert report.accuracy == acc
        assert report.macro_f1 == macro


def test_metrics_perfect_and_all_wrong():
    perfect = compute_metrics([0, 1, 2], [0, 1, 2])
    assert perfect.accuracy == 1.0 and perfect.macro_f1 == 1.0
    wrong = compute_metrics([1, 1, 1], [0, 0, 0], labels=[0, 1])
    assert wrong.accuracy == 0.0 and wrong.macro_f1 == 0.0


def test_metrics_empty_class_counts_as_zero_f1():
    report = compute_metrics([0, 1], [0, 1], labels=[0, 1, 2])
    by_label = {d["label"]: d for d in report.per_class}
    assert by_label[2]["support"] == 0
    assert by_label[2]["f1"] == 0.0
    assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)


def test_confusion_rows_are_ground_truth_counts():
    report = compute_metrics([0, 1, 1, 2, 0], [0, 1, 2, 2, 2], labels=[0, 1, 2])
    assert [sum(r) for r in report.confusion] == [1, 1, 3]
    assert sum(sum(r) for r in report.confusion) == report.samples
    assert report.confusion[2][0] == 1  # gt 2 predicted as 0 once


def test_metrics_input_errors():
    with pytest.raises(ContractError):
        compute_metrics([0], [0, 1])
    with pytest.raises(ContractError):
        compute_metrics([], [])
    with pytest.raises(ContractError, match="label 7"):
        compute_metrics([7], [0], labels=[0, 1])


def test_report_json_and_table():
    report = compute_metrics([0, 1, 1, 2], [0, 1, 2, 2])
    doc = report.to_json()
    assert doc.endswith("\n")
    assert '"f1_averaging": "macro"' in doc
    table = report.table(model="hecvl", dataset="synthetic")
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["Model", "Pretraining", "dataset", "Top-1", "Acc.", "F1", "Score"]
    assert "75.0" in lines[1]
    assert lines[0].index("Top-1") == lines[1].index("75.0")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------



def test_tables_keep_their_literal_layout():
    # Columns are padded to their widest cell, the last one too, so lines
    # carry trailing spaces; report.txt and ablation.txt depend on this.
    report = MetricsReport(accuracy=0.5, macro_f1=0.3333, per_class=(), confusion=(), samples=4)
    assert report.table(model="clip_phase", dataset="synthetic") == (
        "Model       Pretraining dataset  Top-1 Acc.  F1 Score\n"
        "clip_phase  synthetic            50.0        33.3    \n"
    )
    assert format_table(("Variant", "Top-1 Acc.", "F1 Score"),
                        [("clip-only", "12.3", "5.0"), ("single-space", "100.0", "98.8")]) == (
        "Variant       Top-1 Acc.  F1 Score\n"
        "clip-only     12.3        5.0     \n"
        "single-space  100.0       98.8    \n"
    )


def test_evaluate_is_deterministic(corpus, trained):
    prompts = default_prompts(GEN)
    a = evaluate(trained, corpus, prompts)
    b = evaluate(trained, corpus, prompts)
    assert a.to_json() == b.to_json()
    assert a.checkpoint_id == trained.params.digest()[:16]
    assert a.config_digest == trained.config.digest()


def test_eval_report_is_pinned():
    # One seed-0 hecvl cycle on the default corpus's train split, scored on
    # its holdout with the default prompts. Any change to the clips or frames
    # evaluation reads must update this value on purpose.
    gen = GeneratorConfig()
    train_split, holdout = generate_synthetic(gen).split(0.25)
    report = evaluate(train(TrainConfig(cycles=1), train_split).checkpoint, holdout,
                      default_prompts(gen))
    assert (hashlib.sha256(report.to_json().encode()).hexdigest()
            == "c40eb343e9734ac6c198b8db4fdf14a79ea2dddeffb49082980501ced4c3f8d7")


def test_evaluate_scores_every_clip(corpus, trained):
    report = evaluate(trained, corpus, default_prompts(GEN))
    assert report.samples == corpus.pair_counts()["clip"]
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.macro_f1 <= 1.0


def test_evaluate_does_not_mutate_params(corpus, trained):
    before = trained.params.digest()
    evaluate(trained, corpus, default_prompts(GEN))
    assert trained.params.digest() == before


def test_evaluate_requires_prompt_coverage(corpus, trained):
    partial = PromptSet(classes=default_prompts(GEN).classes[:2])
    with pytest.raises(CoverageError, match="2"):
        evaluate(trained, corpus, partial)


@pytest.mark.parametrize("token", [GEN.vocab_size, -1])
def test_evaluate_rejects_prompt_token_outside_vocabulary(corpus, trained, token):
    classes = list(default_prompts(GEN).classes)
    label, prompts = classes[1]
    classes[1] = (label, (prompts[0], (3, token, 4)))
    with pytest.raises(VocabularyError, match=f"class 1 has prompt token id {token} "
                                              f"outside vocabulary of size {GEN.vocab_size}"):
        evaluate(trained, corpus, PromptSet(classes=tuple(classes)))


def test_evaluate_rejects_a_split_without_labeled_clips(corpus, trained):
    bare = Corpus.of(corpus.config, [replace(v, phases=()) for v in corpus.videos[:3]])
    with pytest.raises(EmptyInputError, match=r"^evaluation split of 3 videos \(v000 to v002\) "
                                              "has no labeled clips to score"):
        evaluate(trained, bare, default_prompts(GEN))


def test_evaluate_invariant_to_class_order(corpus, trained):
    prompts = default_prompts(GEN)
    flipped = PromptSet(classes=tuple(reversed(prompts.classes)))
    a = evaluate(trained, corpus, prompts)
    b = evaluate(trained, corpus, flipped)
    assert a.accuracy == b.accuracy
    assert a.macro_f1 == b.macro_f1
    key = lambda d: d["label"]
    assert sorted(a.per_class, key=key) == sorted(b.per_class, key=key)


def test_evaluate_invariant_to_prompt_duplication(corpus, trained):
    prompts = default_prompts(GEN)
    doubled = PromptSet(classes=tuple(
        (label, plist + plist) for label, plist in prompts.classes
    ))
    a = evaluate(trained, corpus, prompts)
    b = evaluate(trained, corpus, doubled)
    assert a.accuracy == b.accuracy
    assert a.confusion == b.confusion


def test_untrained_checkpoint_evaluates(corpus):
    ckpt = untrained_checkpoint(TrainConfig(cycles=1, seed=11, **TINY), corpus)
    report = evaluate(ckpt, corpus, default_prompts(GEN))
    assert 0.0 <= report.accuracy <= 1.0


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def test_retrieval_recall_bounds_and_saturation(corpus, trained):
    r1 = clip_retrieval_recall(trained, corpus, top_k=1)
    n_clips = corpus.pair_counts()["clip"]
    assert 0.0 <= r1 <= 1.0
    assert clip_retrieval_recall(trained, corpus, top_k=n_clips) == 1.0
    with pytest.raises(ConfigError):
        clip_retrieval_recall(trained, corpus, top_k=0)


def test_retrieval_recall_monotone_in_k(corpus, trained):
    vals = [clip_retrieval_recall(trained, corpus, top_k=k) for k in (1, 3, 10)]
    assert vals == sorted(vals)
