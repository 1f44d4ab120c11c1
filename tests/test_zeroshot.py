"""Prompt embedding, cosine classification, metrics, and evaluation."""
import hashlib
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from eager import encode_segment, identity_params
from records import load_records

from hiercl.corpus import GeneratorConfig, generate_synthetic
from hiercl.encoders import frame_rows
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


@pytest.mark.parametrize("classes, message", [
    (((0, (5,)), (1, ((7,),))), "class 0 prompt 5 is not a sequence"),
    (((0, 5), (1, ((7,),))), "class 0 prompts 5 are not a sequence"),
    (((0, ((1, 2.5),)), (1, ((7,),))), "token 2.5 is not an integer"),
    (((0, ((1,),)), (1, ((True,),))), "token True is not an integer"),
    (((0, ((1,),)), (1, ((np.int64(7),),))), r"token (np\.int64\()?7\)? is not an integer"),
    (((0.0, ((1,),)), (1, ((7,),))), "label 0.0 is not an integer"),
    (((False, ((1,),)), (1, ((7,),))), "label False is not an integer"),
], ids=["int-prompt", "int-prompts", "float-token", "bool-token", "numpy-token",
        "float-label", "bool-label"])
def test_prompt_set_takes_only_int_ids_in_token_sequences(classes, message):
    # each was once accepted: a float token truncated, a bool read as 0 or 1,
    # an int prompt a raw TypeError when checked against the vocabulary
    with pytest.raises(ConfigError, match=f"^{message}$"):
        PromptSet(classes=classes)


@pytest.mark.parametrize("classes", [
    ((0, ((1,),)), (1,)), ((0, ((1,),)), (1, ((2,),), 3)), ((0, ((1,),)), 7),
    5, None, {0: ((1,),), 1: ((2,),)}, iter([(0, ((1,),)), (1, ((2,),))]),
], ids=["short-entry", "long-entry", "int-entry", "int", "none", "dict", "iterator"])
def test_prompt_set_rejects_classes_not_label_prompt_pairs(classes):
    # each once raised a raw ValueError or TypeError from unpacking or len
    with pytest.raises(ConfigError, match=r"^classes must be \(label, prompts\) pairs, got "):
        PromptSet(classes=classes)


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
    got = classify(visual, classes)
    assert got.dtype == np.intp and got.tolist() == [1, 0, 2]


def test_classify_tie_goes_to_lowest_index():
    classes = np.eye(2)
    visual = np.array([[0.5, 0.5]])
    assert classify(visual, classes).tolist() == [0]


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
        assert np.array_equal(classify(c * visual, classes), base)
        assert np.array_equal(classify(visual, c * classes), base)


def test_classify_rejects_width_mismatch():
    with pytest.raises(ShapeError):
        classify(np.zeros((2, 3)), np.zeros((2, 4)))


def test_classify_rejects_no_class_rows():
    with pytest.raises(EmptyInputError, match="no class embeddings"):
        classify(np.ones((3, 4)), np.empty((0, 4)))


def test_classify_rejects_zero_norm_rows():
    # A zero row has no direction: it used to come out as a NaN row, argmax 0.
    visual = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateEmbeddingError, match="^visual row 1 has near-zero norm"):
        classify(visual, np.eye(2))
    classes = np.array([[1.0, 0.0], [1e-13, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="^class-embedding row 1 has near-zero"):
        classify(np.eye(2), classes)
    # just above NORM_GUARD still classifies
    assert classify(np.array([[0.0, 2e-12]]), np.eye(2)).tolist() == [1]


def test_classify_rejects_nan_rows():
    # A NaN norm is not above NORM_GUARD; NaN rows used to get class 0.
    rows = np.array([[np.nan, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateEmbeddingError, match="^visual row 0 has .*norm nan"):
        classify(rows, np.eye(2))
    with pytest.raises(DegenerateEmbeddingError, match="^class-embedding row 0 has .*norm nan"):
        classify(np.eye(2), rows)


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
        labels = rng.sample(range(-5, 20), k)  # unsorted, some negative
        gt = [rng.choice(labels) for _ in range(n)]
        pred = [rng.choice(labels) for _ in range(n)]
        report = compute_metrics(pred, gt, labels=labels)
        acc, macro = _oracle_metrics(pred, gt, labels)
        assert report.accuracy == acc
        assert report.macro_f1 == macro
        assert report.confusion == tuple(
            tuple(sum(1 for p, g in zip(pred, gt) if (g, p) == (row, col)) for col in labels)
            for row in labels)


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
    # the first unknown value, predictions before ground truth
    with pytest.raises(ContractError, match=r"^label 9 not in class set \[0, 1\]$"):
        compute_metrics([0, 9], [8, 0], labels=[0, 1])
    with pytest.raises(ContractError, match=r"^label 8 not in class set \[0, 1\]$"):
        compute_metrics([0, 1], [1, 8], labels=[0, 1])
    with pytest.raises(ContractError, match=r"^label 1 not in class set \[\]$"):
        compute_metrics([1, 2], [1, 2], labels=[])
    # a float label is refused, not truncated to a match
    with pytest.raises(ContractError, match="integer"):
        compute_metrics([1.7], [1], labels=[1])


def test_metrics_reject_a_repeated_label():
    # a repeated label once gave class 0 two rows, one never counted
    with pytest.raises(ContractError, match=r"class set \[0, 0, 1\] repeats a label"):
        compute_metrics([0, 1, 1], [0, 1, 0], labels=[0, 0, 1])


def test_report_json_and_table():
    report = compute_metrics([0, 1, 1, 2], [0, 1, 2, 2])
    doc = report.to_json()
    assert doc.endswith("\n")
    assert '"f1_averaging": "macro"' in doc
    table = report.table(model="hecvl")
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
    assert report.table(model="clip_phase") == (
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


def test_evaluate_skips_clips_outside_every_segment(corpus, trained):
    whole, cut, bare = corpus.videos[:3]
    split = load_records(GEN, [whole, replace(cut, phases=cut.phases[1:]),
                               replace(bare, phases=())])
    prompts = default_prompts(GEN)
    report = evaluate(trained, split, prompts)
    # Each labeled clip once, with its segment's class, read from the records.
    labeled = [(clip, p.phase_class) for v in split.videos for p in v.phases
               for clip in v.clips[p.start:p.end]]
    assert report.samples == len(labeled) == 10 < len(split.clip_ids)
    support = Counter(cls for _, cls in labeled)
    assert {c["label"]: c["support"] for c in report.per_class} == \
        {label: support[label] for label in prompts.labels}
    k = trained.config.k_clip
    visual = np.vstack([
        encode_segment(clip.frames.array[frame_rows([0], [clip.frames.rows], k)[0]],
                       trained.params)
        for clip, _ in labeled])
    pred = classify(visual, embed_prompts(prompts, trained.params))
    oracle = compute_metrics([prompts.labels[i] for i in pred], [cls for _, cls in labeled],
                             labels=prompts.labels)
    assert report.confusion == oracle.confusion


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
    bare = load_records(corpus.config, [replace(v, phases=()) for v in corpus.videos[:3]])
    with pytest.raises(EmptyInputError, match=r"^evaluation split of 3 videos \(v000 to v002\) "
                                              "has no labeled clips to score"):
        evaluate(trained, bare, default_prompts(GEN))


def test_evaluate_rejects_a_corpus_without_videos(trained):
    # The same check, error and exit code (4) as `hiercl eval` on such a corpus.
    with pytest.raises(EmptyInputError, match=r"^evaluation split of 0 videos has no labeled "
                                              r"clips to score: none of its videos has a phase "
                                              r"segment$"):
        evaluate(trained, load_records(GEN, []), default_prompts(GEN))


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


def test_retrieval_recall_is_pinned():
    # The setup of test_eval_report_is_pinned; R@1, R@5 and R@10 as counts of clips.
    train_split, holdout = generate_synthetic(GeneratorConfig()).split(0.25)
    ckpt = train(TrainConfig(cycles=1), train_split).checkpoint
    for split, n, hits in ((train_split, 720, (1, 5, 11)), (holdout, 240, (0, 6, 7))):
        assert len(split.clip_ids) == n
        assert [clip_retrieval_recall(ckpt, split, k) for k in (1, 5, 10)] == \
            [h / n for h in hits]


def test_retrieval_recall_rejects_a_corpus_without_clips(trained):
    # The error class, and so the exit code (4), that evaluate gives such a split.
    with pytest.raises(EmptyInputError, match="^no segments to sample$"):
        clip_retrieval_recall(trained, load_records(GEN, []))
