"""Zero-shot phase recognition from text prompts.

Class labels become prompt token sequences; each class's prompts are
embedded, mean-pooled, and re-normalized into one row of a class matrix.
Clip visual embeddings are then classified by cosine argmax against that
matrix — no parameter ever changes during evaluation.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import Corpus, GeneratorConfig, atomic_file
from .encoders import (
    FrameStack,
    ModelParams,
    aggregated_text_rows,
    param_nodes,
    pick_frames,
    text_embedding_rows,
    visual_embedding_rows,
)
from .errors import (
    ContractError,
    ConfigError,
    CorpusFormatError,
    CoverageError,
    SchemaVersionError,
    ShapeError,
)
from .numerics import Matrix, Tape
from .seeding import substream
from .trainer import Checkpoint

PROMPTS_SCHEMA = "hierprompts/1"
PROMPT_LEN = 8
PROMPTS_PER_CLASS = 2


@dataclass(frozen=True)
class PromptSet:
    """Ordered (class label, prompt texts) pairs."""

    classes: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ConfigError(f"need at least 2 classes, got {len(self.classes)}")
        labels = [label for label, _ in self.classes]
        if len(set(labels)) != len(labels):
            raise ConfigError("class labels must be unique")
        for label, prompts in self.classes:
            if not prompts:
                raise ConfigError(f"class {label} has no prompts")
            if not all(prompts):
                raise ConfigError(f"class {label} has an empty prompt")

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.classes)


def default_prompts(cfg: GeneratorConfig, seed: int | None = None) -> PromptSet:
    """Per-class prompts drawn from each class's vocabulary block.

    The synthetic stand-in for hand-written textual prompts: clean token
    sequences from the same block the class's narrations and concepts use.
    """
    rng = substream(cfg.seed if seed is None else seed, "prompts")
    classes = []
    for cls in range(cfg.num_classes):
        lo, hi = cfg.class_block(cls)
        prompts = tuple(
            tuple(int(t) for t in rng.integers(lo, hi, PROMPT_LEN))
            for _ in range(PROMPTS_PER_CLASS)
        )
        classes.append((cls, prompts))
    return PromptSet(classes=tuple(classes))


def save_prompts(prompts: PromptSet, path) -> None:
    doc = {
        "schema": PROMPTS_SCHEMA,
        "classes": [
            {"label": label, "prompts": [list(p) for p in plist]}
            for label, plist in prompts.classes
        ],
    }
    with atomic_file(path) as f:
        json.dump(doc, f)
        f.write("\n")


def _integer(value, what: str) -> int:
    # int() would silently turn 2.9 into 2 and true into 1.
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def load_prompts(path) -> PromptSet:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CorpusFormatError(f"{path}: not valid UTF-8 JSON: {e}") from e
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if tag != PROMPTS_SCHEMA:
        raise SchemaVersionError(
            f"unsupported prompts schema {tag!r}, expected {PROMPTS_SCHEMA!r}"
        )
    try:
        classes = tuple(
            (_integer(c["label"], "label"),
             tuple(tuple(_integer(t, "token") for t in p) for p in c["prompts"]))
            for c in doc["classes"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(f"{path}: bad prompt record: {e}") from e
    try:
        return PromptSet(classes=classes)
    except ConfigError as e:
        raise CorpusFormatError(f"{path}: {e}") from e


def embed_prompts(prompts: PromptSet, params: ModelParams) -> Matrix:
    """One unit-norm row per class: mean of its prompt embeddings, renormalized."""
    tape = Tape()
    pn = param_nodes(tape, params)
    return Matrix._wrap(
        aggregated_text_rows(tape, pn, [plist for _, plist in prompts.classes]).value)


def classify(visual: Matrix, class_embeddings: Matrix) -> list[int]:
    """Cosine-argmax class index per visual row; ties go to the lowest index."""
    if visual.cols != class_embeddings.cols:
        raise ShapeError(
            f"visual width {visual.cols} != class-embedding width {class_embeddings.cols}"
        )
    v = visual.array
    c = class_embeddings.array
    v_norm = np.linalg.norm(v, axis=1, keepdims=True)
    c_norm = np.linalg.norm(c, axis=1, keepdims=True)
    sims = (v / v_norm) @ (c / c_norm).T
    return [int(i) for i in np.argmax(sims, axis=1)]


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_f1: float
    per_class: tuple[dict, ...]
    confusion: tuple[tuple[int, ...], ...]  # row = ground truth, col = prediction
    samples: int
    config_digest: str = ""
    checkpoint_id: str = ""
    labels: tuple[int, ...] = field(default=())

    def to_json(self) -> str:
        doc = asdict(self)
        doc["confusion"] = [list(r) for r in self.confusion]
        doc["per_class"] = [dict(d) for d in self.per_class]
        doc["labels"] = list(self.labels)
        doc["f1_averaging"] = "macro"
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def table(self, model: str = "hecvl", dataset: str = "synthetic") -> str:
        """Aligned four-column summary: model, data, accuracy, macro F1."""
        return format_table(
            ("Model", "Pretraining dataset", "Top-1 Acc.", "F1 Score"),
            [(model, dataset, f"{100.0 * self.accuracy:.1f}", f"{100.0 * self.macro_f1:.1f}")],
        )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest cell."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "".join(fmt.format(*row) + "\n" for row in (headers, *rows))


def compute_metrics(predictions, ground_truth, labels=None) -> MetricsReport:
    """Top-1 accuracy and macro F1 (empty-class F1 counted as 0)."""
    pred = [int(p) for p in predictions]
    gt = [int(g) for g in ground_truth]
    if len(pred) != len(gt):
        raise ContractError(
            f"{len(pred)} predictions vs {len(gt)} ground-truth labels"
        )
    if not pred:
        raise ContractError("cannot compute metrics on an empty sample")
    if labels is None:
        labels = sorted(set(gt) | set(pred))
    labels = tuple(int(c) for c in labels)
    index = {c: i for i, c in enumerate(labels)}
    for value in pred + gt:
        if value not in index:
            raise ContractError(f"label {value} not in class set {list(labels)}")
    k = len(labels)
    conf = np.zeros((k, k), dtype=int)
    for g, p in zip(gt, pred):
        conf[index[g], index[p]] += 1
    tp = np.diag(conf).astype(float)
    pred_count = conf.sum(axis=0).astype(float)
    gt_count = conf.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_count > 0, tp / pred_count, 0.0)
        recall = np.where(gt_count > 0, tp / gt_count, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    per_class = tuple(
        {
            "label": labels[i],
            "precision": float(precision[i]),
            "recall": float(recall[i]),
            "f1": float(f1[i]),
            "support": int(gt_count[i]),
        }
        for i in range(k)
    )
    return MetricsReport(
        accuracy=float(tp.sum() / len(gt)),
        macro_f1=float(f1.mean()),
        per_class=per_class,
        confusion=tuple(tuple(int(x) for x in row) for row in conf),
        samples=len(gt),
        labels=labels,
    )


def _clip_examples(corpus: Corpus, k_clip: int) -> tuple[FrameStack, list[int]]:
    """Every labeled clip in the split: sampled frames plus its phase class."""
    clips, gt = [], []
    for first, video in zip(corpus.clip_offsets, corpus.videos):
        for seg in video.phases:
            clips.extend(range(first + seg.start, first + seg.end))
            gt.extend([seg.phase_class] * (seg.end - seg.start))
    rows = corpus.clip_rows
    return pick_frames(corpus.frame_table, rows.starts[clips], rows.lengths[clips], k_clip), gt


def evaluate(checkpoint: Checkpoint, split: Corpus, prompts: PromptSet) -> MetricsReport:
    """Zero-shot phase recognition over every clip of a corpus split."""
    if not split.videos:
        raise ContractError("evaluation split has no videos")
    split_classes = {seg.phase_class for v in split.videos for seg in v.phases}
    missing = sorted(split_classes - set(prompts.labels))
    if missing:
        raise CoverageError(
            f"classes {missing} appear in the split but have no prompts"
        )
    params = checkpoint.params
    before = params.digest()
    class_rows = embed_prompts(prompts, params)
    segments, gt = _clip_examples(split, checkpoint.config.k_clip)
    tape = Tape()
    visual = Matrix._wrap(visual_embedding_rows(tape, param_nodes(tape, params), segments).value)
    pred_idx = classify(visual, class_rows)
    predictions = [prompts.labels[i] for i in pred_idx]
    report = compute_metrics(predictions, gt, labels=prompts.labels)
    if params.digest() != before:
        raise ContractError("evaluation mutated model parameters")
    return replace(report, config_digest=checkpoint.config.digest(), checkpoint_id=before[:16])


def clip_retrieval_recall(checkpoint: Checkpoint, split: Corpus, top_k: int = 1) -> float:
    """Fraction of clips whose own narration ranks in the top-k by cosine."""
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    params = checkpoint.params
    clips = split.clip_table
    if not clips:
        raise ContractError("split has no clips")
    segments = pick_frames(split.frame_table, *split.clip_rows, checkpoint.config.k_clip)
    texts = [c.narration_a for c in clips]
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, segments).value
    text = text_embedding_rows(tape, pn, texts).value
    sims = visual @ text.T
    hits = 0
    for i in range(sims.shape[0]):
        order = np.argsort(-sims[i], kind="stable")
        if i in order[:top_k]:
            hits += 1
    return hits / sims.shape[0]
