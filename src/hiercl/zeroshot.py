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
    text_embedding_rows,
    visual_embedding_rows,
)
from .errors import (
    ContractError,
    ConfigError,
    CorpusFormatError,
    CoverageError,
    DegenerateEmbeddingError,
    EmptyInputError,
    SchemaVersionError,
    ShapeError,
    VocabularyError,
)
from .numerics import NORM_GUARD, Tape
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


def default_prompts(cfg: GeneratorConfig) -> PromptSet:
    """Per-class prompts drawn from each class's vocabulary block.

    The synthetic stand-in for hand-written textual prompts: clean token
    sequences from the same block the class's narrations and concepts use.
    """
    rng = substream(cfg.seed, "prompts")
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


def embed_prompts(prompts: PromptSet, params: ModelParams) -> np.ndarray:
    """One unit-norm row per class, read-only: mean of its prompt embeddings, renormalized."""
    tape = Tape()
    pn = param_nodes(tape, params)
    return aggregated_text_rows(tape, pn, [plist for _, plist in prompts.classes]).value


def classify(visual: np.ndarray, class_embeddings: np.ndarray) -> list[int]:
    """Cosine-argmax class index per visual row, ties to the lowest index; a row of
    either 2-D array with norm <= NORM_GUARD raises DegenerateEmbeddingError."""
    if visual.ndim != 2 or class_embeddings.ndim != 2 or \
            visual.shape[1] != class_embeddings.shape[1]:
        raise ShapeError(f"visual {visual.shape} and class embeddings "
                         f"{class_embeddings.shape} are not 2-D arrays of one width")
    unit = []
    for what, a in (("visual", visual), ("class-embedding", class_embeddings)):
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        bad = np.flatnonzero(norms[:, 0] <= NORM_GUARD)
        if bad.size:
            raise DegenerateEmbeddingError(f"{what} row {bad[0]} has near-zero norm "
                                           f"{norms[bad[0], 0]:.3e}")
        unit.append(a / norms)
    return [int(i) for i in np.argmax(unit[0] @ unit[1].T, axis=1)]


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


def _clip_examples(corpus: Corpus, k_clip: int) -> tuple[FrameStack, np.ndarray]:
    """Every labeled clip in the split: sampled frames plus its phase class."""
    starts, lengths = corpus.levels["phase"].clips
    firsts = lengths.cumsum() - lengths
    clips = (starts - firsts).repeat(lengths) + np.arange(lengths.sum())
    gt = corpus.segments[:, 2].repeat(lengths)
    return corpus.frames_of("clip", clips, k_clip), gt


def check_prompts(prompts: PromptSet, split: Corpus, vocab_size: int) -> None:
    """Reject a split without labeled clips, a prompt token outside the vocabulary,
    and a split class without prompts."""
    if not len(split.segments):
        ids = split.video_ids
        raise EmptyInputError(
            f"evaluation split of {len(ids)} videos"
            + (f" ({ids[0]} to {ids[-1]})" if ids else "")
            + " has no labeled clips to score: none of its videos has a phase segment")
    for label, plist in prompts.classes:
        for token in (t for p in plist for t in p):
            if not 0 <= token < vocab_size:
                raise VocabularyError(f"class {label} has prompt token id {token} "
                                      f"outside vocabulary of size {vocab_size}")
    split_classes = set(split.segments[:, 2].tolist())
    missing = sorted(split_classes - set(prompts.labels))
    if missing:
        raise CoverageError(f"classes {missing} appear in the split but have no prompts")


def evaluate(checkpoint: Checkpoint, split: Corpus, prompts: PromptSet) -> MetricsReport:
    """Zero-shot phase recognition over every clip of a corpus split."""
    if not split.video_ids:
        raise ContractError("evaluation split has no videos")
    check_prompts(prompts, split, checkpoint.params.vocab_size)
    params = checkpoint.params
    before = params.digest()
    class_rows = embed_prompts(prompts, params)
    segments, gt = _clip_examples(split, checkpoint.config.k_clip)
    tape = Tape()
    visual = visual_embedding_rows(tape, param_nodes(tape, params), segments).value
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
    if not split.clip_ids:
        raise ContractError("split has no clips")
    segments = split.frames_of("clip", np.arange(len(split.clip_ids)), checkpoint.config.k_clip)
    tape = Tape()
    pn = param_nodes(tape, params)
    visual = visual_embedding_rows(tape, pn, segments).value
    text = text_embedding_rows(tape, pn, split.texts("narration_a")).value
    sims = visual @ text.T
    top = np.argsort(-sims, axis=1, kind="stable")[:, :top_k]
    return float((top == np.arange(len(sims))[:, None]).any(axis=1).mean())
