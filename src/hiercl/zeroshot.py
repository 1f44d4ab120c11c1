"""Zero-shot phase recognition from text prompts.

Class labels become prompt token sequences; each class's prompts are
embedded, mean-pooled, and re-normalized into one row of a class matrix.
Clip visual embeddings are then classified by cosine argmax against that
matrix — no parameter ever changes during evaluation.
"""
from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import Corpus, GeneratorConfig, atomic_file
from .encoders import (
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
        if not (isinstance(self.classes, Sequence)
                and all(isinstance(c, Sequence) and len(c) == 2 for c in self.classes)):
            raise ConfigError(f"classes must be (label, prompts) pairs, got {self.classes!r}")
        if len(self.classes) < 2:
            raise ConfigError(f"need at least 2 classes, got {len(self.classes)}")
        for label, prompts in self.classes:
            # Only a Python int is an id: a float token would be truncated, a bool read as 0 or 1.
            if type(label) is not int:
                raise ConfigError(f"label {label!r} is not an integer")
            if not isinstance(prompts, Sequence):
                raise ConfigError(f"class {label} prompts {prompts!r} are not a sequence")
            if not prompts:
                raise ConfigError(f"class {label} has no prompts")
            for prompt in prompts:
                if not isinstance(prompt, Sequence):
                    raise ConfigError(f"class {label} prompt {prompt!r} is not a sequence")
                if not prompt:
                    raise ConfigError(f"class {label} has an empty prompt")
                for token in prompt:
                    if type(token) is not int:
                        raise ConfigError(f"token {token!r} is not an integer")
        if len(set(self.labels)) != len(self.classes):
            raise ConfigError("class labels must be unique")

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


def load_prompts(path, hasher=None) -> PromptSet:
    """Read a prompts file; `hasher`, a `hashlib` object, is fed the bytes read."""
    with open(path, "rb") as f:
        data = f.read()
    if hasher is not None:
        hasher.update(data)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CorpusFormatError(f"{path}: not valid UTF-8 JSON: {e}") from e
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if tag != PROMPTS_SCHEMA:
        raise SchemaVersionError(
            f"unsupported prompts schema {tag!r}, expected {PROMPTS_SCHEMA!r}"
        )
    try:
        classes = tuple(
            (c["label"], tuple(map(tuple, c["prompts"]))) for c in doc["classes"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(f"{path}: bad prompt record: {e}") from e
    try:
        return PromptSet(classes=classes)
    except ConfigError as e:
        raise CorpusFormatError(f"{path}: {e}") from e


def _rows(encode, params: ModelParams, items) -> np.ndarray:
    """The read-only rows `encode` gives for `items`, on a throwaway tape."""
    tape = Tape()
    return encode(tape, param_nodes(tape, params), items).value


def embed_prompts(prompts: PromptSet, params: ModelParams) -> np.ndarray:
    """One unit-norm row per class, read-only: mean of its prompt embeddings, renormalized."""
    return _rows(aggregated_text_rows, params, [plist for _, plist in prompts.classes])


def classify(visual: np.ndarray, class_embeddings: np.ndarray) -> np.ndarray:
    """Cosine-argmax class indices, an intp array with one per visual row, ties to the lowest
    index; a row of either 2-D array whose norm is not above NORM_GUARD raises
    DegenerateEmbeddingError."""
    if visual.ndim != 2 or class_embeddings.ndim != 2 or \
            visual.shape[1] != class_embeddings.shape[1]:
        raise ShapeError(f"visual {visual.shape} and class embeddings "
                         f"{class_embeddings.shape} are not 2-D arrays of one width")
    if not len(class_embeddings):
        raise EmptyInputError("no class embeddings to classify against")
    unit = []
    for what, a in (("visual", visual), ("class-embedding", class_embeddings)):
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        bad = np.flatnonzero(~(norms[:, 0] > NORM_GUARD))  # NaN norms too
        if bad.size:
            raise DegenerateEmbeddingError(f"{what} row {bad[0]} has near-zero norm "
                                           f"{norms[bad[0], 0]:.3e}")
        unit.append(a / norms)
    return np.argmax(unit[0] @ unit[1].T, axis=1)


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

    def table(self, model: str = "hecvl") -> str:
        """Aligned four-column summary: model, data, accuracy, macro F1."""
        return format_table(
            ("Model", "Pretraining dataset", "Top-1 Acc.", "F1 Score"),
            [(model, "synthetic", f"{100.0 * self.accuracy:.1f}",
              f"{100.0 * self.macro_f1:.1f}")],
        )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest cell."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "".join(fmt.format(*row) + "\n" for row in (headers, *rows))


def compute_metrics(predictions, ground_truth, labels=None) -> MetricsReport:
    """Top-1 accuracy and macro F1 (empty-class F1 counted as 0)."""
    try:  # operator.index refuses what int() would truncate, such as 1.7
        pred, gt = (list(map(operator.index, v)) for v in (predictions, ground_truth))
        labels = tuple(sorted(set(gt) | set(pred)) if labels is None
                       else map(operator.index, labels))
    except TypeError as e:
        raise ContractError(f"labels must be integers: {e}") from e
    if len(pred) != len(gt):
        raise ContractError(
            f"{len(pred)} predictions vs {len(gt)} ground-truth labels"
        )
    if not pred:
        raise ContractError("cannot compute metrics on an empty sample")
    if len(set(labels)) != len(labels):
        raise ContractError(f"class set {list(labels)} repeats a label")
    if not labels:
        raise ContractError(f"label {pred[0]} not in class set []")
    k, n, values = len(labels), len(pred), np.asarray(pred + gt)
    order = np.argsort(labels)
    # Each value's index in `labels`, by binary search; a value found nowhere is unknown.
    index = order[np.searchsorted(labels, values, sorter=order).clip(max=k - 1)]
    unknown = np.flatnonzero(np.asarray(labels)[index] != values)
    if unknown.size:
        raise ContractError(f"label {values[unknown[0]]} not in class set {list(labels)}")
    conf = np.bincount(index[n:] * k + index[:n], minlength=k * k).reshape(k, k)  # rows: truth
    tp, pred_count, gt_count = np.diag(conf), conf.sum(axis=0), conf.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_count > 0, tp / pred_count, 0.0)
        recall = np.where(gt_count > 0, tp / gt_count, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    per_class = tuple({"label": c, "precision": p, "recall": r, "f1": f, "support": s}
                      for c, p, r, f, s in zip(labels, precision.tolist(), recall.tolist(),
                                               f1.tolist(), gt_count.tolist()))
    return MetricsReport(
        accuracy=float(tp.sum() / len(gt)),
        macro_f1=float(f1.mean()),
        per_class=per_class,
        confusion=tuple(map(tuple, conf.tolist())),
        samples=len(gt),
        labels=labels,
    )


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
    """Zero-shot phase recognition over every labeled clip of a corpus split."""
    check_prompts(prompts, split, checkpoint.params.dims.vocab_size)
    params = checkpoint.params
    before = params.digest()
    class_rows = embed_prompts(prompts, params)
    # The clips of each phase segment, in corpus order: its start plus 0, 1, ...
    starts, lengths = split.levels["phase"].clips
    clips = (starts - lengths.cumsum() + lengths).repeat(lengths) + np.arange(lengths.sum())
    visual = _rows(visual_embedding_rows, params,
                   split.frames_of("clip", clips, checkpoint.config.k_clip))
    predictions = np.asarray(prompts.labels)[classify(visual, class_rows)]
    report = compute_metrics(predictions, split.segments[:, 2].repeat(lengths),
                             labels=prompts.labels)
    if params.digest() != before:
        raise ContractError("evaluation mutated model parameters")
    return replace(report, config_digest=checkpoint.config.digest(), checkpoint_id=before[:16])


def clip_retrieval_recall(checkpoint: Checkpoint, split: Corpus, top_k: int = 1) -> float:
    """Fraction of clips whose own narration ranks in the top-k by cosine."""
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    params = checkpoint.params
    clips = np.arange(len(split.clip_ids))
    visual = _rows(visual_embedding_rows, params,
                   split.frames_of("clip", clips, checkpoint.config.k_clip))
    sims = visual @ _rows(text_embedding_rows, params, split.texts("narration_a")).T
    top = np.argsort(-sims, axis=1, kind="stable")[:, :top_k]
    return float((top == np.arange(len(sims))[:, None]).any(axis=1).mean())
