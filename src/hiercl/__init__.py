"""Hierarchical video-text contrastive learning at desk scale."""

__version__ = "0.1.0"

from .errors import HierclError
from .numerics import Tape, finite_diff_check
from .encoders import EncoderDims, ModelParams
from .corpus import Corpus, GeneratorConfig, generate_synthetic, load_corpus, save_corpus
from .objectives import loss_clip, loss_phase, loss_single, loss_video
from .trainer import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    schedule_level,
    train,
    untrained_checkpoint,
)
from .zeroshot import (
    MetricsReport,
    PromptSet,
    classify,
    compute_metrics,
    default_prompts,
    evaluate,
)

__all__ = [
    "HierclError",
    "Tape",
    "finite_diff_check",
    "EncoderDims",
    "ModelParams",
    "GeneratorConfig",
    "Corpus",
    "generate_synthetic",
    "load_corpus",
    "save_corpus",
    "loss_clip",
    "loss_phase",
    "loss_video",
    "loss_single",
    "TrainConfig",
    "Checkpoint",
    "schedule_level",
    "train",
    "untrained_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "PromptSet",
    "MetricsReport",
    "default_prompts",
    "classify",
    "compute_metrics",
    "evaluate",
]
