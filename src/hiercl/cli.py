"""Command-line entry point: generate, train, eval, gradcheck, ablate.

Every command resolves its settings from an optional JSON config file plus
flags (flags win), writes a run manifest before doing real work, and maps
failures to stable exit codes:

    0 success, 2 config, 3 I/O, 4 data, 5 artifact compatibility,
    6 numeric-check failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    GeneratorConfig,
    atomic_file,
    corpus_digest,
    generate_synthetic,
    load_corpus,
    sample_clip_batch,
    sample_phase_batch,
    sample_video_batch,
    save_corpus,
)
from .encoders import EncoderDims, ModelParams
from .errors import (
    CheckpointIntegrityError,
    ConfigError,
    ContractError,
    CorpusFormatError,
    CoverageError,
    DegenerateEmbeddingError,
    EmptyInputError,
    HierclError,
    InsufficientDataError,
    NumericError,
    SchemaVersionError,
    ShapeError,
    VocabularyError,
)
from .numerics import finite_diff_check
from .objectives import loss_clip, loss_phase, loss_single, loss_video
from .seeding import substream
from .trainer import (
    MODES,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .zeroshot import default_prompts, evaluate, format_table, load_prompts, save_prompts

DEFAULT_HOLDOUT = 0.25


# ---------------------------------------------------------------------------
# Config resolution: JSON file -> dataclass, CLI flags override file keys.
# ---------------------------------------------------------------------------


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: config is not valid UTF-8 JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _build_dataclass(cls, section: dict, overrides: dict, where: str):
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from e


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object, got {section!r}")
    return section


def _resolve_generator(doc: dict, args) -> GeneratorConfig:
    overrides = {"seed": getattr(args, "seed", None)}
    if doc.get("seed") is not None and overrides["seed"] is None:
        overrides["seed"] = doc["seed"]
    return _build_dataclass(GeneratorConfig, _section(doc, "generator"),
                            overrides, "generator config")


def _resolve_train(doc: dict, args) -> TrainConfig:
    section = dict(_section(doc, "train"))
    paper = section.pop("paper_scale", False)
    if type(paper) is not bool:
        raise ConfigError(f"paper_scale must be a JSON boolean, got {paper!r}")
    paper = paper or getattr(args, "paper_scale", False)
    overrides = {
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "cycles": getattr(args, "cycles", None),
    }
    if doc.get("seed") is not None and overrides["seed"] is None:
        overrides["seed"] = doc["seed"]
    if paper:
        base = TrainConfig.paper_scale()
        section = {**{k: v for k, v in asdict(base).items()}, **section}
    return _build_dataclass(TrainConfig, section, overrides, "train config")


def _holdout_fraction(doc: dict, args) -> float:
    """The flag, else the config value; Corpus.split checks the range."""
    if getattr(args, "holdout", None) is not None:
        return args.holdout
    value = doc.get("holdout_fraction", DEFAULT_HOLDOUT)
    if type(value) not in (int, float):
        raise ConfigError(f"holdout_fraction must be a JSON number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Run manifests.
# ---------------------------------------------------------------------------


def _atomic_write(path, text: str) -> None:
    with atomic_file(path) as f:
        f.write(text)


def _write_manifest(path, command: str, config: dict, seed: int,
                    inputs: dict, outputs: dict) -> None:
    doc = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _digest_entry(path) -> dict:
    return {"path": str(path), "sha256": corpus_digest(path)}


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    doc = _load_config_file(args.config)
    cfg = _resolve_generator(doc, args)
    out = args.out
    manifest_path = f"{out}.manifest.json"
    prompts_path = f"{os.path.splitext(out)[0]}.prompts.json"
    _write_manifest(manifest_path, "generate", asdict(cfg), cfg.seed,
                    inputs={}, outputs={"corpus": {"path": str(out)},
                                        "prompts": {"path": prompts_path}})
    corpus = generate_synthetic(cfg)
    save_corpus(corpus, out)
    save_prompts(default_prompts(cfg), prompts_path)
    _write_manifest(manifest_path, "generate", asdict(cfg), cfg.seed,
                    inputs={},
                    outputs={"corpus": _digest_entry(out),
                             "prompts": _digest_entry(prompts_path)})
    for level, count in corpus.pair_counts().items():
        print(f"{level} pairs: {count}")
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    doc = _load_config_file(args.config)
    cfg = _resolve_train(doc, args)
    holdout = _holdout_fraction(doc, args)
    corpus = load_corpus(args.corpus)
    train_split, _ = corpus.split(holdout)
    out_dir = args.out
    log_path = os.path.join(out_dir, "train_log.jsonl")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    manifest_path = os.path.join(out_dir, "manifest.json")
    config_doc = {"train": asdict(cfg), "holdout_fraction": holdout}
    _write_manifest(manifest_path, "train", config_doc, cfg.seed,
                    inputs={"corpus": _digest_entry(args.corpus)},
                    outputs={"checkpoint": {"path": ckpt_path},
                             "log": {"path": log_path}})
    t0 = time.time()
    result = train(cfg, train_split, log_path=log_path)
    save_checkpoint(result.checkpoint, ckpt_path)
    _write_manifest(manifest_path, "train", config_doc, cfg.seed,
                    inputs={"corpus": _digest_entry(args.corpus)},
                    outputs={"checkpoint": _digest_entry(ckpt_path),
                             "log": _digest_entry(log_path)})
    by_level: dict[str, list[float]] = {}
    for e in result.log:
        by_level.setdefault(e["level"], []).append(e["loss"])
    summary = "  ".join(f"{lvl} mean loss {np.mean(v):.4f}" for lvl, v in by_level.items())
    print(f"trained {len(result.log)} batches in {time.time() - t0:.1f}s  ({summary})")
    print(f"wrote {ckpt_path}")
    return 0


def _compatible(ckpt, corpus: Corpus) -> None:
    if ckpt.params.d_in != corpus.config.d_in:
        raise ShapeError(
            f"checkpoint expects {ckpt.params.d_in}-dim frames, "
            f"corpus has {corpus.config.d_in}"
        )
    if ckpt.params.vocab_size != corpus.config.vocab_size:
        raise ShapeError(
            f"checkpoint vocabulary {ckpt.params.vocab_size} != "
            f"corpus vocabulary {corpus.config.vocab_size}"
        )


def _eval_split(corpus: Corpus, which: str, holdout: float) -> Corpus:
    if which == "all":
        return corpus
    train_split, hold_split = corpus.split(holdout)
    return hold_split if which == "holdout" else train_split


def cmd_eval(args) -> int:
    doc = _load_config_file(args.config)
    holdout = _holdout_fraction(doc, args)
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    _compatible(ckpt, corpus)
    prompts = load_prompts(args.prompts) if args.prompts else default_prompts(corpus.config)
    split = _eval_split(corpus, args.split, holdout)
    out_dir = args.out
    report_json = os.path.join(out_dir, "report.json")
    report_txt = os.path.join(out_dir, "report.txt")
    manifest_path = os.path.join(out_dir, "manifest.json")
    inputs = {"checkpoint": _digest_entry(args.checkpoint),
              "corpus": _digest_entry(args.corpus)}
    if args.prompts:
        inputs["prompts"] = _digest_entry(args.prompts)
    config_doc = {"split": args.split, "holdout_fraction": holdout}
    _write_manifest(manifest_path, "eval", config_doc, ckpt.config.seed,
                    inputs=inputs,
                    outputs={"report_json": {"path": report_json},
                             "report_txt": {"path": report_txt}})
    report = evaluate(ckpt, split, prompts)
    table = report.table(model=ckpt.config.mode, dataset="synthetic")
    _atomic_write(report_json, report.to_json())
    _atomic_write(report_txt, table)
    _write_manifest(manifest_path, "eval", config_doc, ckpt.config.seed,
                    inputs=inputs,
                    outputs={"report_json": _digest_entry(report_json),
                             "report_txt": _digest_entry(report_txt)})
    print(table, end="")
    return 0


GRADCHECK_TOL = 1e-4


def _gradcheck_losses(seed: int, corrupt: str | None):
    """(name, case, loss_and_grad fn) per loss on small random batches, and the params."""
    gen = GeneratorConfig(num_videos=6, num_classes=3, clips_per_phase=2,
                          frames_per_clip=4, d_in=8, vocab_size=48,
                          seed=seed)
    rng = substream(seed, "gradcheck")
    corpus = generate_synthetic(gen)
    dims = EncoderDims(d_in=8, d_tok=8, hidden=12, d_emb=8, vocab_size=48)
    params = ModelParams.initialize(dims, rng)
    w1 = next(b for b in dims.layout if b.name == "visual.w1")
    sizes = [2, 3, 4, 2, 3]
    checks = []
    for name, fn in (("loss_clip", loss_clip), ("loss_phase", loss_phase),
                     ("loss_video", loss_video), ("loss_single", loss_single)):
        for case, b in enumerate(sizes):
            clip = sample_clip_batch(corpus, b, rng, k=2)
            phase = sample_phase_batch(corpus, b, rng, k=4)
            video = sample_video_batch(corpus, b, rng, k=8)
            if name == "loss_clip":
                batches = (clip,)
            elif name == "loss_phase":
                batches = (phase,)
            elif name == "loss_video":
                batches = (video,)
            else:
                batches = (clip, phase, video)

            def fn_of_vector(vector, _fn=fn, _batches=batches, _name=name):
                lv = _fn(*_batches, ModelParams(dims, vector), 0.07)
                if corrupt == _name:
                    lv.grads[w1.offset:w1.stop] *= 1.5
                return lv.loss, lv.grads

            checks.append((name, case, fn_of_vector))
    return checks, params


def cmd_gradcheck(args) -> int:
    checks, params = _gradcheck_losses(args.seed, args.corrupt)
    worst: dict[str, float] = {}
    for name, case, fn in checks:
        err = finite_diff_check(fn, params.vector, params.dims.layout,
                                max_coords_per_block=8, seed=args.seed + case)
        worst[name] = max(worst.get(name, 0.0), err)
    failed = []
    lines = []
    for name, err in worst.items():
        status = "PASS" if err < GRADCHECK_TOL else "FAIL"
        if status == "FAIL":
            failed.append(name)
        lines.append(f"{name}: max rel err {err:.3e} {status}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        report_path = os.path.join(args.out, "gradcheck.txt")
        _atomic_write(report_path, text)
        _write_manifest(os.path.join(args.out, "manifest.json"), "gradcheck",
                        {"tolerance": GRADCHECK_TOL}, args.seed,
                        inputs={}, outputs={"report": _digest_entry(report_path)})
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 6
    return 0


ABLATION_VARIANTS = (
    ("clip-only", "clip"),
    ("clip+phase", "clip_phase"),
    ("single-space", "single"),
    ("full", "hecvl"),
)


def cmd_ablate(args) -> int:
    doc = _load_config_file(args.config)
    base_cfg = _resolve_train(doc, args)
    holdout = _holdout_fraction(doc, args)
    corpus = load_corpus(args.corpus)
    train_split, hold_split = corpus.split(holdout)
    prompts = default_prompts(corpus.config)
    out_dir = args.out
    manifest_path = os.path.join(out_dir, "manifest.json")
    json_path = os.path.join(out_dir, "ablation.json")
    txt_path = os.path.join(out_dir, "ablation.txt")
    config_doc = {"train": asdict(base_cfg), "holdout_fraction": holdout}
    _write_manifest(manifest_path, "ablate", config_doc, base_cfg.seed,
                    inputs={"corpus": _digest_entry(args.corpus)},
                    outputs={"table": {"path": txt_path},
                             "report": {"path": json_path}})
    rows = []
    for label, mode in ABLATION_VARIANTS:
        cfg = replace(base_cfg, mode=mode)
        result = train(cfg, train_split)
        report = evaluate(result.checkpoint, hold_split, prompts)
        rows.append({"variant": label, "mode": mode,
                     "accuracy": report.accuracy, "macro_f1": report.macro_f1})
        print(f"{label}: acc {report.accuracy:.3f}  macro F1 {report.macro_f1:.3f}")
    table = format_table(
        ("Variant", "Top-1 Acc.", "F1 Score"),
        [(r["variant"], f"{100.0 * r['accuracy']:.1f}", f"{100.0 * r['macro_f1']:.1f}")
         for r in rows],
    )
    _atomic_write(json_path, json.dumps({"variants": rows}, sort_keys=True, indent=2) + "\n")
    _atomic_write(txt_path, table)
    _write_manifest(manifest_path, "ablate", config_doc, base_cfg.seed,
                    inputs={"corpus": _digest_entry(args.corpus)},
                    outputs={"table": _digest_entry(txt_path),
                             "report": _digest_entry(json_path)})
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser and exit-code mapping.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiercl",
        description="Hierarchical video-text contrastive learning at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"hiercl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic corpus + prompts")
    g.add_argument("--config", help="JSON config file")
    g.add_argument("--seed", type=int, help="root seed (overrides config)")
    g.add_argument("--out", required=True, help="corpus output path (.jsonl)")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train on a corpus, write checkpoint + log")
    t.add_argument("--config", help="JSON config file")
    t.add_argument("--corpus", required=True, help="corpus file from `generate`")
    t.add_argument("--out", required=True, help="existing output directory")
    t.add_argument("--seed", type=int, help="root seed (overrides config)")
    t.add_argument("--mode", choices=MODES, help="training mode (default hecvl)")
    t.add_argument("--cycles", type=int, help="schedule cycles (overrides config)")
    t.add_argument("--holdout", type=float, help="held-out video fraction (default 0.25)")
    t.add_argument("--paper-scale", action="store_true",
                   help="use the published batch sizes 120/60/10")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="zero-shot evaluation of a checkpoint")
    e.add_argument("--config", help="JSON config file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--prompts", help="prompts file (default: derived from corpus config)")
    e.add_argument("--out", required=True, help="existing output directory")
    e.add_argument("--split", choices=("holdout", "train", "all"), default="holdout")
    e.add_argument("--holdout", type=float, help="held-out video fraction (default 0.25)")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference check of all four losses")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="optional directory for the report file")
    c.add_argument("--corrupt", help=argparse.SUPPRESS)  # test hook
    c.set_defaults(func=cmd_gradcheck)

    a = sub.add_parser("ablate", help="train + evaluate the four level variants")
    a.add_argument("--config", help="JSON config file")
    a.add_argument("--corpus", required=True)
    a.add_argument("--out", required=True, help="existing output directory")
    a.add_argument("--seed", type=int, help="root seed (overrides config)")
    a.add_argument("--cycles", type=int, help="schedule cycles (overrides config)")
    a.add_argument("--holdout", type=float, help="held-out video fraction (default 0.25)")
    a.set_defaults(func=cmd_ablate)
    return parser


_EXIT_CODES = (
    (ConfigError, 2),
    (OSError, 3),
    ((InsufficientDataError, EmptyInputError, CorpusFormatError), 4),
    ((SchemaVersionError, CheckpointIntegrityError, ShapeError, CoverageError,
      VocabularyError, ContractError), 5),
    ((NumericError, DegenerateEmbeddingError), 6),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HierclError as e:
        for types, code in _EXIT_CODES:
            if isinstance(e, types):
                print(f"error: {e}", file=sys.stderr)
                return code
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
