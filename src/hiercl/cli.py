"""Command-line entry point: generate, train, eval, gradcheck, ablate.

Every command resolves its settings from an optional JSON config file plus
flags (flags win), writes a run manifest before doing real work, and exits
with the failing error's `exit_code` (3 for OS errors, 2 when memory runs out):

    0 success, 2 config, 3 I/O, 4 data, 5 artifact compatibility,
    6 numeric-check failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from hashlib import sha256

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
from .errors import ConfigError, HierclError
from .numerics import finite_diff_check, single_thread_blas
from .objectives import loss_clip, loss_phase, loss_single, loss_video
from .seeding import substream
from .trainer import (
    MODES,
    TrainConfig,
    check_capacity,
    check_compatible,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .zeroshot import (
    check_prompts,
    default_prompts,
    evaluate,
    format_table,
    load_prompts,
    save_prompts,
)

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


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object, got {section!r}")
    return section


def _settings(cls, section: dict, doc: dict, args, where: str):
    """`cls` from a config section; the top-level "seed", then any flag, overrides a key."""
    merged = dict(section)
    for source in ({"seed": doc.get("seed")},
                   {key: getattr(args, key, None) for key in ("seed", "mode", "cycles")}):
        merged.update({k: v for k, v in source.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from e


def _resolve_train(doc: dict, args) -> TrainConfig:
    """The train settings; `paper_scale` sets batch sizes that explicit keys override."""
    section = dict(_section(doc, "train"))
    paper = section.pop("paper_scale", False)
    if type(paper) is not bool:
        raise ConfigError(f"paper_scale must be a JSON boolean, got {paper!r}")
    if paper or getattr(args, "paper_scale", False):
        section = {**asdict(TrainConfig.paper_scale()), **section}
    return _settings(TrainConfig, section, doc, args, "train config")


def _holdout_fraction(doc: dict, args) -> float:
    """The flag, else the config value, in the range Corpus.split takes, for every split."""
    value = getattr(args, "holdout", None)
    if value is None:
        value = doc.get("holdout_fraction", DEFAULT_HOLDOUT)
        if type(value) not in (int, float):
            raise ConfigError(f"holdout_fraction must be a JSON number, got {value!r}")
    if not 0.0 < value < 1.0:
        raise ConfigError(f"holdout_fraction must lie in (0, 1), got {float(value)}")
    return float(value)


# ---------------------------------------------------------------------------
# Run manifests.
# ---------------------------------------------------------------------------


def _atomic_write(path, text: str) -> None:
    with atomic_file(path) as f:
        f.write(text)


def _digest_entry(path, hasher) -> dict:
    digest = corpus_digest(path) if hasher is None else hasher.hexdigest()
    return {"path": str(path), "sha256": digest}


@contextmanager
def _manifest(path, command: str, config: dict, seed: int, inputs: dict, outputs: dict):
    """Record a command's run around its work.

    `inputs` and `outputs` map names to entries. An entry is a file path,
    which is read and hashed here, or a `(path, hasher)` pair whose `hashlib`
    object the pass that read or wrote the file has fed with its bytes, so
    that file is not read again. Inputs are digested before the work, so a
    `(path, hasher)` input must already be loaded. The manifest is written
    first with the planned output paths and, once the body returns, again
    with each output's digest.
    """
    inputs, outputs = ({name: e if isinstance(e, tuple) else (e, None) for name, e in d.items()}
                       for d in (inputs, outputs))
    doc = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {name: _digest_entry(*e) for name, e in inputs.items()},
        "outputs": {name: {"path": str(p)} for name, (p, _) in outputs.items()},
    }
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    yield
    doc["outputs"] = {name: _digest_entry(*e) for name, e in outputs.items()}
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    doc = _load_config_file(args.config)
    cfg = _settings(GeneratorConfig, _section(doc, "generator"), doc, args, "generator config")
    prompts = default_prompts(cfg)
    out = args.out
    manifest_path = f"{out}.manifest.json"
    prompts_path = f"{os.path.splitext(out)[0]}.prompts.json"
    corpus_hash = sha256()
    with _manifest(manifest_path, "generate", asdict(cfg), cfg.seed, inputs={},
                   outputs={"corpus": (out, corpus_hash), "prompts": prompts_path}):
        corpus = generate_synthetic(cfg)
        save_corpus(corpus, out, corpus_hash)
        save_prompts(prompts, prompts_path)
    for level, count in corpus.pair_counts().items():
        print(f"{level} pairs: {count}")
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    doc = _load_config_file(args.config)
    cfg = _resolve_train(doc, args)
    holdout = _holdout_fraction(doc, args)
    corpus_hash = sha256()
    corpus = load_corpus(args.corpus, corpus_hash)
    train_split, _ = corpus.split(holdout)
    check_capacity(cfg, train_split)
    out_dir = args.out
    log_path = os.path.join(out_dir, "train_log.jsonl")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    manifest_path = os.path.join(out_dir, "manifest.json")
    config_doc = {"train": asdict(cfg), "holdout_fraction": holdout}
    ckpt_hash, log_hash = sha256(), sha256()
    with _manifest(manifest_path, "train", config_doc, cfg.seed,
                   inputs={"corpus": (args.corpus, corpus_hash)},
                   outputs={"checkpoint": (ckpt_path, ckpt_hash), "log": (log_path, log_hash)}):
        t0 = time.time()
        with atomic_file(log_path, "wb") as log_file:
            def write_entry(entry: dict) -> None:
                line = (json.dumps(entry) + "\n").encode()
                log_file.write(line)
                log_hash.update(line)

            result = train(cfg, train_split, on_batch=write_entry)
        save_checkpoint(result.checkpoint, ckpt_path, ckpt_hash)
    by_level: dict[str, list[float]] = {}
    for e in result.log:
        by_level.setdefault(e["level"], []).append(e["loss"])
    summary = "  ".join(f"{lvl} mean loss {np.mean(v):.4f}" for lvl, v in by_level.items())
    print(f"trained {len(result.log)} batches in {time.time() - t0:.1f}s  ({summary})")
    print(f"wrote {ckpt_path}")
    return 0


def _eval_split(corpus: Corpus, which: str, holdout: float) -> Corpus:
    if which == "all":
        return corpus
    train_split, hold_split = corpus.split(holdout)
    return hold_split if which == "holdout" else train_split


def cmd_eval(args) -> int:
    doc = _load_config_file(args.config)
    holdout = _holdout_fraction(doc, args)
    ckpt_hash, corpus_hash, prompts_hash = sha256(), sha256(), sha256()
    ckpt = load_checkpoint(args.checkpoint, ckpt_hash)
    corpus = load_corpus(args.corpus, corpus_hash)
    check_compatible(ckpt.params, corpus)
    prompts = (load_prompts(args.prompts, prompts_hash) if args.prompts
               else default_prompts(corpus.config))
    split = _eval_split(corpus, args.split, holdout)
    check_prompts(prompts, split, ckpt.params.dims.vocab_size)
    out_dir = args.out
    report_json = os.path.join(out_dir, "report.json")
    report_txt = os.path.join(out_dir, "report.txt")
    manifest_path = os.path.join(out_dir, "manifest.json")
    inputs = {"checkpoint": (args.checkpoint, ckpt_hash), "corpus": (args.corpus, corpus_hash)}
    if args.prompts:
        inputs["prompts"] = (args.prompts, prompts_hash)
    config_doc = {"split": args.split, "holdout_fraction": holdout}
    with _manifest(manifest_path, "eval", config_doc, ckpt.config.seed, inputs=inputs,
                   outputs={"report_json": report_json, "report_txt": report_txt}):
        report = evaluate(ckpt, split, prompts)
        table = report.table(model=ckpt.config.mode)
        _atomic_write(report_json, report.to_json())
        _atomic_write(report_txt, table)
    print(table, end="")
    return 0


GRADCHECK_TOL = 1e-4


def _gradcheck_losses(seed: int):
    """(name, case, loss_and_grad fn) per loss on small random batches, and the params."""
    gen = GeneratorConfig(num_videos=6, num_classes=3, clips_per_phase=2,
                          frames_per_clip=4, d_in=8, vocab_size=48,
                          seed=seed)
    rng = substream(seed, "gradcheck")
    corpus = generate_synthetic(gen)
    dims = EncoderDims(d_in=8, d_tok=8, hidden=12, d_emb=8, vocab_size=48)
    params = ModelParams.initialize(dims, rng)
    sizes = [2, 3, 4, 2, 3]
    checks = []
    for name, fn, levels in (("loss_clip", loss_clip, ("clip",)),
                             ("loss_phase", loss_phase, ("phase",)),
                             ("loss_video", loss_video, ("video",)),
                             ("loss_single", loss_single, ("clip", "phase", "video"))):
        for case, b in enumerate(sizes):
            # Every case draws all three levels, so the stream does not
            # depend on which levels a loss reads.
            drawn = {"clip": sample_clip_batch(corpus, b, rng, k=2),
                     "phase": sample_phase_batch(corpus, b, rng, k=4),
                     "video": sample_video_batch(corpus, b, rng, k=8)}
            batches = tuple(drawn[level] for level in levels)

            def fn_of_vector(vector, _fn=fn, _batches=batches):
                lv = _fn(*_batches, ModelParams(dims, vector), 0.07)
                return lv.loss, lv.grads

            checks.append((name, case, fn_of_vector))
    return checks, params


def cmd_gradcheck(args) -> int:
    checks, params = _gradcheck_losses(args.seed)
    worst: dict[str, float] = {}
    for name, case, fn in checks:
        err = finite_diff_check(fn, params.vector, params.dims.layout,
                                max_coords_per_block=8, seed=args.seed + case)
        worst[name] = max(worst.get(name, 0.0), err)
    failed = [name for name, err in worst.items() if not err < GRADCHECK_TOL]
    text = "".join(f"{name}: max rel err {err:.3e} {'FAIL' if name in failed else 'PASS'}\n"
                   for name, err in worst.items())
    print(text, end="")
    if args.out:
        report_path = os.path.join(args.out, "gradcheck.txt")
        with _manifest(os.path.join(args.out, "manifest.json"), "gradcheck",
                       {"tolerance": GRADCHECK_TOL}, args.seed,
                       inputs={}, outputs={"report": report_path}):
            _atomic_write(report_path, text)
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
    corpus_hash = sha256()
    corpus = load_corpus(args.corpus, corpus_hash)
    train_split, hold_split = corpus.split(holdout)
    for _, mode in ABLATION_VARIANTS:
        check_capacity(replace(base_cfg, mode=mode), train_split)
    prompts = default_prompts(corpus.config)
    check_prompts(prompts, hold_split, corpus.config.vocab_size)
    out_dir = args.out
    manifest_path = os.path.join(out_dir, "manifest.json")
    json_path = os.path.join(out_dir, "ablation.json")
    txt_path = os.path.join(out_dir, "ablation.txt")
    config_doc = {"train": asdict(base_cfg), "holdout_fraction": holdout}
    with _manifest(manifest_path, "ablate", config_doc, base_cfg.seed,
                   inputs={"corpus": (args.corpus, corpus_hash)},
                   outputs={"table": txt_path, "report": json_path}):
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
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
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


def main(argv=None) -> int:
    single_thread_blas()
    args = build_parser().parse_args(argv)
    try:
        # The typed finiteness checks report a numeric failure; numpy's raw
        # warnings would repeat it with a source path before the error line.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except HierclError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # settings too large for this host, such as a huge vocabulary
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
