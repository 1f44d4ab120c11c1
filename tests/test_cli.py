"""End-to-end command-line runs: wiring, artifacts, and exit codes."""
import ctypes
import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from blas_threads import openblas_threads
from records import load_records

import hiercl.cli
import hiercl.encoders
import hiercl.numerics
from hiercl import errors
from hiercl.corpus import load_corpus
from hiercl.cli import main
from hiercl.errors import CorpusFormatError, HierclError
from hiercl.trainer import TrainConfig, load_checkpoint, save_checkpoint, train
from hiercl.zeroshot import load_prompts

GEN_SECTION = {"num_videos": 8, "num_classes": 3, "clips_per_phase": 2,
               "frames_per_clip": 4, "d_in": 8, "vocab_size": 30, "seed": 5}
TRAIN_SECTION = {"cycles": 1, "m": 1, "n": 1, "l": 1,
                 "b_clip": 3, "b_phase": 2, "b_video": 2,
                 "k_clip": 2, "k_phase": 3, "k_video": 4,
                 "d_tok": 6, "hidden": 10, "d_emb": 5, "seed": 3}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp_path, name="config.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared generate + train artifacts for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    config = _write_config(root, generator=GEN_SECTION, train=TRAIN_SECTION)
    corpus = root / "corpus.jsonl"
    assert main(["generate", "--config", config, "--out", str(corpus)]) == 0
    run_dir = root / "run"
    run_dir.mkdir()
    assert main(["train", "--config", config, "--corpus", str(corpus),
                 "--out", str(run_dir)]) == 0
    return {"root": root, "config": config, "corpus": corpus, "run": run_dir}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_corpus_prompts_manifest(workspace, capsys):
    root = workspace["root"]
    assert (root / "corpus.jsonl").exists()
    assert (root / "corpus.prompts.json").exists()
    manifest = json.loads((root / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 5
    assert manifest["outputs"]["corpus"]["sha256"] == _sha(root / "corpus.jsonl")
    assert manifest["outputs"]["prompts"]["sha256"] == _sha(root / "corpus.prompts.json")


def test_generate_reports_pair_counts(tmp_path, capsys):
    config = _write_config(tmp_path, generator=GEN_SECTION)
    assert main(["generate", "--config", config, "--out", str(tmp_path / "c.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "clip pairs: 48" in out
    assert "phase pairs: 24" in out
    assert "video pairs: 8" in out


def test_generate_same_seed_same_bytes(tmp_path, capsys):
    config = _write_config(tmp_path, generator=GEN_SECTION)
    main(["generate", "--config", config, "--out", str(tmp_path / "a.jsonl")])
    main(["generate", "--config", config, "--out", str(tmp_path / "b.jsonl")])
    assert _sha(tmp_path / "a.jsonl") == _sha(tmp_path / "b.jsonl")


def test_generate_seed_flag_wins(tmp_path, capsys):
    config = _write_config(tmp_path, generator=GEN_SECTION)
    main(["generate", "--config", config, "--out", str(tmp_path / "a.jsonl")])
    main(["generate", "--config", config, "--seed", "7", "--out", str(tmp_path / "b.jsonl")])
    assert _sha(tmp_path / "a.jsonl") != _sha(tmp_path / "b.jsonl")
    manifest = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 7


# The files `generate` writes, byte for byte. The second config has a vocabulary of
# 45,000,000 ids, so some of its videos meet a rejection in the raw-word decode and are
# drawn call by call (videos 0, 2 and 4), and the others are decoded.
GENERATED_SHA256 = {
    "default": ({}, "3e5899e887106ff0b873d441377c84358ffa24fac451780813f66f7e17ebece1",
                "cee334709e6c9a2f55f52bf456bf3861e2afb4e8209ce5add4af6f82ea1092cd"),
    "mixed": ({"generator": {**GEN_SECTION, "vocab_size": 45_000_000}},
              "af9a28f823d96df24548bdbb50f9881fc8d3852185d9accb42cd78ef0c1e6cec",
              "0b59028d494a312bc2f734be02182bb75568d94cd29daaef7f6aafcf9a003fee"),
}


@pytest.mark.parametrize("name", GENERATED_SHA256)
def test_generated_files_are_pinned(tmp_path, capsys, name):
    sections, corpus_sha, prompts_sha = GENERATED_SHA256[name]
    config = ["--config", _write_config(tmp_path, **sections)] if sections else []
    assert main(["generate", *config, "--out", str(tmp_path / "corpus.jsonl")]) == 0
    assert _sha(tmp_path / "corpus.jsonl") == corpus_sha
    assert _sha(tmp_path / "corpus.prompts.json") == prompts_sha


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_log_manifest(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.bin").read_bytes()[:4] == b"HECV"
    log = [json.loads(s) for s in (run / "train_log.jsonl").read_text().splitlines()]
    assert [e["level"] for e in log] == ["clip", "phase", "video"]
    # one line per entry of the library's log, the format its pinned digests cover
    train_split, _ = load_corpus(workspace["corpus"]).split(0.25)
    expected = train(TrainConfig(**TRAIN_SECTION), train_split).log
    assert (run / "train_log.jsonl").read_text() == "".join(json.dumps(e) + "\n" for e in expected)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["train"]["cycles"] == 1
    assert manifest["inputs"]["corpus"]["sha256"] == _sha(workspace["corpus"])
    assert manifest["outputs"]["checkpoint"]["sha256"] == _sha(run / "checkpoint.bin")


def test_train_is_reproducible(workspace, tmp_path, capsys):
    other = tmp_path / "again"
    other.mkdir()
    assert main(["train", "--config", workspace["config"],
                 "--corpus", str(workspace["corpus"]), "--out", str(other)]) == 0
    assert _sha(other / "checkpoint.bin") == _sha(workspace["run"] / "checkpoint.bin")
    assert _sha(other / "train_log.jsonl") == _sha(workspace["run"] / "train_log.jsonl")
    assert "trained 3 batches" in capsys.readouterr().out


def test_cycles_flag_overrides_config(workspace, tmp_path, capsys):
    out = tmp_path / "long"
    out.mkdir()
    assert main(["train", "--config", workspace["config"],
                 "--corpus", str(workspace["corpus"]),
                 "--out", str(out), "--cycles", "2"]) == 0
    assert "trained 6 batches" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["cycles"] == 2


def test_mode_flag_selects_variant(workspace, tmp_path, capsys):
    out = tmp_path / "cliponly"
    out.mkdir()
    assert main(["train", "--config", workspace["config"],
                 "--corpus", str(workspace["corpus"]),
                 "--out", str(out), "--mode", "clip"]) == 0
    log = [json.loads(s) for s in (out / "train_log.jsonl").read_text().splitlines()]
    assert [e["level"] for e in log] == ["clip", "clip", "clip"]


def test_paper_scale_needs_more_data_than_tiny_corpus(workspace, tmp_path, capsys):
    out = tmp_path / "paper"
    out.mkdir()
    # no config file: the preset's 120-clip batches exceed this corpus
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--out", str(out), "--paper-scale"])
    assert rc == 4
    assert capsys.readouterr().err == \
        "error: clip level: corpus has 36 pairs, batch size 120 requested\n"
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# settings resolution: section keys, then the top-level "seed", then flags
# ---------------------------------------------------------------------------


def _manifest_config(path) -> dict:
    return json.loads(Path(path).read_text())["config"]


@pytest.mark.parametrize("top, flags, seed", [(None, [], 5), (9, [], 9), (9, ["--seed", "7"], 7)])
def test_generate_seed_precedence(tmp_path, capsys, top, flags, seed):
    config = _write_config(tmp_path, generator=GEN_SECTION,
                           **({} if top is None else {"seed": top}))
    out = tmp_path / "c.jsonl"
    assert main(["generate", "--config", config, "--out", str(out), *flags]) == 0
    assert _manifest_config(f"{out}.manifest.json")["seed"] == seed


@pytest.mark.parametrize("top, flags, want", [
    (None, [], {"seed": 3, "mode": "single", "cycles": 1}),
    (9, [], {"seed": 9, "mode": "single", "cycles": 1}),
    (9, ["--seed", "7"], {"seed": 7, "mode": "single", "cycles": 1}),
    (None, ["--mode", "clip", "--cycles", "2"], {"seed": 3, "mode": "clip", "cycles": 2}),
])
def test_train_settings_precedence(workspace, tmp_path, capsys, top, flags, want):
    config = _write_config(tmp_path, train={**TRAIN_SECTION, "mode": "single"},
                           **({} if top is None else {"seed": top}))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["train", "--config", config, "--corpus", str(workspace["corpus"]),
                 "--out", str(out), *flags]) == 0
    train = _manifest_config(out / "manifest.json")["train"]
    assert {key: train[key] for key in want} == want


@pytest.fixture(scope="module")
def paper_corpus(tmp_path_factory):
    """21 videos: with one held out, exactly the published 120/60/10 pairs."""
    root = tmp_path_factory.mktemp("paper")
    config = _write_config(root, generator={**GEN_SECTION, "num_videos": 21,
                                            "frames_per_clip": 2})
    corpus = root / "corpus.jsonl"
    assert main(["generate", "--config", config, "--out", str(corpus)]) == 0
    return corpus


@pytest.mark.parametrize("switch, explicit, sizes", [
    ("section", {}, (120, 60, 10)),
    ("section", {"b_clip": 7, "b_video": 5}, (7, 60, 5)),
    ("flag", {"b_phase": 4}, (120, 4, 10)),
])
def test_paper_scale_batch_sizes_yield_to_explicit_keys(paper_corpus, tmp_path, capsys,
                                                        switch, explicit, sizes):
    # hidden 10 leaves some of these 120 clips with an all-zero ReLU layer at initialization
    section = {k: v for k, v in TRAIN_SECTION.items() if not k.startswith("b_")}
    section.update(explicit, hidden=32, **({"paper_scale": True} if switch == "section" else {}))
    config = _write_config(tmp_path, train=section)
    out = tmp_path / "run"
    out.mkdir()
    flags = ["--paper-scale"] if switch == "flag" else []
    assert main(["train", "--config", config, "--corpus", str(paper_corpus),
                 "--out", str(out), "--holdout", "0.05", *flags]) == 0
    train = _manifest_config(out / "manifest.json")["train"]
    assert (train["b_clip"], train["b_phase"], train["b_video"]) == sizes


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _run_eval(workspace, out_dir, *extra):
    out_dir.mkdir(exist_ok=True)
    return main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                 "--corpus", str(workspace["corpus"]), "--out", str(out_dir), *extra])


def test_eval_writes_reports(workspace, tmp_path, capsys):
    assert _run_eval(workspace, tmp_path / "ev") == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    # default split: trailing 25% of 8 videos = 2 videos = 12 clips
    assert report["samples"] == 12
    assert report["f1_averaging"] == "macro"
    txt = (tmp_path / "ev" / "report.txt").read_text()
    assert txt.splitlines()[0].startswith("Model")
    assert capsys.readouterr().out.startswith("Model")
    manifest = json.loads((tmp_path / "ev" / "manifest.json").read_text())
    assert manifest["outputs"]["report_json"]["sha256"] == _sha(tmp_path / "ev" / "report.json")


def test_eval_is_byte_identical(workspace, tmp_path, capsys):
    assert _run_eval(workspace, tmp_path / "e1") == 0
    assert _run_eval(workspace, tmp_path / "e2") == 0
    assert _sha(tmp_path / "e1" / "report.json") == _sha(tmp_path / "e2" / "report.json")


def test_eval_split_all_scores_every_clip(workspace, tmp_path, capsys):
    assert _run_eval(workspace, tmp_path / "all", "--split", "all") == 0
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    assert report["samples"] == 48


def test_eval_accepts_prompts_file(workspace, tmp_path, capsys):
    prompts = workspace["root"] / "corpus.prompts.json"
    assert _run_eval(workspace, tmp_path / "p", "--prompts", str(prompts)) == 0
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["inputs"]["prompts"]["sha256"] == _sha(prompts)


# ---------------------------------------------------------------------------
# gradcheck / ablate
# ---------------------------------------------------------------------------


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "gc"
    out.mkdir()
    assert main(["gradcheck", "--seed", "0", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    for name in ("loss_clip", "loss_phase", "loss_video", "loss_single"):
        assert f"{name}: max rel err" in stdout
    assert "FAIL" not in stdout
    assert (out / "gradcheck.txt").read_text() == stdout


def test_gradcheck_detects_corrupted_gradient(monkeypatch, capsys):
    loss_clip = hiercl.cli.loss_clip

    def corrupted(*args):
        lv = loss_clip(*args)
        lv.grads[:8] *= 1.5  # the first entries of visual.w1
        return lv

    monkeypatch.setattr(hiercl.cli, "loss_clip", corrupted)
    rc = main(["gradcheck", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 6
    assert "loss_clip" in captured.err
    assert "FAIL" in captured.out


def test_ablate_reports_four_variants(workspace, tmp_path, capsys):
    out = tmp_path / "ab"
    out.mkdir()
    assert main(["ablate", "--config", workspace["config"],
                 "--corpus", str(workspace["corpus"]), "--out", str(out)]) == 0
    doc = json.loads((out / "ablation.json").read_text())
    assert [r["variant"] for r in doc["variants"]] == \
        ["clip-only", "clip+phase", "single-space", "full"]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in doc["variants"])
    lines = (out / "ablation.txt").read_text().splitlines()
    assert lines[0].split() == ["Variant", "Top-1", "Acc.", "F1", "Score"]
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# Manifests: each input, the corpus output and train's outputs are hashed in the
# pass that reads or writes them, so no command opens them a second time
# ---------------------------------------------------------------------------


def _command_argv(workspace, tmp_path, command):
    """`command`'s argv on the shared workspace, and the manifest it writes."""
    ws, out = workspace, tmp_path / command
    if command == "generate":
        corpus = tmp_path / "corpus.jsonl"
        return (["generate", "--config", ws["config"], "--out", str(corpus)],
                Path(f"{corpus}.manifest.json"))
    out.mkdir()
    argv = {"train": ["train", "--config", ws["config"]],
            "eval": ["eval", "--checkpoint", str(ws["run"] / "checkpoint.bin"),
                     "--prompts", str(ws["root"] / "corpus.prompts.json")],
            "ablate": ["ablate", "--config", ws["config"]]}[command]
    return [*argv, "--corpus", str(ws["corpus"]), "--out", str(out)], out / "manifest.json"


# How often each command opens the corpus (the one it reads, or for generate the one it
# writes) and the checkpoint it reads, and how many outputs it reads back to hash them:
# generate's prompts, eval's and ablate's two reports.
OPENS = {"generate": (0, 0, 1), "train": (1, 0, 0), "eval": (1, 1, 2), "ablate": (1, 0, 2)}


@pytest.mark.parametrize("command", OPENS)
def test_commands_read_each_input_once_and_record_what_they_read(workspace, tmp_path,
                                                                 capsys, monkeypatch, command):
    argv, manifest_path = _command_argv(workspace, tmp_path, command)
    corpus = Path(argv[argv.index("--out" if command == "generate" else "--corpus") + 1])
    checkpoint = workspace["run"] / "checkpoint.bin"
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    read_back = []
    real_digest = hiercl.cli.corpus_digest

    def counting_digest(path):
        read_back.append(path)
        return real_digest(path)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(hiercl.cli, "corpus_digest", counting_digest)
    assert main(argv) == 0
    monkeypatch.undo()
    assert (opened.count(corpus), opened.count(checkpoint), len(read_back)) == OPENS[command]
    manifest = json.loads(manifest_path.read_text())
    entries = [*manifest["inputs"].values(), *manifest["outputs"].values()]
    assert entries and all(e["sha256"] == _sha(Path(e["path"])) for e in entries)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
@pytest.mark.parametrize("piped", ["checkpoint", "corpus", "prompts"])
def test_eval_reads_an_input_from_a_pipe_and_records_its_digest(workspace, tmp_path, capsys,
                                                                piped):
    files = {"checkpoint": workspace["run"] / "checkpoint.bin", "corpus": workspace["corpus"],
             "prompts": workspace["root"] / "corpus.prompts.json"}
    argv = [a for name, path in files.items()
            for a in (f"--{name}", "/dev/stdin" if name == piped else str(path))]
    out = tmp_path / "ev"
    out.mkdir()
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-m", "hiercl.cli", "eval", *argv, "--out", str(out)],
                          input=files[piped].read_bytes(), env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    manifest = json.loads((out / "manifest.json").read_text())
    assert {name: e["sha256"] for name, e in manifest["inputs"].items()} == {
        name: _sha(path) for name, path in files.items()}
    assert _run_eval(workspace, tmp_path / "files", "--prompts", str(files["prompts"])) == 0
    assert (out / "report.json").read_bytes() == (tmp_path / "files" / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


# Each error class's exit code, as README "Exit codes" documents it.
EXIT_CODE_ORACLE = {
    "HierclError": 1,
    "ConfigError": 2,
    "InsufficientDataError": 4, "EmptyInputError": 4, "CorpusFormatError": 4,
    "SchemaVersionError": 5, "CheckpointIntegrityError": 5, "ShapeError": 5,
    "CoverageError": 5, "VocabularyError": 5, "ContractError": 5,
    "NumericError": 6, "DegenerateEmbeddingError": 6,
}
ERROR_CLASSES = sorted(name for name, member in vars(errors).items()
                       if isinstance(member, type) and issubclass(member, HierclError))


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_exit_code_of_every_error_class(monkeypatch, capsys, name):
    def fail(seed):
        raise getattr(errors, name)(f"injected {name}")

    monkeypatch.setattr(hiercl.cli, "_gradcheck_losses", fail)
    assert name in EXIT_CODE_ORACLE, f"{name} has no documented exit code"
    assert main(["gradcheck"]) == EXIT_CODE_ORACLE[name]
    assert capsys.readouterr().err == f"error: injected {name}\n"


def test_exit_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "c.jsonl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_on_non_utf8_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "c.jsonl")])
    assert rc == 2
    assert "UTF-8" in capsys.readouterr().err


def test_exit_2_on_one_class_generator_writes_nothing(tmp_path, capsys):
    config = _write_config(tmp_path, generator={**GEN_SECTION, "num_classes": 1})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["generate", "--config", config, "--out", str(out / "c.jsonl")]) == 2
    assert capsys.readouterr().err == "error: need at least 2 classes, got 1\n"
    assert list(out.iterdir()) == []


def test_exit_2_on_unknown_config_key(tmp_path, capsys):
    config = _write_config(tmp_path, generator={**GEN_SECTION, "sides": 3})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "c.jsonl")]) == 2


def test_exit_2_on_noise_scale_whose_frames_would_overflow(workspace, tmp_path, capsys):
    # 1e308 * N(0, 1) overflows to inf, which the loader then refuses.
    config = _write_config(tmp_path, generator={**GEN_SECTION, "noise_scale": 1e308})
    out = tmp_path / "c.jsonl"
    assert main(["generate", "--config", config, "--out", str(out)]) == 2
    assert "noise_scale must be <= " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]
    # A corpus file whose header holds such a value is refused at load.
    header = json.loads(workspace["corpus"].read_text().partition("\n")[0])
    header["config"]["noise_scale"] = 1e308
    out.write_text(json.dumps(header) + "\n")
    assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                 "--corpus", str(out), "--out", str(tmp_path)]) == 4
    assert "line 1: bad generator config: noise_scale must be <= " in capsys.readouterr().err


def test_vocab_size_is_bounded_by_int64_ids(workspace, tmp_path, capsys):
    config = _write_config(tmp_path, generator={**GEN_SECTION, "vocab_size": 2**70})
    out = tmp_path / "c.jsonl"
    assert main(["generate", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: vocab_size must be <= 2**63, got {2**70}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]
    # A corpus file whose header holds such a value is refused at load.
    header = json.loads(workspace["corpus"].read_text().partition("\n")[0])
    header["config"]["vocab_size"] = 2**70
    out.write_text(json.dumps(header) + "\n")
    assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                 "--corpus", str(out), "--out", str(tmp_path)]) == 4
    assert "line 1: bad generator config: vocab_size must be <= 2**63" in capsys.readouterr().err
    # The largest vocabulary generates, saves and loads end to end.
    config = _write_config(tmp_path, generator={**GEN_SECTION, "vocab_size": 2**63})
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    assert load_corpus(out).config.vocab_size == 2**63


def test_exit_2_on_float_generator_field(tmp_path, capsys):
    config = _write_config(tmp_path, generator={**GEN_SECTION, "d_in": 8.5})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "c.jsonl")]) == 2
    assert "d_in must be an integer" in capsys.readouterr().err


def test_exit_2_on_non_finite_float_fields(workspace, tmp_path, capsys):
    # Before these checks, generate wrote a NaN-noise corpus that load rejected.
    config = _write_config(tmp_path, generator={**GEN_SECTION, "noise_scale": float("nan")})
    out = tmp_path / "c.jsonl"
    assert main(["generate", "--config", config, "--out", str(out)]) == 2
    assert "noise_scale must be finite" in capsys.readouterr().err
    assert not out.exists()
    config = _write_config(tmp_path, name="train.json",
                           train={**TRAIN_SECTION, "lr": float("inf")})
    run = tmp_path / "run"
    run.mkdir()
    rc = main(["train", "--config", config,
               "--corpus", str(workspace["corpus"]), "--out", str(run)])
    assert rc == 2
    assert "lr must be finite" in capsys.readouterr().err


def test_exit_2_on_float_train_field(workspace, tmp_path, capsys):
    config = _write_config(tmp_path, train={**TRAIN_SECTION, "b_clip": 3.5})
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["train", "--config", config,
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 2
    assert "b_clip must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "train", "ablate", "gradcheck"])
def test_exit_2_on_negative_seed(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "generate": ["generate", "--out", str(out / "c.jsonl")],
        "train": ["train", "--config", workspace["config"],
                  "--corpus", str(workspace["corpus"]), "--out", str(out)],
        "ablate": ["ablate", "--config", workspace["config"],
                   "--corpus", str(workspace["corpus"]), "--out", str(out)],
        "gradcheck": ["gradcheck"],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, message", [
    ("generate", {"generator": 5}, "section 'generator' must be a JSON object"),
    ("generate", {"generator": None}, "section 'generator' must be a JSON object"),
    ("train", {"train": [1]}, "section 'train' must be a JSON object"),
    ("train", {"train": "fast"}, "section 'train' must be a JSON object"),
    ("train", {"train": {**TRAIN_SECTION, "paper_scale": "no"}},
     "paper_scale must be a JSON boolean"),
    ("train", {"train": {**TRAIN_SECTION, "paper_scale": 0}},
     "paper_scale must be a JSON boolean"),
], ids=["generator-number", "generator-null", "train-list", "train-string",
        "paper_scale-string", "paper_scale-number"])
def test_exit_2_on_malformed_config_section(workspace, tmp_path, capsys, command, doc, message):
    config = _write_config(tmp_path, **doc)
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "generate": ["generate", "--config", config, "--out", str(out / "c.jsonl")],
        "train": ["train", "--config", config,
                  "--corpus", str(workspace["corpus"]), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", None, "0.3", True, [0.3]])
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_exit_2_on_non_number_holdout_fraction(workspace, tmp_path, capsys, command, value):
    config = _write_config(tmp_path, train=TRAIN_SECTION, holdout_fraction=value)
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "train": ["train", "--corpus", str(workspace["corpus"])],
        "eval": ["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                 "--corpus", str(workspace["corpus"])],
        "ablate": ["ablate", "--corpus", str(workspace["corpus"])],
    }[command]
    assert main(argv + ["--config", config, "--out", str(out)]) == 2
    assert "holdout_fraction must be a JSON number" in capsys.readouterr().err


def test_exit_2_on_holdout_fraction_out_of_range(workspace, tmp_path, capsys):
    config = _write_config(tmp_path, train=TRAIN_SECTION, holdout_fraction=1)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", config, "--corpus", str(workspace["corpus"]),
                 "--out", str(out)]) == 2
    assert "holdout_fraction must lie in (0, 1), got 1.0" in capsys.readouterr().err
    # `--split all` takes no split, yet its holdout is checked too, from the flag or the config.
    config = _write_config(tmp_path, name="eval.json", holdout_fraction=5)
    for extra in (["--holdout", "5"], ["--config", config]):
        assert _run_eval(workspace, out, "--split", "all", *extra) == 2
        assert "holdout_fraction must lie in (0, 1), got 5.0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_eval_split_all_scores_a_one_video_corpus(workspace, tmp_path, capsys):
    # One video has no train/holdout split, but `--split all` does not take one.
    config = _write_config(tmp_path, generator={**GEN_SECTION, "num_videos": 1})
    corpus = tmp_path / "one.jsonl"
    assert main(["generate", "--config", config, "--out", str(corpus)]) == 0
    out = tmp_path / "ev"
    out.mkdir()
    assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                 "--corpus", str(corpus), "--out", str(out), "--split", "all"]) == 0
    assert json.loads((out / "report.json").read_text())["samples"] == 6


def test_exit_3_on_missing_corpus(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["train", "--corpus", str(tmp_path / "ghost.jsonl"), "--out", str(out)])
    assert rc == 3


def test_exit_3_on_missing_out_dir(workspace, tmp_path, capsys):
    rc = main(["train", "--config", workspace["config"],
               "--corpus", str(workspace["corpus"]),
               "--out", str(tmp_path / "does" / "not" / "exist")])
    assert rc == 3


def test_exit_4_on_insufficient_data(workspace, tmp_path, capsys):
    config = _write_config(tmp_path, name="big.json",
                           train={**TRAIN_SECTION, "b_video": 500})
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["train", "--config", config,
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == \
        "error: video level: corpus has 6 pairs, batch size 500 requested\n"
    assert list(out.iterdir()) == []


def test_exit_4_before_any_ablation_variant_when_one_lacks_data(workspace, tmp_path, capsys):
    # clip-only needs no phases; clip+phase is the first variant that cannot fill a batch
    config = _write_config(tmp_path, train={**TRAIN_SECTION, "b_phase": 200})
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["ablate", "--config", config,
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr() == \
        ("", "error: phase level: corpus has 18 pairs, batch size 200 requested\n")
    assert list(out.iterdir()) == []


def test_exit_4_before_ablation_when_held_out_videos_have_no_phases(workspace, tmp_path,
                                                                     capsys):
    # The training split fills every level's batches; only the evaluation split is bare.
    corpus = load_corpus(workspace["corpus"])
    path = tmp_path / "bare.jsonl"
    load_records(corpus.config, [replace(v, phases=()) if v.video_id in ("v006", "v007") else v
                                 for v in corpus.videos], path)
    out = tmp_path / "ab"
    out.mkdir()
    rc = main(["ablate", "--config", workspace["config"], "--corpus", str(path),
               "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr() == ("", "error: evaluation split of 2 videos (v006 to v007) has "
                                       "no labeled clips to score: none of its videos has a "
                                       "phase segment\n")
    assert list(out.iterdir()) == []


def test_exit_2_on_out_of_memory_leaves_the_manifest(workspace, tmp_path, capsys, monkeypatch):
    # A vocabulary of 45M asks for a 10.7 GiB token embedding; no test allocates that.
    message = ("Unable to allocate 10.7 GiB for an array with shape (45000000, 32) "
               "and data type float64")

    def too_large(rng, fan_in, fan_out):
        raise MemoryError(message)

    monkeypatch.setattr(hiercl.encoders, "_glorot", too_large)
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["train", "--config", workspace["config"], "--corpus", str(workspace["corpus"]),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "sha256" not in manifest["outputs"]["checkpoint"]


def test_exit_4_on_non_utf8_corpus_line(workspace, tmp_path, capsys):
    lines = workspace["corpus"].read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"video_id": "', b'"video_id": "\xff', 1)
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(b"".join(lines))
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["train", "--config", workspace["config"], "--corpus", str(corpus),
               "--out", str(out)])
    assert rc == 4
    assert "line 3: not valid UTF-8" in capsys.readouterr().err


def test_exit_5_on_corrupt_checkpoint(workspace, tmp_path, capsys):
    blob = bytearray((workspace["run"] / "checkpoint.bin").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(["eval", "--checkpoint", str(bad),
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 5


def _break_header(header: dict, key: str) -> None:
    """Delete the entry at a dotted path, or set it with `path=JSON value`."""
    path, _, value = key.partition("=")
    *parents, name = path.split(".")
    for parent in parents:
        header = header[parent]
    if value:
        header[name] = json.loads(value)
    else:
        del header[name]


@pytest.mark.parametrize("key", [
    "d_in", "config", "vocab_size", "d_in=10.0", 'global_batch="x"', "global_batch=-3",
    "global_batch=99", "global_batch=true", "rng_state", "rng_state=[]",
    'rng_state.bit_generator="MT19937"', "rng_state.state.state=-5",
    f"rng_state.state.state={2 ** 200}", "rng_state.state.inc=1.5", "rng_state.extra=0"])
def test_exit_5_on_malformed_checkpoint_header(workspace, tmp_path, capsys, key):
    """A header that passes the checksum but lacks or mistypes a key is still an integrity error."""
    blob = (workspace["run"] / "checkpoint.bin").read_bytes()
    header_len = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12:12 + header_len])
    _break_header(header, key)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = (blob[:8] + struct.pack("<I", len(header_bytes)) + header_bytes
            + blob[12 + header_len:-32])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(body + hashlib.sha256(body).digest())
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(["eval", "--checkpoint", str(bad),
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 5
    assert "malformed header" in capsys.readouterr().err


def test_exit_5_on_version_1_checkpoint(workspace, tmp_path, capsys):
    blob = bytearray((workspace["run"] / "checkpoint.bin").read_bytes())
    for version in (1, 2):
        struct.pack_into("<I", blob, 4, version)
        body = bytes(blob[:-32])
        bad = tmp_path / f"v{version}.bin"
        bad.write_bytes(body + hashlib.sha256(body).digest())
        out = tmp_path / f"ev{version}"
        out.mkdir()
        rc = main(["eval", "--checkpoint", str(bad),
                   "--corpus", str(workspace["corpus"]), "--out", str(out)])
        assert rc == 5
        assert f"checkpoint version {version}" in capsys.readouterr().err


def test_exit_5_on_dimension_mismatch(workspace, tmp_path, capsys):
    config = _write_config(tmp_path, generator={**GEN_SECTION, "d_in": 10})
    wide = tmp_path / "wide.jsonl"
    assert main(["generate", "--config", config, "--out", str(wide)]) == 0
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
               "--corpus", str(wide), "--out", str(out)])
    assert rc == 5
    assert "dim" in capsys.readouterr().err


def test_exit_5_on_checkpoint_dims_disagreeing_with_config(workspace, tmp_path, capsys):
    ckpt = load_checkpoint(workspace["run"] / "checkpoint.bin")
    bad = tmp_path / "bad.bin"
    save_checkpoint(replace(ckpt, config=replace(ckpt.config, hidden=64)), bad)
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(["eval", "--checkpoint", str(bad),
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 5
    need = 3 * 8 * replace(ckpt.params.dims, hidden=64).size
    assert capsys.readouterr().err == (f"error: {bad}: {3 * 8 * ckpt.params.dims.size} "
                                       f"bytes of vectors, dims need {need}\n")
    assert list(out.iterdir()) == []


def test_exit_5_on_bad_prompts_schema(workspace, tmp_path, capsys):
    prompts = tmp_path / "p.json"
    prompts.write_text('{"schema": "hierprompts/9", "classes": []}\n')
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
               "--corpus", str(workspace["corpus"]),
               "--prompts", str(prompts), "--out", str(out)])
    assert rc == 5


@pytest.mark.parametrize("where, value", [("label", 2.9), ("token", 3.7), ("token", True)])
def test_exit_4_on_non_integer_prompt_values(workspace, tmp_path, capsys, where, value):
    doc = json.loads((workspace["root"] / "corpus.prompts.json").read_text())
    if where == "label":
        doc["classes"][2]["label"] = value
    else:
        doc["classes"][0]["prompts"][1][3] = value
    prompts = tmp_path / "p.json"
    prompts.write_text(json.dumps(doc))
    with pytest.raises(CorpusFormatError, match=f"{where} {value!r} is not an integer"):
        load_prompts(prompts)
    assert _run_eval(workspace, tmp_path / "ev", "--prompts", str(prompts)) == 4
    assert "is not an integer" in capsys.readouterr().err


def test_exit_4_on_non_utf8_prompts(workspace, tmp_path, capsys):
    prompts = tmp_path / "p.json"
    prompts.write_bytes((workspace["root"] / "corpus.prompts.json").read_bytes()
                        .replace(b"hierprompts", b"hier\xffprompts"))
    assert _run_eval(workspace, tmp_path / "ev", "--prompts", str(prompts)) == 4
    assert "UTF-8" in capsys.readouterr().err


def _break_prompts(doc: dict, fault: str) -> None:
    if fault == "one class":
        del doc["classes"][1:]
    elif fault == "duplicate label":
        doc["classes"][1]["label"] = doc["classes"][0]["label"]
    elif fault == "no prompts":
        doc["classes"][1]["prompts"] = []
    else:
        doc["classes"][1]["prompts"][0] = []


@pytest.mark.parametrize("fault, message", [
    ("one class", "need at least 2 classes"),
    ("duplicate label", "class labels must be unique"),
    ("no prompts", "class 1 has no prompts"),
    ("empty prompt", "class 1 has an empty prompt"),
], ids=["one-class", "duplicate-label", "no-prompts", "empty-prompt"])
def test_exit_4_on_malformed_prompt_set(workspace, tmp_path, capsys, fault, message):
    doc = json.loads((workspace["root"] / "corpus.prompts.json").read_text())
    _break_prompts(doc, fault)
    prompts = tmp_path / "p.json"
    prompts.write_text(json.dumps(doc))
    with pytest.raises(CorpusFormatError, match=message):
        load_prompts(prompts)
    out = tmp_path / "ev"
    assert _run_eval(workspace, out, "--prompts", str(prompts)) == 4
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()  # rejected at load, before the run


def test_exit_5_on_out_of_vocabulary_prompt_token(workspace, tmp_path, capsys):
    doc = json.loads((workspace["root"] / "corpus.prompts.json").read_text())
    doc["classes"][0]["prompts"][0][0] = GEN_SECTION["vocab_size"]
    prompts = tmp_path / "p.json"
    prompts.write_text(json.dumps(doc))
    out = tmp_path / "ev"
    assert _run_eval(workspace, out, "--prompts", str(prompts)) == 5
    assert "prompt token id 30 outside vocabulary of size 30" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()  # rejected before the run


def test_exit_5_on_split_class_without_prompts(workspace, tmp_path, capsys):
    doc = json.loads((workspace["root"] / "corpus.prompts.json").read_text())
    del doc["classes"][2]  # every video holds every class, so the held-out split has class 2
    prompts = tmp_path / "p.json"
    prompts.write_text(json.dumps(doc))
    out = tmp_path / "ev"
    assert _run_eval(workspace, out, "--prompts", str(prompts)) == 5
    assert "classes [2] appear in the split but have no prompts" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()  # rejected before the run


def test_exit_4_on_split_without_labeled_clips(workspace, tmp_path, capsys):
    corpus = load_corpus(workspace["corpus"])
    path = tmp_path / "bare.jsonl"
    load_records(corpus.config, [replace(v, phases=()) for v in corpus.videos], path)
    out = tmp_path / "ev"
    out.mkdir()
    for split in ("holdout", "all"):
        assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                     "--corpus", str(path), "--out", str(out), "--split", split]) == 4
        first, last = ("v006", "v007") if split == "holdout" else ("v000", "v007")
        assert capsys.readouterr().err == (
            f"error: evaluation split of {8 if split == 'all' else 2} videos ({first} to "
            f"{last}) has no labeled clips to score: none of its videos has a phase segment\n")
    assert not (out / "manifest.json").exists()  # rejected before the run


def test_exit_4_on_corpus_without_videos(workspace, tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    load_records(load_corpus(workspace["corpus"]).config, [], path)
    out = tmp_path / "ev"
    out.mkdir()
    assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.bin"),
                 "--corpus", str(path), "--out", str(out), "--split", "all"]) == 4
    assert capsys.readouterr().err == (
        "error: evaluation split of 0 videos has no labeled clips to score: "
        "none of its videos has a phase segment\n")
    assert list(out.iterdir()) == []


def test_exit_6_on_update_that_overflows(workspace, tmp_path, capsys):
    # lr * weight_decay is finite, but the first update overflows: numpy must not warn.
    config = _write_config(tmp_path, train={**TRAIN_SECTION, "lr": 1.7e308, "weight_decay": 1.0})
    rc = main(["train", "--config", config, "--corpus", str(workspace["corpus"]),
               "--out", str(tmp_path)])
    assert rc == 6
    assert capsys.readouterr().err == ("error: batch 0 (clip level): parameter block "
                                       "visual.w1 is not finite after the update\n")


def test_exit_2_on_decay_that_overflows(workspace, tmp_path, capsys):
    config = _write_config(tmp_path, train={**TRAIN_SECTION, "lr": 1e300, "weight_decay": 1e10})
    out = tmp_path / "run"
    rc = main(["train", "--config", config, "--corpus", str(workspace["corpus"]),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: lr * weight_decay must be finite, got 1e+300 * 10000000000.0\n")
    assert not out.exists()


def test_exit_6_on_degenerate_initial_embedding_names_its_batch(paper_corpus, tmp_path, capsys):
    # With hidden 10, some of the 120 clips leave every first-layer unit at zero.
    section = {k: v for k, v in TRAIN_SECTION.items() if not k.startswith("b_")}
    config = _write_config(tmp_path, train=section)
    rc = main(["train", "--config", config, "--corpus", str(paper_corpus),
               "--out", str(tmp_path), "--holdout", "0.05", "--paper-scale"])
    assert rc == 6
    assert capsys.readouterr().err == (
        "error: batch 0 (clip level): row 113 has near-zero norm 0.000e+00\n")


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hiercl ")


# ---------------------------------------------------------------------------
# One BLAS thread
# ---------------------------------------------------------------------------


def test_blas_runs_on_one_thread():
    if openblas_threads() is None:
        pytest.skip("numpy ships no OpenBLAS")
    # this session, pinned by the root conftest
    assert openblas_threads() == 1
    # a fresh process with OpenBLAS at its own default, once the entry point ran
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    probe = Path(__file__).resolve().parent / "blas_threads.py"
    out = subprocess.run([sys.executable, str(probe)], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["1"]


def test_each_main_call_sets_one_thread_without_loading_a_library(monkeypatch):
    if openblas_threads() is None:
        pytest.skip("numpy ships no OpenBLAS")
    setter = hiercl.numerics._openblas_thread_setter()  # the process's one lookup
    setter(2)

    def no_load(*args, **kwargs):
        raise AssertionError("single_thread_blas loaded a library again")

    monkeypatch.setattr(ctypes, "CDLL", no_load)
    try:
        with pytest.raises(SystemExit):
            main(["--version"])
    finally:
        monkeypatch.undo()
        threads = openblas_threads()
        setter(1)  # the session's setting, whatever main did
    assert threads == 1
