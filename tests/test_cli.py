"""End-to-end command-line runs: wiring, artifacts, and exit codes."""
import hashlib
import json
import os
import struct

import pytest

from hiercl.cli import main
from hiercl.errors import CorpusFormatError
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


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_log_manifest(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.bin").read_bytes()[:4] == b"HECV"
    log = [json.loads(s) for s in (run / "train_log.jsonl").read_text().splitlines()]
    assert [e["level"] for e in log] == ["clip", "phase", "video"]
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
    assert "clip" in capsys.readouterr().err


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


def test_gradcheck_detects_corrupted_gradient(capsys):
    rc = main(["gradcheck", "--seed", "0", "--corrupt", "loss_clip"])
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
# exit codes
# ---------------------------------------------------------------------------


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


def test_exit_2_on_unknown_config_key(tmp_path, capsys):
    config = _write_config(tmp_path, generator={**GEN_SECTION, "sides": 3})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "c.jsonl")]) == 2


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
    assert "video" in capsys.readouterr().err


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
    if key == "dims field":
        del header["dims"]["hidden"]
    elif key == "non-integer dims field":
        header["dims"]["hidden"] = float(header["dims"]["hidden"])
    else:
        del header[key]


@pytest.mark.parametrize("key", ["dims", "config", "config_digest", "dims field",
                                 "non-integer dims field"])
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
    struct.pack_into("<I", blob, 4, 1)
    body = bytes(blob[:-32])
    bad = tmp_path / "v1.bin"
    bad.write_bytes(body + hashlib.sha256(body).digest())
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(["eval", "--checkpoint", str(bad),
               "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 5
    assert "checkpoint version 1" in capsys.readouterr().err


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
    assert _run_eval(workspace, tmp_path / "ev", "--prompts", str(prompts)) == 5


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hiercl ")
