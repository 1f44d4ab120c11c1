"""tools/bench_pairs.py: parsing perfbench's output and summarizing pairs, on canned lines."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HOST = ("host: nproc=2 affinity=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas "
        "blas_threads=1")


def run_output(step_ms: float, pairs_per_s: float, top1: float = 0.75, failed: int = 0,
               correct: bool = True) -> str:
    """What perfbench/run.py prints: a header, the host, figures, then one JSON line."""
    metrics = {"train_pairs_per_s": {"value": pairs_per_s, "unit": "pairs/s"},
               "step_ms_p50": {"value": step_ms, "unit": "ms"},
               "zeroshot_top1": {"value": top1, "unit": "fraction"}}
    return "\n".join([
        "workload: desk-hecvl seed=7 seconds=30 trace=0",
        HOST,
        f"  step_ms_p50                  {step_ms:>14.6g} ms            1234",
        json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def canned_runs(table):
    runs = []
    for seed, (parent, change) in table.items():
        for side, figures in (("parent", parent), ("change", change)):
            host, result = bench_pairs.parse_output(run_output(*figures))
            runs.append({"workload": "desk-hecvl", "seed": seed, "side": side,
                         "ran_first": side == "parent", "host": host, "result": result})
    return runs


def test_parse_output_reads_the_host_and_closing_json():
    host, result = bench_pairs.parse_output(run_output(1.5, 3000.0))
    assert host == HOST
    assert result["metrics"]["step_ms_p50"] == {"value": 1.5, "unit": "ms"}
    for bad in ("", "workload: x\n{}\n"):
        with pytest.raises(ValueError):
            bench_pairs.parse_output(bad)


def test_summary_medians_iqr_and_better_pairs():
    # (step_ms, pairs_per_s[, top1, failed, correct]) of parent, change per seed;
    # the change is faster in every pair but seed 3, and the zero-shot figures
    # tie throughout. Seed 2's change run failed 3 operations and was not correct.
    runs = canned_runs({
        1: ((2.0, 3000.0), (1.8, 3300.0)),
        2: ((2.2, 2900.0, 0.75, 1), (1.9, 3200.0, 0.75, 3, False)),
        3: ((1.9, 3100.0), (2.0, 3000.0)),
        4: ((2.1, 2950.0), (1.7, 3400.0)),
        5: ((2.4, 2800.0), (2.3, 2850.0)),
    })
    better = {"step_ms_p50": "lower", "train_pairs_per_s": "higher", "zeroshot_top1": "higher"}
    summary = bench_pairs.summarize(runs, better)
    assert list(summary) == ["desk-hecvl"]
    assert summary["desk-hecvl"]["seeds"] == [1, 2, 3, 4, 5]
    assert summary["desk-hecvl"]["failed"] == {"parent": 1, "change": 3}
    assert summary["desk-hecvl"]["not_correct"] == {"parent": 0, "change": 1}
    metrics = summary["desk-hecvl"]["metrics"]
    step = metrics["step_ms_p50"]
    assert step["unit"] == "ms"
    assert step["parent_median"] == 2.1 and step["change_median"] == 1.9
    # inclusive quartiles of 1.9, 2.0, 2.1, 2.2, 2.4: 2.0 and 2.2
    assert step["parent_iqr"] == pytest.approx(0.2)
    assert (step["change_better_pairs"], step["pairs"]) == (4, 5)
    assert metrics["train_pairs_per_s"]["change_better_pairs"] == 4
    assert metrics["zeroshot_top1"]["change_better_pairs"] == 0


def test_summary_skips_unpaired_runs():
    runs = canned_runs({1: ((2.0, 3000.0), (1.8, 3300.0)), 2: ((2.2, 2900.0), (1.9, 3200.0))})
    summary = bench_pairs.summarize(runs[:3], {})
    assert summary["desk-hecvl"]["seeds"] == [1]
    assert summary["desk-hecvl"]["metrics"]["step_ms_p50"]["parent_iqr"] == 0.0
    assert bench_pairs.summarize(runs[:1], {}) == {}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_summary_reproduces_a_committed_bench_file(path):
    doc = json.loads(path.read_text())
    summary = bench_pairs.summarize(doc["runs"], bench_pairs.directions(ROOT))
    for workload, figures in summary.items():
        if "failed" not in doc["summary"][workload]:
            # BENCH_token_runs.json predates the per-side failure counts;
            # every one of its runs read 0.
            assert figures.pop("failed") == {"parent": 0, "change": 0}
            assert figures.pop("not_correct") == {"parent": 0, "change": 0}
    assert summary == doc["summary"]


def test_seeds_plans_and_run_order():
    assert bench_pairs.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]
    assert bench_pairs.parse_plan("corpus-io=10-11") == ("corpus-io", [10, 11])
    with pytest.raises(ValueError):
        bench_pairs.parse_plan("corpus-io")
    assert bench_pairs.orders([4, 5, 6]) == [(4, ("change", "parent")),
                                             (5, ("parent", "change")),
                                             (6, ("change", "parent"))]


@pytest.mark.parametrize("plans", [
    ["desk-hecvl=5-3"],  # a descending range is empty
    ["desk-hecvl=5-"],
    ["desk-hecvl="],
    ["desk-hecvl=1,1"],
    ["desk-hecvl=1-3,3"],
    ["desk-hecvl=1-3", "desk-hecvl=3-4"],  # one workload's seed in two plans
])
def test_plans_that_would_lose_runs_are_usage_errors(plans, tmp_path, capsys):
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--label", "x",
            "--what", "y", "--out", str(tmp_path), *plans]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_plans_keep_each_seed_once_per_workload():
    assert bench_pairs.parse_plans(["desk-hecvl=1-2", "corpus-io=1-2", "desk-hecvl=3"]) == [
        ("desk-hecvl", [1, 2]), ("corpus-io", [1, 2]), ("desk-hecvl", [3])]
    assert bench_pairs.parse_seeds("4-4,6") == [4, 6]
