import inspect

import hiercl.cli
from hiercl.trainer import TrainConfig

import layers
import workloads
from spans import Tracer

TINY = workloads.Workload(
    "tiny", num_videos=6,
    train_config=lambda seed: TrainConfig(cycles=4, m=2, n=2, l=2, b_clip=4, b_phase=2,
                                          b_video=2, d_tok=8, hidden=12, d_emb=8, seed=seed),
    command_share=0.3,
)


def bindings():
    return [inspect.getattr_static(owner, attr) for owner, attr, _, _ in layers.BINDINGS]


def test_traced_context_restores_every_binding_after_an_error():
    before = bindings()
    tracer = Tracer()
    try:
        with layers.traced(tracer):
            assert all(a is not b for a, b in zip(bindings(), before))
            raise RuntimeError("stop inside the traced body")
    except RuntimeError:
        pass
    assert all(a is b for a, b in zip(bindings(), before))


def test_traced_run_restores_bindings_and_leaves_an_untraced_run_clean(tmp_path):
    before = bindings()
    (tmp_path / "traced").mkdir()
    run = workloads.Run(TINY, seed=0, seconds=1.0, trace=True, work=tmp_path / "traced")
    traced = run.execute()
    assert all(a is b for a, b in zip(bindings(), before))
    assert traced.checks.failed == 0, traced.checks.notes
    assert {s.name for s in run.tracer.spans} >= {
        "corpus.sample", "objectives.loss", "trainer.adamw", "numerics.backward",
        "encoders.visual", "encoders.text", "encoders.aggregate", "corpus.load",
        "corpus.save", "corpus.digest", "zeroshot.evaluate", "cli.eval", "cli.generate"}
    assert traced.per_layer["encoders.ragged_share"].value == 0.0
    assert traced.per_layer["corpus.sample_calls"].value == 1.0

    spans_after = len(run.tracer.spans)
    (tmp_path / "plain").mkdir()
    plain = workloads.Run(TINY, seed=0, seconds=0.2, trace=False, work=tmp_path / "plain")
    result = plain.execute()
    assert len(run.tracer.spans) == spans_after
    assert result.per_layer == {}
    assert result.checks.failed == 0, result.checks.notes
    assert hiercl.cli.main is inspect.getattr_static(hiercl.cli, "main")


def test_benchmark_json_names_what_the_run_reports(tmp_path):
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result = workloads.Run(TINY, seed=1, seconds=1.0, trace=True, work=tmp_path).execute()
    assert [m["name"] for m in spec["end_to_end"]] == list(result.end_to_end)
    assert [m["name"] for m in spec["per_layer"]] == list(result.per_layer)
    for section, figures in (("end_to_end", result.end_to_end), ("per_layer", result.per_layer)):
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: fig.unit for name, fig in figures.items()}
