"""hiercl layer boundaries for the traced run, and the metrics their spans give.

Each entry of ``BINDINGS`` names a function at the module attribute its
caller looks up at call time, so replacing that attribute intercepts exactly
the calls that caller makes. Span names are ``<layer>.<operation>``.
"""
from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import fmean

import hiercl.cli
import hiercl.objectives
import hiercl.trainer
import hiercl.zeroshot
from hiercl.numerics import Tape

from spans import Span, Tracer, self_times
from stats import Figure


def _encoder_meta(length):
    def meta(args, kwargs, result):
        items = args[2]
        return {"rows": len(items), "ragged": len({length(x) for x in items}) > 1}
    return meta


def _aggregate_meta(args, kwargs, result):
    sets = args[2]
    ragged = (len({len(ts) for ts in sets}) > 1
              or len({len(t) for ts in sets for t in ts}) > 1)
    return {"rows": len(sets), "ragged": ragged}


def _file_bytes(position):
    def meta(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return meta


_visual_meta = _encoder_meta(lambda segment: segment.rows)

BINDINGS = (
    (hiercl.trainer, "sample_clip_batch", "corpus.sample", None),
    (hiercl.trainer, "sample_phase_batch", "corpus.sample", None),
    (hiercl.trainer, "sample_video_batch", "corpus.sample", None),
    (hiercl.trainer, "loss_clip", "objectives.loss", None),
    (hiercl.trainer, "loss_phase", "objectives.loss", None),
    (hiercl.trainer, "loss_video", "objectives.loss", None),
    (hiercl.trainer, "loss_single", "objectives.loss", None),
    (hiercl.trainer, "adamw_step", "trainer.adamw", None),
    (hiercl.objectives, "visual_embedding_rows", "encoders.visual", _visual_meta),
    (hiercl.objectives, "text_embedding_rows", "encoders.text", _encoder_meta(len)),
    (hiercl.objectives, "aggregated_text_rows", "encoders.aggregate", _aggregate_meta),
    (Tape, "backward", "numerics.backward",
     lambda args, kwargs, result: {"nodes": len(args[0])}),
    (hiercl.zeroshot, "visual_embedding_rows", "encoders.visual", _visual_meta),
    (hiercl.zeroshot, "embed_prompts", "zeroshot.embed_prompts", None),
    (hiercl.cli, "generate_synthetic", "corpus.generate", None),
    (hiercl.cli, "save_corpus", "corpus.save", _file_bytes(1)),
    (hiercl.cli, "load_corpus", "corpus.load", _file_bytes(0)),
    (hiercl.cli, "corpus_digest", "corpus.digest", None),
    (hiercl.cli, "load_checkpoint", "trainer.checkpoint_load", _file_bytes(0)),
    (hiercl.cli, "evaluate", "zeroshot.evaluate", None),
)

ENCODER_SPANS = ("encoders.visual", "encoders.text", "encoders.aggregate")
COMMAND_SPANS = ("cli.generate", "cli.eval")


@contextmanager
def traced(tracer: Tracer):
    """Wrap every binding in ``BINDINGS`` for the body, then restore them all."""
    try:
        for owner, attr, name, meta in BINDINGS:
            tracer.wrap(owner, attr, name, meta)
        yield tracer
    finally:
        tracer.restore()


class SpanSet:
    """Per-layer figures from one traced run.

    ``steps`` maps the batch id of each timed training step to its level and
    duration in seconds. Per-step figures are averaged per level and then
    weighted by ``level_weights`` (steps of each level in one schedule
    cycle), so they do not depend on where the run stopped in the schedule.
    """

    def __init__(self, spans: list[Span], steps: dict, level_weights: dict[str, int]):
        self.spans = spans
        self.steps = steps
        self.level_weights = level_weights
        self.self_time = self_times(spans)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def named(self, *names: str) -> list[Span]:
        found = [s for n in names for s in self.by_name.get(n, [])]
        if not found:
            raise LookupError(f"no spans named {names} in the traced run")
        return found

    def per_step(self, value_of_step) -> float:
        by_level: dict[str, list[float]] = defaultdict(list)
        for batch, (level, seconds) in self.steps.items():
            by_level[level].append(value_of_step(batch, seconds))
        if not by_level:
            raise LookupError("no timed training steps in the traced run")
        weight = sum(self.level_weights[lv] for lv in by_level)
        return sum(self.level_weights[lv] * fmean(v) for lv, v in by_level.items()) / weight

    def step_total(self, *names: str, value=lambda s: s.duration):
        """Per-step sum of ``value`` over the named spans; a layer that never ran gives 0."""
        totals: dict = defaultdict(float)
        for s in (s for n in names for s in self.by_name.get(n, [])):
            if s.batch in self.steps:
                totals[s.batch] += value(s)
        return lambda batch, seconds: totals.get(batch, 0.0)

    def step_ms(self, *names: str) -> float:
        return 1e3 * self.per_step(self.step_total(*names))

    def call_mean(self, name: str, value=lambda s: s.duration) -> float:
        return fmean(value(s) for s in self.named(name))

    def digests_per_pair(self) -> float:
        """Digest calls of one generate plus one eval command, averaged per kind."""
        digests = Counter(s.parent for s in self.named("corpus.digest"))
        return sum(fmean(digests[s.sid] for s in self.named(kind)) for kind in COMMAND_SPANS)

    def metrics(self) -> dict[str, Figure]:
        sample = self.step_total("corpus.sample")
        loss = self.step_total("objectives.loss")
        adamw = self.step_total("trainer.adamw")
        count = lambda s: 1.0
        encoders = self.named(*ENCODER_SPANS)
        evaluations = self.named("zeroshot.evaluate")
        eval_ids = {s.sid for s in evaluations}
        eval_visual = [s for s in self.named("encoders.visual") if s.parent in eval_ids]
        commands = self.named(*COMMAND_SPANS)
        throughput = lambda name: (sum(s.meta["bytes"] for s in self.named(name))
                                   / sum(s.duration for s in self.named(name)) / 1e6)
        figures = {
            "corpus.sample_ms": (1e3 * self.per_step(sample), "ms/step"),
            "corpus.sample_calls": (self.per_step(self.step_total("corpus.sample", value=count)),
                                    "calls/step"),
            "corpus.generate_s": (self.call_mean("corpus.generate"), "s/call"),
            "corpus.save_s": (self.call_mean("corpus.save"), "s/call"),
            "corpus.save_mb_per_s": (throughput("corpus.save"), "MB/s"),
            "corpus.load_s": (self.call_mean("corpus.load"), "s/call"),
            "corpus.load_mb_per_s": (throughput("corpus.load"), "MB/s"),
            "corpus.digest_ms": (1e3 * self.call_mean("corpus.digest"), "ms/call"),
            "corpus.digest_calls": (self.digests_per_pair(), "calls/pair"),
            "encoders.visual_ms": (self.step_ms("encoders.visual"), "ms/step"),
            "encoders.text_ms": (self.step_ms("encoders.text"), "ms/step"),
            "encoders.aggregate_ms": (self.step_ms("encoders.aggregate"), "ms/step"),
            "encoders.rows_encoded": (
                self.per_step(self.step_total(*ENCODER_SPANS, value=lambda s: s.meta["rows"])),
                "rows/step"),
            "encoders.ragged_share": (
                sum(1 for s in encoders if s.meta["ragged"]) / len(encoders), "fraction"),
            "encoders.eval_visual_ms": (
                1e3 * sum(s.duration for s in eval_visual) / len(evaluations), "ms/eval"),
            "numerics.backward_ms": (self.step_ms("numerics.backward"), "ms/step"),
            "numerics.tape_nodes": (
                self.per_step(self.step_total("numerics.backward",
                                              value=lambda s: s.meta["nodes"])),
                "nodes/step"),
            "objectives.loss_ms": (1e3 * self.per_step(loss), "ms/step"),
            "objectives.self_ms": (
                1e3 * self.per_step(self.step_total(
                    "objectives.loss", value=lambda s: self.self_time[s.sid])),
                "ms/step"),
            "trainer.step_ms": (1e3 * self.per_step(lambda batch, seconds: seconds), "ms/step"),
            "trainer.adamw_ms": (1e3 * self.per_step(adamw), "ms/step"),
            "trainer.step_other_ms": (
                1e3 * self.per_step(lambda b, seconds: seconds - sample(b, seconds)
                                    - loss(b, seconds) - adamw(b, seconds)),
                "ms/step"),
            "trainer.checkpoint_save_ms": (1e3 * self.call_mean("trainer.checkpoint_save"),
                                           "ms/call"),
            "trainer.checkpoint_load_ms": (1e3 * self.call_mean("trainer.checkpoint_load"),
                                           "ms/call"),
            "trainer.checkpoint_bytes": (
                self.call_mean("trainer.checkpoint_save", value=lambda s: s.meta["bytes"]),
                "bytes"),
            "zeroshot.evaluate_ms": (1e3 * self.call_mean("zeroshot.evaluate"), "ms/call"),
            "zeroshot.embed_prompts_ms": (1e3 * self.call_mean("zeroshot.embed_prompts"),
                                          "ms/call"),
            "zeroshot.clips_scored": (sum(s.meta["rows"] for s in eval_visual) / len(evaluations),
                                      "clips/call"),
            "cli.self_ms": (1e3 * fmean(self.self_time[s.sid] for s in commands), "ms/command"),
        }
        return {name: Figure(value, unit) for name, (value, unit) in figures.items()}
