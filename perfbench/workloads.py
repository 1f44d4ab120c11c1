"""The benchmark's workloads and the run that measures one of them.

A run calls hiercl's public functions directly, in this process:

1. Set-up, repeated ``SETUPS`` times: the synthetic corpus, its train and
   held-out splits and the prompts, all derived from the workload seed.
2. For ``--seconds``: ``hiercl.trainer.train`` on the train split with a
   fixed configuration, timed per step through ``on_batch``, with
   ``hiercl.cli.main(["generate", ...])`` and ``hiercl.cli.main(["eval", ...])``
   run alternately between steps whenever commands have had less than the
   workload's share of the time so far. Interleaving lets training and
   commands sample the same stretch of a host whose speed drifts.
3. The first training run always completes, and ``hiercl.zeroshot.evaluate``
   scores it on the held-out split: that is the reference. More runs follow
   until the time is up; each has at least ``REPEAT_STEPS`` steps. Until the
   reference exists, ``eval`` commands score the untrained checkpoint.

Every timing is scaled to reference speed (see ``speed``): the reference
kernel is timed before and after each set-up and each command, and between
training steps every ``WINDOW_S``, outside any sample.

Every repeated output must equal the first one of the run: corpus, trained
parameters, training log (its prefix, for a run that was stopped), checkpoint
file, evaluation report, and the corpus file each ``generate`` rewrites. The
report of each ``eval`` command must equal the in-process evaluation of the
same checkpoint. Each comparison and each command's exit code is one
attempted operation, and so is each training step.

A traced run (``trace=True``) leaves the reference run untraced. Its repeats
alternate between traced and untraced, ``REPEAT_STEPS`` steps each, so both
sides of the tracing overhead see the same host, and go on for at least
``TRACED_SHARE`` of ``--seconds``; commands are always traced.
"""
from __future__ import annotations

import gc
import io
import json
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from pathlib import Path
from statistics import fmean
from typing import Callable

import hiercl.cli
from hiercl.corpus import Corpus, GeneratorConfig, corpus_digest, generate_synthetic
from hiercl.trainer import TrainConfig, save_checkpoint, train, untrained_checkpoint
from hiercl.zeroshot import PromptSet, default_prompts, evaluate

import layers
from spans import Tracer
from speed import reference_seconds, scale
from stats import Figure, Timing, median

HOLDOUT = 0.25  # the CLI's default held-out fraction, so both evaluate one split
SETUPS = 5
WINDOW_S = 0.1  # seconds of training steps between two reference readings
MIN_COMMANDS = 3  # of each kind
REPEAT_STEPS = 50
TRACED_SHARE = 0.25  # a traced run alternates repeats for at least this share of --seconds

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    num_videos: int
    train_config: Callable[[int], TrainConfig]
    command_share: float  # share of the measured time given to CLI commands


# BENCHMARK.json gives each workload's reason in one line; in more detail:
WORKLOADS = {w.name: w for w in (
    # The gate's shape. Every batch has equal-length inputs, so only the
    # fused encoder path runs, and each step is small enough that per-step
    # Python overhead (sampling, AdamW, loss bookkeeping) dominates: a flat
    # parameter buffer should show here.
    Workload("desk-hecvl", num_videos=40,
             train_config=lambda seed: TrainConfig(cycles=30, seed=seed),
             command_share=0.35),
    # The published batch sizes in one pooled space. Texts of lengths 10, 8
    # and 24 share a batch, which forces the per-text ragged loop and a large
    # gather gradient; AdamW is a small share of a step. A ragged-aware
    # encoder should show here and a faster AdamW should not.
    Workload("paper-single", num_videos=40,
             train_config=lambda seed: TrainConfig.paper_scale(mode="single", cycles=4,
                                                               seed=seed),
             command_share=0.3),
    # Five times the default corpus (20 MB of JSON Lines): the eval command is
    # almost all load_corpus and generate almost all serialisation, so this
    # catches a change that speeds training but costs loading. Ten times the
    # default would be closer to a real corpus but leaves about five commands
    # of each kind per run, too few for a steady median. A tenfold learning
    # rate gives the checkpoint a stable zero-shot score in three cycles.
    Workload("corpus-io", num_videos=200,
             train_config=lambda seed: TrainConfig(cycles=3, lr=5e-4, seed=seed),
             command_share=0.8),
)}


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass(frozen=True)
class Inputs:
    gen: GeneratorConfig
    corpus: Corpus
    train_split: Corpus
    hold_split: Corpus
    prompts: PromptSet


def make_inputs(workload: Workload, seed: int) -> Inputs:
    gen = GeneratorConfig(num_videos=workload.num_videos, seed=seed)
    corpus = generate_synthetic(gen)
    train_split, hold_split = corpus.split(HOLDOUT)
    return Inputs(gen, corpus, train_split, hold_split, default_prompts(gen))


def fingerprint(corpus: Corpus) -> str:
    h = sha256(repr(corpus.config).encode())
    for v in corpus.videos:
        for c in v.clips:
            h.update(c.frames.array.tobytes())
            h.update(repr((c.clip_id, c.narration_a, c.narration_b)).encode())
        h.update(repr((v.video_id, v.phases, v.abstract)).encode())
    return h.hexdigest()


def pairs_per_step(cfg: TrainConfig) -> dict[str, int]:
    return {"clip": cfg.b_clip, "phase": cfg.b_phase, "video": cfg.b_video,
            "single": cfg.b_clip + cfg.b_phase + cfg.b_video}


def cycle_rate(steps: list[tuple[str, float]], level_weights: dict[str, int],
               pairs: dict[str, int]) -> float:
    """Positive pairs per second over one schedule cycle of mean-length steps.

    Means, not medians: throughput is pairs over total time, so every
    step's time counts, slow ones included. Weighting each level by its
    steps per cycle keeps the rate independent of where a run stopped.
    """
    by_level: dict[str, list[float]] = defaultdict(list)
    for level, seconds in steps:
        by_level[level].append(seconds)
    pair_total = sum(level_weights[lv] * pairs[lv] for lv in by_level)
    time_total = sum(level_weights[lv] * fmean(v) for lv, v in by_level.items())
    return pair_total / time_total


class _Cut(Exception):
    """Raised from ``on_batch`` to stop a training run at the deadline."""


@dataclass
class RunResult:
    end_to_end: dict[str, Figure]
    informational: dict[str, Figure]  # printed, not gated
    per_layer: dict[str, Figure]
    checks: Checks


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.wrapped = False
        self.work = work
        self.checks = Checks()
        self.cfg = workload.train_config(seed)
        # (batch id, level, seconds, seconds at reference speed, traced) per
        # timed training step; steps wait in ``pending`` for the next reading.
        self.steps: list[tuple[tuple, str, float, float, bool]] = []
        self.pending: list[tuple[tuple, str, float, bool]] = []
        # (seconds, seconds at reference speed) per command
        self.commands: dict[str, list[tuple[float, float]]] = {"generate": [], "eval": []}
        self.reference: list[float] = []  # every reading of the reference kernel, in seconds
        self.speed: float | None = None  # the latest reading
        self.command_seconds = 0.0
        self.ckpt_path = work / "checkpoint.bin"
        self.corpus_path = work / "corpus.jsonl"
        self.eval_dir = work / "eval"
        self.corpus_sha = None

    # -- set-up -------------------------------------------------------------

    def read_speed(self) -> float:
        """Time the reference kernel; returns the previous reading."""
        before = self.speed
        self.speed = reference_seconds(clock)
        self.reference.append(self.speed)
        return before

    def setup(self) -> list[tuple[float, float]]:
        times, first = [], None
        self.read_speed()
        for _ in range(SETUPS):
            gc.collect()
            t0 = clock()
            inputs = make_inputs(self.workload, self.seed)
            seconds = clock() - t0
            times.append((seconds, seconds * scale(self.read_speed(), self.speed)))
            if first is None:
                first, first_print = inputs, fingerprint(inputs.corpus)
            else:
                self.checks.expect(fingerprint(inputs.corpus) == first_print,
                                   "set-up made a different corpus from the same seed")
        self.inputs = first
        self.gen_config = self.work / "generator.json"
        self.gen_config.write_text(json.dumps({"generator": asdict(first.gen)}))
        self.eval_dir.mkdir()
        untrained = untrained_checkpoint(self.cfg, first.train_split)
        save_checkpoint(untrained, self.ckpt_path)
        self.expected_report = evaluate(untrained, first.hold_split, first.prompts).to_json()
        return times

    # -- tracing ------------------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.wrapped else nullcontext()

    @contextmanager
    def _wrappers(self, on: bool = True):
        """Install the layer wrappers for the body, unless already installed."""
        if not on or self.tracer is None or self.wrapped:
            yield
            return
        self.wrapped = True
        try:
            with layers.traced(self.tracer):
                yield
        finally:
            self.wrapped = False

    # -- training -----------------------------------------------------------

    def close_window(self) -> None:
        """Read the reference kernel and scale the steps timed since the last reading."""
        factor = scale(self.read_speed(), self.speed)
        self.steps.extend((batch, level, seconds, seconds * factor, traced)
                          for batch, level, seconds, traced in self.pending)
        self.pending.clear()
        self.window_start = clock()

    def train_once(self, rep: int, stop, traced: bool = False):
        """One training run, timed per step, until done or ``stop(steps, now)`` is true.

        A step's time runs from the end of the previous ``on_batch`` call to
        the start of this one. Commands and reference readings run from the
        callback, so they are not in any step's time.
        """
        entries: list[dict] = []
        resumed = None  # when the previous step's callback returned

        def on_batch(entry: dict) -> None:
            nonlocal resumed
            now = clock()
            if resumed is not None:
                self.pending.append((("train", rep, entry["batch"]), entry["level"],
                                     now - resumed, traced))
            entries.append(entry)
            if stop(len(entries), now):
                raise _Cut
            behind = self.command_seconds < self.workload.command_share * (now - self.start)
            if behind or now - self.window_start >= WINDOW_S:
                self.close_window()
            if behind:
                self.next_command()
            if self.tracer is not None:
                self.tracer.batch = ("train", rep, entry["batch"] + 1)
            # A step right after a command starts with cold caches: not a sample.
            resumed = None if behind else clock()

        gc.collect()
        if self.tracer is not None:
            self.tracer.batch = ("train", rep, 0)
        result = None
        self.close_window()
        with self._wrappers(traced):
            try:
                with self._span("trainer.train"):
                    result = train(self.cfg, self.inputs.train_split, on_batch=on_batch)
            except _Cut:
                pass
        self.close_window()
        self.checks.attempted += len(entries)
        if rep == 0:
            self.ref_log = result.log
            self.checks.expect(entries == result.log, "on_batch entries differ from the log")
        if result is None:
            self.checks.expect(entries == self.ref_log[:len(entries)],
                               f"training run {rep}: log differs from the first run")
        else:
            # The reference's evaluation is traced too: repeats in a traced
            # run are cut before they finish.
            with self._wrappers(traced or rep == 0):
                self.finish(rep, result)

    def finish(self, rep: int, result) -> None:
        """Evaluate and save a completed training run and compare it with the first."""
        if self.tracer is not None:
            self.tracer.batch = ("eval", rep)
        with self._span("zeroshot.evaluate"):
            report = evaluate(result.checkpoint, self.inputs.hold_split, self.inputs.prompts)
        with self._span("trainer.checkpoint_save") as span:
            save_checkpoint(result.checkpoint, self.ckpt_path)
        if span is not None:
            span.meta["bytes"] = self.ckpt_path.stat().st_size
        outputs = {
            "parameters": result.checkpoint.params.digest(),
            "log": result.log,
            "report": report.to_json(),
            "checkpoint": corpus_digest(self.ckpt_path),
        }
        if rep > 0:
            for key, value in outputs.items():
                self.checks.expect(value == self.ref[key],
                                   f"training run {rep}: {key} differs from the first run")
            return
        self.ref = outputs
        self.report = report
        self.expected_report = outputs["report"]
        chance = 1.0 / self.inputs.gen.num_classes
        self.checks.expect(report.accuracy > chance,
                           f"zero-shot top-1 {report.accuracy:.3f} not above chance")

    # -- commands -----------------------------------------------------------

    def next_command(self) -> None:
        index = len(self.commands["generate"]) + len(self.commands["eval"])
        if index % 2 == 0:
            self.command("generate", ["generate", "--config", str(self.gen_config),
                                      "--out", str(self.corpus_path)], index)
            sha = corpus_digest(self.corpus_path)
            self.corpus_sha = self.corpus_sha or sha
            self.checks.expect(sha == self.corpus_sha, "generate rewrote the corpus differently")
        else:
            self.command("eval", ["eval", "--checkpoint", str(self.ckpt_path),
                                  "--corpus", str(self.corpus_path),
                                  "--out", str(self.eval_dir)], index)
            report = (self.eval_dir / "report.json").read_text()
            self.checks.expect(report == self.expected_report,
                               "eval command report differs from the in-process evaluation")

    def command(self, name: str, argv: list[str], index: int) -> None:
        """Run one CLI command in process; the reading before it is the latest one."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        batch = self.tracer.batch if self.tracer is not None else None
        with self._wrappers():
            if self.tracer is not None:
                self.tracer.batch = ("command", index)
            with redirect_stdout(out), redirect_stderr(err):
                t0 = clock()
                with self._span(f"cli.{name}"):
                    code = hiercl.cli.main(argv)
                seconds = clock() - t0
        if self.tracer is not None:
            self.tracer.batch = batch
        self.commands[name].append((seconds, seconds * scale(self.read_speed(), self.speed)))
        self.command_seconds += seconds
        self.checks.expect(code == 0, f"hiercl {name} exited {code}: {err.getvalue().strip()}")

    # -- the whole run ------------------------------------------------------

    def execute(self) -> RunResult:
        setup_times = self.setup()
        self.start = clock()
        end = self.start + self.seconds
        # The reference run is never traced.
        self.train_once(0, stop=lambda steps, now: False)
        rep = 1
        if self.tracer is None:
            stop = lambda steps, now: now >= end and steps >= REPEAT_STEPS
            while rep == 1 or clock() < end:
                self.train_once(rep, stop)
                rep += 1
        else:
            end = max(end, clock() + TRACED_SHARE * self.seconds)
            stop = lambda steps, now: steps >= REPEAT_STEPS
            # Stop after an untraced repeat, so both sides get as many repeats.
            while rep <= 2 or clock() < end or rep % 2 == 0:
                self.train_once(rep, stop, traced=rep % 2 == 1)
                rep += 1
        while min(len(v) for v in self.commands.values()) < MIN_COMMANDS:
            self.next_command()
        return self.result(setup_times)

    def result(self, setup_times: list[tuple[float, float]]) -> RunResult:
        level_weights = Counter(e["level"] for e in self.ref_log)
        pairs = pairs_per_step(self.cfg)
        steps = [(level, scaled) for _, level, _, scaled, _ in self.steps]
        raw_steps = [(level, seconds) for _, level, seconds, _, _ in self.steps]
        step_ms = Timing.of([1e3 * s for _, s in steps])
        gen_ms = Timing.of([1e3 * s for _, s in self.commands["generate"]])
        eval_ms = Timing.of([1e3 * s for _, s in self.commands["eval"]])
        clips = f"{self.report.samples} held-out clips"
        end_to_end = {
            "setup_s": Figure(median([s for _, s in setup_times]), "s",
                              f"median of {len(setup_times)}"),
            "train_pairs_per_s": Figure(cycle_rate(steps, level_weights, pairs),
                                        "pairs/s", f"{step_ms.n} steps"),
            "step_ms_p50": Figure(step_ms.p50, "ms", f"{step_ms.n} steps"),
            "step_ms_p90": Figure(step_ms.p90, "ms",
                                  f"{step_ms.n} steps, {step_ms.beyond_p90} above"),
            "zeroshot_top1": Figure(self.report.accuracy, "fraction", clips),
            "zeroshot_macro_f1": Figure(self.report.macro_f1, "fraction", clips),
            "generate_cmd_ms_p50": Figure(gen_ms.p50, "ms", f"{gen_ms.n} commands"),
            "eval_cmd_ms_p50": Figure(eval_ms.p50, "ms", f"{eval_ms.n} commands"),
            "peak_rss_mb": Figure(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB", "whole run"),
        }
        # Not gated: fewer than ten commands lie above the command p90s, and
        # failed_ratio is 0 when all is well. The raw figures are the same
        # timings before scaling to reference speed.
        reference_ms = Timing.of([1e3 * s for s in self.reference])
        informational = {
            "generate_cmd_ms_p90": Figure(gen_ms.p90, "ms",
                                          f"{gen_ms.n} commands, {gen_ms.beyond_p90} above"),
            "eval_cmd_ms_p90": Figure(eval_ms.p90, "ms",
                                      f"{eval_ms.n} commands, {eval_ms.beyond_p90} above"),
            "failed_ratio": Figure(self.checks.failed / self.checks.attempted, "fraction",
                                   f"{self.checks.failed}/{self.checks.attempted} operations"),
            "raw.setup_s": Figure(median([s for s, _ in setup_times]), "s"),
            "raw.train_pairs_per_s": Figure(cycle_rate(raw_steps, level_weights, pairs),
                                            "pairs/s"),
            "raw.generate_cmd_ms_p50": Figure(
                median([1e3 * s for s, _ in self.commands["generate"]]), "ms"),
            "raw.eval_cmd_ms_p50": Figure(median([1e3 * s for s, _ in self.commands["eval"]]),
                                          "ms"),
            "reference_ms_p50": Figure(reference_ms.p50, "ms",
                                       f"{reference_ms.n} readings, "
                                       f"{min(self.reference) * 1e3:.3f} to "
                                       f"{max(self.reference) * 1e3:.3f}"),
        }
        per_layer = {}
        if self.tracer is not None:
            # Spans are raw times, so the per-layer figures use raw step times.
            traced = {b: (lv, s) for b, lv, s, _, t in self.steps if t}
            per_layer = layers.SpanSet(self.tracer.spans, traced, level_weights).metrics()
            # The reference run is left out: it ran before the alternation began.
            base = cycle_rate([(lv, s) for b, lv, _, s, t in self.steps if not t and b[1] > 0],
                              level_weights, pairs)
            rate = cycle_rate([(lv, s) for _, lv, _, s, t in self.steps if t],
                              level_weights, pairs)
            untraced_n = sum(1 for b, *_, t in self.steps if not t and b[1] > 0)
            per_layer["trace.untraced_pairs_per_s"] = Figure(
                base, "pairs/s", f"{untraced_n} untraced steps")
            per_layer["trace.traced_pairs_per_s"] = Figure(
                rate, "pairs/s", f"{len(traced)} traced steps")
            per_layer["trace.overhead_share"] = Figure(1.0 - rate / base, "fraction")
        return RunResult(end_to_end, informational, per_layer, self.checks)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    """Measure one workload; ``work`` is an empty scratch directory for its files."""
    return Run(WORKLOADS[name], seed, seconds, trace, work).execute()
