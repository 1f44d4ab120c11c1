"""Hand-built corpora for tests: video records written as corpus lines, read by `load_corpus`."""
import base64
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from hiercl.corpus import SCHEMA, load_corpus


def header_line(config) -> str:
    """A corpus file's first line, as save_corpus writes it."""
    return json.dumps({"schema": SCHEMA, "config": asdict(config)}) + "\n"


def record_line(video) -> str:
    """A video's line as save_corpus writes it, from its records."""
    return json.dumps({
        "video_id": video.video_id,
        "clips": [{"id": c.clip_id,
                   "frames": base64.b64encode(c.frames.array.astype("<f8").tobytes()).decode(),
                   "narration_a": c.narration_a, "narration_b": c.narration_b}
                  for c in video.clips],
        "phases": [{"start": p.start, "end": p.end, "concept": p.concept, "class": p.phase_class}
                   for p in video.phases],
        "abstract": video.abstract,
    }) + "\n"


def load_records(config, videos, path=None):
    """The corpus of `config` and video records, written to `path` (else a temporary
    file) and read back by `load_corpus`, which checks every line."""
    if path is None:
        with tempfile.TemporaryDirectory() as tmp:
            return load_records(config, videos, Path(tmp) / "c.jsonl")
    Path(path).write_text(header_line(config) + "".join(map(record_line, videos)))
    return load_corpus(path)
