"""Hand-built corpora for tests: video records written as corpus lines, read by `load_corpus`."""
import base64
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from hiercl.corpus import SCHEMA, load_corpus


def header_line(config) -> str:
    """A corpus file's first line, as save_corpus writes it."""
    return json.dumps({"schema": SCHEMA, "config": asdict(config)}) + "\n"


def payload(video) -> bytes:
    """The bytes a video's line encodes: its clips' frame rows, then its texts' token ids."""
    texts = ([c.narration_a for c in video.clips], [c.narration_b for c in video.clips],
             [p.concept for p in video.phases], [video.abstract])
    ids = [t for kind in texts for text in kind for t in text]
    return b"".join([*(c.frames.array.astype("<f8").tobytes() for c in video.clips),
                     np.array(ids, dtype="<i8").tobytes()])


def record_line(video) -> str:
    """A video's line as save_corpus writes it, from its records."""
    return json.dumps({
        "video_id": video.video_id,
        "clips": [{"id": c.clip_id, "rows": c.frames.rows,
                   "narration_a": len(c.narration_a), "narration_b": len(c.narration_b)}
                  for c in video.clips],
        "phases": [{"start": p.start, "end": p.end, "concept": len(p.concept),
                    "class": p.phase_class} for p in video.phases],
        "abstract": len(video.abstract),
        "payload": base64.b64encode(payload(video)).decode(),
    }) + "\n"


def load_records(config, videos, path=None):
    """The corpus of `config` and video records, written to `path` (else a temporary
    file) and read back by `load_corpus`, which checks every line."""
    if path is None:
        with tempfile.TemporaryDirectory() as tmp:
            return load_records(config, videos, Path(tmp) / "c.jsonl")
    Path(path).write_text(header_line(config) + "".join(map(record_line, videos)))
    return load_corpus(path)
