"""One-item encoders for tests: a batch encoder on a throwaway tape, for one item."""
import numpy as np

from hiercl.encoders import (
    aggregated_text_rows,
    param_nodes,
    text_embedding_rows,
    visual_embedding_rows,
)
from hiercl.numerics import Tape


def _one(encode_rows, item, params) -> np.ndarray:
    tape = Tape()
    return encode_rows(tape, param_nodes(tape, params), [item]).value


def encode_segment(frames, params) -> np.ndarray:
    """Unit-norm visual embedding (1 x d_emb) of one frame segment: a 2-D array or FrameStack."""
    return _one(visual_embedding_rows, frames, params)


def encode_text(tokens, params) -> np.ndarray:
    """Unit-norm textual embedding (1 x d_emb) of one token sequence."""
    return _one(text_embedding_rows, tokens, params)


def aggregate_texts(texts, params) -> np.ndarray:
    """Unit-norm mean of the individual text embeddings (1 x d_emb)."""
    return _one(aggregated_text_rows, list(texts), params)
