"""One-item encoders for tests: a batch encoder on a throwaway tape, for one item."""
from hiercl.encoders import (
    aggregated_text_rows,
    param_nodes,
    text_embedding_rows,
    visual_embedding_rows,
)
from hiercl.numerics import Matrix, Tape


def _one(encode_rows, item, params) -> Matrix:
    tape = Tape()
    return Matrix(encode_rows(tape, param_nodes(tape, params), [item]).value)


def encode_segment(frames: Matrix, params) -> Matrix:
    """Unit-norm visual embedding (1 x d_emb) of one frame segment."""
    return _one(visual_embedding_rows, frames, params)


def encode_text(tokens, params) -> Matrix:
    """Unit-norm textual embedding (1 x d_emb) of one token sequence."""
    return _one(text_embedding_rows, tokens, params)


def aggregate_texts(texts, params) -> Matrix:
    """Unit-norm mean of the individual text embeddings (1 x d_emb)."""
    return _one(aggregated_text_rows, list(texts), params)
