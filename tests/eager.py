"""One-item encoders for tests, each a batch encoder on a throwaway tape, and an identity model."""
import numpy as np

from hiercl.encoders import (
    EncoderDims,
    ModelParams,
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


def identity_params(d: int) -> ModelParams:
    """Both encoders as identity maps over nonnegative inputs: identity weights, zero biases,
    one-hot token table."""
    eye = np.eye(d)
    zero_bias = np.zeros((1, d))
    return ModelParams.from_blocks(
        EncoderDims(d_in=d, d_tok=d, hidden=d, d_emb=d, vocab_size=d),
        {"visual.w1": eye, "visual.b1": zero_bias, "visual.w2": eye, "visual.b2": zero_bias,
         "text.embed": eye, "text.w1": eye, "text.b1": zero_bias, "text.w2": eye,
         "text.b2": zero_bias},
    )
