"""Encoder stacks: shapes, norms, pooling order, parameter plumbing."""
import numpy as np
import pytest

from hiercl.encoders import (
    EncoderDims,
    FrameStack,
    ModelParams,
    TokenSets,
    TokenStack,
    aggregated_text_rows,
    frame_rows,
    param_nodes,
    text_embedding_rows,
    visual_embedding_rows,
)
from hiercl.errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    ShapeError,
    VocabularyError,
)
from hiercl.numerics import Tape
from hiercl.seeding import substream

from eager import aggregate_texts, encode_segment, encode_text

DIMS = EncoderDims(d_in=6, d_tok=5, hidden=9, d_emb=4, vocab_size=40)


@pytest.fixture
def params():
    return ModelParams.initialize(DIMS, substream(42, "train"))


def test_dims_validation():
    with pytest.raises(ConfigError):
        EncoderDims(d_in=0)
    with pytest.raises(ConfigError):
        EncoderDims(vocab_size=0)


@pytest.mark.parametrize("field", ["d_in", "d_tok", "hidden", "d_emb", "vocab_size"])
@pytest.mark.parametrize("value", [8.0, 3.5, True, "8", None])
def test_dims_reject_non_integer(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        EncoderDims(**{field: value})


def test_initialize_shapes_and_zero_biases(params):
    blocks = dict(params.leaves())
    assert blocks["visual.w1"].shape == (6, 9)
    assert blocks["visual.w2"].shape == (9, 4)
    assert blocks["text.embed"].shape == (40, 5)
    assert blocks["text.w1"].shape == (5, 9)
    assert np.all(blocks["visual.b1"] == 0.0)
    assert np.all(blocks["text.b2"] == 0.0)
    assert params.dims.d_in == 6 and params.dims.d_emb == 4 and params.dims.vocab_size == 40


def test_initialize_digest_is_pinned():
    # Value from the release before parameters moved into one flat vector:
    # the same Glorot draws in the same block order give the same bits.
    params = ModelParams.initialize(EncoderDims(), substream(0, "train"))
    assert params.digest() == (
        "bceb37e7668a6980da499d048a3dad004852b955c9308e44f8278c57476915a3"
    )


def test_glorot_bound(params):
    limit = np.sqrt(6.0 / (6 + 9))
    w = dict(params.leaves())["visual.w1"]
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.1 * limit  # actually spread out, not degenerate


def test_initialize_is_deterministic():
    a = ModelParams.initialize(DIMS, substream(7, "train"))
    b = ModelParams.initialize(DIMS, substream(7, "train"))
    assert a.digest() == b.digest()
    c = ModelParams.initialize(DIMS, substream(8, "train"))
    assert a.digest() != c.digest()


def test_params_reject_nonfinite(params):
    blocks = dict(params.leaves())
    for name, value in (("visual.w1", np.nan), ("text.embed", np.inf), ("text.b2", -np.inf)):
        bad = blocks[name].copy()
        bad[-1, -1] = value
        with pytest.raises(ContractError, match=name):
            ModelParams.from_blocks(DIMS, {**blocks, name: bad})


def test_params_reject_inconsistent_shapes(params):
    blocks = dict(params.leaves())
    with pytest.raises(ShapeError, match="visual.w2"):
        ModelParams.from_blocks(DIMS, {**blocks, "visual.w2": np.zeros((8, 4))})
    with pytest.raises(ShapeError):
        ModelParams(DIMS, params.vector[:-1])


def test_from_blocks_replaces_and_validates(params):
    blocks = dict(params.leaves())
    new_w1 = np.ones((6, 9))
    updated = dict(ModelParams.from_blocks(DIMS, {**blocks, "visual.w1": new_w1}).leaves())
    assert np.array_equal(updated["visual.w1"], new_w1)
    assert np.array_equal(updated["text.embed"], blocks["text.embed"])
    with pytest.raises(ConfigError, match="unknown"):
        ModelParams.from_blocks(DIMS, {**blocks, "nonsense": new_w1})
    missing = dict(blocks)
    del missing["text.b1"]
    with pytest.raises(ConfigError, match="missing"):
        ModelParams.from_blocks(DIMS, missing)
    with pytest.raises(ShapeError):
        ModelParams.from_blocks(DIMS, {**blocks, "visual.w1": np.zeros((2, 2))})


def test_layout_tiles_the_vector(params):
    offset = 0
    for (name, m), block in zip(params.leaves(), DIMS.layout):
        assert (block.name, block.offset, (block.rows, block.cols)) == (name, offset, m.shape)
        assert np.shares_memory(m, params.vector)
        offset = block.stop
    assert offset == DIMS.size == params.vector.size


def test_leaves_and_vector_are_read_only(params):
    w1 = dict(params.leaves())["visual.w1"]
    with pytest.raises(ValueError):
        w1[0, 0] = 1.0
    with pytest.raises(ValueError):
        w1.reshape(-1)[0] = 1.0
    with pytest.raises(ValueError):
        params.vector[0] = 1.0


def test_every_leaf_is_a_read_only_view_of_the_vector(params):
    for name, a in params.leaves():
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 2, name
        assert not a.flags.writeable, name
        assert np.shares_memory(a, params.vector), name


def test_param_nodes_put_the_leaf_arrays_on_the_tape_uncopied(params):
    tape = Tape()
    nodes = param_nodes(tape, params)
    assert list(nodes) == [name for name, _ in params.leaves()]
    for name, a in params.leaves():
        assert nodes[name].value is a and nodes[name].needs_grad, name
        assert np.shares_memory(nodes[name].value, params.vector), name


def test_leaf_order_is_stable(params):
    names = [n for n, _ in params.leaves()]
    assert names == ["visual.w1", "visual.b1", "visual.w2", "visual.b2",
                     "text.embed", "text.w1", "text.b1", "text.w2", "text.b2"]


# ---------------------------------------------------------------------------
# Frame sampling
# ---------------------------------------------------------------------------


def column(n: int) -> np.ndarray:
    return np.arange(float(n)).reshape(n, 1)


def test_sample_frames_even_stride():
    (got,) = FrameStack.at(column(8), frame_rows([0], [8], 4))
    assert got.array[:, 0].tolist() == [0.0, 2.0, 4.0, 6.0]


def test_sample_frames_uneven_length():
    (got,) = FrameStack.at(column(5), frame_rows([0], [5], 4))
    assert got.array[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_sample_frames_repeats_when_short():
    (got,) = FrameStack.at(column(2), frame_rows([0], [2], 4))
    assert got.array[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_sample_frames_identity_when_exact():
    assert np.array_equal(FrameStack.at(column(4), frame_rows([0], [4], 4))[0].array, column(4))


def test_sample_frames_offsets_each_segment_by_its_start():
    # segments [2, 7) and [0, 2) of one table, in that order, as one stacked array
    stack = FrameStack.at(column(9), frame_rows([2, 0], [5, 2], 4))
    assert stack.array[:, 0].tolist() == [2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 1.0, 1.0]
    assert stack.lengths.tolist() == [4, 4]
    assert [m.array[:, 0].tolist() for m in stack] == [[2.0, 3.0, 4.0, 5.0],
                                                       [0.0, 0.0, 1.0, 1.0]]
    assert np.array_equal(stack[-1].array, stack[1].array)
    with pytest.raises(IndexError):
        stack[2]


def test_sample_frames_errors():
    with pytest.raises(EmptyInputError):
        frame_rows([0], [0], 2)
    with pytest.raises(EmptyInputError):
        frame_rows([], [], 2)
    with pytest.raises(ConfigError):
        frame_rows([0], [3], 0)


# ---------------------------------------------------------------------------
# Hand-built frame stacks
# ---------------------------------------------------------------------------


def test_frame_stack_array_is_read_only():
    stack = FrameStack.of([[[1.0, 2.0]], np.zeros((2, 2))])
    for frames in (stack, stack[0], stack[1]):
        with pytest.raises(ValueError):
            frames.array[0, 0] = 5.0


def test_frame_stack_of_copies_its_input():
    src = np.ones((2, 2))
    stack = FrameStack.of([src])
    src[0, 0] = 7.0
    assert stack.array[0, 0] == 1.0
    assert src.flags.writeable


def test_frame_stack_of_rejects_a_segment_not_2d():
    with pytest.raises(EmptyInputError):
        FrameStack.of([])
    with pytest.raises(ShapeError, match="must be 2-D, got 1-D"):
        FrameStack.of([np.zeros(3)])
    with pytest.raises(ShapeError, match="must be 2-D, got 3-D"):
        FrameStack.of([np.zeros((2, 2)), np.zeros((2, 2, 2))])
    with pytest.raises(ShapeError, match=r"different widths: \[2, 3\]"):
        FrameStack.of([np.zeros((2, 3)), np.zeros((1, 2))])


def test_frame_stack_of_makes_float64():
    stack = FrameStack.of([np.array([[1, 2, 3]]), [[4, 5, 6], [7, 8, 9]]])
    assert stack.array.dtype == np.float64 and stack.array.shape == (3, 3)
    assert stack.lengths.tolist() == [1, 2] and stack.rows == 3
    assert stack[1].array.tolist() == [[4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]


def test_frame_stack_items_pass_back_through_of():
    stack = FrameStack.at(column(9), frame_rows([2, 0, 5], [5, 2, 4], 3))
    assert FrameStack.of(stack) is stack
    item = stack[1]
    assert len(item) == 1 and item.rows == 3 and item.lengths.tolist() == [3]
    again = FrameStack.of([item])
    assert again.array.tolist() == item.array.tolist() and again.lengths.tolist() == [3]
    mixed = FrameStack.of([stack[2], column(2), stack])
    assert mixed.lengths.tolist() == [3, 2, 3, 3, 3]
    assert np.array_equal(mixed.array, np.vstack([stack[2].array, column(2), stack.array]))



SLICES = [slice(0, 1), slice(1, None), slice(None, None, -1), slice(None, None, 2),
          slice(-2, None), slice(5, 9), slice(2, 0)]


@pytest.mark.parametrize("sl", SLICES, ids=str)
def test_frame_stack_slice_is_a_frame_stack_of_the_sliced_segments(sl):
    # a slice once raised a raw TypeError, though FrameStack is a Sequence
    stack = FrameStack.at(column(9), frame_rows([2, 0, 5, 1], [5, 2, 4, 3], 3))
    stack = FrameStack.of([stack[0], column(2), stack[2], stack[3]])
    got, want = stack[sl], list(stack)[sl]
    assert type(got) is FrameStack and len(got) == len(want)
    assert got.lengths.tolist() == [item.rows for item in want]
    assert [item.array.tolist() for item in got] == [item.array.tolist() for item in want]
    assert got.array.shape == (sum(item.rows for item in want), 1)
    assert not got.array.flags.writeable

# ---------------------------------------------------------------------------
# Encoding semantics
# ---------------------------------------------------------------------------


def _manual_visual(frames: np.ndarray, p: ModelParams) -> np.ndarray:
    b = dict(p.leaves())
    h = np.maximum(frames @ b["visual.w1"] + b["visual.b1"], 0.0)
    enc = h @ b["visual.w2"] + b["visual.b2"]
    pooled = enc.mean(axis=0)
    return pooled / np.linalg.norm(pooled)


def test_encode_segment_matches_manual_forward(params):
    rng = np.random.default_rng(0)
    for _ in range(20):
        frames = rng.standard_normal((rng.integers(1, 7), 6))
        got = encode_segment(frames, params)[0]
        assert np.allclose(got, _manual_visual(frames, params), atol=1e-12)


def test_pooling_happens_before_normalization(params):
    # two frames pointing in different directions: pooling raw encodings then
    # normalizing differs from normalizing each frame embedding first
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((2, 6))
    got = encode_segment(frames, params)[0]
    per_frame = [_manual_visual(frames[i:i + 1], params) for i in range(2)]
    wrong = np.mean(per_frame, axis=0)
    wrong /= np.linalg.norm(wrong)
    assert not np.allclose(got, wrong, atol=1e-6)


def test_embeddings_are_unit_norm(params):
    rng = np.random.default_rng(2)
    for _ in range(100):
        frames = rng.standard_normal((rng.integers(1, 10), 6))
        v = encode_segment(frames, params)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        tokens = rng.integers(0, 40, rng.integers(1, 12)).tolist()
        t = encode_text(tokens, params)
        assert abs(np.linalg.norm(t) - 1.0) < 1e-12


def test_encode_text_is_order_invariant(params):
    rng = np.random.default_rng(3)
    for _ in range(100):
        tokens = rng.integers(0, 40, rng.integers(2, 10)).tolist()
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        a = encode_text(tokens, params)
        b = encode_text(shuffled, params)
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_encode_text_depends_on_multiset(params):
    a = encode_text([1, 2, 3], params)
    b = encode_text([1, 2, 4], params)
    assert not np.allclose(a, b, rtol=0.0, atol=1e-6)


def test_encode_text_vocabulary_error_names_token(params):
    with pytest.raises(VocabularyError, match="99"):
        encode_text([1, 99], params)
    with pytest.raises(EmptyInputError):
        encode_text([], params)


def test_encode_segment_width_mismatch(params):
    with pytest.raises(ShapeError):
        encode_segment(np.zeros((3, 5)), params)
    tape = Tape()
    with pytest.raises(ShapeError, match="different widths"):
        visual_embedding_rows(tape, param_nodes(tape, params),
                              [np.zeros((3, 6)), np.zeros((2, 5))])


def test_aggregate_texts_matches_mean_of_embeddings(params):
    rng = np.random.default_rng(4)
    for _ in range(20):
        texts = [rng.integers(0, 40, rng.integers(2, 8)).tolist()
                 for _ in range(rng.integers(1, 5))]
        got = aggregate_texts(texts, params)[0]
        members = np.vstack([encode_text(t, params) for t in texts])
        want = members.mean(axis=0)
        want /= np.linalg.norm(want)
        assert np.allclose(got, want, atol=1e-12)


def test_aggregate_single_text_is_identity(params):
    text = [5, 6, 7]
    assert np.allclose(aggregate_texts([text], params), encode_text(text, params),
                       rtol=0.0, atol=1e-12)


def test_aggregate_duplicate_text_is_identity(params):
    text = [5, 6, 7]
    got = aggregate_texts([text, text, text], params)
    assert np.allclose(got, encode_text(text, params), rtol=0.0, atol=1e-12)


def test_fused_and_ragged_text_paths_agree(params):
    # a text embeds the same whether its batch has equal or mixed lengths,
    # and a text set aggregates the same beside sets of equal or other sizes
    rng = np.random.default_rng(5)

    texts_equal = [rng.integers(0, 40, 6).tolist() for _ in range(3)]
    tape = Tape()
    fused = text_embedding_rows(tape, param_nodes(tape, params), texts_equal).value
    ragged_input = texts_equal + [rng.integers(0, 40, 4).tolist()]
    tape2 = Tape()
    ragged = text_embedding_rows(tape2, param_nodes(tape2, params), ragged_input).value
    assert np.allclose(fused, ragged[:3], atol=1e-12)

    sets_equal = [[rng.integers(0, 40, 6).tolist() for _ in range(2)] for _ in range(3)]
    tape3 = Tape()
    fused_sets = aggregated_text_rows(tape3, param_nodes(tape3, params), sets_equal).value
    mixed_sets = sets_equal + [[rng.integers(0, 40, n).tolist() for n in (3, 9, 5)],
                               [rng.integers(0, 40, 2).tolist()]]
    tape4 = Tape()
    mixed = aggregated_text_rows(tape4, param_nodes(tape4, params), mixed_sets).value
    assert np.allclose(fused_sets, mixed[:3], atol=1e-12)
    for i, ts in enumerate(mixed_sets):
        assert np.allclose(mixed[i], aggregate_texts(ts, params)[0], atol=1e-12)


def _stack(table, starts, lengths) -> TokenStack:
    table = np.array(table, dtype=np.intp)
    table.setflags(write=False)
    return TokenStack(table, np.array(starts, dtype=np.intp), np.array(lengths, dtype=np.intp))


def test_token_stack_reads_as_a_sequence_of_its_runs():
    stack = _stack([7, 8, 9, 10, 11, 12], [4, 0, 1], [2, 3, 1])
    assert len(stack) == 3
    assert list(stack) == [(11, 12), (7, 8, 9), (8,)]
    assert stack[-1] == (8,) and stack[-3] == (11, 12)
    assert all(type(t) is int for t in stack[0])
    for bad in (3, -4):
        with pytest.raises(IndexError):
            stack[bad]
    assert "ids" not in vars(stack)  # nothing gathered until read
    assert stack.ids.tolist() == [11, 12, 7, 8, 9, 8]
    assert not stack.ids.flags.writeable
    assert stack.ids is stack.ids  # gathered once


def test_token_stack_of_flattens_nested_texts_once():
    stack = TokenStack.of([(3, 1), [4], (1, 5, 9)])
    assert TokenStack.of(stack) is stack
    assert list(stack) == [(3, 1), (4,), (1, 5, 9)]
    assert stack.ids is stack.table and stack.table.tolist() == [3, 1, 4, 1, 5, 9]
    assert stack.lengths.tolist() == [2, 1, 3] and stack.starts.tolist() == [0, 2, 3]
    assert not stack.table.flags.writeable
    empty = TokenStack.of([])
    assert len(empty) == 0 and empty.ids.size == 0


def test_token_stack_plus_concatenates_runs_of_one_table():
    a = _stack([7, 8, 9, 10, 11, 12], [4, 0], [2, 3])
    b = TokenStack(a.table, np.array([3], dtype=np.intp), np.array([1], dtype=np.intp))
    joined = a + b
    assert joined.table is a.table
    assert list(joined) == [(11, 12), (7, 8, 9), (10,)]
    assert joined.ids.tolist() == [11, 12, 7, 8, 9, 10]
    # another table, or plain tuples: one copy of the texts
    other = _stack([7, 8, 9, 10, 11, 12], [3], [1])
    for mixed in (a + other, a + ((10,),)):
        assert isinstance(mixed, TokenStack)
        assert mixed.table is not a.table
        assert list(mixed) == list(joined)
        assert mixed.ids.tolist() == joined.ids.tolist()


def test_token_sets_read_as_sequences_of_their_members():
    members = _stack([1, 2, 3, 4, 5], [0, 2, 3, 1], [2, 1, 2, 1])
    sets = TokenSets(members, np.array([1, 3], dtype=np.intp))
    assert len(sets) == 2
    assert list(sets) == [((1, 2),), ((3,), (4, 5), (2,))]
    assert sets[-2] == ((1, 2),)
    for bad in (2, -3):
        with pytest.raises(IndexError):
            sets[bad]
    assert TokenSets.of(sets) is sets
    nested = TokenSets.of([[(1, 2)], [(3,), (4, 5), (2,)]])
    assert list(nested) == list(sets)
    assert nested.sizes.tolist() == [1, 3]
    assert nested.members.ids.tolist() == members.ids.tolist()


@pytest.mark.parametrize("sl", SLICES, ids=str)
def test_token_stack_and_sets_slices_hold_the_sliced_items(sl):
    # a slice once raised a raw TypeError, though both are Sequences
    stack = _stack([7, 8, 9, 10, 11, 12], [4, 0, 1, 3, 2], [2, 3, 1, 2, 1])
    got = stack[sl]
    assert type(got) is TokenStack and got.table is stack.table
    assert list(got) == list(stack)[sl]
    assert got.ids.tolist() == [t for text in list(stack)[sl] for t in text]
    members = _stack([1, 2, 3, 4, 5], [0, 2, 3, 1, 4, 0], [2, 1, 2, 1, 1, 1])
    lazy = TokenSets.spread(members, np.array([0, 1, 4], dtype=np.intp),
                            np.array([1, 3, 2], dtype=np.intp), np.array([1, 3, 2], dtype=np.intp))
    for sets in (TokenSets(members, np.array([1, 3, 2], dtype=np.intp)), lazy):
        got = sets[sl]
        assert type(got) is TokenSets and list(got) == list(sets)[sl]
        assert got.sizes.tolist() == [len(ts) for ts in list(sets)[sl]]


def test_token_columns_encode_as_their_nested_texts(params):
    stack = _stack(np.arange(40)[::-1], [3, 10, 0, 22], [4, 1, 7, 2])
    sets = TokenSets(stack, np.array([3, 1], dtype=np.intp))
    tape = Tape()
    pn = param_nodes(tape, params)
    for encode, column in ((text_embedding_rows, stack), (aggregated_text_rows, sets)):
        got = encode(tape, pn, column).value
        want = encode(tape, pn, [list(item) for item in column]).value
        assert got.tobytes() == want.tobytes()


def test_tape_length_does_not_grow_with_item_count(params):
    # one pass per batch: a per-item loop would add nodes for every item
    rng = np.random.default_rng(6)

    def nodes(encode, items):
        tape = Tape()
        encode(tape, param_nodes(tape, params), items)
        return len(tape)

    def texts(n):
        return [rng.integers(0, 40, rng.integers(1, 12)).tolist() for _ in range(n)]

    def segments(n):
        return [rng.standard_normal((rng.integers(1, 9), 6)) for _ in range(n)]

    assert nodes(text_embedding_rows, texts(3)) == nodes(text_embedding_rows, texts(300))
    assert nodes(visual_embedding_rows, segments(3)) == nodes(visual_embedding_rows, segments(300))


def test_digest_reflects_values(params):
    d0 = params.digest()
    blocks = dict(params.leaves())
    bumped = ModelParams.from_blocks(
        DIMS, {**blocks, "visual.b2": blocks["visual.b2"] + 1e-9}
    )
    assert bumped.digest() != d0
    assert params.digest() == d0  # unchanged original
