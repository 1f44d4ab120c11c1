"""Matrix ops, the gradient tape, and the finite-difference harness."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiercl.errors import (
    ConfigError,
    ContractError,
    DegenerateEmbeddingError,
    EmptyInputError,
    NumericError,
    ShapeError,
)
from hiercl.numerics import Matrix, Tape, finite_diff_check


def rand(rng, r, c):
    return Matrix(rng.standard_normal((r, c)))


def flatten(leaves: dict[str, Matrix]):
    """The leaves as one flat vector, and the (name, offset, rows, cols) blocks tiling it."""
    blocks, offset = [], 0
    for name, m in leaves.items():
        blocks.append((name, offset, m.rows, m.cols))
        offset += m.rows * m.cols
    return np.concatenate([m.data for m in leaves.values()]), blocks


def tape_fn(build, blocks):
    """loss_and_grad over a flat vector: each block becomes a leaf, build(tape, nodes) the loss."""
    def f(x):
        t = Tape()
        nodes = {name: t.leaf(Matrix(x[o:o + r * c].reshape(r, c))) for name, o, r, c in blocks}
        loss = build(t, nodes)
        return float(loss.value[0, 0]), t.backward(loss, list(nodes.values()))
    return f


def tape_check(build, leaves: dict[str, Matrix], **kwargs) -> float:
    """finite_diff_check of the tape loss build(tape, nodes) at the given leaves."""
    x, blocks = flatten(leaves)
    return finite_diff_check(tape_fn(build, blocks), x, blocks, **kwargs)


# ---------------------------------------------------------------------------
# Matrix basics
# ---------------------------------------------------------------------------


def test_matrix_is_immutable():
    m = Matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


def test_matrix_copies_its_input():
    src = np.ones((2, 2))
    m = Matrix(src)
    src[0, 0] = 7.0
    assert m.array[0, 0] == 1.0


def test_matrix_rejects_non_2d():
    with pytest.raises(ShapeError):
        Matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        Matrix(np.zeros((2, 2, 2)))


def test_constructors():
    assert Matrix.identity(3).array.tolist() == np.eye(3).tolist()
    assert Matrix.zeros(2, 4).shape == (2, 4)
    assert Matrix(np.array([[1, 2, 3]])).shape == (1, 3)
    assert Matrix([[1, 2], [3, 4]]).array[1].tolist() == [3.0, 4.0]


def test_same_values_is_bit_exact():
    a = Matrix([[0.1 + 0.2]])
    b = Matrix([[0.3]])
    assert not a.same_values(b)
    assert a.allclose(b, tol=1e-15)


# ---------------------------------------------------------------------------
# Tape op values against plain numpy
# ---------------------------------------------------------------------------


def value(op, *inputs, **kwargs):
    """The output array of one tape op applied to constant Matrix inputs."""
    t = Tape()
    return op(t, *(t.constant(m) for m in inputs), **kwargs).value


def test_matmul_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rand(rng, 3, 5), rand(rng, 5, 2)
        assert np.allclose(value(Tape.matmul, a, b), a.array @ b.array)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2x3 @ 2x3"):
        value(Tape.matmul, Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_add_broadcasts_single_row():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    bias = Matrix([[10.0, 20.0]])
    assert value(Tape.add, a, bias).tolist() == [[11.0, 22.0], [13.0, 24.0]]


def test_add_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        value(Tape.add, Matrix.zeros(2, 2), Matrix.zeros(3, 2))


def test_elementwise_ops():
    rng = np.random.default_rng(1)
    a = rand(rng, 4, 3)
    assert np.allclose(value(Tape.scale, a, c=-2.5), -2.5 * a.array)
    assert np.allclose(value(Tape.relu, a), np.maximum(a.array, 0.0))
    pos = Matrix(np.abs(a.array) + 0.1)
    assert np.allclose(value(Tape.log, pos), np.log(pos.array))


def test_l2_normalize_unit_norms():
    m = value(Tape.l2_normalize_rows, Matrix([[1.0, 1.0, 1.0]]))
    assert np.allclose(m, 1.0 / np.sqrt(3.0))
    assert abs(m[0, 0] - 0.5773502691896258) < 1e-15


def test_l2_normalize_degenerate_row_names_index():
    m = Matrix([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="row 1"):
        value(Tape.l2_normalize_rows, m)


def test_segment_mean_equal_lengths():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert value(Tape.segment_mean, m, lengths=[2]).tolist() == [[2.0, 3.0]]
    rng = np.random.default_rng(4)
    m = rand(rng, 12, 5)
    got = value(Tape.segment_mean, m, lengths=[4, 4, 4])
    for g in range(3):
        assert np.allclose(got[g], m.array[4 * g:4 * (g + 1)].mean(axis=0))
    with pytest.raises(EmptyInputError):
        value(Tape.segment_mean, Matrix(np.zeros((0, 2))), lengths=[])


def test_segment_mean_mixed_lengths():
    m = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    got = value(Tape.segment_mean, m, lengths=[1, 3, 2])
    assert got.tolist() == [[1.0, 2.0], [5.0, 6.0], [10.0, 11.0]]


def test_segment_mean_rejects_lengths_that_do_not_partition_rows():
    for lengths in ([4, 4], [4, 4, 4], [3, 3, 3, 3], [12, 1]):
        with pytest.raises(ShapeError, match="sum to"):
            value(Tape.segment_mean, Matrix.zeros(10, 2), lengths=lengths)
    with pytest.raises(EmptyInputError):
        value(Tape.segment_mean, Matrix.zeros(10, 2), lengths=[5, 0, 5])


_segments = st.lists(st.integers(1, 40), min_size=1, max_size=6).flatmap(
    lambda lengths: st.tuples(
        st.just(lengths),
        arrays(np.float64, (sum(lengths), 3),
               elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
    )
)


@settings(max_examples=60, deadline=None)
@given(_segments)
def test_segment_mean_matches_per_segment_loop(case):
    lengths, rows = case
    got = value(Tape.segment_mean, Matrix(rows), lengths=lengths)
    starts = np.cumsum(lengths) - lengths
    for i, (a, n) in enumerate(zip(starts, lengths)):
        seg = rows[a:a + n]
        # A segment's mean does not depend on the other segments beside it.
        assert np.array_equal(got[i], value(Tape.segment_mean, Matrix(seg), lengths=[n])[0])
        # reduceat adds the first row to a pairwise sum of the rest, while
        # sum(axis=0) adds the rows one by one: the two agree to within the
        # float64 error bound of an n-term sum, and exactly for n <= 2.
        want = seg.sum(axis=0) / n
        bound = 2 * n * np.finfo(np.float64).eps * np.abs(seg).mean(axis=0)
        assert np.all(np.abs(got[i] - want) <= bound)
        if n <= 2:
            assert np.array_equal(got[i], want)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_segment_mean_gradient_matches_finite_differences(lengths, seed):
    rng = np.random.default_rng(seed)
    left, right = rand(rng, 2, len(lengths)), rand(rng, 3, 2)

    def build(t, n):
        pooled = t.segment_mean(t.l2_normalize_rows(n["x"]), lengths)
        return t.sum_all(t.matmul(t.matmul(t.constant(left), pooled), t.constant(right)))

    leaves = {"x": Matrix(np.random.default_rng(seed + 1).standard_normal((sum(lengths), 3)))}
    assert tape_check(build, leaves, seed=seed) < 1e-6


def test_concat_and_gather():
    a = Matrix([[1.0, 2.0]])
    b = Matrix([[3.0, 4.0], [5.0, 6.0]])
    t = Tape()
    cat = t.concat_rows([t.constant(a), t.constant(b)])
    assert cat.value.shape == (3, 2)
    assert t.gather_rows(cat, [2, 0]).value.tolist() == [[5.0, 6.0], [1.0, 2.0]]
    with pytest.raises(ShapeError):
        t.gather_rows(cat, [3])
    with pytest.raises(EmptyInputError):
        t.gather_rows(cat, [])
    with pytest.raises(ShapeError, match="column counts differ"):
        t.concat_rows([cat, t.constant(Matrix.zeros(1, 3))])
    with pytest.raises(EmptyInputError):
        t.concat_rows([])


def test_sum_all():
    assert value(Tape.sum_all, Matrix([[1.0, 2.0], [3.0, 4.0]])).tolist() == [[10.0]]


# ---------------------------------------------------------------------------
# Tape: forward values match numpy, backward matches finite differences
# ---------------------------------------------------------------------------


def test_tape_forward_equals_eager():
    # the tape's values are bit-equal to the same numpy expression evaluated directly
    rng = np.random.default_rng(5)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    t = Tape()
    na, nb = t.leaf(a), t.leaf(b)
    out = t.relu(t.matmul(na, nb))
    assert np.array_equal(out.value, np.maximum(a.array @ b.array, 0.0))


def test_node_values_are_read_only():
    t = Tape()
    x = t.leaf(Matrix([[1.0, -2.0]]))
    for node in (x, t.relu(x), t.sum_all(x), t.matched_prob(x, x, 0.5)[0]):
        assert node.value.dtype == np.float64
        with pytest.raises(ValueError):
            node.value[0, 0] = 5.0


def test_backward_requires_scalar():
    t = Tape()
    x = t.leaf(Matrix.zeros(2, 2))
    with pytest.raises(ContractError):
        t.backward(x, [x])


def test_backward_zero_for_untouched_leaf():
    t = Tape()
    x = t.leaf(Matrix([[1.0, 2.0]]))
    unused = t.leaf(Matrix([[3.0, 4.0], [5.0, 6.0]]))
    loss = t.sum_all(t.matmul(x, t.constant(Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))))
    # one flat vector, each leaf's gradient row-major in the order asked for
    assert t.backward(loss, [x, unused]).tolist() == [6.0, 15.0, 0.0, 0.0, 0.0, 0.0]
    assert t.backward(loss, [unused, x]).tolist() == [0.0, 0.0, 0.0, 0.0, 6.0, 15.0]


def _tape_loss(t, n):
    """A deliberately gnarly composite touching every differentiable op."""
    h = t.relu(t.add(t.matmul(n["x"], n["w"]), n["b"]))
    h = t.l2_normalize_rows(h)
    p, _ = t.matched_prob(h, n["t"], 0.3)
    pooled = t.segment_mean(n["x"], [2, 2])
    q, _ = t.matched_prob(pooled, pooled, 1.0)
    extra = t.sum_all(t.log(q))
    return t.add(t.scale(t.sum_all(t.log(p)), -0.5), t.scale(extra, 0.01))


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    leaves = {
        "x": rand(rng, 4, 3),
        "w": rand(rng, 3, 5),
        "b": Matrix(rng.standard_normal((1, 5))),
        "t": rand(rng, 4, 5),
    }
    assert tape_check(_tape_loss, leaves, max_coords_per_block=20, seed=0) < 1e-6


def test_gather_rows_gradient_accumulates_duplicates():
    rng = np.random.default_rng(7)
    weights = rand(rng, 4, 2)

    def build(t, n):
        return t.sum_all(t.matmul(t.gather_rows(n["x"], [0, 0, 1]), t.constant(weights)))

    leaves = {"x": rand(rng, 3, 4)}
    assert tape_check(build, leaves, seed=1) < 1e-8
    # row 0 is gathered twice, so its gradient is doubled
    x, blocks = flatten(leaves)
    grad = tape_fn(build, blocks)(x)[1].reshape(3, 4)
    row = weights.array.sum(axis=1)
    assert np.allclose(grad, [2.0 * row, row, np.zeros(4)])


def test_concat_rows_gradient_splits():
    rng = np.random.default_rng(8)
    left = rand(rng, 2, 6)  # a distinct weight per row, so a misplaced split shows

    def build(t, n):
        return t.sum_all(t.matmul(t.constant(left), t.concat_rows([n["a"], n["b"]])))

    leaves = {"a": rand(rng, 2, 3), "b": rand(rng, 4, 3)}
    assert tape_check(build, leaves, seed=2) < 1e-8


def test_tape_records_are_in_creation_order():
    t = Tape()
    x = t.leaf(Matrix([[1.0]]))
    y = t.relu(x)
    z = t.log(y)
    assert x.nid < y.nid < z.nid


# ---------------------------------------------------------------------------
# matched_prob: the fused diag(softmax(q t^T / tau)) op
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b, d", [(1, 3), (2, 16), (5, 64), (33, 16), (120, 16)])
def test_matched_prob_forward_is_bit_equal_to_numpy(b, d):
    rng = np.random.default_rng(b * d)
    q, tg, tau = rng.standard_normal((b, d)), rng.standard_normal((b, d)), 0.07
    t = Tape()
    p, sims = t.matched_prob(t.leaf(Matrix(q)), t.constant(Matrix(tg)), tau)
    # q @ tg.T through a transposed view may round differently in BLAS; the op
    # multiplies by the contiguous transpose, as the reference does here.
    want_sims = q @ np.ascontiguousarray(tg.T)
    z = want_sims / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    want = np.diag(e / e.sum(axis=1, keepdims=True))
    assert np.array_equal(sims, want_sims)
    assert p.value.shape == (1, b)
    assert np.array_equal(p.value[0], want)


def matched(q, t, tau):
    """matched_prob's 1xB probabilities for constant query and target rows."""
    tape = Tape()
    return tape.matched_prob(tape.constant(Matrix(q)), tape.constant(Matrix(t)), tau)[0].value


def test_softmax_rows_sum_to_one():
    # Across every cyclic shift of the targets, row i is matched once with
    # each target, so its matched probabilities cover its whole softmax row.
    rng = np.random.default_rng(2)
    q, t = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    total = sum(matched(q, np.roll(t, -s, axis=0), 0.5) for s in range(6))
    assert np.allclose(total, 1.0)


def test_softmax_sharpens_with_small_tau():
    p = matched([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 0.1)
    assert np.all(p > 0.9999)


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(3)
    q, t = rng.standard_normal((4, 7)), rng.standard_normal((4, 7))
    tau = 0.07
    e = np.exp(q @ t.T / tau)
    want = np.diag(e / e.sum(axis=1, keepdims=True))
    assert np.allclose(matched(q, t, tau)[0], want, atol=1e-12)


def test_softmax_is_stable_for_large_logits():
    # Logits of 1000 and 999 at tau 1, and of 1000 and 0 at tau 1e-3, would
    # overflow exp without the per-row max subtraction.
    p = matched([[1.0, 0.0], [0.0, 1.0]], [[1000.0, 0.0], [999.0, 0.0]], 1.0)
    assert np.all(np.isfinite(p))
    assert np.allclose(p, [[1.0 / (1.0 + np.exp(-1.0)), 0.5]])
    p = matched([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 1e-3)
    assert np.array_equal(p, [[1.0, 1.0]])


def test_softmax_rejects_bad_tau():
    for bad in (0.0, -0.5):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            matched([[1.0, 0.0]], [[0.0, 1.0]], bad)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_matched_prob_gradient_matches_finite_differences(b):
    # Inputs of norm about 1 keep the softmax soft enough that no gradient
    # entry is so small that finite-difference rounding swamps it.
    rng = np.random.default_rng(20 + b)
    weights = Matrix(rng.uniform(0.5, 1.5, (b, 1)))

    def small(rows):
        return Matrix(0.5 * rng.standard_normal((rows, 4)))

    def separate(t, n):
        p, _ = t.matched_prob(n["q"], n["t"], 0.3)
        return t.sum_all(t.matmul(p, t.constant(weights)))

    def same_node(t, n):
        p, _ = t.matched_prob(n["x"], n["x"], 0.3)
        return t.sum_all(t.log(p))

    assert tape_check(separate, {"q": small(b), "t": small(b)}, seed=b) < 1e-6
    assert tape_check(same_node, {"x": small(b)}, seed=b) < 1e-6


@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("fixed_side", ["targets", "queries"])
def test_matched_prob_gradient_with_a_constant_input(b, fixed_side):
    rng = np.random.default_rng(40 + b)
    weights = Matrix(rng.uniform(0.5, 1.5, (b, 1)))
    x = Matrix(0.5 * rng.standard_normal((b, 4)))
    fixed = Matrix(0.5 * rng.standard_normal((b, 4)))

    def pair(free, other):
        return (free, other) if fixed_side == "targets" else (other, free)

    def build(t, n):
        p, _ = t.matched_prob(*pair(n["x"], t.constant(fixed)), 0.3)
        return t.sum_all(t.matmul(p, t.constant(weights)))

    assert tape_check(build, {"x": x}, seed=b) < 1e-6
    t = Tape()
    leaf = t.leaf(x)
    grad = t.backward(build(t, {"x": leaf}), [leaf])
    # The same product with both inputs as leaves: the leaf's slice is bit-equal.
    t2 = Tape()
    free, other = t2.leaf(x), t2.leaf(fixed)
    p, _ = t2.matched_prob(*pair(free, other), 0.3)
    full = t2.backward(t2.sum_all(t2.matmul(p, t2.constant(weights))), [free, other])
    assert grad.shape == (b * 4,)
    assert np.array_equal(grad, full[:b * 4])
    # The rule computes no gradient for an input that needs none.
    needs = pair(True, False)
    assert [g is None for g in p.vjp(np.ones((1, b)), needs)] == [not n for n in needs]


def test_matched_prob_rejects_bad_tau_and_shapes():
    t = Tape()
    q = t.leaf(Matrix.identity(2))
    for bad in (0.0, float("nan")):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            t.matched_prob(q, q, bad)
    with pytest.raises(ShapeError, match="matched_prob"):
        t.matched_prob(q, t.leaf(Matrix.zeros(3, 2)), 0.1)


# ---------------------------------------------------------------------------
# finite_diff_check harness
# ---------------------------------------------------------------------------


def quad(x):
    return float((x * x).sum()), 2.0 * x


def test_finite_diff_quadratic_self_test():
    # gradients of a quadratic are exact under central differences
    x = np.random.default_rng(10).standard_normal(25)
    assert finite_diff_check(quad, x, [("x", 0, 5, 5)], seed=3) < 1e-9


def test_finite_diff_catches_wrong_gradient():
    def wrong(x):
        return float((x * x).sum()), 3.0 * x  # off by 1.5x

    assert finite_diff_check(wrong, np.array([1.0, 2.0]), [("x", 0, 1, 2)], seed=4) > 0.1


def test_finite_diff_eps_bounds():
    for bad in (1e-8, 1e-2, 0.0):
        with pytest.raises(ConfigError):
            finite_diff_check(quad, np.array([1.0]), [("x", 0, 1, 1)], eps=bad)


def test_finite_diff_rejects_nonfinite_loss():
    def nan_loss(x):
        return float("nan"), np.zeros(1)

    with pytest.raises(NumericError):
        finite_diff_check(nan_loss, np.array([1.0]), [("x", 0, 1, 1)])


def test_finite_diff_names_the_block_of_a_bad_probe():
    # finite only at x itself: coordinate 3 is b[0,1] of the second block
    def fragile(v):
        return (0.0 if v[3] == 1.0 else float("nan")), np.zeros(6)

    blocks = [("a", 0, 1, 2), ("b", 2, 2, 2)]
    with pytest.raises(NumericError, match=r"at b\[0,1\]"):
        finite_diff_check(fragile, np.ones(6), blocks, seed=0)


def test_finite_diff_rejects_misshapen_gradient():
    with pytest.raises(ShapeError):
        finite_diff_check(lambda x: (0.0, np.zeros(3)), np.ones(4), [("x", 0, 2, 2)])


def test_finite_diff_probe_count_is_capped():
    calls = []

    def counting(x):
        calls.append(1)
        return quad(x)

    blocks = [("x", 0, 10, 10), ("y", 100, 1, 3)]
    finite_diff_check(counting, np.ones(103), blocks, max_coords_per_block=5, seed=5)
    # 1 baseline + 2 per probed coordinate: 5 in x, all 3 of y
    assert len(calls) == 1 + 2 * (5 + 3)
