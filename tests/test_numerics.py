"""Matrix ops, the gradient tape, and the finite-difference harness."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiercl import numerics as nm
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
    assert Matrix.row_vector([1, 2, 3]).shape == (1, 3)
    assert Matrix.from_rows([[1, 2], [3, 4]]).row(1).tolist() == [3.0, 4.0]


def test_same_values_is_bit_exact():
    a = Matrix([[0.1 + 0.2]])
    b = Matrix([[0.3]])
    assert not a.same_values(b)
    assert a.allclose(b, tol=1e-15)


# ---------------------------------------------------------------------------
# Eager ops against plain numpy
# ---------------------------------------------------------------------------


def test_matmul_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rand(rng, 3, 5), rand(rng, 5, 2)
        assert np.allclose(nm.matmul(a, b).array, a.array @ b.array)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2x3 @ 2x3"):
        nm.matmul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_add_broadcasts_single_row():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    bias = Matrix([[10.0, 20.0]])
    assert nm.add(a, bias).tolist() == [[11.0, 22.0], [13.0, 24.0]]


def test_add_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        nm.add(Matrix.zeros(2, 2), Matrix.zeros(3, 2))


def test_elementwise_ops():
    rng = np.random.default_rng(1)
    a, b = rand(rng, 4, 3), rand(rng, 4, 3)
    assert np.allclose(nm.mul(a, b).array, a.array * b.array)
    assert np.allclose(nm.scale(a, -2.5).array, -2.5 * a.array)
    assert np.allclose(nm.relu(a).array, np.maximum(a.array, 0.0))
    assert np.allclose(nm.exp(a).array, np.exp(a.array))
    pos = Matrix(np.abs(a.array) + 0.1)
    assert np.allclose(nm.log(pos).array, np.log(pos.array))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    m = rand(rng, 6, 5)
    s = nm.softmax_rows(m, 0.5)
    assert np.allclose(s.array.sum(axis=1), 1.0)


def test_softmax_sharpens_with_small_tau():
    s = nm.softmax_rows(Matrix([[1.0, 0.0]]), 0.1)
    assert s.array[0, 0] > 0.9999


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(3)
    m = rand(rng, 4, 7)
    tau = 0.07
    want = np.exp(m.array / tau) / np.exp(m.array / tau).sum(axis=1, keepdims=True)
    assert np.allclose(nm.softmax_rows(m, tau).array, want, atol=1e-12)


def test_softmax_is_stable_for_large_logits():
    s = nm.softmax_rows(Matrix([[1000.0, 999.0]]), 1.0)
    assert s.is_finite()
    assert np.allclose(s.array.sum(), 1.0)


def test_softmax_rejects_bad_tau():
    with pytest.raises(ConfigError):
        nm.softmax_rows(Matrix.zeros(1, 2), 0.0)


def test_l2_normalize_unit_norms():
    m = nm.l2_normalize_rows(Matrix([[1.0, 1.0, 1.0]]))
    assert np.allclose(m.array, 1.0 / np.sqrt(3.0))
    assert abs(m.array[0, 0] - 0.5773502691896258) < 1e-15


def test_l2_normalize_degenerate_row_names_index():
    m = Matrix([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="row 1"):
        nm.l2_normalize_rows(m)


def test_segment_mean_equal_lengths():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert nm.segment_mean(m, [2]).tolist() == [[2.0, 3.0]]
    rng = np.random.default_rng(4)
    m = rand(rng, 12, 5)
    got = nm.segment_mean(m, [4, 4, 4])
    for g in range(3):
        assert np.allclose(got.array[g], m.array[4 * g:4 * (g + 1)].mean(axis=0))
    with pytest.raises(EmptyInputError):
        nm.segment_mean(Matrix(np.zeros((0, 2))), [])


def test_segment_mean_mixed_lengths():
    m = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    got = nm.segment_mean(m, [1, 3, 2])
    assert got.tolist() == [[1.0, 2.0], [5.0, 6.0], [10.0, 11.0]]


def test_segment_mean_rejects_lengths_that_do_not_partition_rows():
    for lengths in ([4, 4], [4, 4, 4], [3, 3, 3, 3], [12, 1]):
        with pytest.raises(ShapeError, match="sum to"):
            nm.segment_mean(Matrix.zeros(10, 2), lengths)
    with pytest.raises(EmptyInputError):
        nm.segment_mean(Matrix.zeros(10, 2), [5, 0, 5])


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
    got = nm.segment_mean(Matrix(rows), lengths).array
    starts = np.cumsum(lengths) - lengths
    for i, (a, n) in enumerate(zip(starts, lengths)):
        seg = rows[a:a + n]
        # A segment's mean does not depend on the other segments beside it.
        assert np.array_equal(got[i], nm.segment_mean(Matrix(seg), [n]).array[0])
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
    weights = Matrix(np.random.default_rng(seed).standard_normal((len(lengths), 3)))

    def f(leaves):
        t = Tape()
        x = t.leaf(leaves["x"])
        pooled = t.segment_mean(t.exp(x), lengths)
        loss = t.sum_all(t.mul(pooled, t.constant(weights)))
        return float(loss.value.array[0, 0]), {"x": t.backward(loss)[x.nid]}

    leaves = {"x": Matrix(np.random.default_rng(seed + 1).standard_normal((sum(lengths), 3)))}
    assert finite_diff_check(f, leaves, seed=seed) < 1e-6


def test_concat_and_gather():
    a = Matrix([[1.0, 2.0]])
    b = Matrix([[3.0, 4.0], [5.0, 6.0]])
    cat = nm.concat_rows([a, b])
    assert cat.shape == (3, 2)
    assert nm.gather_rows(cat, [2, 0]).tolist() == [[5.0, 6.0], [1.0, 2.0]]
    with pytest.raises(ShapeError):
        nm.gather_rows(cat, [3])


def test_gather_diag():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert nm.gather_diag(m).tolist() == [[1.0, 4.0]]
    with pytest.raises(ShapeError):
        nm.gather_diag(Matrix.zeros(2, 3))


def test_sum_all():
    assert nm.sum_all(Matrix([[1.0, 2.0], [3.0, 4.0]])).tolist() == [[10.0]]


# ---------------------------------------------------------------------------
# Tape: forward values match eager ops, backward matches finite differences
# ---------------------------------------------------------------------------


def test_tape_forward_equals_eager():
    rng = np.random.default_rng(5)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    t = Tape()
    na, nb = t.leaf(a), t.leaf(b)
    out = t.relu(t.matmul(na, nb))
    assert out.value.same_values(nm.relu(nm.matmul(a, b)))


def test_backward_requires_scalar():
    t = Tape()
    x = t.leaf(Matrix.zeros(2, 2))
    with pytest.raises(ContractError):
        t.backward(x)


def test_backward_zero_for_untouched_leaf():
    t = Tape()
    x = t.leaf(Matrix([[1.0, 2.0]]))
    unused = t.leaf(Matrix([[3.0, 4.0]]))
    loss = t.sum_all(t.mul(x, x))
    grads = t.backward(loss)
    assert np.allclose(grads[x.nid].array, 2.0 * x.value.array)
    assert np.all(grads[unused.nid].array == 0.0)


def _tape_loss(leaves: dict[str, Matrix]) -> tuple[float, dict[str, Matrix]]:
    """A deliberately gnarly composite touching every differentiable op."""
    t = Tape()
    nodes = {k: t.leaf(v) for k, v in leaves.items()}
    h = t.relu(t.add(t.matmul(nodes["x"], nodes["w"]), nodes["b"]))
    h = t.l2_normalize_rows(h)
    s = t.softmax_rows(t.matmul(h, t.transpose(nodes["t"])), 0.3)
    p = t.gather_diag(s)
    pooled = t.segment_mean(t.exp(nodes["x"]), [2, 2])
    extra = t.sum_all(t.mul(pooled, pooled))
    loss = t.add(t.scale(t.sum_all(t.log(p)), -0.5), t.scale(extra, 0.01))
    grads = t.backward(loss)
    return float(loss.value.array[0, 0]), {k: grads[n.nid] for k, n in nodes.items()}


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    leaves = {
        "x": rand(rng, 4, 3),
        "w": rand(rng, 3, 5),
        "b": Matrix(rng.standard_normal((1, 5))),
        "t": rand(rng, 4, 5),
    }
    err = finite_diff_check(_tape_loss, leaves, max_coords_per_block=20, seed=0)
    assert err < 1e-6


def test_gather_rows_gradient_accumulates_duplicates():
    def f(leaves):
        t = Tape()
        x = t.leaf(leaves["x"])
        g = t.gather_rows(x, [0, 0, 1])
        loss = t.sum_all(t.mul(g, g))
        grads = t.backward(loss)
        return float(loss.value.array[0, 0]), {"x": grads[x.nid]}

    rng = np.random.default_rng(7)
    leaves = {"x": rand(rng, 3, 4)}
    assert finite_diff_check(f, leaves, seed=1) < 1e-8
    # row 0 is gathered twice, so its gradient is doubled
    _, grads = f(leaves)
    x = leaves["x"].array
    assert np.allclose(grads["x"].array[0], 4.0 * x[0])
    assert np.allclose(grads["x"].array[2], 0.0)


def test_concat_rows_gradient_splits():
    def f(leaves):
        t = Tape()
        a, b = t.leaf(leaves["a"]), t.leaf(leaves["b"])
        cat = t.concat_rows([a, b])
        loss = t.sum_all(t.mul(cat, cat))
        grads = t.backward(loss)
        return float(loss.value.array[0, 0]), {k: grads[n.nid] for k, n in (("a", a), ("b", b))}

    rng = np.random.default_rng(8)
    leaves = {"a": rand(rng, 2, 3), "b": rand(rng, 4, 3)}
    assert finite_diff_check(f, leaves, seed=2) < 1e-8


def test_tape_records_are_in_creation_order():
    t = Tape()
    x = t.leaf(Matrix([[1.0]]))
    y = t.exp(x)
    z = t.log(y)
    assert x.nid < y.nid < z.nid


# ---------------------------------------------------------------------------
# finite_diff_check harness
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic_self_test():
    # gradients of a quadratic are exact under central differences
    def quad(leaves):
        x = leaves["x"].array
        return float((x * x).sum()), {"x": Matrix(2.0 * x)}

    rng = np.random.default_rng(10)
    leaves = {"x": rand(rng, 5, 5)}
    assert finite_diff_check(quad, leaves, seed=3) < 1e-9


def test_finite_diff_catches_wrong_gradient():
    def wrong(leaves):
        x = leaves["x"].array
        return float((x * x).sum()), {"x": Matrix(3.0 * x)}  # off by 1.5x

    leaves = {"x": Matrix([[1.0, 2.0]])}
    assert finite_diff_check(wrong, leaves, seed=4) > 0.1


def test_finite_diff_eps_bounds():
    def quad(leaves):
        x = leaves["x"].array
        return float((x * x).sum()), {"x": Matrix(2.0 * x)}

    leaves = {"x": Matrix([[1.0]])}
    for bad in (1e-8, 1e-2, 0.0):
        with pytest.raises(ConfigError):
            finite_diff_check(quad, leaves, eps=bad)


def test_finite_diff_rejects_nonfinite_loss():
    def nan_loss(leaves):
        return float("nan"), {"x": Matrix([[0.0]])}

    with pytest.raises(NumericError):
        finite_diff_check(nan_loss, {"x": Matrix([[1.0]])})


def test_finite_diff_probe_count_is_capped():
    calls = []

    def counting(leaves):
        calls.append(1)
        x = leaves["x"].array
        return float((x * x).sum()), {"x": Matrix(2.0 * x)}

    leaves = {"x": Matrix(np.ones((10, 10)))}
    finite_diff_check(counting, leaves, max_coords_per_block=5, seed=5)
    # 1 baseline + 2 per probed coordinate
    assert len(calls) == 1 + 2 * 5
