"""Tape op values and gradients, and the finite-difference harness."""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiercl.errors import (
    ConfigError,
    ContractError,
    DegenerateEmbeddingError,
    EmptyInputError,
    NumericError,
    ShapeError,
    VocabularyError,
)
from hiercl.encoders import FrameStack
from hiercl.numerics import Tape, finite_diff_check


def rand(rng, r, c):
    return rng.standard_normal((r, c))


def flatten(leaves: dict[str, np.ndarray]):
    """The leaves as one flat vector, and the (name, offset, rows, cols) blocks tiling it."""
    blocks, offset = [], 0
    for name, m in leaves.items():
        blocks.append((name, offset, *m.shape))
        offset += m.size
    return np.concatenate([m.ravel() for m in leaves.values()]), blocks


def tape_fn(build, blocks):
    """loss_and_grad over a flat vector: each block becomes a leaf, build(tape, nodes) the loss."""
    def f(x):
        t = Tape()
        nodes = {name: t.leaf(x[o:o + r * c].reshape(r, c)) for name, o, r, c in blocks}
        loss = build(t, nodes)
        return float(loss.value[0, 0]), t.backward(loss, list(nodes.values()))
    return f


def tape_check(build, leaves: dict[str, np.ndarray], **kwargs) -> float:
    """finite_diff_check of the tape loss build(tape, nodes) at the given leaves."""
    x, blocks = flatten(leaves)
    return finite_diff_check(tape_fn(build, blocks), x, blocks, **kwargs)


def matmul(t, a, b):
    """The node a @ b with its textbook gradient: a linear readout for building test losses."""
    x, y = a.value, b.value
    return t._push(x @ y, (a, b), lambda g, needs: (g @ y.T, x.T @ g))


def total(t, a):
    """The 1x1 node summing every entry of a, with its textbook gradient: a scalar readout."""
    x = a.value
    return t._push(np.array([[x.sum()]]), (a,), lambda g, needs: (np.full(x.shape, g[0, 0]),))


# ---------------------------------------------------------------------------
# Tape op values against plain numpy
# ---------------------------------------------------------------------------


def value(op, *inputs, **kwargs):
    """The output array of one tape op applied to constant array inputs."""
    t = Tape()
    return op(t, *(t.constant(m) for m in inputs), **kwargs).value


def mlp_leaves(rng, rows=5, d_in=3, hidden=6, d_out=4):
    return {"x": rand(rng, rows, d_in), "w1": rand(rng, d_in, hidden),
            "b1": rand(rng, 1, hidden), "w2": rand(rng, hidden, d_out), "b2": rand(rng, 1, d_out)}


def test_mlp_matches_matmul_add_relu_matmul_add():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, w1, b1, w2, b2 = mlp_leaves(rng).values()
        got = value(Tape.mlp, x, w1, b1, w2, b2)
        assert np.array_equal(got, np.maximum(x @ w1 + b1, 0.0) @ w2 + b2)


def test_mlp_shape_error_names_every_shape():
    leaves = mlp_leaves(np.random.default_rng(0))
    for name, bad in (("x", np.zeros((5, 2))), ("b1", np.zeros((5, 6))),
                      ("w2", np.zeros((5, 4))), ("b2", np.zeros((1, 3)))):
        with pytest.raises(ShapeError, match="mlp: shapes do not chain") as err:
            value(Tape.mlp, *{**leaves, name: bad}.values())
        dims = {n: "x".join(map(str, (bad if n == name else m).shape)) for n, m in leaves.items()}
        assert ", ".join(f"{n} {d}" for n, d in dims.items()) in str(err.value)


def test_l2_normalize_unit_norms():
    m = value(Tape.l2_normalize_rows, np.array([[1.0, 1.0, 1.0]]))
    assert np.allclose(m, 1.0 / np.sqrt(3.0))
    assert abs(m[0, 0] - 0.5773502691896258) < 1e-15


def test_l2_normalize_degenerate_row_names_index():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="row 1"):
        value(Tape.l2_normalize_rows, m)


def test_l2_normalize_nan_row_names_index():
    # A NaN norm is not above NORM_GUARD; the row used to come out all NaN.
    m = np.array([[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(DegenerateEmbeddingError, match="row 1 has .*norm nan"):
        value(Tape.l2_normalize_rows, m)


def test_segment_mean_equal_lengths():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert value(Tape.segment_mean, m, lengths=[2]).tolist() == [[2.0, 3.0]]
    rng = np.random.default_rng(4)
    m = rand(rng, 12, 5)
    got = value(Tape.segment_mean, m, lengths=[4, 4, 4])
    for g in range(3):
        assert np.allclose(got[g], m[4 * g:4 * (g + 1)].mean(axis=0))
    with pytest.raises(EmptyInputError):
        value(Tape.segment_mean, np.zeros((0, 2)), lengths=[])


def test_segment_mean_mixed_lengths():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    got = value(Tape.segment_mean, m, lengths=[1, 3, 2])
    assert got.tolist() == [[1.0, 2.0], [5.0, 6.0], [10.0, 11.0]]


def test_segment_mean_rejects_lengths_that_do_not_partition_rows():
    for lengths in ([4, 4], [4, 4, 4], [3, 3, 3, 3], [12, 1]):
        with pytest.raises(ShapeError, match="sum to"):
            value(Tape.segment_mean, np.zeros((10, 2)), lengths=lengths)
    with pytest.raises(EmptyInputError):
        value(Tape.segment_mean, np.zeros((10, 2)), lengths=[5, 0, 5])


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
    got = value(Tape.segment_mean, rows, lengths=lengths)
    starts = np.cumsum(lengths) - lengths
    for i, (a, n) in enumerate(zip(starts, lengths)):
        seg = rows[a:a + n]
        # A segment's mean does not depend on the other segments beside it.
        assert np.array_equal(got[i], value(Tape.segment_mean, seg, lengths=[n])[0])
        # reduceat adds the first row to a pairwise sum of the rest, while
        # sum(axis=0) adds the rows one by one: the two agree to within the
        # float64 error bound of an n-term sum, and exactly for n <= 2.
        want = seg.sum(axis=0) / n
        bound = 2 * n * np.finfo(np.float64).eps * np.abs(seg).mean(axis=0)
        assert np.all(np.abs(got[i] - want) <= bound)
        if n <= 2:
            assert np.array_equal(got[i], want)


FD_EPS = 1e-5


def fd_abs_tol(loss: float) -> float:
    """Rounding error of a central difference at FD_EPS for a loss of this size.

    Each loss value is off by at most about 64 roundings of 2**-53 on the
    scale max(|loss|, 1); their difference, divided by 2 * FD_EPS, is off
    by at most this much.
    """
    return 64 * 2.0**-53 * max(abs(loss), 1.0) / FD_EPS


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
@example(lengths=[1, 1, 1, 1], seed=10378)  # a component of -2e-5 meets rounding noise
def test_segment_mean_gradient_matches_finite_differences(lengths, seed):
    rng = np.random.default_rng(seed)
    left, right = rand(rng, 2, len(lengths)), rand(rng, 3, 2)

    def build(t, n):
        pooled = t.segment_mean(t.l2_normalize_rows(n["x"]), lengths)
        return total(t, matmul(t, matmul(t, t.constant(left), pooled), t.constant(right)))

    leaves = {"x": np.random.default_rng(seed + 1).standard_normal((sum(lengths), 3))}
    x, blocks = flatten(leaves)
    f = tape_fn(build, blocks)
    loss, grad = f(x)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = FD_EPS
        fd = (f(x + step)[0] - f(x - step)[0]) / (2 * FD_EPS)
        bound = 1e-6 * max(abs(grad[i]), abs(fd)) + fd_abs_tol(loss)
        assert abs(grad[i] - fd) <= bound, (i, grad[i], fd)


def test_concat_and_gather():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    t = Tape()
    cat = t.concat_rows([t.constant(a), t.constant(b)])
    assert cat.value.shape == (3, 2)
    # bags of one id gather rows; longer bags average them
    assert t.embed_mean(cat, [2, 0], [1, 1]).value.tolist() == [[5.0, 6.0], [1.0, 2.0]]
    assert t.embed_mean(cat, [2, 0, 1], [2, 1]).value.tolist() == [[3.0, 4.0], [3.0, 4.0]]
    # the error names the first id out of the table's range
    for ids, bad in (([3], 3), ([-1], -1), ([0, 7, 5], 7)):
        with pytest.raises(VocabularyError, match=f"token id {bad} outside vocabulary of size 3"):
            t.embed_mean(cat, ids, [len(ids)])
    with pytest.raises(ShapeError, match="one flat run, got 2-D"):
        t.embed_mean(cat, [[0, 1]], [2])
    with pytest.raises(ShapeError, match="sum to 2, not 3 ids"):
        t.embed_mean(cat, [0, 1, 2], [1, 1])
    for lengths in ([], [2, 0]):
        with pytest.raises(EmptyInputError):
            t.embed_mean(cat, [0, 1], lengths)
    with pytest.raises(ShapeError, match="column counts differ"):
        t.concat_rows([cat, t.constant(np.zeros((1, 3)))])
    with pytest.raises(EmptyInputError):
        t.concat_rows([])


# ---------------------------------------------------------------------------
# Tape: forward values match numpy, backward matches finite differences
# ---------------------------------------------------------------------------


def test_tape_forward_equals_eager():
    # the tape's values are bit-equal to the same numpy expression evaluated directly
    rng = np.random.default_rng(5)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    t = Tape()
    na, nb = t.leaf(a), t.leaf(b)
    out = t.mlp(t.embed_mean(na, [1, 0, 1], [1, 2]), nb, t.constant(np.zeros((1, 2))),
                t.constant(np.array([[1.0], [-1.0]])), t.constant(np.array([[0.5]])))
    pooled = np.add.reduceat(a[[1, 0, 1]], [0, 1], axis=0) / np.array([[1.0], [2.0]])
    want = np.maximum(pooled @ b + 0.0, 0.0) @ np.array([[1.0], [-1.0]]) + 0.5
    assert np.array_equal(out.value, want)


def test_node_values_are_read_only():
    t = Tape()
    x = t.leaf(np.array([[1.0, -2.0]]))
    one, w = t.constant(np.array([[1.0]])), t.leaf(np.array([[1.0], [1.0]]))
    for node in (x, t.info_nce([(x, x)], 0.5)[0], t.l2_normalize_rows(x),
                 t.embed_mean(x, [0], [1]), t.mlp(x, w, one, one, one)):
        assert node.value.dtype == np.float64
        with pytest.raises(ValueError):
            node.value[0, 0] = 5.0


_NOT_2D_FLOAT64 = {
    "1-D": np.zeros(3),
    "3-D": np.zeros((2, 2, 2)),
    "int64": np.zeros((2, 2), dtype=np.int64),
    "float32": np.zeros((2, 2), dtype=np.float32),
    "list": [[1.0, 2.0]],
    "FrameStack": FrameStack.of([[[1.0, 2.0]]]),
}


@pytest.mark.parametrize("source", ["leaf", "constant"])
@pytest.mark.parametrize("bad", list(_NOT_2D_FLOAT64))
def test_sources_take_only_2d_float64_arrays(source, bad):
    with pytest.raises(ShapeError, match=f"^{source}: needs a 2-D float64 ndarray"):
        getattr(Tape(), source)(_NOT_2D_FLOAT64[bad])


def test_sources_hold_their_array_uncopied_and_read_only():
    a = np.arange(6.0).reshape(2, 3)
    t = Tape()
    for node in (t.leaf(a), t.constant(a[:, 1:])):
        assert np.shares_memory(node.value, a)
        assert not node.value.flags.writeable
    assert t.leaf(a).value is a


def test_backward_requires_scalar():
    t = Tape()
    x = t.leaf(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        t.backward(x, [x])


def test_backward_zero_for_untouched_leaf():
    t = Tape()
    x = t.leaf(np.array([[1.0, 2.0]]))
    unused = t.leaf(np.array([[3.0, 4.0], [5.0, 6.0]]))
    loss = total(t, matmul(t, x, t.constant(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))))
    # one flat vector, each leaf's gradient row-major in the order asked for
    assert t.backward(loss, [x, unused]).tolist() == [6.0, 15.0, 0.0, 0.0, 0.0, 0.0]
    assert t.backward(loss, [unused, x]).tolist() == [0.0, 0.0, 0.0, 0.0, 6.0, 15.0]


def _tape_loss(t, n):
    """A deliberately gnarly composite touching every differentiable op."""
    h = t.mlp(n["x"], n["w"], n["b"], n["v"], n["c"])
    h = t.l2_normalize_rows(t.concat_rows([h, n["t"]]))
    first, _ = t.info_nce([(h, h)], 0.3)
    pooled = t.segment_mean(n["x"], [2, 2])
    bags = t.embed_mean(n["x"], [3, 0, 0, 1, 3], [2, 3])
    second, _ = t.info_nce([(pooled, bags), (bags, pooled)], 1.0)
    return matmul(t, t.constant(np.array([[0.5, -0.01]])), t.concat_rows([first, second]))


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    leaves = {
        "x": rand(rng, 4, 3),
        "w": rand(rng, 3, 5),
        "b": rng.standard_normal((1, 5)),
        "v": rand(rng, 5, 4),
        "c": rng.standard_normal((1, 4)),
        "t": rand(rng, 2, 4),
    }
    assert tape_check(_tape_loss, leaves, max_coords_per_block=20, seed=0) < 1e-6


def test_embed_mean_gradient_accumulates_duplicates():
    rng = np.random.default_rng(7)
    weights = rand(rng, 4, 2)

    def build(t, n):
        bags = t.embed_mean(n["x"], [0, 0, 1, 0], [3, 1])
        return total(t, matmul(t, bags, t.constant(weights)))

    leaves = {"x": rand(rng, 3, 4)}
    assert tape_check(build, leaves, seed=1) < 1e-8
    # row 0 is twice a third of the first bag and all of the second
    x, blocks = flatten(leaves)
    grad = tape_fn(build, blocks)(x)[1].reshape(3, 4)
    row = weights.sum(axis=1)
    assert np.allclose(grad, [(2.0 / 3.0 + 1.0) * row, row / 3.0, np.zeros(4)])


def test_concat_rows_gradient_splits():
    rng = np.random.default_rng(8)
    left = rand(rng, 2, 6)  # a distinct weight per row, so a misplaced split shows

    def build(t, n):
        return total(t, matmul(t, t.constant(left), t.concat_rows([n["a"], n["b"]])))

    leaves = {"a": rand(rng, 2, 3), "b": rand(rng, 4, 3)}
    assert tape_check(build, leaves, seed=2) < 1e-8


def test_readme_lists_every_recording_op():
    # the op list in README "Gradients" names every public Tape method but backward
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Gradients", 1)[1]
    listed = re.findall(r"`(\w+)`", re.search(r"Its ops are (.*?)\.\s", section, re.S).group(1))
    public = [name for name, member in vars(Tape).items()
              if callable(member) and not name.startswith("_") and name != "backward"]
    assert sorted(listed) == sorted(public)


def test_tape_records_are_in_creation_order():
    t = Tape()
    x = t.leaf(np.array([[1.0]]))
    y = t.l2_normalize_rows(x)
    z, _ = t.info_nce([(x, y)], 1.0)
    assert x.nid < y.nid < z.nid


# ---------------------------------------------------------------------------
# The fused encoder ops against the composed numpy arithmetic they replace
# ---------------------------------------------------------------------------


def test_mlp_gradient_is_bit_equal_to_the_composed_ops():
    rng = np.random.default_rng(11)
    leaves = mlp_leaves(rng, rows=40, d_in=8, hidden=16, d_out=6)
    x, w1, b1, w2, b2 = leaves.values()
    g = rng.standard_normal((40, 6))
    # matmul -> add -> relu -> matmul -> add, each with its own gradient rule
    pre = x @ w1 + b1
    h = np.maximum(pre, 0.0)
    gh = (g @ w2.T) * (pre > 0.0)
    want = (gh @ w1.T, x.T @ gh, gh.sum(axis=0, keepdims=True), h.T @ g,
            g.sum(axis=0, keepdims=True))
    t = Tape()
    out = t.mlp(*(t.leaf(m) for m in leaves.values()))
    got = out.vjp(g, [True] * 5)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # an input that needs no gradient, like the visual encoder's frames, gets none
    assert out.vjp(g, [False] + [True] * 4)[0] is None


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    weights = rand(rng, 4, 2)

    def build(t, n):
        return total(t, matmul(t, t.mlp(n["x"], n["w1"], n["b1"], n["w2"], n["b2"]),
                               t.constant(weights)))

    assert tape_check(build, mlp_leaves(rng), seed=3) < 1e-6


def assert_embed_mean_matches_oracle(rows, cols, lengths, seed):
    """embed_mean's value and gradient, bit for bit, against gather + mean and np.add.at."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols))
    n = np.array(lengths)
    ids = rng.integers(0, rows, n.sum())
    g = rng.standard_normal((n.size, cols))
    t = Tape()
    node = t.embed_mean(t.leaf(table), ids, lengths)
    want = np.add.reduceat(table[ids], np.cumsum(n) - n, axis=0) / n[:, None]
    assert np.array_equal(node.value, want)
    # each token adds its bag's gradient share to its row, in token order
    want = np.zeros((rows, cols))
    np.add.at(want, ids, np.repeat(g / n[:, None], n, axis=0))
    (got,) = node.vjp(g, [True])
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.lists(st.integers(1, 12), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_embed_mean_is_bit_equal_to_add_at_on_ragged_bags(rows, cols, lengths, seed):
    # at most 6 table rows, so most ids repeat within and across bags
    assert_embed_mean_matches_oracle(rows, cols, lengths, seed)


@pytest.mark.parametrize("rows, cols, lengths", [
    (256, 32, [10] * 120 + [8] * 60 + [24] * 10),  # a paper-scale pooled text batch
    (50, 6, [500] * 6),  # three blocks of two columns
    (50, 7, [500] * 6),  # 7 columns split only into blocks of one
    (3, 2, [9000]),  # one column alone is over the byte bound
])
def test_embed_mean_is_bit_equal_to_add_at_across_column_blocks(rows, cols, lengths):
    assert_embed_mean_matches_oracle(rows, cols, lengths, seed=rows * cols)


# ---------------------------------------------------------------------------
# info_nce: the contrastive loss against a numpy chain of matched probabilities
#
# Each route's matched probabilities p_r(i) = diag(softmax(q t^T / tau))_i
# are what the tests named matched_prob check; the reference chain computes
# them, adds the routes, and takes log, sum and scale as separate steps.
# ---------------------------------------------------------------------------


def matched_prob(q, tg, tau):
    """Row i's softmax probability of target i as 1xB, and the whole softmax."""
    # q @ tg.T through a transposed view may round differently in BLAS; the op
    # multiplies by the contiguous transpose, as the reference does here.
    z = q @ np.ascontiguousarray(tg.T) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return np.diag(probs)[None, :], probs


def matched_prob_vjp(g, q, tg, tau):
    """Query and target gradients of the 1xB matched probabilities, by the B x B form."""
    t_cols = np.ascontiguousarray(tg.T)
    probs = matched_prob(q, tg, tau)[1]
    gp = np.zeros(probs.shape)
    np.fill_diagonal(gp, g[0])  # the incoming gradient on the diagonal of a zero matrix
    inner = (gp * probs).sum(axis=1, keepdims=True)
    gs = probs * (gp - inner) / tau
    return gs @ t_cols.T, np.ascontiguousarray((q.T @ gs).T)


def chain(routes, tau, g=1.0):
    """The loss, and each route's (query, target) gradients, by matched_prob -> add -> log
    -> sum -> scale, each step with its own gradient rule."""
    c = -1.0 / routes[0][0].shape[0]
    probs = [matched_prob(q, tg, tau)[0] for q, tg in routes]
    p = probs[0]
    for more in probs[1:]:
        p = p + more
    loss = np.array([[np.log(p).sum()]]) * c
    g_log = np.full(p.shape, g * c) / p
    return loss, [matched_prob_vjp(g_log, q, tg, tau) for q, tg in routes]


def nce_tape(arrays, routes, tau, constants=()):
    """A tape holding each named array as a leaf (or a constant) and info_nce over routes."""
    t = Tape()
    nodes = {name: (t.constant if name in constants else t.leaf)(a)
             for name, a in arrays.items()}
    loss, sims = t.info_nce([(nodes[q], nodes[tg]) for q, tg in routes], tau)
    return t, nodes, loss, sims


@pytest.mark.parametrize("b, d", [(1, 3), (2, 16), (5, 64), (33, 16), (120, 16)])
def test_matched_prob_forward_is_bit_equal_to_numpy(b, d):
    rng = np.random.default_rng(b * d)
    q, tg, tau = rng.standard_normal((b, d)), rng.standard_normal((b, d)), 0.07
    _, _, loss, sims = nce_tape({"q": q, "t": tg}, [("q", "t")], tau, constants={"t"})
    assert len(sims) == 1 and np.array_equal(sims[0], q @ np.ascontiguousarray(tg.T))
    assert loss.value.shape == (1, 1)
    assert np.array_equal(loss.value, chain([(q, tg)], tau)[0])


def single_route_loss(q, t, tau):
    """info_nce's loss for one route of constant query and target rows."""
    return float(nce_tape({"q": np.array(q), "t": np.array(t)}, [("q", "t")], tau,
                          constants={"q", "t"})[2].value[0, 0])


def test_softmax_rows_sum_to_one():
    # Across every cyclic shift of the targets, row i is matched once with
    # each target, so with one route per shift its matched probabilities
    # add up to its whole softmax row: 1, whose log is 0.
    rng = np.random.default_rng(2)
    q, tg = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    arrays = {"q": q, **{f"t{s}": np.roll(tg, -s, axis=0) for s in range(6)}}
    _, _, loss, _ = nce_tape(arrays, [("q", f"t{s}") for s in range(6)], 0.5, set(arrays))
    assert abs(loss.value[0, 0]) < 1e-12


def test_softmax_sharpens_with_small_tau():
    # each matched probability is above 0.9999, so the loss is below 1e-4
    loss = single_route_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 0.1)
    assert 0.0 <= loss < 1e-4


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(3)
    q, t = rng.standard_normal((4, 7)), rng.standard_normal((4, 7))
    tau = 0.07
    e = np.exp(q @ t.T / tau)
    want = -np.mean(np.log(np.diag(e / e.sum(axis=1, keepdims=True))))
    assert np.isclose(single_route_loss(q, t, tau), want, rtol=1e-12, atol=1e-12)


def test_softmax_is_stable_for_large_logits():
    # Logits of 1000 and 999 at tau 1, and of 1000 and 0 at tau 1e-3, would
    # overflow exp without the per-row max subtraction.
    loss = single_route_loss([[1.0, 0.0], [0.0, 1.0]], [[1000.0, 0.0], [999.0, 0.0]], 1.0)
    assert np.isclose(loss, -np.mean(np.log([1.0 / (1.0 + np.exp(-1.0)), 0.5])))
    assert single_route_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 1e-3) == 0.0


def test_softmax_rejects_bad_tau():
    for bad in (0.0, -0.5):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            single_route_loss([[1.0, 0.0]], [[0.0, 1.0]], bad)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_matched_prob_gradient_matches_finite_differences(b):
    # Inputs of norm about 1 keep the softmax soft enough that no gradient
    # entry is so small that finite-difference rounding swamps it.
    rng = np.random.default_rng(20 + b)

    def small(rows):
        return 0.5 * rng.standard_normal((rows, 4))

    def separate(t, n):
        return t.info_nce([(n["q"], n["t"])], 0.3)[0]

    def same_node(t, n):
        return t.info_nce([(n["x"], n["x"])], 0.3)[0]

    assert tape_check(separate, {"q": small(b), "t": small(b)}, seed=b) < 1e-6
    assert tape_check(same_node, {"x": small(b)}, seed=b) < 1e-6


@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("fixed_side", ["targets", "queries"])
def test_matched_prob_gradient_with_a_constant_input(b, fixed_side):
    rng = np.random.default_rng(40 + b)
    x = 0.5 * rng.standard_normal((b, 4))
    fixed = 0.5 * rng.standard_normal((b, 4))

    def pair(free, other):
        return (free, other) if fixed_side == "targets" else (other, free)

    def build(t, n):
        return t.info_nce([pair(n["x"], t.constant(fixed))], 0.3)[0]

    assert tape_check(build, {"x": x}, seed=b) < 1e-6
    t = Tape()
    leaf = t.leaf(x)
    grad = t.backward(build(t, {"x": leaf}), [leaf])
    # The same loss with both inputs as leaves: the leaf's slice is bit-equal.
    t2 = Tape()
    free, other = t2.leaf(x), t2.leaf(fixed)
    loss, _ = t2.info_nce([pair(free, other)], 0.3)
    full = t2.backward(loss, [free, other])
    assert grad.shape == (b * 4,)
    assert np.array_equal(grad, full[:b * 4])
    # The rule computes no gradient for an input that needs none.
    needs = pair(True, False)
    assert [g is None for g in loss.vjp(np.ones((1, 1)), needs)] == [not n for n in needs]


@pytest.mark.parametrize("b", [1, 3, 190])
@pytest.mark.parametrize("fixed_side", [None, "targets", "queries"])
def test_matched_prob_gradient_is_bit_equal_to_the_dense_form(b, fixed_side):
    rng = np.random.default_rng(60 + b)
    q, tg, tau = 0.3 * rng.standard_normal((b, 16)), 0.3 * rng.standard_normal((b, 16)), 0.07
    g = rng.standard_normal()
    _, nodes, loss, _ = nce_tape({"q": q, "t": tg}, [("q", "t")], tau,
                                 constants={"queries": {"q"}, "targets": {"t"}}.get(fixed_side, ()))
    needs = [nodes["q"].needs_grad, nodes["t"].needs_grad]
    got = loss.vjp(np.array([[g]]), needs)
    want = chain([(q, tg)], tau, g)[1][0]
    for need, a, w in zip(needs, got, want):
        assert np.array_equal(a, w) if need else a is None


def test_matched_prob_rejects_bad_tau_and_shapes():
    t = Tape()
    q = t.leaf(np.eye(2))
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            t.info_nce([(q, q)], bad)
    with pytest.raises(ShapeError, match=r"info_nce: .* got shapes \[\(2, 2\), \(3, 2\)\]"):
        t.info_nce([(q, t.leaf(np.zeros((3, 2))))], 0.1)
    with pytest.raises(EmptyInputError, match="no routes"):
        t.info_nce([], 0.1)


# The routes of each loss: (queries, targets) by name, and the names held constant.
ROUTES = {
    "single": ([("v", "a")], ()),
    "clip": ([("v", "a"), ("v", "b")], ()),  # routes share the query node
    "phase": ([("v", "c"), ("g", "c")], ()),  # routes share the target node
    "constant targets": ([("v", "c"), ("g", "c")], {"c"}),
    "constant query": ([("v", "a"), ("v", "b")], {"v"}),
    "same node": ([("v", "v")], ()),
}


@pytest.mark.parametrize("b", [1, 4, 60])
@pytest.mark.parametrize("case", list(ROUTES))
def test_info_nce_is_bit_equal_to_the_chain(case, b):
    routes, constants = ROUTES[case]
    rng = np.random.default_rng(b)
    arrays = {name: 0.3 * rng.standard_normal((b, 16))
              for name in dict.fromkeys(n for route in routes for n in route)}
    t, nodes, loss, sims = nce_tape(arrays, routes, 0.07, constants)
    pairs = [(arrays[q], arrays[tg]) for q, tg in routes]
    want_loss, want_routes = chain(pairs, 0.07)
    assert np.array_equal(loss.value, want_loss)
    assert all(np.array_equal(s, q @ np.ascontiguousarray(tg.T)) for s, (q, tg) in zip(sims, pairs))
    # The flat gradient: each leaf sums what its routes send it. No leaf here
    # gets more than two shares, so the order of that sum leaves its bits alone.
    want = {}
    for (q, tg), grads in zip(routes, want_routes):
        for name, grad in zip((q, tg), grads):
            want[name] = want[name] + grad if name in want else grad
    leaves = [name for name in arrays if name not in constants]
    assert np.array_equal(t.backward(loss, [nodes[n] for n in leaves]),
                          np.concatenate([want[n].ravel() for n in leaves]))


@pytest.mark.parametrize("case", list(ROUTES))
def test_info_nce_gradient_matches_finite_differences(case):
    routes, constants = ROUTES[case]
    rng = np.random.default_rng(80)
    names = dict.fromkeys(n for route in routes for n in route)
    fixed = {n: 0.5 * rng.standard_normal((3, 4)) for n in names if n in constants}

    def build(t, n):
        node = {**n, **{name: t.constant(m) for name, m in fixed.items()}}
        return t.info_nce([(node[q], node[tg]) for q, tg in routes], 0.3)[0]

    leaves = {n: 0.5 * rng.standard_normal((3, 4)) for n in names if n not in constants}
    assert tape_check(build, leaves, seed=4) < 1e-6


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
