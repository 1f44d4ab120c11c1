"""Deterministic dense linear algebra with reverse-mode differentiation.

Values live in `Matrix`, an immutable 2-D float64 array; vectors are 1xN
matrices. Plain module functions (matmul, softmax_rows, ...) evaluate
eagerly. Most of them are also `Tape` methods: each computes its value and
records, in the same place, its own vector-Jacobian product as a closure on
the node. `Tape.backward` walks the nodes in reverse, calls those closures
and skips inputs that need no gradient, pushing a scalar loss gradient back
to the leaves as one flat vector. `Tape.matched_prob` fuses the contrastive
pattern diag(softmax(q t^T / tau)) into one op with a closed-form gradient.

Everything is float64 and single-threaded; identical inputs produce
bit-identical outputs.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateEmbeddingError,
    EmptyInputError,
    NumericError,
    ShapeError,
)

NORM_GUARD = 1e-12  # rows with smaller L2 norm are considered degenerate


class Matrix:
    """Immutable 2-D array of float64 values, row-major."""

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = np.array(values, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ShapeError(f"Matrix requires 2-D data, got {a.ndim}-D")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        # Internal fast path: a must be a fresh 2-D float64 C-order array.
        m = cls.__new__(cls)
        a.setflags(write=False)
        m._a = a
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._wrap(np.eye(n))

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the values."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the values."""
        return self._a.reshape(-1)

    def tolist(self) -> list[list[float]]:
        return self._a.tolist()

    def same_values(self, other: "Matrix") -> bool:
        """Bit-exact equality."""
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def allclose(self, other: "Matrix", tol: float = 1e-12) -> bool:
        return self.shape == other.shape and bool(
            np.allclose(self._a, other._a, rtol=0.0, atol=tol)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Eager primitives. Each returns a fresh Matrix and never mutates inputs.
# ---------------------------------------------------------------------------


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product."""
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions differ: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    return Matrix._wrap(a.array @ b.array)


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise sum; b may be a 1xC row vector broadcast over a's rows."""
    if b.shape != a.shape and not (b.rows == 1 and b.cols == a.cols):
        raise ShapeError(f"add: shapes differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return Matrix._wrap(a.array + b.array)


def scale(a: Matrix, c: float) -> Matrix:
    return Matrix._wrap(a.array * float(c))


def relu(a: Matrix) -> Matrix:
    return Matrix._wrap(np.maximum(a.array, 0.0))


def log(a: Matrix) -> Matrix:
    return Matrix._wrap(np.log(a.array))


def softmax_rows(m: Matrix, tau: float) -> Matrix:
    """Temperature softmax over each row, with per-row max subtraction."""
    if not tau > 0.0:
        raise ConfigError(f"softmax temperature must be positive, got {tau}")
    z = m.array / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return Matrix._wrap(e / e.sum(axis=1, keepdims=True))


def l2_normalize_rows(m: Matrix) -> Matrix:
    """Scale each row to unit Euclidean norm."""
    norms = np.sqrt((m.array * m.array).sum(axis=1, keepdims=True))
    bad = np.nonzero(norms[:, 0] <= NORM_GUARD)[0]
    if bad.size:
        raise DegenerateEmbeddingError(
            f"row {int(bad[0])} has near-zero norm {float(norms[bad[0], 0]):.3e}"
        )
    return Matrix._wrap(m.array / norms)


def segment_mean(m: Matrix, lengths: Sequence[int]) -> Matrix:
    """Mean over consecutive row segments of the given lengths, one row each."""
    n = np.asarray(lengths, dtype=np.intp)
    if n.ndim != 1 or n.size == 0 or n.min() < 1:
        raise EmptyInputError("segment_mean: needs one or more segments, none of them empty")
    if n.sum() != m.rows:
        raise ShapeError(f"segment_mean: lengths sum to {int(n.sum())}, not {m.rows} rows")
    return Matrix._wrap(np.add.reduceat(m.array, np.cumsum(n) - n, axis=0) / n[:, None])


def concat_rows(parts: Sequence[Matrix]) -> Matrix:
    if not parts:
        raise EmptyInputError("concat_rows: no parts")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError(f"concat_rows: column counts differ: {cols} vs {p.cols}")
    return Matrix._wrap(np.vstack([p.array for p in parts]))


def gather_rows(m: Matrix, indices: Sequence[int]) -> Matrix:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise EmptyInputError("gather_rows: need at least one index")
    if idx.min() < 0 or idx.max() >= m.rows:
        raise ShapeError(f"gather_rows: index out of range for {m.rows} rows")
    return Matrix._wrap(m.array[idx])


def sum_all(m: Matrix) -> Matrix:
    """Sum of all entries as a 1x1 matrix."""
    return Matrix._wrap(np.array([[m.array.sum()]]))


# A vector-Jacobian product: (gradient of the node's value, which inputs need
# a gradient) -> one gradient or None per input.
VJP = Callable[[np.ndarray, Sequence[bool]], Sequence["np.ndarray | None"]]


class Node:
    """One recorded value on a tape, with its inputs and its backward rule."""

    __slots__ = ("nid", "value", "inputs", "needs_grad", "vjp")

    def __init__(self, nid: int, value: Matrix, inputs: tuple["Node", ...],
                 needs_grad: bool, vjp: VJP | None) -> None:
        self.nid = nid
        self.value = value
        self.inputs = inputs
        self.needs_grad = needs_grad
        self.vjp = vjp

    def __repr__(self) -> str:
        return f"Node({self.nid}, {self.value!r})"


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Nodes are appended in creation order, which is automatically a
    topological order. A tape belongs to a single training step and must
    not be shared across threads.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _push(self, value: Matrix, inputs: tuple[Node, ...] = (), vjp: VJP | None = None,
              needs_grad: bool | None = None) -> Node:
        if needs_grad is None:
            needs_grad = any(i.needs_grad for i in inputs)
        node = Node(len(self._nodes), value, inputs, needs_grad, vjp)
        self._nodes.append(node)
        return node

    # -- graph sources ------------------------------------------------------

    def leaf(self, m: Matrix) -> Node:
        """Trainable input; backward() reports a gradient for it."""
        return self._push(m, needs_grad=True)

    def constant(self, m: Matrix) -> Node:
        """Non-trainable input; gradients are not propagated into it."""
        return self._push(m, needs_grad=False)

    # -- recorded primitives -------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        x, y = a.value.array, b.value.array
        return self._push(matmul(a.value, b.value), (a, b), lambda g, needs: (
            g @ y.T if needs[0] else None, x.T @ g if needs[1] else None))

    def add(self, a: Node, b: Node) -> Node:
        broadcast = b.value.shape != a.value.shape
        return self._push(add(a.value, b.value), (a, b), lambda g, needs: (
            g, g.sum(axis=0, keepdims=True) if broadcast else g))

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        return self._push(scale(a.value, c), (a,), lambda g, needs: (g * c,))

    def relu(self, a: Node) -> Node:
        x = a.value.array
        return self._push(relu(a.value), (a,), lambda g, needs: (g * (x > 0.0),))

    def log(self, a: Node) -> Node:
        x = a.value.array
        return self._push(log(a.value), (a,), lambda g, needs: (g / x,))

    def l2_normalize_rows(self, a: Node) -> Node:
        x = a.value.array
        out = l2_normalize_rows(a.value)
        y = out.array

        def vjp(g, needs):
            norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
            return ((g - y * (g * y).sum(axis=1, keepdims=True)) / norms,)
        return self._push(out, (a,), vjp)

    def segment_mean(self, a: Node, lengths: Sequence[int]) -> Node:
        n = np.array(lengths, dtype=np.intp)
        return self._push(segment_mean(a.value, n), (a,), lambda g, needs: (
            np.repeat(g / n[:, None], n, axis=0),))

    def concat_rows(self, parts: Sequence[Node]) -> Node:
        offsets = np.cumsum([0] + [p.value.rows for p in parts])
        return self._push(concat_rows([p.value for p in parts]), tuple(parts),
                          lambda g, needs: [np.ascontiguousarray(g[lo:hi])
                                            for lo, hi in zip(offsets, offsets[1:])])

    def gather_rows(self, a: Node, indices: Sequence[int]) -> Node:
        idx = np.array(indices, dtype=np.intp)
        rows, cols = a.value.shape

        def vjp(g, needs):
            # One bincount over (row, column) cells sums each cell's
            # contributions in index order: the bits of np.add.at, faster.
            cells = (idx[:, None] * cols + np.arange(cols)).ravel()
            gx = np.bincount(cells, weights=g.ravel(), minlength=rows * cols)
            return (gx.reshape(rows, cols),)
        return self._push(gather_rows(a.value, idx), (a,), vjp)

    def matched_prob(self, queries: Node, targets: Node, tau: float) -> tuple[Node, np.ndarray]:
        """Row i's softmax probability of target i: diag(softmax(q t^T / tau)), as 1xB.

        Also returns the similarity matrix q t^T.
        """
        if queries.value.shape != targets.value.shape:
            raise ShapeError(f"matched_prob: queries {queries.value.shape} and targets "
                             f"{targets.value.shape} must pair row for row")
        q = queries.value.array
        # BLAS may round q @ t.T through a strided view differently from a
        # product with the contiguous transpose; the copy pins the bits.
        t_cols = np.ascontiguousarray(targets.value.array.T)
        sims = q @ t_cols
        probs = softmax_rows(Matrix._wrap(sims), tau).array
        tau = float(tau)

        def vjp(g, needs):
            gp = np.zeros(probs.shape)
            np.fill_diagonal(gp, g[0])
            inner = (gp * probs).sum(axis=1, keepdims=True)
            gs = probs * (gp - inner) / tau
            return (gs @ t_cols.T if needs[0] else None,
                    np.ascontiguousarray((q.T @ gs).T) if needs[1] else None)
        node = self._push(Matrix._wrap(np.diagonal(probs).copy()[None, :]),
                          (queries, targets), vjp)
        return node, sims

    def sum_all(self, a: Node) -> Node:
        shape = a.value.shape
        return self._push(sum_all(a.value), (a,), lambda g, needs: (np.full(shape, g[0, 0]),))

    # -- reverse pass --------------------------------------------------------

    def backward(self, loss: Node, wrt: Sequence[Node]) -> np.ndarray:
        """Gradient of a scalar loss with respect to the leaves in `wrt`.

        Walks the nodes from `loss` back to the first, calling each reached
        node's vector-Jacobian product and summing what it returns into the
        inputs that need a gradient. Returns one flat float64 vector: each
        leaf's gradient, row-major, in the order of `wrt`; a leaf the loss
        does not reach contributes zeros. Deterministic for a fixed tape.
        """
        if loss.value.shape != (1, 1):
            raise ContractError(
                f"backward requires a scalar (1x1) loss, got {loss.value.rows}x{loss.value.cols}"
            )
        grads: dict[int, np.ndarray] = {loss.nid: np.ones((1, 1))}
        for node in reversed(self._nodes[:loss.nid + 1]):
            if not node.inputs or node.nid not in grads:
                continue
            needs = [i.needs_grad for i in node.inputs]
            for i, need, ig in zip(node.inputs, needs, node.vjp(grads.pop(node.nid), needs)):
                if ig is None or not need:
                    continue
                grads[i.nid] = grads[i.nid] + ig if i.nid in grads else ig
        return np.concatenate([grads[n.nid].ravel() if n.nid in grads
                               else np.zeros(n.value.array.size) for n in wrt])


def finite_diff_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    blocks: Sequence[tuple[str, int, int, int]],
    eps: float = 1e-5,
    max_coords_per_block: int = 64,
    seed: int = 0,
) -> float:
    """Compare an analytic gradient against central finite differences.

    `loss_and_grad` must be deterministic and return (loss, gradient) for a
    flat vector shaped like `x`. `blocks` tiles `x` into named row-major
    matrices as (name, offset, rows, cols), in order; at most
    `max_coords_per_block` coordinates of each block are probed, chosen by a
    seeded generator so the check is reproducible. Returns the max relative
    error over all probes.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ConfigError(f"finite-difference eps must lie in [1e-7, 1e-3], got {eps}")
    x = np.asarray(x, dtype=np.float64)
    loss0, grad = loss_and_grad(x)
    if not np.isfinite(loss0):
        raise NumericError(f"loss is not finite: {loss0}")
    if grad.shape != x.shape:
        raise ShapeError(f"gradient has shape {grad.shape}, parameters {x.shape}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, offset, rows, cols in blocks:
        count = min(max_coords_per_block, rows * cols)
        for flat in rng.choice(rows * cols, size=count, replace=False):
            losses = []
            for delta in (eps, -eps):
                bumped = x.copy()
                bumped[offset + flat] += delta
                losses.append(loss_and_grad(bumped)[0])
            if not np.all(np.isfinite(losses)):
                i, j = divmod(int(flat), cols)
                raise NumericError(f"perturbed loss not finite at {name}[{i},{j}]")
            fd = (losses[0] - losses[1]) / (2.0 * eps)
            a = float(grad[offset + flat])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst
