"""Deterministic dense linear algebra with reverse-mode differentiation.

Values live in `Matrix`, an immutable 2-D float64 array; vectors are 1xN
matrices. Plain module functions (matmul, softmax_rows, ...) evaluate
eagerly. The same primitives are available as `Tape` methods, which record
every application so `Tape.backward` can push a scalar loss gradient back
to the leaves.

Everything is float64 and single-threaded; identical inputs produce
bit-identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "Matrix":
        return cls(list(list(r) for r in rows))

    @classmethod
    def row_vector(cls, values: Iterable[float]) -> "Matrix":
        return cls([list(values)])

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

    def row(self, i: int) -> np.ndarray:
        return self._a[i]

    def tolist(self) -> list[list[float]]:
        return self._a.tolist()

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self._a)))

    def same_values(self, other: "Matrix") -> bool:
        """Bit-exact equality."""
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def allclose(self, other: "Matrix", tol: float = 1e-12) -> bool:
        return self.shape == other.shape and bool(
            np.allclose(self._a, other._a, rtol=0.0, atol=tol)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _require_same_shape(a: Matrix, b: Matrix, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


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


def transpose(a: Matrix) -> Matrix:
    return Matrix._wrap(np.ascontiguousarray(a.array.T))


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise sum; b may be a 1xC row vector broadcast over a's rows."""
    if b.shape != a.shape and not (b.rows == 1 and b.cols == a.cols):
        raise ShapeError(f"add: shapes differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return Matrix._wrap(a.array + b.array)


def mul(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise (Hadamard) product of same-shape matrices."""
    _require_same_shape(a, b, "mul")
    return Matrix._wrap(a.array * b.array)


def scale(a: Matrix, c: float) -> Matrix:
    return Matrix._wrap(a.array * float(c))


def relu(a: Matrix) -> Matrix:
    return Matrix._wrap(np.maximum(a.array, 0.0))


def log(a: Matrix) -> Matrix:
    return Matrix._wrap(np.log(a.array))


def exp(a: Matrix) -> Matrix:
    return Matrix._wrap(np.exp(a.array))


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


def gather_diag(m: Matrix) -> Matrix:
    """Main diagonal of a square matrix, as a 1xN row."""
    if m.rows != m.cols:
        raise ShapeError(f"gather_diag: matrix is {m.rows}x{m.cols}, not square")
    return Matrix._wrap(np.diagonal(m.array).copy()[None, :])


def sum_all(m: Matrix) -> Matrix:
    """Sum of all entries as a 1x1 matrix."""
    return Matrix._wrap(np.array([[m.array.sum()]]))


@dataclass
class _Record:
    op: str
    inputs: tuple[int, ...]
    value: Matrix
    meta: dict
    needs_grad: bool


class Node:
    """Handle to one recorded value on a tape."""

    __slots__ = ("nid", "value")

    def __init__(self, nid: int, value: Matrix) -> None:
        self.nid = nid
        self.value = value

    def __repr__(self) -> str:
        return f"Node({self.nid}, {self.value!r})"


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Nodes are appended in creation order, which is automatically a
    topological order. A tape belongs to a single training step and must
    not be shared across threads.
    """

    def __init__(self) -> None:
        self._recs: list[_Record] = []

    def __len__(self) -> int:
        return len(self._recs)

    def value(self, nid: int) -> Matrix:
        return self._recs[nid].value

    def _push(self, op: str, inputs: tuple[int, ...], value: Matrix, meta: dict,
              needs_grad: bool) -> Node:
        self._recs.append(_Record(op, inputs, value, meta, needs_grad))
        return Node(len(self._recs) - 1, value)

    def _needs(self, *nodes: Node) -> bool:
        return any(self._recs[n.nid].needs_grad for n in nodes)

    # -- graph sources ------------------------------------------------------

    def leaf(self, m: Matrix) -> Node:
        """Trainable input; backward() reports a gradient for it."""
        return self._push("leaf", (), m, {}, True)

    def constant(self, m: Matrix) -> Node:
        """Non-trainable input; gradients are not propagated into it."""
        return self._push("const", (), m, {}, False)

    # -- recorded primitives -------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        return self._push("matmul", (a.nid, b.nid), matmul(a.value, b.value), {},
                          self._needs(a, b))

    def transpose(self, a: Node) -> Node:
        return self._push("transpose", (a.nid,), transpose(a.value), {}, self._needs(a))

    def add(self, a: Node, b: Node) -> Node:
        return self._push("add", (a.nid, b.nid), add(a.value, b.value), {},
                          self._needs(a, b))

    def mul(self, a: Node, b: Node) -> Node:
        return self._push("mul", (a.nid, b.nid), mul(a.value, b.value), {},
                          self._needs(a, b))

    def scale(self, a: Node, c: float) -> Node:
        return self._push("scale", (a.nid,), scale(a.value, c), {"c": float(c)},
                          self._needs(a))

    def relu(self, a: Node) -> Node:
        return self._push("relu", (a.nid,), relu(a.value), {}, self._needs(a))

    def log(self, a: Node) -> Node:
        return self._push("log", (a.nid,), log(a.value), {}, self._needs(a))

    def exp(self, a: Node) -> Node:
        return self._push("exp", (a.nid,), exp(a.value), {}, self._needs(a))

    def softmax_rows(self, a: Node, tau: float) -> Node:
        return self._push("softmax_rows", (a.nid,), softmax_rows(a.value, tau),
                          {"tau": float(tau)}, self._needs(a))

    def l2_normalize_rows(self, a: Node) -> Node:
        return self._push("l2_normalize_rows", (a.nid,), l2_normalize_rows(a.value),
                          {}, self._needs(a))

    def segment_mean(self, a: Node, lengths: Sequence[int]) -> Node:
        n = np.array(lengths, dtype=np.intp)
        return self._push("segment_mean", (a.nid,), segment_mean(a.value, n),
                          {"lengths": n}, self._needs(a))

    def concat_rows(self, parts: Sequence[Node]) -> Node:
        return self._push("concat_rows", tuple(p.nid for p in parts),
                          concat_rows([p.value for p in parts]), {},
                          self._needs(*parts))

    def gather_rows(self, a: Node, indices: Sequence[int]) -> Node:
        idx = np.array(indices, dtype=np.intp)
        return self._push("gather_rows", (a.nid,), gather_rows(a.value, idx),
                          {"indices": idx}, self._needs(a))

    def gather_diag(self, a: Node) -> Node:
        return self._push("gather_diag", (a.nid,), gather_diag(a.value), {},
                          self._needs(a))

    def sum_all(self, a: Node) -> Node:
        return self._push("sum_all", (a.nid,), sum_all(a.value), {}, self._needs(a))

    # -- reverse pass --------------------------------------------------------

    def backward(self, loss: Node) -> dict[int, Matrix]:
        """Gradient of a scalar loss with respect to every leaf.

        Returns a dict keyed by leaf node id; leaves that do not influence
        the loss get zero gradients. Deterministic for a fixed tape.
        """
        rec = self._recs[loss.nid]
        if rec.value.shape != (1, 1):
            raise ContractError(
                f"backward requires a scalar (1x1) loss, got {rec.value.rows}x{rec.value.cols}"
            )
        grads: dict[int, np.ndarray] = {loss.nid: np.ones((1, 1))}
        for nid in range(loss.nid, -1, -1):
            r = self._recs[nid]
            g = grads.pop(nid, None)
            if g is None or r.op in ("leaf", "const"):
                if g is not None and r.op == "leaf":
                    grads[nid] = g
                continue
            for in_id, ig in zip(r.inputs, self._input_grads(r, g)):
                if ig is None or not self._recs[in_id].needs_grad:
                    continue
                if in_id in grads:
                    grads[in_id] = grads[in_id] + ig
                else:
                    grads[in_id] = ig
        out: dict[int, Matrix] = {}
        for nid, r in enumerate(self._recs):
            if r.op == "leaf":
                g = grads.get(nid)
                out[nid] = Matrix._wrap(g if g is not None else np.zeros(r.value.shape))
        return out

    def _input_grads(self, r: _Record, g: np.ndarray) -> list[np.ndarray | None]:
        vals = [self._recs[i].value.array for i in r.inputs]
        needs = [self._recs[i].needs_grad for i in r.inputs]
        op = r.op
        if op == "matmul":
            a, b = vals
            return [g @ b.T if needs[0] else None, a.T @ g if needs[1] else None]
        if op == "transpose":
            return [np.ascontiguousarray(g.T)]
        if op == "add":
            a, b = vals
            gb = g if b.shape == a.shape else g.sum(axis=0, keepdims=True)
            return [g, gb]
        if op == "mul":
            a, b = vals
            return [g * b, g * a]
        if op == "scale":
            return [g * r.meta["c"]]
        if op == "relu":
            return [g * (vals[0] > 0.0)]
        if op == "log":
            return [g / vals[0]]
        if op == "exp":
            return [g * r.value.array]
        if op == "softmax_rows":
            s = r.value.array
            inner = (g * s).sum(axis=1, keepdims=True)
            return [s * (g - inner) / r.meta["tau"]]
        if op == "l2_normalize_rows":
            x = vals[0]
            y = r.value.array
            norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
            return [(g - y * (g * y).sum(axis=1, keepdims=True)) / norms]
        if op == "segment_mean":
            n = r.meta["lengths"]
            return [np.repeat(g / n[:, None], n, axis=0)]
        if op == "concat_rows":
            offsets = np.cumsum([0] + [v.shape[0] for v in vals])
            return [np.ascontiguousarray(g[offsets[i]:offsets[i + 1]]) for i in range(len(vals))]
        if op == "gather_rows":
            # One bincount over (row, column) cells sums each cell's
            # contributions in index order: the bits of np.add.at, faster.
            rows, cols = vals[0].shape
            cells = (r.meta["indices"][:, None] * cols + np.arange(cols)).ravel()
            gx = np.bincount(cells, weights=g.ravel(), minlength=rows * cols)
            return [gx.reshape(rows, cols)]
        if op == "gather_diag":
            gx = np.zeros(vals[0].shape)
            np.fill_diagonal(gx, g[0])
            return [gx]
        if op == "sum_all":
            return [np.full(vals[0].shape, g[0, 0])]
        raise ContractError(f"no gradient rule for op {op!r}")


def finite_diff_check(
    loss_and_grad: Callable[[dict[str, Matrix]], tuple[float, dict[str, Matrix]]],
    params: dict[str, Matrix],
    eps: float = 1e-5,
    max_coords_per_block: int = 64,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    `loss_and_grad` must be deterministic and return (loss, grads) with one
    gradient matrix per parameter block. At most `max_coords_per_block`
    coordinates per block are probed, chosen by a seeded generator so the
    check is reproducible. Returns the max relative error over all probes.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ConfigError(f"finite-difference eps must lie in [1e-7, 1e-3], got {eps}")
    loss0, grads = loss_and_grad(params)
    if not np.isfinite(loss0):
        raise NumericError(f"loss is not finite: {loss0}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, m in params.items():
        size = m.rows * m.cols
        count = min(max_coords_per_block, size)
        coords = rng.choice(size, size=count, replace=False)
        analytic = grads[name].data
        for flat in coords:
            i, j = divmod(int(flat), m.cols)
            fp = _perturbed_loss(loss_and_grad, params, name, i, j, +eps)
            fm = _perturbed_loss(loss_and_grad, params, name, i, j, -eps)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(f"perturbed loss not finite at {name}[{i},{j}]")
            fd = (fp - fm) / (2.0 * eps)
            a = float(analytic[flat])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst


def _perturbed_loss(loss_and_grad, params, name, i, j, delta):
    arr = params[name].array.copy()
    arr[i, j] += delta
    bumped = dict(params)
    bumped[name] = Matrix._wrap(arr)
    return loss_and_grad(bumped)[0]
