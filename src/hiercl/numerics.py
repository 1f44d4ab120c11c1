"""Deterministic dense linear algebra with reverse-mode differentiation.

Values are read-only 2-D float64 ndarrays; vectors are 1xN rows. A tape's
sources, `Tape.leaf` and `Tape.constant`, take such arrays as they are. Each
differentiable op is defined once, as a `Tape` method over its input nodes'
values: it checks its inputs, computes its value and records, in the same
place, its own vector-Jacobian product as a closure on the node.
`Tape.backward` walks the nodes in reverse, calls those closures and skips
inputs that need no gradient, pushing a scalar loss gradient back to the
leaves as one flat vector. `Tape.info_nce` is the whole contrastive loss,
-(1/B) sum_i log of the sum over routes of diag(softmax(q t^T / tau))_i, in
one node with a closed-form gradient; it holds the only softmax. `Tape.mlp`
and `Tape.embed_mean` are the encoders' layers, each one node.

Everything is float64 and single-threaded (`single_thread_blas`); identical
inputs produce bit-identical outputs. Hot paths call ufunc reductions such as
`np.add.reduce`: `ndarray.sum`, `.min` and `.max` reach them through Python.
"""
from __future__ import annotations

import ctypes
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateEmbeddingError,
    EmptyInputError,
    NumericError,
    ShapeError,
    VocabularyError,
)

NORM_GUARD = 1e-12  # rows with smaller L2 norm are considered degenerate
_BLOCK_BYTES = 1 << 16  # bound on each temporary of embed_mean's gradient


@cache
def _openblas_thread_setter() -> Callable[[int], None]:
    """numpy's OpenBLAS thread-count setter, looked up once per process; a no-op without one."""
    for path in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same library
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
            if hasattr(lib, symbol):
                setter = getattr(lib, symbol)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return lambda threads: None


def single_thread_blas() -> None:
    """Run the OpenBLAS that numpy ships on one thread from now on; no-op without one."""
    _openblas_thread_setter()(1)


# A vector-Jacobian product: (gradient of the node's value, which inputs need
# a gradient) -> one gradient or None per input.
VJP = Callable[[np.ndarray, Sequence[bool]], Sequence["np.ndarray | None"]]


def _dims(a: np.ndarray) -> str:
    return f"{a.shape[0]}x{a.shape[1]}"


def _segment_lengths(op: str, lengths: Sequence[int], total: int, unit: str) -> np.ndarray:
    """Segment lengths as intp, checked to split `total` units into non-empty runs."""
    n = np.asarray(lengths, dtype=np.intp)
    if n.ndim != 1 or n.size == 0 or np.minimum.reduce(n) < 1:
        raise EmptyInputError(f"{op}: needs one or more segments, none of them empty")
    if np.add.reduce(n) != total:
        raise ShapeError(f"{op}: lengths sum to {int(n.sum())}, not {total} {unit}")
    return n


class Node:
    """One recorded value on a tape, with its inputs and its backward rule.

    `value` is a read-only 2-D float64 ndarray; `needs` lists its inputs' `needs_grad`.
    """

    __slots__ = ("nid", "value", "inputs", "needs", "needs_grad", "vjp")

    def __init__(self, nid: int, value: np.ndarray, inputs: tuple["Node", ...],
                 needs: list[bool], needs_grad: bool, vjp: VJP | None) -> None:
        self.nid = nid
        self.value = value
        self.inputs = inputs
        self.needs = needs
        self.needs_grad = needs_grad
        self.vjp = vjp

    def __repr__(self) -> str:
        return f"Node({self.nid}, {_dims(self.value)})"


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

    def _push(self, value: np.ndarray, inputs: tuple[Node, ...] = (), vjp: VJP | None = None,
              needs_grad: bool | None = None) -> Node:
        needs = list(map(attrgetter("needs_grad"), inputs))
        if needs_grad is None:
            needs_grad = True in needs
        elif type(value) is not np.ndarray or value.ndim != 2 or value.dtype != np.float64:
            raise ShapeError(f"{'leaf' if needs_grad else 'constant'}: needs a 2-D float64 "
                             f"ndarray, got {type(value).__name__} "
                             f"{getattr(value, 'shape', '')} {getattr(value, 'dtype', '')}")
        value.setflags(write=False)
        node = Node(len(self._nodes), value, inputs, needs, needs_grad, vjp)
        self._nodes.append(node)
        return node

    # -- graph sources, checked in _push: a helper would add a call per leaf --

    def leaf(self, a: np.ndarray) -> Node:
        """Trainable 2-D float64 input, made read-only; backward() reports its gradient."""
        return self._push(a, needs_grad=True)

    def constant(self, a: np.ndarray) -> Node:
        """Non-trainable 2-D float64 input, made read-only; no gradient flows into it."""
        return self._push(a, needs_grad=False)

    # -- recorded primitives -------------------------------------------------

    def mlp(self, x: Node, w1: Node, b1: Node, w2: Node, b2: Node) -> Node:
        """Two-layer perceptron relu(x w1 + b1) w2 + b2, whose biases are 1xC rows."""
        xa, wa, ba, wb, bb = x.value, w1.value, b1.value, w2.value, b2.value
        for inner, w, b in ((xa.shape[1], wa, ba), (wa.shape[1], wb, bb)):
            if w.shape[0] != inner or b.shape != (1, w.shape[1]):
                raise ShapeError(f"mlp: shapes do not chain: x {_dims(xa)}, w1 {_dims(wa)}, "
                                 f"b1 {_dims(ba)}, w2 {_dims(wb)}, b2 {_dims(bb)}")
        h = xa @ wa
        h += ba
        mask = h > 0.0
        np.maximum(h, 0.0, out=h)
        out = h @ wb
        out += bb

        def vjp(g, needs):
            gh = g @ wb.T
            gh *= mask
            return (gh @ wa.T if needs[0] else None, xa.T @ gh,
                    np.add.reduce(gh, axis=0, keepdims=True), h.T @ g,
                    np.add.reduce(g, axis=0, keepdims=True))
        return self._push(out, (x, w1, b1, w2, b2), vjp)

    def l2_normalize_rows(self, a: Node) -> Node:
        """Scale each row to unit Euclidean norm."""
        x = a.value
        norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
        ok = norms[:, 0] > NORM_GUARD  # False for a NaN norm too
        if False in ok:  # ndarray.__contains__: one C call, where .all() is a Python wrapper
            bad = int(ok.argmin())
            raise DegenerateEmbeddingError(f"row {bad} has near-zero norm {norms[bad, 0]:.3e}")
        y = x / norms
        return self._push(y, (a,), lambda g, needs: (
            (g - y * np.add.reduce(g * y, axis=1, keepdims=True)) / norms,))

    def segment_mean(self, a: Node, lengths: Sequence[int]) -> Node:
        """Mean over consecutive row segments of the given lengths, one row each."""
        x = a.value
        n = _segment_lengths("segment_mean", lengths, x.shape[0], "rows")
        return self._push(np.add.reduceat(x, n.cumsum() - n, axis=0) / n[:, None], (a,),
                          lambda g, needs: ((g / n[:, None]).repeat(n, axis=0),))

    def embed_mean(self, table: Node, ids: Sequence[int], lengths: Sequence[int]) -> Node:
        """segment_mean of the table rows of each bag of consecutive ids: an embedding bag."""
        rows, cols = table.value.shape
        idx = np.asarray(ids, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError(f"embed_mean: ids must be one flat run, got {idx.ndim}-D")
        n = _segment_lengths("embed_mean", lengths, idx.size, "ids")
        if np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= rows:
            bad = idx[(idx < 0) | (idx >= rows)][0]
            raise VocabularyError(f"token id {int(bad)} outside vocabulary of size {rows}")

        def vjp(g, needs):
            # A bincount over (id, column) cells adds each cell's token shares
            # in token order: the bits of np.add.at. Blocks of equal width,
            # as wide as _BLOCK_BYTES allows, share one cells array.
            share = g / n[:, None]
            width = min(cols, max(1, _BLOCK_BYTES // (8 * idx.size)))
            while cols % width:
                width -= 1
            cells = (idx[:, None] * width + np.arange(width)).ravel()
            gx = np.empty((rows, cols))
            for lo in range(0, cols, width):
                weights = share[:, lo:lo + width].repeat(n, axis=0).ravel()
                gx[:, lo:lo + width] = np.bincount(cells, weights=weights,
                                                   minlength=rows * width).reshape(rows, width)
            return (gx,)
        return self._push(np.add.reduceat(table.value[idx], n.cumsum() - n, axis=0)
                          / n[:, None], (table,), vjp)

    def concat_rows(self, parts: Sequence[Node]) -> Node:
        if not parts:
            raise EmptyInputError("concat_rows: no parts")
        cols = parts[0].value.shape[1]
        for p in parts:
            if p.value.shape[1] != cols:
                raise ShapeError(
                    f"concat_rows: column counts differ: {cols} vs {p.value.shape[1]}")
        offsets = np.cumsum([0] + [p.value.shape[0] for p in parts])
        return self._push(np.concatenate([p.value for p in parts]), tuple(parts),
                          lambda g, needs: [np.ascontiguousarray(g[lo:hi])
                                            for lo, hi in zip(offsets, offsets[1:])])

    def info_nce(self, routes: Sequence[tuple[Node, Node]],
                 tau: float) -> tuple[Node, list[np.ndarray]]:
        """Contrastive loss -(1/B) sum_i log sum_r p_r(i) over B rows, as a 1x1 node.

        p_r(i) is row i's softmax probability of target i in route r:
        diag(softmax(q t^T / tau)) for that route's (queries, targets),
        each softmax taken after subtracting its row's max. Routes add in
        order. Also returns each route's similarity matrix q t^T.
        """
        if not routes:
            raise EmptyInputError("info_nce: no routes")
        shapes = {n.value.shape for route in routes for n in route}
        if len(shapes) > 1:
            raise ShapeError("info_nce: every route's queries and targets must pair row for "
                             f"row, in one shape; got shapes {sorted(shapes)}")
        if not tau > 0.0:
            raise ConfigError(f"softmax temperature must be positive, got {tau}")
        tau = float(tau)
        c = -1.0 / routes[0][0].value.shape[0]
        sims, saved, total = [], [], None
        for queries, targets in routes:
            q = queries.value
            # BLAS may round q @ t.T through a strided view differently from a
            # product with the contiguous transpose; the copy pins the bits.
            t_cols = np.ascontiguousarray(targets.value.T)
            sims.append(q @ t_cols)
            probs = sims[-1] / tau  # the softmax is taken in place
            probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
            np.exp(probs, out=probs)
            probs /= np.add.reduce(probs, axis=1, keepdims=True)
            diag = probs.diagonal().copy()
            total = diag if total is None else total + diag
            saved.append((q, t_cols, probs, diag))

        def vjp(g, needs):
            gp = (g * c)[0, 0] / total
            grads = []
            for (q, t_cols, probs, diag), need_q, need_t in zip(saved, needs[::2], needs[1::2]):
                # d p_ii / d z_ij = p_ii (delta_ij - p_ij), so row i of the
                # softmax gradient is -g_i p_ii p_ij, plus g_i p_ii on the diagonal.
                inner = gp * diag
                gs = probs * -inner[:, None]
                gs.flat[::len(gs) + 1] = diag * (gp - inner)
                gs /= tau
                grads += (gs @ t_cols.T if need_q else None,
                          np.ascontiguousarray((q.T @ gs).T) if need_t else None)
            return grads
        loss = np.array([[np.log(total).sum()]]) * c
        return self._push(loss, tuple([n for route in routes for n in route]), vjp), sims

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
            raise ContractError(f"backward requires a scalar (1x1) loss, got {_dims(loss.value)}")
        grads: dict[int, np.ndarray] = {loss.nid: np.array([[1.0]])}
        for node in reversed(self._nodes[:loss.nid + 1]):
            g = grads.pop(node.nid, None) if node.inputs else None
            if g is None:
                continue
            for i, need, ig in zip(node.inputs, node.needs, node.vjp(g, node.needs)):
                if need and ig is not None:
                    grads[i.nid] = grads[i.nid] + ig if i.nid in grads else ig
        return np.concatenate([grads[n.nid].ravel() if n.nid in grads
                               else np.zeros(n.value.size) for n in wrt])


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
