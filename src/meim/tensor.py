"""Dense float64 tensors with taped reverse-mode differentiation.

Each tensor wraps one float64 numpy array of its own shape, which may be
a view of another tensor's array (a reshape or transpose). The op set is
deliberately small: exactly the contractions, reductions and layers that
the scoring and training paths need. Each op computes its value eagerly
and, when a GradTape is active and an input requires gradients, records
the output node together with a vector-Jacobian closure. Replaying the
tape in reverse execution order accumulates adjoints; a parameter used in
several places receives the sum of its per-use contributions.

The replay releases the graph as it goes: each node drops its closure and
its parents once replayed, and the tape drops its nodes, so every forward
buffer is freed during the backward pass and none outlives it. A row
gather's adjoint carries only its distinct rows, which the backward pass
adds in place into a gradient array it allocated itself. The fused
all-entity softmax cross-entropy never holds its whole score matrix: it
scores one bounded block of rows at a time and, when taped, forms its
input gradients block by block during the forward call.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, ValidationError

_LOG_FLOOR = 1e-300
# the fused loss's one score buffer: 512 rows of 40,943 entities (WN18RR)
_SCORE_BLOCK_BYTES = 160 * 2**20
_TABLE_COLS = 4096  # entities per product added into its table gradient, which bounds the temporary
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch norm's running-average rate and variance guard


class _TapeStack(threading.local):
    """Per-thread stack of active tapes; ops record on the innermost one.

    Thread-local so read-only scoring on a caller's other threads can never
    append to a tape owned by the training thread.
    """

    def __init__(self):
        self.stack: list["GradTape"] = []


_TAPES = _TapeStack()


class Tensor:
    """Dense float64 array node of the computation graph.

    Treat the data as immutable once the tensor participates in a taped
    forward pass; in-place mutation is reserved for optimizer updates on
    leaf parameters between passes.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return transpose(self, axes)

    def transpose(self, axes):
        return transpose(self, axes)


class GradTape:
    """Ordered record of one forward pass, replayed backwards for adjoints.

    Single-writer: one forward/backward pass owns one tape. Nodes are
    appended in execution order, so iterating the record in reverse visits
    operations in exact reverse execution order. `backward` consumes the
    record; the length stays the number of ops recorded.
    """

    def __init__(self):
        self._nodes: list[Tensor] | None = []  # None once replayed
        self._replayed = 0  # the record's length when backward consumed it

    def __enter__(self) -> "GradTape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.stack.pop()
        assert popped is self, "GradTape exited out of order"
        return False

    def __len__(self) -> int:
        return self._replayed if self._nodes is None else len(self._nodes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on `parents` is recorded: a tape is active and an input needs gradients."""
    return bool(_TAPES.stack) and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording it on the active tape when needed."""
    if not _recording(parents):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._vjp = vjp
    _TAPES.stack[-1]._nodes.append(out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ops ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), vjp)


def square(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (g * (2.0 * a.data),)

    return _node(a.data * a.data, (a,), vjp)


def abs_pow(a, p: float) -> Tensor:
    """|x| ** p with the almost-everywhere derivative p * |x|**(p-1) * sign(x)."""
    a = as_tensor(a)
    absx = np.abs(a.data)
    out = absx**p

    def vjp(g):
        return (g * (p * absx ** (p - 1.0) * np.sign(a.data)),)

    return _node(out, (a,), vjp)


# -- shape ops -------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _node(a.data.reshape(shape), (a,), vjp)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return _node(a.data.transpose(axes), (a,), vjp)


class _Rows(NamedTuple):
    """Row-sparse adjoint: `rows[j]` is the gradient of row `index[j]`, other rows are zero.

    The indices are distinct, so `dense[index] += rows` adds each row once.
    """

    index: np.ndarray
    rows: np.ndarray


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0; the adjoint sums the gradients of each distinct row."""
    a = as_tensor(a)
    idx = np.asarray(indices)

    def vjp(g):
        # row by row from zero: per row, the additions and their order of
        # np.add.at, whose per-element loop is ten times slower on wide rows;
        # the modulo makes a negative index and its positive form one row
        index, slot = np.unique(idx % a.shape[0], return_inverse=True)
        acc = np.zeros((index.size,) + a.shape[1:])
        for j, row in zip(slot.ravel(), g.reshape((-1,) + a.shape[1:])):
            acc[j] += row
        return (_Rows(index, acc),)

    return _node(a.data[idx], (a,), vjp)


# -- reductions ------------------------------------------------------------


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape),)
        g_exp = g
        if not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % a.ndim for ax in axes):
                g_exp = np.expand_dims(g_exp, ax)
        return (np.broadcast_to(g_exp, a.shape),)

    return _node(out, (a,), vjp)


# -- contractions ------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """np.matmul semantics on stacks of matrices, with batch broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner axes disagree: {a.shape} (axis {a.ndim - 1}) vs {b.shape} (axis {b.ndim - 2})"
        )
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), vjp)


def grouped_matmul(x, mats, group) -> Tensor:
    """out[n, k] = x[n, k] @ M[k] for (N, K, C) rows, (G, K, C, C) mats and group g = group[n].

    M is mats[g] for a group g < G and mats[g - G]^T for G <= g < 2G, read
    as a transposed view, so no mapping is copied. The rows are sorted by
    group once, and each group present is one (K, n_g, C) @ (K, C, C) GEMM.
    The VJP returns g_g @ M^T for the rows, and adds x_g^T @ g_g, transposed
    for g >= G, into the (G, K, C, C) gradient slot of the mapping it read.
    """
    x, mats = as_tensor(x), as_tensor(mats)
    group = np.asarray(group)
    if x.ndim != 3 or mats.shape[1:] != x.shape[1:] + x.shape[2:] or group.shape != x.shape[:1]:
        raise ShapeError(f"grouped_matmul needs (N, K, C) rows, (G, K, C, C) mats and (N,) "
                         f"groups, got {x.shape}, {mats.shape} and {group.shape}")
    g_mats = mats.shape[0]
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(2 * g_mats + 1))
    if bounds[0] != 0 or bounds[-1] != group.size:
        raise ValidationError(f"group ids must lie in [0, {2 * g_mats})")
    spans = [(i, slice(a, b)) for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])) if a < b]
    undo = np.argsort(order)  # where each row sits in group order
    xs = x.data[order].swapaxes(0, 1)  # (K, N, C), rows in group order

    def mapping(i):  # the (K, C, C) matrices of group i, a view of mats
        return mats.data[i] if i < g_mats else mats.data[i - g_mats].swapaxes(1, 2)

    def per_group(rows, product):  # product(i, rows of group i) for each group, in input order
        out = np.empty(rows.shape)
        for i, span in spans:
            out[:, span] = product(i, rows[:, span])
        return out.swapaxes(0, 1)[undo]

    def vjp(g):
        gs = g[order].swapaxes(0, 1)
        gm = np.zeros(mats.shape)
        for i, span in spans:
            product = xs[:, span].swapaxes(1, 2) @ gs[:, span]
            gm[i % g_mats] += product if i < g_mats else product.swapaxes(1, 2)
        return per_group(gs, lambda i, rows: rows @ mapping(i).swapaxes(1, 2)), gm

    return _node(per_group(xs, lambda i, rows: rows @ mapping(i)), (x, mats), vjp)


# -- losses ------------------------------------------------------------------


def _check_target_rows(weights_sum: np.ndarray):
    bad = np.abs(weights_sum - 1.0) > 1e-9
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValidationError(
            f"target row {row} sums to {weights_sum.flat[row]:.12g}, expected 1 within 1e-9"
        )


def matmul_softmax_cross_entropy(hidden, table, offsets, ids, weights) -> Tensor:
    """Sparse-target softmax cross-entropy of the scores hidden @ table^T.

    The total cross-entropy between the row softmax of the scores, shifted
    by each row's max and floored at 1e-300 before the log, and targets
    given as CSR rows, one per hidden row: row n puts
    `weights[offsets[n]:offsets[n+1]]` on the entities `ids[offsets[n]:offsets[n+1]]`,
    and each row's weights sum to one. Returns the sum over rows as a scalar.

    The (N, M) scores are never whole: the hidden rows are scored one block
    at a time into one buffer of about _SCORE_BLOCK_BYTES, which the softmax
    overwrites in place. When the op is taped, each block's softmax minus
    its targets is multiplied out at once into the (N, D) hidden gradient
    and, added in block order over _TABLE_COLS entities at a time, the
    (D, M) transposed table gradient; the VJP only scales these two arrays.
    """
    hidden, table = as_tensor(hidden), as_tensor(table)
    if hidden.ndim != 2 or table.ndim != 2:
        raise ShapeError(f"hidden and table must be 2-d, got {hidden.shape} and {table.shape}")
    if hidden.shape[1] != table.shape[1]:
        raise ShapeError(f"hidden rows of width {hidden.shape[1]} but table rows of width "
                         f"{table.shape[1]} (axis 1)")
    n, m = hidden.shape[0], table.shape[0]
    if len(offsets) != n + 1:
        raise ShapeError(f"{len(offsets) - 1} target rows for {n} hidden rows")
    lengths = np.diff(offsets)
    if np.any(lengths == 0):
        raise ValidationError(f"target row {int(np.argmax(lengths == 0))} is empty")
    ids, weights = np.asarray(ids), np.asarray(weights, dtype=np.float64)
    row_rep = np.repeat(np.arange(n), lengths)
    _check_target_rows(np.add.reduceat(weights, offsets[:-1]))

    taped = _recording((hidden, table))
    step = max(1, _SCORE_BLOCK_BYTES // (8 * m))  # rows per score block
    buf = np.empty((min(step, n), m))
    picked = np.empty(weights.size)
    if taped:
        grad_hidden = np.empty(hidden.shape)
        # (D, M), not (M, D): hidden_blk^T @ blk forms faster than blk^T @ hidden_blk,
        # 2x at D = 30 and 1.4x at D = 300 over 512 x 40,943 blocks
        grad_table_t = np.zeros(table.shape[::-1])
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        blk = buf[:rows.stop - start]
        np.matmul(hidden.data[rows], table.data.T, out=blk)
        for row in blk:  # softmax in place; per row, each pass after the first reads from cache
            row -= row.max()
            np.exp(row, out=row)
            row /= row.sum()
        span = slice(offsets[start], offsets[rows.stop])
        at = (row_rep[span] - start, ids[span])  # (row, id) pairs are unique
        picked[span] = blk[at]
        if taped:
            blk[at] -= weights[span]  # blk now holds this block's gradient of the scores
            np.matmul(blk, table.data, out=grad_hidden[rows])
            if start == 0:
                np.matmul(hidden.data[rows].T, blk, out=grad_table_t)
            else:
                for col in range(0, m, _TABLE_COLS):
                    cols = slice(col, col + _TABLE_COLS)
                    grad_table_t[:, cols] += hidden.data[rows].T @ blk[:, cols]
    value = -float(weights @ np.log(np.maximum(picked, _LOG_FLOOR)))

    def vjp(g):
        # single use per backward pass: scales the gradient arrays in place
        np.multiply(grad_hidden, g, out=grad_hidden)
        np.multiply(grad_table_t, g, out=grad_table_t)
        return grad_hidden, grad_table_t.T

    return _node(np.float64(value), (hidden, table), vjp)


# -- layers ------------------------------------------------------------------


def dropout(x, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout: scales kept entries by 1/(1-rate) at train time."""
    x = as_tensor(x)
    if not (0.0 <= rate < 1.0):
        raise ValidationError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValidationError("training-mode dropout needs a random generator")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def vjp(g):
        return (g * keep,)

    return _node(x.data * keep, (x,), vjp)


class BatchNorm:
    """Per-feature batch normalization with affine transform and running stats.

    Training mode normalizes by batch statistics (biased variance) and
    updates exponential running averages; evaluation mode normalizes by
    the stored running statistics, which then act as constants.
    """

    STATE = ("gamma", "beta", "running_mean", "running_var")  # the names of state_arrays()

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def __call__(self, x, training: bool) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"batch norm expects (batch, {self.num_features}), got {x.shape}"
            )
        gamma, beta = self.gamma, self.beta
        if training:
            mean = x.data.mean(axis=0)
            var = x.data.var(axis=0)
            inv = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x.data - mean) * inv
            self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
            self.running_var += BN_MOMENTUM * (var - self.running_var)
            n = x.shape[0]

            def vjp(g):
                gy = g * gamma.data
                dx = inv / n * (n * gy - gy.sum(axis=0) - xhat * (gy * xhat).sum(axis=0))
                return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

        else:
            inv = 1.0 / np.sqrt(self.running_var + BN_EPS)
            xhat = (x.data - self.running_mean) * inv

            def vjp(g):
                return g * (gamma.data * inv), (g * xhat).sum(axis=0), g.sum(axis=0)

        out = gamma.data * xhat + beta.data
        return _node(out, (x, gamma, beta), vjp)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return dict(zip(self.STATE, (self.gamma.data, self.beta.data, self.running_mean,
                                     self.running_var)))

    @classmethod
    def from_state_arrays(cls, arrays: dict[str, np.ndarray]) -> "BatchNorm":
        """A layer whose `state_arrays()` are `arrays`, taken as given."""
        bn = cls(len(arrays["gamma"]))
        bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var = (
            np.asarray(arrays[key], dtype=np.float64) for key in cls.STATE)
        return bn


# -- differentiation ---------------------------------------------------------


def backward(tape: GradTape, loss: Tensor, leaves) -> list[np.ndarray]:
    """Adjoints of scalar `loss` for every tensor in `leaves`.

    Visits the tape in exact reverse execution order; a leaf used in
    several places receives the sum of its per-use adjoints, and leaves
    that never fed the loss get zero gradients. Each node drops its
    closure and parents as soon as it is replayed, and the tape drops its
    nodes, so the graph's buffers are freed during the pass; the loss keeps
    its value and the tape its length. A tape therefore supports one
    backward pass, and a second one raises ValidationError.
    """
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = tape._nodes
    if nodes is None:
        raise ValidationError("this tape was already replayed by backward; record a new one")
    tape._nodes, tape._replayed = None, len(nodes)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    # ownership: a VJP may return a view of its input, a read-only broadcast
    # or an array it keeps, so backward adds in place only into the arrays
    # it allocated itself; a borrowed one is copied before its first add
    owned: set[int] = set()
    while nodes:
        node = nodes.pop()
        vjp, parents = node._vjp, node._parents
        node._vjp, node._parents = None, ()
        g = grads.pop(id(node), None)
        owned.discard(id(node))
        if g is None or vjp is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            held = grads.get(key)
            if isinstance(pg, _Rows):
                if held is None:
                    held = np.zeros(parent.shape)
                elif key not in owned:
                    held = np.array(held)
                held[pg.index] += pg.rows
            elif held is None:
                grads[key] = pg
                continue
            elif key in owned:
                held += pg
            else:
                held = held + pg
            grads[key] = held
            owned.add(key)
    out = []
    for leaf in leaves:
        g = grads.get(id(leaf))
        out.append(np.zeros_like(leaf.data) if g is None else np.ascontiguousarray(g))
    return out


def finite_diff_check(function, params, step: float = 1e-5) -> float:
    """Max relative error between taped gradients and central differences.

    `function` maps the given parameter tensors to a scalar Tensor and must
    be deterministic (dropout disabled, batch norm in a fixed mode). The
    error for each coordinate is |analytic - numeric| / max(1, |analytic|);
    a NaN in any probe reports as infinity.
    """
    with GradTape() as tape:
        loss = function(params)
    analytic = backward(tape, loss, params)

    worst = 0.0
    for p, grad in zip(params, analytic):
        # index assignment (not a flat view) so probes reach non-contiguous data
        for idx in np.ndindex(*p.data.shape):
            saved = p.data[idx]
            p.data[idx] = saved + step
            up = function(params).item()
            p.data[idx] = saved - step
            down = function(params).item()
            p.data[idx] = saved
            numeric = (up - down) / (2.0 * step)
            if not np.isfinite(numeric):
                return float("inf")
            err = abs(grad[idx] - numeric) / max(1.0, abs(grad[idx]))
            worst = max(worst, err)
    return worst
