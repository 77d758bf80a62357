"""Dense float64 tensors with taped reverse-mode differentiation.

Each tensor wraps one float64 numpy array. The op set is one op per model
layer (the row gather of embeddings, mapping generation, batch norm,
dropout, the hidden mat-vec, the fused softmax cross-entropy and the
soft-orthogonality penalty), so a training step records 10 nodes. Each
op computes its value eagerly and, when a GradTape is active and an input
requires gradients, appends one record to the tape: the output, its
inputs and a vector-Jacobian closure. The tape alone holds the graph; a
tensor holds only its array. The loss terms are the records whose output
no later record reads; `backward` seeds each with one and replays the
records in reverse execution order, accumulating adjoints, so a
parameter used in several places receives the sum of its per-use
contributions. Every VJP gives away the adjoints it returns: each is made
for that call or is a view of the adjoint passed in, and no two share
memory, so the replay adds into them in place.

The replay releases the graph as it goes: it pops each record off the
tape, so every forward buffer is freed during the backward pass, and a tape
dropped unreplayed frees them all, whatever tensors are kept. A row
gather's adjoint carries only its distinct rows, which the backward pass
adds in place into the input's gradient, such as the fused loss's table
gradient, or into zeros when it holds none yet. The fused
all-entity softmax cross-entropy never holds its whole score matrix: it
scores one bounded block of rows at a time and, when taped, forms its
input gradients block by block during the forward call. Its softmax is
normalised late: a row of scores is exponentiated unshifted and summed,
shifted only if that sum leaves its safe range, and the row sums scale
only the picked targets and the (rows, D) operands, never the (rows, M) block.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, ValidationError

_LOG_FLOOR = 1e-300
# a row's unshifted sum S from tiny / floor to floor / tiny (about 4.5e7) is kept: every
# probability p at or above the floor then has a normal exp, p * S >= tiny; a finite S above
# is scaled by a power of two, so the late 1/S scaling moves no operand further than that
# from its shifted range; any other row is rescored and shifted by its max
_LEAST_SUM = np.finfo(np.float64).tiny / _LOG_FLOOR
_MOST_SUM = _LOG_FLOOR / np.finfo(np.float64).tiny
_SCORE_BLOCK_BYTES = 32 * 2**20  # least fused-loss block budget: 102 WN18RR rows; 24 MiB is slower
_TABLE_COLS = 4096  # entities per product added into its table gradient, which bounds the temporary
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch norm's running-average rate and variance guard
_FD_STEP = 1e-5  # central-difference step: truncation (~step**2) and rounding (~1e-16 / step) stay small


class _TapeStack(threading.local):
    """Per-thread stack of active tapes; ops record on the innermost one.

    Thread-local so read-only scoring on a caller's other threads can never
    append to a tape owned by the training thread.
    """

    def __init__(self):
        self.stack: list["GradTape"] = []


_TAPES = _TapeStack()


class Tensor:
    """Dense float64 array and whether gradients flow to it; the tape records how it was made.

    Treat the data as immutable once the tensor participates in a taped
    forward pass; in-place mutation is reserved for optimizer updates on
    leaf parameters between passes.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad

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


class GradTape:
    """The graph of one forward pass: an (output, inputs, vjp) record per op, in execution order.

    Single-writer: one forward/backward pass owns one tape. `backward`
    pops the records, so it visits operations in exact reverse execution
    order; the length stays the number of ops recorded.
    """

    def __init__(self):
        self._records: list[tuple] | None = []  # None once replayed
        self._replayed = 0  # the number of records when backward consumed them

    def __enter__(self) -> "GradTape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.stack.pop()
        assert popped is self, "GradTape exited out of order"
        return False

    def __len__(self) -> int:
        return self._replayed if self._records is None else len(self._records)


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
    _TAPES.stack[-1]._records.append((out, parents, vjp))
    return out


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


# -- contractions ------------------------------------------------------------


def relation_mappings(core, parts) -> Tensor:
    """The (U, K, C, C) mappings m[u, k] = sum_l W[k, :, :, l] r[u, k, l], by one batched GEMM.

    W is a (G, C, C, Cr) core bank, G = K or one core shared by every
    partition (G = 1), and r the (U, K, Cr) relation partitions. The VJP is
    g @ r^T for the core, summed over partitions when it is shared, and
    W^T @ g for the parts, with g read as (K, C*C, U).
    """
    core, parts = as_tensor(core), as_tensor(parts)
    if (core.ndim != 4 or core.shape[1] != core.shape[2] or parts.ndim != 3
            or core.shape[0] not in (1, parts.shape[1]) or core.shape[3] != parts.shape[2]):
        raise ShapeError(f"relation_mappings needs a (K or 1, C, C, Cr) core and (U, K, Cr) "
                         f"parts, got {core.shape} and {parts.shape}")
    (g_cores, c, _, cr), (u, k, _) = core.shape, parts.shape
    flat_core = core.data.reshape((g_cores, c * c, cr))
    cols = parts.data.transpose((1, 2, 0))  # (K, Cr, U)

    def vjp(g):
        g = g.reshape((u, k, c * c)).transpose((1, 2, 0))  # (K, C*C, U)
        grad_core = np.matmul(g, cols.swapaxes(1, 2))
        if g_cores < k:
            grad_core = grad_core.sum(axis=0, keepdims=True)
        grad_cols = np.matmul(flat_core.swapaxes(1, 2), g)  # (K, Cr, U)
        return grad_core.reshape(core.shape), grad_cols.transpose((2, 0, 1))

    out = np.matmul(flat_core, cols).transpose((2, 0, 1)).reshape((u, k, c, c))
    return _node(out, (core, parts), vjp)


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


def score_block_rows(table: np.ndarray, budget: int = _SCORE_BLOCK_BYTES) -> int:
    """Rows of scores against the (M, ...) entity table that one block of `budget` bytes,
    or if larger twice the table's (2 * K * C rows), may hold. The fused loss's budget
    is _SCORE_BLOCK_BYTES (32 MiB); evaluation passes its own (`evaluation._chunk_rows`)."""
    return max(budget, 2 * table.nbytes) // (8 * table.shape[0])


def matmul_softmax_cross_entropy(hidden, table, offsets, ids, weights, scale: float) -> Tensor:
    """Sparse-target softmax cross-entropy of the scores hidden @ table^T, times `scale`.

    The total cross-entropy between the row softmax of the scores, floored
    at 1e-300 before the log, and targets given as CSR rows, one per hidden
    row: row n puts `weights[offsets[n]:offsets[n+1]]` on the entities
    `ids[offsets[n]:offsets[n+1]]`, and each row's weights sum to one. Returns the sum over rows times
    `scale` (1/B for a batch mean) as a scalar. The N hidden rows and the M
    table rows are read flattened, so (N, K, C) rows score against a
    (M, K, C) table as (N, K * C) against (M, K * C), with no reshape on the tape.

    The (N, M) scores are never whole: the N rows are split into the fewest
    near-equal blocks of at most `score_block_rows` rows, scored one at a
    time into one buffer, which each row's exp overwrites in place. A row is
    exponentiated unshifted and judged by its sum S alone: an S from _LEAST_SUM
    to _MOST_SUM is kept, a finite S above is scaled by a power of two, and
    any other is rescored by one product and shifted by its max. No row is
    divided by S: the picked targets are, and when the op is taped, the block, holding S times each row's
    softmax minus its targets, is multiplied out at once into the (N, D)
    hidden gradient, then divided by S, and, with the hidden rows divided
    by S, added in block order over _TABLE_COLS entities at a time into the
    (D, M) transposed table gradient; the VJP only scales these two arrays
    by g * scale and returns them as views in the inputs' shapes, the
    table's of the (D, M) buffer. That is the memory order of an
    entity-minor table (`model.entity_minor`). Its products give the same
    bits as a C-ordered table's where each has two or more rows and over
    10**6 multiply-adds; below that, OpenBLAS may pick its kernel by the
    table's layout, and the last bits can differ.
    """
    hidden, table = as_tensor(hidden), as_tensor(table)
    if hidden.ndim < 2 or table.ndim < 2:
        raise ShapeError(f"hidden and table must be at least 2-d, got {hidden.shape} and "
                         f"{table.shape}")
    n, m = hidden.shape[0], table.shape[0]
    # each row flattened, a view of a C-ordered or entity-minor array; the width is
    # explicit for N = 0
    hid = hidden.data.reshape((n, math.prod(hidden.shape[1:])))
    flat = table.data.reshape((m, math.prod(table.shape[1:])))
    if hid.shape[1] != flat.shape[1]:
        raise ShapeError(f"hidden rows of width {hid.shape[1]} but table rows of width "
                         f"{flat.shape[1]}")
    if len(offsets) != n + 1:
        raise ShapeError(f"{len(offsets) - 1} target rows for {n} hidden rows")
    lengths = np.diff(offsets)
    if np.any(lengths == 0):
        raise ValidationError(f"target row {int(np.argmax(lengths == 0))} is empty")
    ids, weights = np.asarray(ids), np.asarray(weights, dtype=np.float64)
    row_rep = np.repeat(np.arange(n), lengths)
    _check_target_rows(np.add.reduceat(weights, offsets[:-1]))

    taped = _recording((hidden, table))
    cap = score_block_rows(flat)
    step = -(-n // -(-n // cap)) if n > cap else cap  # the fewest blocks under the cap, near-equal
    buf = np.empty((min(step, n), m))
    sums = np.empty(min(step, n))
    picked = np.empty(weights.size)
    if taped:
        grad_hidden = np.empty(hid.shape)
        # (D, M), not (M, D): hidden_blk^T @ blk forms faster than blk^T @ hidden_blk,
        # 2x at D = 30 and 1.4x at D = 300 over 512 x 40,943 blocks
        grad_table_t = np.zeros(flat.shape[::-1])
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        blk, s = buf[:rows.stop - start], sums[:rows.stop - start]
        np.matmul(hid[rows], flat.T, out=blk)
        span = slice(offsets[start], offsets[rows.stop])
        at = (row_rep[span] - start, ids[span])  # (row, id) pairs are unique
        for i, row in enumerate(blk):  # exp and sum in place; the sum reads from cache
            with np.errstate(over="ignore"):
                np.exp(row, out=row)
                total = row.sum()
            if _LEAST_SUM <= total <= _MOST_SUM:  # False for NaN
                s[i] = total
                continue
            if _MOST_SUM < total < math.inf:  # a power of two: exact, bar entries far below the floor
                power = math.ldexp(1.0, -math.frexp(total)[1])
                row *= power
                s[i] = total * power
                continue
            np.matmul(flat, hid[start + i], out=row)  # under- or overflowed, or NaN: rescored and shifted
            row -= row.max()
            np.exp(row, out=row)
            s[i] = row.sum()
        # normalised late: the row sums scale the picked scores and the (rows, D)
        # operands, never the (rows, M) block
        target_sums = s[at[0]]
        picked[span] = blk[at] / target_sums
        if taped:
            blk[at] -= weights[span] * target_sums  # blk now holds S times this block's score gradient
            np.matmul(blk, flat, out=grad_hidden[rows])
            grad_hidden[rows] /= s[:, None]
            scaled = hid[rows] / s[:, None]
            if start == 0:
                np.matmul(scaled.T, blk, out=grad_table_t)
            else:
                for col in range(0, m, _TABLE_COLS):
                    cols = slice(col, col + _TABLE_COLS)
                    grad_table_t[:, cols] += scaled.T @ blk[:, cols]
    value = -float(weights @ np.log(np.maximum(picked, _LOG_FLOOR)))

    def vjp(g):
        # single use per backward pass: scales the gradient arrays in place
        g = g * scale
        np.multiply(grad_hidden, g, out=grad_hidden)
        np.multiply(grad_table_t, g, out=grad_table_t)
        return grad_hidden.reshape(hidden.shape), grad_table_t.T.reshape(table.shape)

    return _node(np.float64(value * scale), (hidden, table), vjp)


def gram_gap(mats: np.ndarray) -> np.ndarray:
    """M^T M - I for every (C, C) matrix M of a stack, as a new array."""
    gap = np.matmul(mats.swapaxes(-1, -2), mats)
    gap -= np.eye(mats.shape[-1])
    return gap


def soft_orthogonality(mats, parts, weights, unit_weight: float, p: float) -> Tensor:
    """sum_u w_u sum_k (||M_uk^T M_uk - I||_F^2 + unit_weight * |r_uk^T r_uk - 1|^p).

    For (U, K, C, C) mappings M, (U, K, Cr) partitions r and (U,) weights w,
    the VJP is the closed form 4 w_u M (M^T M - I) for M and, with s = r^T r,
    2 p w_u unit_weight |s - 1|^(p-1) sign(s - 1) r for r, or none if unit_weight is 0.
    """
    mats, parts = as_tensor(mats), as_tensor(parts)
    weights = np.asarray(weights, dtype=np.float64)
    if (mats.ndim != 4 or mats.shape[2] != mats.shape[3] or parts.ndim != 3
            or parts.shape[:2] != mats.shape[:2] or weights.shape != mats.shape[:1]):
        raise ShapeError(f"soft_orthogonality needs (U, K, C, C) mats, (U, K, Cr) parts and (U,) "
                         f"weights, got {mats.shape}, {parts.shape} and {weights.shape}")
    # kept for the VJP rather than formed again: a step records the penalty
    # last, so the gap is freed at the first replayed node, below the peak
    gap = gram_gap(mats.data)
    per_row = np.einsum("ukij,ukij->u", gap, gap)
    if unit_weight != 0.0:
        dev = np.einsum("ukc,ukc->uk", parts.data, parts.data) - 1.0  # s - 1
        per_row += unit_weight * (np.abs(dev) ** p).sum(axis=1)

    def vjp(g):
        grad_mats = np.matmul(mats.data, gap)
        grad_mats *= (4.0 * g * weights)[:, None, None, None]
        if unit_weight == 0.0:
            return grad_mats, None
        slope = (2.0 * p * unit_weight * g) * np.abs(dev) ** (p - 1.0) * np.sign(dev)
        return grad_mats, (weights[:, None] * slope)[..., None] * parts.data

    return _node(np.float64(weights @ per_row), (mats, parts), vjp)


# -- dropout and batch norm -------------------------------------------------


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


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-feature batch normalization, then gamma * x + beta, in x's own shape.

    x is read as rows of gamma's F features: its trailing axes whose sizes
    multiply to F, after at least one leading axis, so a (B, K, C) input
    normalizes K * C features or, pooled over partitions, C. Training mode
    normalizes by batch statistics (biased variance) and moves the running
    averages towards them, in place; evaluation mode normalizes by the
    running statistics, which then act as constants.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.ndim != 1 or gamma.shape[0] not in np.cumprod(x.shape[:0:-1]):
        raise ShapeError(f"batch norm expects rows of {gamma.shape} features, got {x.shape}")
    rows = x.data.reshape((-1, gamma.shape[0]))
    if training:
        mean = rows.mean(axis=0)
        var = rows.var(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (rows - mean) * inv
        running_mean += BN_MOMENTUM * (mean - running_mean)
        running_var += BN_MOMENTUM * (var - running_var)
        n = rows.shape[0]

        def grad_rows(g):
            gy = g * gamma.data
            return inv / n * (n * gy - gy.sum(axis=0) - xhat * (gy * xhat).sum(axis=0))

    else:
        inv = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = (rows - running_mean) * inv

        def grad_rows(g):
            return g * (gamma.data * inv)

    def vjp(g):
        g = g.reshape(rows.shape)
        return grad_rows(g).reshape(x.shape), (g * xhat).sum(axis=0), g.sum(axis=0)

    out = gamma.data * xhat + beta.data
    return _node(out.reshape(x.shape), (x, gamma, beta), vjp)


# -- differentiation ---------------------------------------------------------


def backward(tape: GradTape, leaves) -> list[np.ndarray]:
    """Adjoints of the tape's loss terms, summed, for every tensor in `leaves`.

    The loss terms are the records whose output no later record reads; each
    must be a scalar, or ShapeError is raised, and each is seeded with one.
    Visits the tape in exact reverse execution order; a leaf used in
    several places receives the sum of its per-use adjoints, and leaves
    that never fed a term get zero gradients. Each record is popped off
    the tape as it is replayed, so the graph's buffers are freed during the
    pass; each term keeps its value and the tape its length. A tape therefore
    supports one backward pass, and a second one raises ValidationError.

    Ownership: every array a VJP returns belongs to backward from then on.
    It is made for that call or is a view of the adjoint passed in, and no
    two returned arrays share memory. So backward keeps the first adjoint of
    each input and adds later ones into it in place, a row-sparse one where
    its rows lie. Each leaf's adjoint is returned in the layout it was made
    in, so it may be a non-contiguous view, such as the transpose of the
    fused loss's (D, M) table gradient.
    """
    records = tape._records
    if records is None:
        raise ValidationError("this tape was already replayed by backward; record a new one")
    read = {id(parent) for _, parents, _ in records for parent in parents}
    terms = [out for out, _, _ in records if id(out) not in read]
    for out in terms:
        if out.shape != ():
            raise ShapeError(f"backward seeds every output no op reads, and one has shape "
                             f"{out.shape}, not a scalar loss term")
    tape._records, tape._replayed = None, len(records)
    grads: dict[int, np.ndarray] = {id(out): np.ones((), dtype=np.float64) for out in terms}
    while records:
        node, parents, vjp = records.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            held = grads.get(key)
            if isinstance(pg, _Rows):
                if held is None:
                    held = np.zeros(parent.shape)
                held[pg.index] += pg.rows
            elif held is None:
                held = pg
            else:
                held += pg  # a 0-d adjoint may be a numpy scalar, which += rebinds
            grads[key] = held
    return [np.zeros_like(leaf.data) if (g := grads.get(id(leaf))) is None else g
            for leaf in leaves]


def finite_diff_check(function, params) -> float:
    """Max relative error between taped gradients and central differences.

    `function` maps the given parameter tensors to a scalar Tensor, the sum
    of the loss terms it records (see `backward`), and must be
    deterministic (dropout disabled, batch norm in a fixed mode). The error
    for each coordinate is |analytic - numeric| / max(1, |analytic|); a NaN
    in any probe reports as infinity.
    """
    with GradTape() as tape:
        function(params)
    analytic = backward(tape, params)

    worst = 0.0
    for p, grad in zip(params, analytic):
        # index assignment (not a flat view) so probes reach non-contiguous data
        for idx in np.ndindex(*p.data.shape):
            saved = p.data[idx]
            p.data[idx] = saved + _FD_STEP
            up = function(params).item()
            p.data[idx] = saved - _FD_STEP
            down = function(params).item()
            p.data[idx] = saved
            numeric = (up - down) / (2.0 * _FD_STEP)
            if not np.isfinite(numeric):
                return float("inf")
            err = abs(grad[idx] - numeric) / max(1.0, abs(grad[idx]))
            worst = max(worst, err)
    return worst
