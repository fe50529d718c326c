"""Batch-mode runtime helpers for vectorised generated code.

When the backend collapses a ``Par``/``AtmPar`` loop into vector
operations, per-iteration values become arrays with the *batch axis
first*.  A per-iteration value may itself be a vector (e.g. a data row
``x[n]``), so two batch operands can have different element ranks; the
binary helpers align element dimensions before broadcasting.  The
scatter/gather helpers implement the loop-carried stores: ``np.add.at``
is the CPU realisation of an atomic increment.  A two-level loop nest
runs on one batch axis holding its rows end to end (a rectangular one
block of rows at a time); the row helpers reduce that axis one row at a
time (see :func:`rowsum`).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.vectors import RaggedArray


def _align(a, b, a_batch: bool, b_batch: bool):
    """Align element dimensions of two operands for broadcasting.

    A batch operand has shape ``(B, *elem)``; a constant operand's whole
    shape is its element shape.  The operand with the smaller element
    rank gets singleton dimensions inserted *after* its batch axis.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    ae = a.ndim - 1 if a_batch else a.ndim
    be = b.ndim - 1 if b_batch else b.ndim
    if ae < be and a_batch:
        a = a.reshape(a.shape[:1] + (1,) * (be - ae) + a.shape[1:])
    elif be < ae and b_batch:
        b = b.reshape(b.shape[:1] + (1,) * (ae - be) + b.shape[1:])
    return a, b


def _binop(op):
    def impl(a, b, a_batch=False, b_batch=False):
        a, b = _align(a, b, a_batch, b_batch)
        return op(a, b)

    return impl


add = _binop(np.add)
sub = _binop(np.subtract)
mul = _binop(np.multiply)
div = _binop(np.divide)
pow_ = _binop(np.power)
eq = _binop(np.equal)
min_ = _binop(np.minimum)
max_ = _binop(np.maximum)


def dotp(a, b, a_batch=False, b_batch=False):
    a, b = _align(a, b, a_batch, b_batch)
    return np.sum(a * b, axis=-1)


def vsum(value, batch: bool, n: int):
    """Total of a per-iteration contribution over the whole batch."""
    if batch:
        return np.sum(np.asarray(value), axis=0)
    return n * np.asarray(value)


def take(base, idx):
    """Gather rows of a constant array by a batch index vector."""
    if isinstance(base, RaggedArray):
        raise TypeError(
            "cannot gather variable-length rows of a ragged array in "
            "vectorised code"
        )
    return np.asarray(base)[np.asarray(idx)]


def take_pair(base, idx):
    """Per-batch-element indexing of a batch array: ``base[i][idx[i]]``."""
    base = np.asarray(base)
    idx = np.asarray(idx)
    return base[np.arange(base.shape[0]), idx]


def pair_flat(base):
    """The flattened view used by ragged-nest vectorisation.

    For a ragged array this is its contiguous flat buffer; for a dense
    array the first two axes are merged.
    """
    if isinstance(base, RaggedArray):
        return base.flat
    base = np.asarray(base)
    return base.reshape((-1,) + base.shape[2:])


#: Lanes per block of a rectangular loop nest.  The nest runs its rows
#: block by block, so each lane array holds at most this many elements
#: (256 KiB of float64) however large the nest is.
NEST_BLOCK = 1 << 15


def block_rows(cols: int) -> int:
    """Rows per block of a rectangular nest with ``cols`` lanes a row."""
    return max(1, NEST_BLOCK // cols)


def rect_flat(base, lo, hi, cols):
    """Rows ``lo..hi-1`` and columns ``0..cols-1`` of a dense array laid
    out as a rectangular nest's batch axis, row after row.

    A view when that block is contiguous, otherwise a copy in that order
    (so a Fortran-ordered array reads the same as a C-ordered one).
    """
    base = np.asarray(base)
    if base.shape[0] < hi or base.shape[1] < cols:
        raise IndexError(
            f"loop nest reads rows [{lo}, {hi}) x columns [0, {cols}) "
            f"of an array of shape {base.shape}"
        )
    return base[lo:hi, :cols].reshape((-1,) + base.shape[2:])


def rowsum(value, batch: bool, n: int, cols: int):
    """Per-row totals of a contribution over a rectangular nest's batch.

    Row ``r`` is lanes ``r * cols .. (r + 1) * cols - 1``.  On the
    C-contiguous ``(rows, cols, *elem)`` view, an axis-1 sum gives each
    row bitwise the total :func:`vsum` takes over that row's lanes alone
    (NumPy sums a contiguous row pairwise either way; a Fortran-ordered
    operand would be summed sequentially instead).
    """
    if not batch:
        total = cols * np.asarray(value)
        return np.broadcast_to(total, (n // cols,) + total.shape)
    value = np.ascontiguousarray(value)
    return np.sum(value.reshape((-1, cols) + value.shape[1:]), axis=1)


def fold_rows(acc, rows):
    """``acc`` plus each row total in turn, first row first.

    This is the row-by-row accumulation of a loop over the rows: a
    running ``np.cumsum`` adds left to right, while ``np.sum`` over the
    rows would group the additions pairwise.
    """
    rows = np.asarray(rows)
    shape = np.broadcast_shapes(np.shape(acc), rows.shape[1:])
    seq = np.concatenate((
        np.broadcast_to(acc, (1,) + shape),
        np.broadcast_to(rows, rows.shape[:1] + shape),
    ))
    return np.cumsum(seq, axis=0)[-1]


def _filter_mask(indices, value, value_batch, mask):
    if mask is None:
        return indices, value
    out_idx = tuple(
        np.asarray(i)[mask] if np.ndim(i) > 0 else i for i in indices
    )
    out_val = np.asarray(value)[mask] if value_batch else value
    return out_idx, out_val


def setidx(target, indices, value, value_batch=False, mask=None):
    """Vectorised indexed store ``target[i...] = value``."""
    indices, value = _filter_mask(indices, value, value_batch, mask)
    target[indices if len(indices) > 1 else indices[0]] = value


def incidx(target, indices, value, value_batch=False, mask=None):
    """Vectorised atomic increment ``target[i...] += value`` (scatter-add)."""
    indices, value = _filter_mask(indices, value, value_batch, mask)
    np.add.at(target, indices if len(indices) > 1 else indices[0], value)


def masked_vsum(value, batch: bool, mask):
    """Guarded reduction: total of contributions where the mask holds."""
    if mask is None:
        raise ValueError("masked_vsum requires a mask")
    if batch:
        return np.sum(np.asarray(value)[mask], axis=0)
    return np.count_nonzero(mask) * np.asarray(value)


def nelems(buf) -> int:
    """Number of addressable cells in a buffer (contention estimation)."""
    if isinstance(buf, RaggedArray):
        return int(buf.flat.size)
    return int(np.size(buf))
