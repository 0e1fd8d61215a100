"""Exact linear algebra over a field, on numpy arrays.

Over F_p a matrix is an int64 array with entries in [0, p).  Since p < 2^31,
a product of two entries stays below 2^62, and `dot` sums k of them only
while k (p - 1)^2 < 2^63 (delayed modular reduction).  Over the rationals it
is an object array of `Fraction`s whose zeros are the Python int 0, which
numpy tests, adds and negates at C speed; products skip the zeros, and
elimination is fraction-free: rows are scaled to integers and only the
final division by the pivots builds `Fraction`s.  Nothing uses floating
point.

There is one elimination path, on stacks of blocks (blocks x rows x
columns), a 2-D array being a stack of one: a block-diagonal system is
reduced without forming it, one pivot loop reducing the same column of
every block at once.  `echelon` returns the reduced form, `eliminate` the
one split of it that decides solvability, and `solve` only the solution
with every free variable zero, which is canonical.  A row reduction leaves
this module as a `Subspace`: pivots and a dim x codim block, written directly;
a null space is its `complement_functionals`, a meet the kernel of stacked ones.
`rref`, `kernel`, `solve_affine` and `mat_mul` are the same on lists.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "rref", "kernel", "solve_affine", "mat_mul", "Subspace", "eye", "zeros",
    "as_array", "dot", "mod", "neg", "scatter", "echelon", "eliminate", "solve",
]

_INT64_MAX = 2**63 - 1


def zeros(shape, field):
    """The zero array: int64 over F_p; over the rationals an object array of
    the Python int 0, which numpy handles without any `Fraction` work."""
    if field.is_prime:
        return np.zeros(shape, dtype=np.int64)
    return np.zeros(shape, dtype=object)


def eye(field, n):
    out = zeros((n, n), field)
    out[np.arange(n), np.arange(n)] = field.one
    return out


def as_array(rows, field, ncols=None):
    """Array of field elements; arrays pass through, lists are converted.
    An empty list becomes a 0 x ncols array, or an empty vector."""
    if isinstance(rows, np.ndarray):
        return rows
    if len(rows) == 0:
        return zeros(0 if ncols is None else (0, ncols), field)
    if field.is_prime:
        return np.array(rows, dtype=np.int64) % field.p
    return np.array(rows, dtype=object)


def dot(A, B, field):
    """A @ B over the field: B may be a vector, and A and B stacks of
    matrices, multiplied block by block as numpy's matmul does."""
    if not field.is_prime:
        return _dot_sparse(A, B, field)
    p = field.p
    step = _INT64_MAX // (p - 1) ** 2

    def part(s):  # the products over inner indices s to s + step
        return (A[..., s:s + step] @ (B[s:s + step] if B.ndim == 1 else B[..., s:s + step, :])) % p

    out = part(0)
    for s in range(step, A.shape[-1], step):
        out = (out + part(s)) % p
    return out


def _dot_sparse(A, B, field):
    """A @ B as `dot` multiplies, from the nonzeros alone: each nonzero
    A[..., i, t] meets each nonzero B[..., t, j] of its block.  Object
    arrays take this path, since they pay a Fraction operation per product;
    over F_p each product is reduced before the sums, which stay below 2^63."""
    if B.ndim <= 2:  # one B for every row of A
        shape = A.shape[:-1] + B.shape[1:]
        A = A.reshape(1, math.prod(A.shape[:-1]), A.shape[-1])
        B = B.reshape(1, len(B), math.prod(B.shape[1:]))
    else:
        shape = A.shape[:-1] + B.shape[-1:]
        A = A.reshape(math.prod(A.shape[:-2]), *A.shape[-2:])
        B = B.reshape(len(A), *B.shape[-2:])
    (_, m, k), n = A.shape, B.shape[2]
    b, i, t = A.nonzero()
    bb, tb, j = B.nonzero()  # sorted by block, then row
    first = np.searchsorted(bb * k + tb, b * k + t)
    count = np.searchsorted(bb * k + tb, b * k + t, side="right") - first
    a_at = np.repeat(np.arange(b.size), count)
    b_at = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    return scatter(len(A) * m * n, field, (b[a_at] * m + i[a_at]) * n + j[b_at],
                   mod(A[b, i, t][a_at] * B[bb, tb, j][b_at], field)).reshape(shape)


def scatter(shape, field, *at_values):
    """zeros(shape) plus each values[k] at (at[0][k], ...), reduced: at_values = (*at, values).

    Over the rationals a value no other value meets is assigned, not added:
    np.add.at into the int 0 pays a `Fraction` addition per value."""
    *at, values = at_values
    out = zeros(shape, field)
    if field.is_prime:
        np.add.at(out, tuple(at), values)
        return mod(out, field)
    flat, view = np.ravel_multi_index(tuple(at), out.shape), out.reshape(-1)
    once = np.bincount(flat, minlength=out.size)[flat] == 1
    view[flat[once]] = values[once]
    np.add.at(view, flat[~once], values[~once])
    return out


def mod(A, field):
    """A with its entries reduced into the field's range."""
    return A % field.p if field.is_prime else A


def neg(A, field):
    return mod(-A, field)


def echelon(M, field):
    """Reduced row echelon form (R, pivots) of M, which is left unchanged;
    R depends only on the row space of M.  For a 2-D M, R has the nonzero
    rows only and pivots is a list.  For a stack, block b of R holds the
    reduced rows of block b of M, then zero rows, and pivots[b] their
    pivot columns, then -1.

    The rows with a single nonzero entry go first: such a row, in column c,
    gives the pivot row e_c, and zeroing column c in the other rows of its
    block may leave new ones.  Only the rows left run the pivot loop.
    """
    stack = M if M.ndim == 3 else M[None]
    units, rest, block = _clear_unit_rows(stack)
    if not field.is_prime:
        _integer_rows(rest)
    loop = _pivot_loop(rest, block, len(stack), field)
    if not field.is_prime:
        _divide_by_pivots(rest, loop)
    is_pivot = units.copy()
    is_pivot[block[loop >= 0], loop[loop >= 0]] = True
    at = np.cumsum(is_pivot, axis=1) - 1  # the row of pivot column c in its block
    rank = is_pivot.sum(axis=1).max(initial=0)
    R = zeros((len(stack), rank + 1, stack.shape[2]), field)  # row `rank` takes the zero rows
    R[block, np.where(loop >= 0, at[block, loop], rank)] = rest
    b, c = units.nonzero()
    R[b, at[b, c], c] = field.one
    R = R[:, :rank]
    pivots = np.full(R.shape[:2], -1, dtype=np.intp)
    b, c = is_pivot.nonzero()
    pivots[b, at[b, c]] = c
    return (R, pivots) if M.ndim == 3 else (R[0], c.tolist())


def _clear_unit_rows(M):
    """(units, rest, block) for a stack M: units[b, c] marks the columns of
    block b holding the only nonzero entry of a row of the block once the
    columns found before are zeroed; rest copies the rows that stay
    nonzero, those columns zeroed, and block[i] is the block of rest[i]."""
    nz = M.astype(bool)  # the nonzeros outside the cleared columns
    counts = nz.sum(axis=2)
    units = np.zeros((len(M), M.shape[2]), dtype=bool)
    while (one := (counts == 1).nonzero())[0].size:
        found = np.zeros_like(units)  # this round's columns
        found[one[0], nz[one].argmax(axis=1)] = True
        units |= found
        hit = nz & found[:, None, :]
        counts -= hit.sum(axis=2)
        nz ^= hit
    rest = M[counts > 0]
    block = (counts > 0).nonzero()[0]
    rest[units[block]] = 0
    return units, rest, block


def _integer_rows(M):
    """The rational rows of M, in place, as primitive integer rows: each row
    times the lcm of its denominators over the gcd of the numerators that
    gives.  Only the nonzero entries are read or written."""
    i, j = M.nonzero()
    if not i.size:
        return M
    vals = M[i, j]
    num = np.array([v.numerator for v in vals], dtype=object)
    den = np.array([v.denominator for v in vals], dtype=object)
    starts = _starts(i)  # i ascends
    lengths = np.diff(np.r_[starts, i.size])
    num *= np.repeat(np.lcm.reduceat(den, starts), lengths) // den
    M[i, j] = num // np.repeat(np.gcd.reduceat(num, starts), lengths)
    return M


def _divide_by_pivots(M, pivots):
    """The integer rows of M, in place, each divided by its entry in its
    pivot column: `Fraction`s at the nonzero entries, 0 elsewhere."""
    i, j = M.nonzero()
    M[i, j] = list(map(Fraction, M[i, j], M[i, pivots[i]]))
    return M


def _pivot_loop(M, block, nblocks, field):
    """Reduce the rows of M in place, each among the rows of its block
    (block[i], ascending): column by column, a pivot in every block with an
    entry there in a row without one, the first such row.  Rows are not
    moved.  Returns each row's pivot column, -1 for the rows left zero.

    Over F_p a pivot row is scaled to a leading 1.  Over the rationals M
    holds integers and stays integral: another row i with a_i in the pivot
    column becomes piv * row_i - a_i * row_r, over the whole row, then is
    divided by the gcd of its entries; pivot rows keep their pivot entries.
    """
    p = field.p if field.is_prime else 0
    pivots = np.full(len(M), -1, dtype=np.intp)
    free = np.ones(len(M), dtype=bool)  # the rows without a pivot
    left = len(M)
    slot = np.full(nblocks, -1, dtype=np.intp)  # block -> its pivot's index in r
    # A column that is zero in every row stays zero: pivot rows are sums of rows.
    for c in (M != 0).any(axis=0).nonzero()[0]:
        entries = M[:, c] != 0
        r = (entries & free).nonzero()[0]
        if not r.size:
            continue
        # the rows with an entry in column c in a block with a pivot, the
        # pivot rows too, which are restored below
        o = entries.nonzero()[0]
        single = nblocks == 1 or block[r[0]] == block[r[-1]]
        if single:
            r, k = r[0], ...  # one pivot row, which broadcasts
            if nblocks > 1:
                o = o[block[o] == block[r]]
        else:
            r = r[_starts(block[r])]
            slot[block[r]] = np.arange(r.size)
            k = slot[block[o]]
            slot[block[r]] = -1
            o, k = o[k >= 0], k[k >= 0]
        pivots[r] = c
        free[r] = False
        if p:
            inv = pow(int(M[r, c]), -1, p) if single else np.array(
                [pow(int(v), -1, p) for v in M[r, c]], dtype=np.int64)[:, None]
            row = (M[r, c:] * inv) % p
            # Entries left of column c are zero in the rows without a pivot.
            M[o, c:] = (M[o, c:] - M[o, c, None] * row[k]) % p
        else:
            row = M[r].copy()
            new = M[o] * row[..., c, None][k] - M[o, c, None] * row[k]
            M[o] = new // np.maximum(np.gcd.reduce(new, axis=1), 1)[:, None]
            row = row[..., c:]
        M[r, c:] = row
        left -= 1 if single else r.size
        if not left:
            break
    return pivots


def _starts(keys):
    """The indices at which the runs of equal entries of keys begin."""
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new.nonzero()[0]


def eliminate(A, B, field):
    """Row-reduce [A | B] once and split it at A's last column.

    For 2-D A and B: (Y, pivots, K), the B columns of the reduced [A | B],
    in Y from its rows pivoting in A (at `pivots`) and in the Subspace K
    from the rest, copied so that [A | B] is freed.  A y = B r is solvable
    exactly when K.basis r = 0, and then y[pivots] = Y r, every other entry
    zero, is its solution with every free variable zero.  For stacks (block
    b of A beside block b of B): Y has the B columns of every reduced row,
    and pivots and K, blocks x rows, the pivot column in A and in B of
    each row, -1 where it has none.
    """
    w = A.shape[-1]
    R, pivots = echelon(np.concatenate([A, B], axis=-1), field)
    if R.ndim == 3:
        return R[..., w:], np.where(pivots < w, pivots, -1), np.where(pivots >= w, pivots - w, -1)
    k = bisect.bisect_left(pivots, w)
    K_pivots = [q - w for q in pivots[k:]]
    K = Subspace(field, B.shape[1], K_pivots, np.delete(R[k:, w:], K_pivots, axis=1))
    return R[:k, w:].copy(), pivots[:k], K


def solve(A, b, field):
    """The solution of A x = b with every free variable zero, or None if
    inconsistent.  b is a vector, or a matrix with one right-hand side per
    column; then None means that some column is inconsistent."""
    B = b[:, None] if b.ndim == 1 else b
    Y, pivots, K = eliminate(A, B, field)
    if K.dim:
        return None
    x = zeros((A.shape[1], B.shape[1]), field)
    x[pivots] = Y
    return x if b.ndim == 2 else x[:, 0]


# ---------------------------------------------------------------------------
# list-of-rows boundary
# ---------------------------------------------------------------------------


def rref(rows, field):
    """Reduced row echelon form (basis_rows, pivot_columns), zero rows dropped.
    Deterministic for a fixed row order."""
    if not rows:
        return [], []
    R, pivots = echelon(as_array(rows, field), field)
    return R.tolist(), pivots


def mat_mul(A, B, field):
    """Product of row-major matrices A (m x k) and B (k x n)."""
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    return dot(as_array(A, field), as_array(B, field), field).tolist()


def kernel(rows, field, ncols=None):
    """Basis of the null space {x : A x = 0} for A given by rows."""
    if not rows:
        return [] if ncols is None else eye(field, ncols).tolist()
    return Subspace.from_vectors(field, len(rows[0]), rows).complement_functionals().tolist()


def solve_affine(A, b, field):
    """Solve A x = b exactly.

    Returns (particular, kernel_basis) on success, None if inconsistent.
    Raises ValueError on dimension mismatch.
    """
    m = len(A)
    if len(b) != m:
        raise ValueError("right-hand side length does not match row count")
    if m == 0:
        return [], []
    ncols = len(A[0])
    for row in A:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    x = solve(as_array(A, field), as_array(b, field), field)
    return None if x is None else (x.tolist(), kernel(A, field))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of k^ambient: its reduced basis's pivots, the other columns
    `free`, and `block`, the basis at them (dim x codim), read-only."""

    def __init__(self, field, ambient, pivots, block):
        self.field, self.ambient, self.pivots = field, ambient, list(pivots)
        self.free = np.delete(np.arange(ambient), self.pivots)
        self.block = block
        self.block.flags.writeable = False

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        R, pivots = echelon(as_array(vectors, field, ambient), field)
        return cls(field, ambient, pivots, np.delete(R, pivots, axis=1))

    @classmethod
    def from_functionals(cls, field, ambient, rows):
        """The subspace on which every row vanishes: reduced from the right, the
        rows pivot at its free columns, last first, c's being e_c minus the basis's column c."""
        R, rev = echelon(as_array(rows, field, ambient)[:, ::-1], field)
        pivots = np.delete(np.arange(ambient), ambient - 1 - np.array(rev, dtype=np.intp))
        return cls(field, ambient, pivots.tolist(), neg(R[::-1, ambient - 1 - pivots].T, field))

    @classmethod
    def from_blocks(cls, field, ambient, rows, pivots, cols):
        """The span of reduced rows of the blocks of a block-diagonal matrix:
        rows (blocks x rows x columns) with pivots (blocks x rows) in block
        columns, -1 for no row, and cols (blocks x columns) the coordinates
        of each block's columns, ascending, ambient for none.  The union of
        the blocks' reduced rows, in pivot order, is the reduced basis."""
        b, i = np.nonzero(pivots >= 0)
        at = cols[b, pivots[b, i]]
        order = np.argsort(at)
        b, i, at = b[order], i[order], at[order]
        # c's block column: c less the pivots below it; the last, dropped, for pivots and padding
        coords = np.arange(ambient + 1)
        slot = coords - np.searchsorted(at, coords)
        slot[at] = ambient - at.size
        block = zeros((b.size, ambient - at.size + 1), field)
        block[np.arange(b.size)[:, None], slot[cols[b]]] = rows[b, i]
        return cls(field, ambient, at.tolist(), block[:, :-1])

    @classmethod
    def zero_space(cls, field, ambient):
        return cls(field, ambient, [], zeros((0, ambient), field))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        """The reduced-echelon basis, dim x ambient, rebuilt read-only."""
        out = zeros((self.dim, self.ambient), self.field)
        out[np.arange(self.dim), self.pivots] = self.field.one
        out[:, self.free] = self.block
        out.flags.writeable = False
        return out

    def residual(self, v):
        """v minus its projection onto the basis (zero iff v is contained);
        for a 2-D v, the residual of every row.  It is zero at the pivots,
        so only the other columns are computed."""
        v = as_array(v, self.field)
        f, free = self.field, self.free
        out = zeros(v.shape, f)
        out[..., free] = mod(v[..., free] - dot(v[..., self.pivots], self.block, f), f)
        return out

    def contains(self, v) -> bool:
        """Whether v, or every row of a 2-D v, lies in the subspace."""
        return not np.count_nonzero(self.residual(v))

    def complement_functionals(self):
        """Rows of a matrix E with kernel exactly this subspace."""
        f, free = self.field, self.free
        out = zeros((free.size, self.ambient), f)
        out[np.arange(free.size), free] = f.one
        out[:, self.pivots] = neg(self.block.T, f)
        return out

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and np.array_equal(self.block, other.block)
        )

    def intersect(self, *others):
        """The meet with the others: the kernel of the stacked complement
        functionals [E_U; E_V; ...]."""
        if any(other.ambient != self.ambient for other in others):
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_functionals(self.field, self.ambient, np.vstack(
            [space.complement_functionals() for space in (self, *others)]))
