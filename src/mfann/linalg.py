"""Exact dense linear algebra over a field, on numpy arrays.

Over F_p a matrix is an int64 array with entries in [0, p).  Since p < 2^31,
a product of two entries stays below 2^62; `dot` splits long sums so that no
partial sum reaches 2^63 (delayed modular reduction), and `_dot_sparse`
reduces its accumulator as often.  Row reduction first clears the rows with a
single nonzero entry, which need no arithmetic at all, and reduces mod p
after every pivot step on the rest.  This is the only elimination path:
`echelon` returns the reduced form and its pivots, `eliminate` is the one
place that splits one, handing the part that decides solvability back as a
`Subspace`, and `solve` reads it and returns only the solution with every
free variable zero, which is canonical.

Over the rationals a matrix is an object array whose nonzero entries are
`Fraction`s and whose zeros are the Python int 0, an exact rational that
numpy tests, adds and negates at C speed, so a zero entry costs what an
integer costs.  Elimination over the rationals is fraction-free: each row
is scaled to integers, the pivot loop runs on integer rows, and only the
final division by the pivots builds `Fraction`s, at the nonzero entries.
Nothing here uses floating point.

`rref`, `kernel`, `solve_affine` and `mat_mul` take and return lists of rows;
the package itself works on arrays through `solve`, `dot` and `Subspace`, the
one form in which a row reduction leaves this module; a null space is its
`complement_functionals`.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

import numpy as np

__all__ = [
    "rref", "kernel", "solve_affine", "mat_mul", "Subspace", "eye", "zeros",
    "as_array", "dot", "mod", "neg", "echelon", "eliminate", "solve",
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
    """A @ B over the field (B may be a vector)."""
    k = A.shape[-1]
    if not field.is_prime:
        return _dot_sparse(A, B, field)
    p = field.p
    step = _INT64_MAX // (p - 1) ** 2
    if k <= step:
        return (A @ B) % p
    out = (A[..., :step] @ B[:step]) % p
    for s in range(step, k, step):
        out = (out + (A[..., s:s + step] @ B[s:s + step]) % p) % p
    return out


def _dot_sparse(A, B, field):
    # Skip the zeros: one outer product per inner index, over its nonzero rows
    # and columns.  Object arrays always take this path, since they pay a
    # Fraction operation per product; callers with mostly-zero int64 operands
    # call it directly, because numpy has no BLAS for integers.  Over F_p the
    # accumulator is reduced mod p after every `step` outer products, so that
    # (p - 1) + step * (p - 1)^2 bounds every partial sum below 2^63.
    A2 = A.reshape(int(np.prod(A.shape[:-1])), A.shape[-1])
    B2 = B.reshape(B.shape[0], int(np.prod(B.shape[1:])))
    out = zeros((A2.shape[0], B2.shape[1]), field)
    p = field.p if field.is_prime else 0
    step = (_INT64_MAX - p) // (p - 1) ** 2 if p else None
    pending = 0
    nz_a, nz_b = A2.astype(bool), B2.astype(bool)
    for t in range(A2.shape[1]):
        rows, cols = np.flatnonzero(nz_a[:, t]), np.flatnonzero(nz_b[t])
        if rows.size and cols.size:
            if p and pending == step:
                out %= p
                pending = 0
            out[np.ix_(rows, cols)] += np.outer(A2[rows, t], B2[t, cols])
            pending += 1
    return mod(out, field).reshape(A.shape[:-1] + B.shape[1:])


def mod(A, field):
    """A with its entries reduced into the field's range."""
    return A % field.p if field.is_prime else A


def neg(A, field):
    return mod(-A, field)


def echelon(M, field):
    """Reduced row echelon form (R, pivots) of the 2-D array M, which is left
    unchanged, with the zero rows dropped.  R depends only on the row space
    of M.

    The rows with a single nonzero entry go first: such a row, in column c,
    gives the pivot row e_c, and zeroing column c in the other rows may leave
    new ones.  Only the rows left after that run the pivot loop; over the
    rationals they run it as integer rows, divided by their pivots at the end.
    """
    ncols = M.shape[1]
    units, rest = _clear_unit_rows(M, field)
    if not field.is_prime:
        rest = _integer_rows(rest)
    r, loop_pivots = _pivot_loop(rest, ncols, field)
    loop_pivots = np.array(loop_pivots, dtype=np.intp)
    loop_rows = rest[:r] if field.is_prime else _divide_by_pivots(rest[:r], loop_pivots)
    pivots = np.sort(np.concatenate([units, loop_pivots]))
    R = zeros((pivots.size, ncols), field)
    R[np.searchsorted(pivots, units), units] = field.one
    R[np.searchsorted(pivots, loop_pivots)] = loop_rows
    return R, pivots.tolist()


def _clear_unit_rows(M, field):
    """(units, rest) for the rows of M.

    `units` are the columns, ascending, that hold the only nonzero entry of
    some row once the columns found before them are zeroed; `rest` is a copy
    of the rows that stay nonzero, with every column of `units` zeroed.  The
    row space of M is spanned by the unit vectors at `units` and the rows of
    `rest`.
    """
    nz = M.astype(bool)
    counts = nz.sum(axis=1)  # nonzeros outside the cleared columns, per row
    cleared = np.zeros(M.shape[1], dtype=bool)
    while True:
        unit = np.flatnonzero(counts == 1)
        if not unit.size:
            break
        cols = np.unique(np.argmax(nz[unit] & ~cleared, axis=1))
        counts -= nz[:, cols].sum(axis=1)
        cleared[cols] = True
    rest = M[counts > 0]
    rest[:, cleared] = 0
    return np.flatnonzero(cleared), rest


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
    starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])  # i ascends
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


def _pivot_loop(M, ncols, field):
    """Reduce the first ncols columns of M in place, one pivot at a time.

    Returns (r, pivots): rows r and below are zero there afterwards.  Over
    F_p each pivot row is scaled to a leading 1.  Over the rationals M holds
    integers and stays integral: every other row i with a_i in the pivot
    column becomes piv * row_i - a_i * row_r, over the whole row, since its
    earlier non-pivot columns scale too, and is then divided by the gcd of
    its entries; the pivot rows keep their pivot entries.
    """
    p = field.p if field.is_prime else 0
    nrows = M.shape[0]
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = M[r:, c].nonzero()[0]
        if not nz.size:
            continue
        i = r + nz[0]
        if i != r:
            M[[r, i]] = M[[i, r]]
        others = M[:, c].nonzero()[0]  # the pivot row too
        if p:
            # Entries left of column c are zero in rows r and below.
            row = (M[r, c:] * field.inv(int(M[r, c]))) % p
            if others.size > 1:
                M[others, c:] = (M[others, c:] - M[others, c, None] * row) % p
            M[r, c:] = row
        elif others.size > 1:
            others = others[others != r]
            cols = M[r].nonzero()[0]
            rows = M[others] * M[r, c]
            rows[:, cols] -= np.outer(M[others, c], M[r, cols])
            # divide each row by its content (a zero row by 1)
            M[others] = rows // np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]
        pivots.append(c)
        r += 1
    return r, pivots


def eliminate(A, B, field):
    """(Y, pivots, K): the B columns of the reduced [A | B], in Y from its
    rows pivoting in A (at `pivots`) and in the Subspace K of B's
    coordinates from the rest, copied so that [A | B] is freed.  A y = B r
    is solvable exactly when K.basis r = 0, and then y[pivots] = Y r, with
    every other entry zero, is its solution with every free variable zero."""
    w = A.shape[1]
    R, pivots = echelon(np.hstack([A, B]), field)
    k = bisect.bisect_left(pivots, w)
    K = Subspace(field, B.shape[1], R[k:, w:].copy(), [q - w for q in pivots[k:]])
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
    """A subspace of k^ambient held as its reduced-echelon basis (an array)."""

    def __init__(self, field, ambient, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = as_array(basis, field, ambient)
        self.pivots = list(pivots)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        basis, pivots = echelon(as_array(vectors, field, ambient), field)
        return cls(field, ambient, basis, pivots)

    @classmethod
    def zero_space(cls, field, ambient):
        return cls(field, ambient, zeros((0, ambient), field), [])

    @classmethod
    def full_space(cls, field, ambient):
        return cls(field, ambient, eye(field, ambient), range(ambient))

    @property
    def dim(self):
        return len(self.pivots)

    def residual(self, v):
        """v minus its projection onto the basis (zero iff v is contained);
        for a 2-D v, the residual of every row."""
        v = as_array(v, self.field)
        if not self.pivots:
            return v
        return mod(v - dot(v[..., self.pivots], self.basis, self.field), self.field)

    def contains(self, v) -> bool:
        """Whether v, or every row of a 2-D v, lies in the subspace."""
        return not np.count_nonzero(self.residual(v))

    def complement_functionals(self):
        """Rows of a matrix E with kernel exactly this subspace."""
        f, pivots = self.field, self.pivots
        free = np.setdiff1d(np.arange(self.ambient), pivots)
        out = zeros((free.size, self.ambient), f)
        out[np.arange(free.size), free] = f.one
        if pivots:
            out[:, pivots] = neg(self.basis[:, free].T, f)
        return out

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )

    def is_subspace_of(self, other) -> bool:
        return other.contains(self.basis)

    def intersect(self, other):
        """Zassenhaus intersection: the rows of the reduced [U U; V 0] that
        pivot in its right half span U meet V."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return eliminate(
            np.vstack([self.basis, other.basis]),
            np.vstack([self.basis, zeros(other.basis.shape, self.field)]), self.field)[2]

    def preimage(self, A):
        """{x : A x in self} for A given as ambient x n rows."""
        A = as_array(A, self.field)
        n = A.shape[1]
        E = self.complement_functionals()
        if not len(E):
            return Subspace.full_space(self.field, n)
        conditions = Subspace.from_vectors(self.field, n, dot(E, A, self.field))
        return Subspace.from_vectors(self.field, n, conditions.complement_functionals())
