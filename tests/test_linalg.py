"""Exact row reduction, kernels, affine solves, and subspace calculus."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann.fields import PrimeField, Rationals
from mfann.linalg import (Subspace, _dot_sparse, as_array, dot, echelon, eliminate, eye, kernel,
                          mat_mul, rref, scatter, solve, solve_affine, zeros)

F13 = PrimeField(13, 5)
F_BIG = PrimeField(2**31 - 1)
QQ = Rationals()

entries = st.integers(0, 12)


def matrices(rows=3, cols=4):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def is_rref(rows, field):
    last_pivot = -1
    for row in rows:
        piv = next((j for j, v in enumerate(row) if v != field.zero), None)
        if piv is None:
            return False  # zero rows are dropped
        if piv <= last_pivot or row[piv] != field.one:
            return False
        for other in rows:
            if other is not row and other[piv] != field.zero:
                return False
        last_pivot = piv
    return True


@settings(max_examples=60)
@given(matrices())
def test_rref_shape_and_idempotence(rows):
    red, pivots = rref(rows, F13)
    assert is_rref(red, F13)
    assert pivots == [next(j for j, v in enumerate(r) if v) for r in red]
    assert rref(red, F13) == (red, pivots)


@settings(max_examples=60)
@given(matrices())
def test_kernel_annihilates(rows):
    for k in kernel(rows, F13, ncols=4):
        image = mat_mul(rows, [[v] for v in k], F13)
        assert all(e[0] == 0 for e in image)
    # rank-nullity
    rank = len(rref(rows, F13)[0])
    assert rank + len(kernel(rows, F13, ncols=4)) == 4


@settings(max_examples=60)
@given(matrices(3, 3), st.lists(entries, min_size=3, max_size=3))
def test_solve_affine_oracle(A, x):
    b = [row[0] for row in mat_mul(A, [[v] for v in x], F13)]
    sol = solve_affine(A, b, F13)
    assert sol is not None
    particular, _hom = sol
    back = [row[0] for row in mat_mul(A, [[v] for v in particular], F13)]
    assert back == b


def test_solve_affine_inconsistent():
    assert solve_affine([[1, 0], [1, 0]], [1, 2], F13) is None


def test_int64_products_at_the_largest_prime():
    F = PrimeField(2**31 - 1)
    p = F.p
    # four products (p-1)^2 = 1 mod p; their raw sum overflows int64
    assert mat_mul([[p - 1] * 4], [[p - 1]] * 4, F) == [[4]]
    red, pivots = rref([[p - 1, p - 2], [p - 2, p - 1]], F)
    assert pivots == [0, 1] and red == [[1, 0], [0, 1]]
    assert solve_affine([[p - 1, p - 1]], [1], F)[0] == [p - 1, 0]


def test_rationals_rref_exact():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    red, pivots = rref(rows, QQ)
    assert red == [[Fraction(1), Fraction(2, 3)]] and pivots == [0]


def test_subspace_membership():
    U = Subspace.from_vectors(F13, 4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    assert U.dim == 2
    assert U.contains([2, 4, 3, 3])
    assert not U.contains([1, 0, 0, 0])


def test_complement_functionals_cut_out_subspace():
    U = Subspace.from_vectors(F13, 4, [[1, 2, 0, 5], [0, 0, 1, 1]])
    E = U.complement_functionals()
    assert len(E) == 4 - U.dim
    for v in U.basis:
        assert all(sum(f[i] * v[i] for i in range(4)) % 13 == 0 for f in E)
    outside = [0, 1, 0, 0]
    assert any(sum(f[i] * outside[i] for i in range(4)) % 13 != 0 for f in E)


@settings(max_examples=40)
@given(matrices(2, 5), matrices(2, 5))
def test_intersection_dimension_formula(ru, rv):
    U = Subspace.from_vectors(F13, 5, ru)
    V = Subspace.from_vectors(F13, 5, rv)
    W = U.intersect(V)
    assert U.contains(W.basis) and V.contains(W.basis)
    assert U.dim + V.dim == Subspace.from_vectors(F13, 5, np.vstack([U.basis, V.basis])).dim + W.dim


over_three_fields = pytest.mark.parametrize("field", [F13, F_BIG, QQ], ids=["F13", "F2^31-1", "Q"])


def nonzero_elements(field):
    if field.is_prime:
        return st.integers(1, field.p - 1)
    # numerators past 2^63, which no int64 holds
    numerators = (st.integers(1, 9) | st.integers(-9, -1)
                  | st.integers(2**63, 2**70) | st.integers(-2**70, -2**63))
    return st.builds(Fraction, numerators, st.integers(1, 7))


@st.composite
def sparse_matrices(draw, field, max_rows=10, max_cols=10):
    """Random rows with at most 30% nonzeros, plus unit rows (some sharing a
    column) and zero rows, in a shuffled order."""
    nrows, ncols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    M = as_array([[field.zero] * ncols for _ in range(nrows)], field, ncols)
    for i, j in draw(st.permutations(cells))[:draw(st.integers(0, 3 * len(cells) // 10))]:
        M[i, j] = draw(nonzero_elements(field))
    extra = []
    if ncols:
        for j in draw(st.lists(st.integers(0, ncols - 1), max_size=5)):
            for _ in range(draw(st.integers(1, 3))):  # several unit rows in column j
                row = [field.zero] * ncols
                row[j] = draw(nonzero_elements(field))
                extra.append(row)
    extra += [[field.zero] * ncols] * draw(st.integers(0, 2))
    if extra:
        M = np.vstack([M, as_array(extra, field)])
    return M[draw(st.permutations(range(len(M))))] if len(M) else M


def reference_rref(rows, field):
    """Plain Gauss-Jordan on lists of field elements (Fractions over the
    rationals), with field arithmetic alone: (reduced rows, pivots)."""
    el = Fraction if not field.is_prime else int
    rows = [[el(v) for v in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    r, pivots = 0, []
    for c in range(ncols):
        i = next((i for i in range(r, len(rows)) if rows[i][c] != field.zero), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != field.zero:
                a = rows[k][c]
                rows[k] = [field.sub(v, field.mul(a, w)) for v, w in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_solve(A, B, field):
    """(particular, null space rows) of A X = B for 2-D arrays A and B, on
    lists, as `solve` defines them (free variables zero), or None if some
    column is inconsistent."""
    (_, n), m = A.shape, B.shape[1]
    R, pivots = reference_rref([a + b for a, b in zip(A.tolist(), B.tolist())], field)
    if pivots and pivots[-1] >= n:
        return None
    particular = [[field.zero] * m for _ in range(n)]
    for row, c in zip(R, pivots):
        particular[c] = row[n:]
    null = []
    for f in (c for c in range(n) if c not in pivots):
        v = [field.zero] * n
        v[f] = field.one
        for row, c in zip(R, pivots):
            v[c] = field.neg(row[f])
        null.append(v)
    return particular, null


def assert_python_entries(*arrays):
    """Object arrays hold Python numbers: no numpy integer leaks into them."""
    for A in arrays:
        if A.dtype == object:
            assert not any(isinstance(v, np.integer) for v in A.flat)


def assert_unit_pass_matches_reference(M, field):
    before = M.copy()
    R, pivots = echelon(M, field)
    R_ref, pivots_ref = reference_rref(M.tolist(), field)
    assert np.array_equal(M, before)
    assert pivots == pivots_ref and all(type(c) is int for c in pivots)
    assert R.shape == (len(pivots), M.shape[1])
    assert R.tolist() == R_ref
    assert is_rref(R.tolist(), field)
    assert_python_entries(R)


@over_three_fields
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unit_rows_first_matches_the_list_reference(field, data):
    assert_unit_pass_matches_reference(data.draw(sparse_matrices(field)), field)


@over_three_fields
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_echelon_of_empty_shapes(field, shape):
    assert_unit_pass_matches_reference(as_array([], field, shape[1]).reshape(shape), field)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rational_elimination_matches_the_list_reference(data):
    # echelon, solve with a matrix right-hand side and the complement
    # functionals over Q, each exactly equal to Gauss-Jordan on lists of
    # Fractions
    A = data.draw(sparse_matrices(QQ, max_cols=8))
    X = data.draw(sparse_matrices(QQ, max_rows=8)).T
    k = min(A.shape[1], X.shape[0])
    A, X = A[:, :k], X[:k]
    R, pivots = echelon(A, QQ)
    null = Subspace.from_vectors(QQ, k, R).complement_functionals()
    assert (R.tolist(), pivots) == reference_rref(A.tolist(), QQ)
    B = dot(A, X, QQ)
    if len(B) and data.draw(st.booleans()):
        B[data.draw(st.integers(0, len(B) - 1))] += 1  # may leave the column space
    x = solve(A, B, QQ)
    expected = reference_solve(A, B, QQ)
    if expected is None:
        assert x is None
    else:
        assert x.tolist() == expected[0]
        assert null.tolist() == expected[1]
        assert_python_entries(x)
    assert_python_entries(R, null, B)


def test_unit_rows_chain():
    # clearing column 0 makes row 1 a unit row; clearing its column 2 makes
    # rows 2 and 3 unit rows
    M = as_array([[3, 0, 0, 0], [5, 0, 7, 0], [0, 1, 2, 0], [0, 0, 4, 4]], F13)
    R, pivots = echelon(M, F13)
    assert pivots == [0, 1, 2, 3] and np.array_equal(R, np.eye(4, dtype=np.int64))


def test_dot_sparse_at_the_largest_prime():
    p = F_BIG.p
    A = np.full((1, 8), p - 1, dtype=np.int64)
    # eight products (p-1)^2 = 1 mod p; any three of them overflow int64
    assert _dot_sparse(A, A.T, F_BIG).tolist() == [[8]]
    assert _dot_sparse(A, A[0], F_BIG).tolist() == [8]


def dict_scatter(shape, at, values):
    """The sums of the values at each position, on dicts: Fraction(0) where
    values met and cancelled, the int 0 where none landed."""
    sums = {}
    for k, v in zip(zip(*at), values):
        sums[k] = sums.get(k, 0) + v
    return [[sums.get((i, j), 0) for j in range(shape[1])] for i in range(shape[0])]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rational_scatter_matches_a_dict_sum(data):
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    cell = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    cells = data.draw(st.lists(cell, max_size=12))
    values = [data.draw(nonzero_elements(QQ)) for _ in cells]
    # a value and its negative at one position cancel to zero
    for k in data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=3) if cells
                       else st.just([])):
        cells.append(cells[k])
        values.append(-values[k])
    at = tuple(np.array([c[d] for c in cells], dtype=np.intp) for d in (0, 1))
    out = scatter(shape, QQ, *at, as_array(values, QQ))
    assert out.shape == shape and out.dtype == object
    assert out.tolist() == dict_scatter(shape, at, values)
    assert_python_entries(out)
    assert all(type(out[i, j]) is int for i in range(shape[0]) for j in range(shape[1])
               if (i, j) not in cells)


def test_rational_scatter_assigns_lone_values_and_sums_repeats():
    half, third = Fraction(1, 2), Fraction(1, 3)
    values = as_array([half, third, -half, third, Fraction(5)], QQ)
    out = scatter(4, QQ, np.array([0, 1, 0, 1, 3]), values)
    assert out.tolist() == [0, Fraction(2, 3), 0, 5]
    assert [type(v) for v in out] == [Fraction, Fraction, int, Fraction]


def fraction_product(A, B):
    (m, k), n = A.shape, B.shape[1]
    return [[sum((A[i, t] * B[t, j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(m)]


@over_three_fields
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dot_sparse_matches_dot(field, data):
    A = data.draw(sparse_matrices(field, max_cols=6))
    B = data.draw(sparse_matrices(field, max_rows=6)).T  # zero and unit columns
    k = min(A.shape[1], B.shape[0])
    A, B = A[:, :k], B[:k]
    product = _dot_sparse(A, B, field)
    assert product.shape == (A.shape[0], B.shape[1])
    if field.is_prime:
        assert product.dtype == np.int64
        assert np.array_equal(product, dot(A, B, field))
    else:
        assert product.tolist() == fraction_product(A, B)


@over_three_fields
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_with_a_matrix_right_hand_side(field, data):
    A = data.draw(sparse_matrices(field, max_cols=6))
    X = data.draw(sparse_matrices(field, max_rows=6)).T
    k = min(A.shape[1], X.shape[0])
    A, X = A[:, :k], X[:k]
    B = dot(A, X, field)  # every column consistent
    particular = solve(A, B, field)
    null = Subspace.from_vectors(field, k, echelon(A, field)[0]).complement_functionals()
    assert particular.shape == X.shape
    assert np.array_equal(dot(A, particular, field), B)
    for j in range(B.shape[1]):
        column = solve(A, B[:, j], field)
        assert np.array_equal(particular[:, j], column)
        assert null.tolist() == reference_solve(A, B[:, j:j + 1], field)[1]
    if len(A) and B.shape[1]:
        # a right-hand side outside the column space makes the whole solve fail
        units = [as_array([field.one if i == j else field.zero for i in range(len(A))], field)
                 for j in range(len(A))]
        outside = next((u for u in units if solve(A, u, field) is None), None)
        if outside is not None:
            B[:, data.draw(st.integers(0, B.shape[1] - 1))] = outside
            assert solve(A, B, field) is None


@over_three_fields
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eliminate_decides_and_solves(field, data):
    # A y = B r is solvable exactly when K r = 0, and then y from Y r is the
    # solution that solve and the list reference give; K is the part of the
    # reduced [A | B] that pivots in B
    M = data.draw(sparse_matrices(field))
    w = data.draw(st.integers(0, M.shape[1]))
    A, B = M[:, :w], M[:, w:]
    Y, pivots, K = eliminate(A, B, field)
    R_ref, pivots_ref = reference_rref(M.tolist(), field)
    k = sum(q < w for q in pivots_ref)
    assert K.basis.tolist() == [row[w:] for row in R_ref[k:]]
    assert K.pivots == [q - w for q in pivots_ref[k:]] and pivots == pivots_ref[:k]
    r = as_array([data.draw(st.just(field.zero) | nonzero_elements(field))
                  for _ in range(B.shape[1])], field)
    if K.dim and data.draw(st.booleans()):
        # a right-hand side with K r = 0
        null = K.complement_functionals()
        r = dot(as_array([data.draw(nonzero_elements(field)) for _ in range(len(null))], field),
                null, field)
    b = dot(B, r, field)
    consistent = not np.count_nonzero(dot(K.basis, r, field))
    x = solve(A, b, field)
    expected = reference_solve(A, b[:, None], field)
    assert (x is not None) == consistent == (expected is not None)
    if consistent:
        y = zeros(w, field)
        y[pivots] = dot(Y, r, field)
        assert np.array_equal(y, x)
        assert y.tolist() == [row[0] for row in expected[0]]
    assert_python_entries(Y, K.basis)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stacked_echelon_and_product_at_the_largest_prime(data):
    # a stack of blocks is reduced and multiplied block by block, as the
    # list reference does each block; entries near p make every sum of two
    # products overflow int64, so each partial sum may hold one product
    p = F_BIG.p
    near = st.sampled_from([0, 0, 0, 1, p - 1, p - 2]) | st.integers(0, p - 1)
    nblocks, rows, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    M = np.array(data.draw(st.lists(near, min_size=nblocks * rows * cols,
                                    max_size=nblocks * rows * cols)),
                 dtype=np.int64).reshape(nblocks, rows, cols)
    R, pivots = echelon(M, F_BIG)
    for b in range(nblocks):
        R_ref, pivots_ref = reference_rref(M[b].tolist(), F_BIG)
        assert R[b, :len(R_ref)].tolist() == R_ref and not R[b, len(R_ref):].any()
        assert pivots[b].tolist() == pivots_ref + [-1] * (len(R[b]) - len(R_ref))
    X = M.transpose(0, 2, 1)
    expected = [[[sum(a * c for a, c in zip(row, col)) % p for col in M[b].T.tolist()]
                 for row in X[b].tolist()] for b in range(nblocks)]
    assert dot(X, M, F_BIG).tolist() == expected
    assert _dot_sparse(X, M, F_BIG).tolist() == expected


def zassenhaus(U, V):
    """U meet V by the dense Zassenhaus elimination the library used before
    meets came from functionals, kept as an oracle: the rows of the reduced
    [U U; V 0] that pivot in its right half span the meet."""
    return eliminate(np.vstack([U.basis, V.basis]),
                     np.vstack([U.basis, zeros(V.basis.shape, U.field)]), U.field)[2]


def dense_residual(R, pivots, v, field):
    """v minus v at the pivots times the reduced rows R, entry by entry."""
    out = list(v)
    for row, p in zip(R, pivots):
        out = [field.sub(x, field.mul(v[p], y)) for x, y in zip(out, row)]
    return out


def assert_reference_subspace(U, ambient, R_ref, pivots_ref):
    """U is the subspace of k^ambient whose reduced basis is R_ref: its
    pivots, its free columns, its block there and its basis, both read-only."""
    free = [c for c in range(ambient) if c not in pivots_ref]
    assert U.ambient == ambient and U.pivots == pivots_ref and U.free.tolist() == free
    assert U.block.shape == (U.dim, ambient - U.dim)
    assert U.block.tolist() == [[row[c] for c in free] for row in R_ref]
    assert U.basis.tolist() == R_ref and U.basis.shape == (U.dim, ambient)
    assert not U.block.flags.writeable and not U.basis.flags.writeable
    assert_python_entries(U.block, U.basis)


@over_three_fields
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_subspace_block_is_the_reference_basis_at_its_free_columns(field, data):
    M = data.draw(sparse_matrices(field))
    ambient = M.shape[1]
    U = Subspace.from_vectors(field, ambient, M)
    R_ref, pivots_ref = reference_rref(M.tolist(), field)
    free = [c for c in range(ambient) if c not in pivots_ref]
    assert_reference_subspace(U, ambient, R_ref, pivots_ref)
    # the functionals: the unit vector at each free column, minus that
    # column of the basis at the pivots
    E = [[field.one if c == f else field.neg(R_ref[pivots_ref.index(c)][f])
          if c in pivots_ref else field.zero for c in range(ambient)] for f in free]
    assert U.complement_functionals().tolist() == E
    vs = data.draw(sparse_matrices(field, max_cols=ambient))
    vs = np.hstack([vs, zeros((len(vs), ambient - vs.shape[1]), field)])
    for v in vs.tolist():
        assert U.residual(as_array(v, field)).tolist() == dense_residual(R_ref, pivots_ref, v,
                                                                         field)
        assert U.contains(as_array(v, field)) == (
            len(reference_rref(R_ref + [v], field)[1]) == U.dim)
    assert U.residual(vs).tolist() == [dense_residual(R_ref, pivots_ref, v, field)
                                       for v in vs.tolist()]
    # equal exactly when the reduced bases are, whatever rows span them
    assert U == Subspace.from_vectors(field, ambient, np.vstack([U.basis[::-1], M]))
    assert (U == Subspace.from_vectors(field, ambient, vs)) == (
        reference_rref(vs.tolist(), field) == (R_ref, pivots_ref))


@over_three_fields
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_intersect_matches_the_zassenhaus_oracle(field, data):
    M = data.draw(sparse_matrices(field))
    ambient, k = M.shape[1], data.draw(st.integers(0, len(M)))
    U = Subspace.from_vectors(field, ambient, M[:k])
    case = data.draw(st.sampled_from(["random", "zero", "whole", "equal", "sub"]))
    V = {"random": lambda: Subspace.from_vectors(field, ambient, M[k:]),
         "zero": lambda: Subspace.zero_space(field, ambient),
         "whole": lambda: Subspace.from_vectors(field, ambient, eye(field, ambient)),
         "equal": lambda: Subspace.from_vectors(field, ambient, M[:k][::-1]),
         "sub": lambda: Subspace.from_vectors(field, ambient, M)}[case]()
    for A, B in ((U, V), (V, U)):
        W, expected = A.intersect(B), zassenhaus(A, B)
        assert W == expected and W.basis.tolist() == expected.basis.tolist()
        assert W.block.shape == (W.dim, ambient - W.dim)
        assert_python_entries(W.block)
    if case != "random":  # the meet with the zero space is zero, else U lies in V
        assert U.intersect(V) == (V if case == "zero" else U)
    # one stacked meet of three is the meet folded pairwise
    W = Subspace.from_vectors(field, ambient, M[::2])
    assert U.intersect(V, W) == zassenhaus(zassenhaus(U, V), W)


@st.composite
def block_stacks(draw, field):
    """(ambient, stack, cols, dense): a stack of blocks as `from_blocks`
    takes it, each block's columns at some coordinates, ascending, then
    zero padding columns (coordinate ambient) up to a common width, and zero
    rows up to a common height; some coordinates lie in no block, some
    blocks have no rows or no columns, and some a pivot in every column.
    dense holds the block-diagonal rows that the stack stands for."""
    ambient, nblocks = draw(st.integers(0, 10)), draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(-1, nblocks - 1), min_size=ambient, max_size=ambient))
    at = [[c for c in range(ambient) if owner[c] == b] for b in range(nblocks)]
    blocks = []
    for coords in at:
        M = draw(sparse_matrices(field, max_rows=5, max_cols=len(coords)))
        M = np.hstack([M, zeros((len(M), len(coords) - M.shape[1]), field)])
        blocks.append(eye(field, len(coords)) if draw(st.booleans()) else M)
    width = max(map(len, at)) + draw(st.integers(0, 2))
    stack = zeros((nblocks, max(map(len, blocks)), width), field)
    cols = np.full((nblocks, width), ambient)
    dense = []
    for b, (coords, M) in enumerate(zip(at, blocks)):
        cols[b, :len(coords)] = coords
        stack[b, :len(M), :len(coords)] = M
        for row in M.tolist():
            dense.append([field.zero] * ambient)
            for c, v in zip(coords, row):
                dense[-1][c] = v
    return ambient, stack, cols, dense


@over_three_fields
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_blocks_is_the_reduced_span_of_the_block_diagonal_rows(field, data):
    ambient, stack, cols, dense = data.draw(block_stacks(field))
    U = Subspace.from_blocks(field, ambient, *echelon(stack, field), cols)
    assert_reference_subspace(U, ambient, *reference_rref(dense, field))


@over_three_fields
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_functionals_is_the_reduced_kernel(field, data):
    M = data.draw(sparse_matrices(field))
    ambient = M.shape[1]
    rows = data.draw(st.sampled_from([M, zeros((0, ambient), field), eye(field, ambient)]))
    U = Subspace.from_functionals(field, ambient, rows)
    null = reference_solve(rows, zeros((len(rows), 0), field), field)[1]
    assert_reference_subspace(U, ambient, *reference_rref(null, field))
    assert not np.count_nonzero(dot(rows, U.basis.T, field))
