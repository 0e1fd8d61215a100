"""Exact row reduction, kernels, affine solves, and subspace calculus."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mfann.fields import PrimeField, Rationals
from mfann.linalg import Subspace, kernel, mat_mul, rref, solve_affine

F13 = PrimeField(13, 5)
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
def test_rref_transform_reconstructs(rows):
    red, _pivots, T = rref(rows, F13, transform=True)
    assert mat_mul(T, rows, F13) == red


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


def test_subspace_membership_and_coords():
    U = Subspace.from_vectors(F13, 4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    assert U.dim == 2
    v = [2, 4, 3, 3]
    assert U.contains(v)
    coords = U.coords(v)
    rebuilt = [0, 0, 0, 0]
    for c, row in zip(coords, U.basis):
        rebuilt = [F13.add(r, F13.mul(c, e)) for r, e in zip(rebuilt, row)]
    assert rebuilt == [v[i] % 13 for i in range(4)]
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
    assert W.is_subspace_of(U) and W.is_subspace_of(V)
    assert U.dim + V.dim == (U + V).dim + W.dim


def test_preimage():
    A = [[1, 0, 0], [0, 1, 0]]  # projection k^3 -> k^2 (as rows: v -> A v)
    U = Subspace.from_vectors(F13, 2, [[1, 0]])
    pre = U.preimage(A)
    assert pre.dim == 2
    assert pre.contains([1, 0, 0]) and pre.contains([0, 0, 1])
    assert not pre.contains([0, 1, 0])
