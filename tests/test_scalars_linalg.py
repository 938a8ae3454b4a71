import random
from fractions import Fraction

import pytest

from gaudin.scalars import GaussianRational, format_scalar, parse_scalar

from oracles import Matrix, submatrix

F = Fraction
GR = GaussianRational


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", F(3)),
        ("-1/2", F(-1, 2)),
        ("1/2+3/4i", GR(F(1, 2), F(3, 4))),
        ("-i", GR(0, -1)),
        ("2-i", GR(2, -1)),
        ("5/3i", GR(0, F(5, 3))),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["3", "-1/2", "1/2+3/4i", "-i", "2-i"])
def test_format_roundtrip(text):
    v = parse_scalar(text)
    assert parse_scalar(format_scalar(v)) == v


def test_parse_rejects_garbage():
    for bad in ("", "1,2", "x", "1//2", "1/0", "1+2/0i"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_gaussian_field_ops():
    a, b = GR(1, 2), GR(3, -1)
    assert a * b == GR(5, 5)
    assert (a / b) * b == a
    assert a + b - b == a
    assert a**3 == a * a * a
    assert complex(GR(F(1, 2), 1)) == 0.5 + 1j


def test_matrix_product_and_identity():
    m = Matrix([[F(1), F(2)], [F(0), F(1)]])
    assert m * Matrix.identity(2) == m
    assert (m * m).get(0, 1) == F(4)
    assert (F(2) * m).get(0, 0) == F(2)
    assert m.commutator(Matrix.identity(2)).is_zero()


def test_scalar_of_identity():
    assert (F(3) * Matrix.identity(2)).scalar_of_identity() == F(3)
    assert Matrix([[F(1), F(1)], [F(0), F(1)]]).scalar_of_identity() is None


# --- Matrix against a nested-list reference over Q and Q(i) ----------------


def random_scalar(rng, field):
    def rational():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 10]))

    return rational() if field == "Q" else GR(rational(), rational())


def random_entries(rng, rows, cols, field):
    return [[random_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]


def as_matrix(entries, rows, cols):
    return Matrix(entries) if rows and cols else Matrix.zeros(rows, cols)


def entries_of(m):
    return [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]


def ref_product(a, b, rows, inner, cols):
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)]
        for i in range(rows)
    ]


def assert_matches(m, ref, rows, cols):
    assert (m.rows, m.cols) == (rows, cols)
    assert entries_of(m) == ref
    assert m == as_matrix(ref, rows, cols)
    assert hash(m) == hash(as_matrix(ref, rows, cols))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("fields", [("Q", "Q"), ("Q(i)", "Q(i)"), ("Q", "Q(i)")], ids=str)
def test_matrix_matches_fraction_reference(seed, fields):
    rng = random.Random(seed)
    fa, fb = fields
    rows, inner, cols = (rng.randint(0, 3) for _ in range(3))
    a = random_entries(rng, rows, cols, fa)
    b = random_entries(rng, rows, cols, fb)
    c = random_entries(rng, cols, inner, fb)
    ma, mb, mc = as_matrix(a, rows, cols), as_matrix(b, rows, cols), as_matrix(c, cols, inner)
    assert_matches(ma, a, rows, cols)
    assert_matches(ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], rows, cols)
    assert_matches(ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], rows, cols)
    assert_matches(-ma, [[-x for x in r] for r in a], rows, cols)
    assert_matches(ma * mc, ref_product(a, c, rows, cols, inner), rows, inner)
    s = random_scalar(rng, fb)
    s = s if s != 0 else GR(1, 2) if fb == "Q(i)" else F(-5, 3)
    assert_matches(s * ma, [[s * x for x in r] for r in a], rows, cols)
    assert_matches(ma * s, [[x * s for x in r] for r in a], rows, cols)
    assert_matches(ma / s, [[x / s for x in r] for r in a], rows, cols)
    assert ma.is_zero() == all(x == 0 for r in a for x in r)
    assert (ma - ma).is_zero() and (ma * 0).is_zero()
    row_idx = [rng.randrange(rows) for _ in range(rng.randint(0, 3))] if rows else []
    col_idx = [rng.randrange(cols) for _ in range(rng.randint(0, 3))] if cols else []
    assert_matches(
        submatrix(ma, row_idx, col_idx),
        [[a[i][j] for j in col_idx] for i in row_idx],
        len(row_idx),
        len(col_idx),
    )
    # entries keep their field: Fraction over Q, GaussianRational over Q(i)
    assert all(isinstance(x, GR if fa == "Q(i)" else F) for r in entries_of(ma) for x in r)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_square_matrix_matches_fraction_reference(seed, field):
    rng = random.Random(100 + seed)
    n = rng.randint(0, 4)
    a = random_entries(rng, n, n, field)
    b = random_entries(rng, n, n, field)
    ma, mb = as_matrix(a, n, n), as_matrix(b, n, n)
    ab, ba = ref_product(a, b, n, n, n), ref_product(b, a, n, n, n)
    assert_matches(ma.commutator(mb), [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)], n, n)
    c = random_scalar(rng, field)
    scalar = as_matrix([[c if i == j else F(0) for j in range(n)] for i in range(n)], n, n)
    if n:
        assert scalar.scalar_of_identity() == c
        assert (c * Matrix.identity(n)).scalar_of_identity() == c
        off = any(a[i][j] != 0 for i in range(n) for j in range(n) if i != j)
        diag = {a[i][i] for i in range(n)}
        expect = None if off or len(diag) > 1 else a[0][0]
        assert ma.scalar_of_identity() == expect
    else:
        assert scalar.scalar_of_identity() is None


def test_matrix_equality_across_denominators():
    """Equal matrices reached over different denominators compare and hash equal."""
    a = Matrix([[F(1, 7), F(2, 3)], [F(0), F(5, 21)]])
    b = Matrix([[F(3, 10), F(1, 4)], [F(9, 5), F(0)]])
    back = (a + b) - b  # the sum lives over 420
    assert back == a and hash(back) == hash(a)
    whole = a * 21
    assert whole == Matrix([[F(3), F(14)], [F(0), F(5)]])
    assert hash(whole) == hash(Matrix([[3, 14], [0, 5]]))
    assert whole / 21 == a and hash(whole / 21) == hash(a)
    # a Q(i) matrix with zero imaginary parts equals its rational twin
    g = Matrix([[GR(F(1, 7)), GR(F(2, 3))], [GR(0), GR(F(5, 21))]])
    assert g == a and a == g and hash(g) == hash(a)
    assert (g * GR(0, 1)) * GR(0, -1) == a
    assert Matrix([[F(1, 2)]]) != Matrix([[F(1, 3)]])
    assert Matrix.zeros(2, 0) != Matrix.zeros(0, 2)


@pytest.mark.parametrize(
    "big, inner, int64",
    [(2**31 - 1, 2, True), (2**31, 2, False), (2**30, 7, True), (2**30, 8, False), (2**40, 3, False)],
)
def test_matrix_product_near_and_beyond_int64(big, inner, int64):
    """Products stay exact on both sides of the int64 bound max|A| * max|B| * inner < 2**63.

    The integer matrix J with J[i][j] = (-1)**(i + j) * big has J*J = inner * big * J,
    so every entry of the product is as large as the bound allows: a product that
    takes int64 past the bound overflows.
    """
    bound = big * big * inner
    assert (bound < 2**63) == int64  # the side of the bound this case is on
    ref = [[F((-1) ** (i + j) * big) for j in range(inner)] for i in range(inner)]
    m = Matrix(ref)
    assert m.den == 1
    square = ref_product(ref, ref, inner, inner, inner)
    assert max(abs(x) for row in square for x in row) == bound
    assert_matches(m * m, square, inner, inner)
    # over Q(i) each of the three real products meets its own bound as well
    g = [[GR(x, x) for x in row] for row in ref]
    assert_matches(Matrix(g) * Matrix(g), ref_product(g, g, inner, inner, inner), inner, inner)
