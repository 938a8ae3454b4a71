"""The stacked MatrixPoly against the Poly-of-Matrix reference, over Q and Q(i).

Every operation of ``gaudin.linalg.MatrixPoly`` is compared with the same
operation on a Poly whose coefficients are the reference ``Matrix`` objects
of the oracles, on random rectangular and empty blocks.  Large entries force
the Python-int path; small ones take int64.
"""

import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.betheop import build_bethe_operator
from gaudin.harness import InstanceConfig
from gaudin.linalg import (
    MatrixPoly,
    _exact,
    _reciprocal,
    _split,
    divide_out_points,
    pairwise_commute,
    point_table,
    root_products,
)
from gaudin.polynomials import Poly
from gaudin.scalars import GaussianRational

from oracles import Matrix, constant, scalar_table, stacked, taylor_coefficients, taylor_matrix, unstacked

F = Fraction
GR = GaussianRational

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.json"))

# entry magnitudes: the last two are beyond the int64 path (2**62)
SCALES = [1, 2**20, 2**40, 2**62, 2**80]


@st.composite
def scalars(draw, field, scale=1, zeros=True):
    def rational():
        num = draw(st.integers(-9, 9) if zeros else st.integers(1, 9))
        return F(num * scale, draw(st.sampled_from([1, 2, 3, 7])))

    if field == "Q":
        return rational()
    return GR(rational(), rational())


@st.composite
def matrix_polys(draw, field, rows, cols, scale=1, max_degree=3):
    """A reference Poly of rows x cols Matrix coefficients."""
    degree = draw(st.integers(-1, max_degree))
    coeffs = []
    for _ in range(degree + 1):
        if rows and cols and draw(st.booleans()):
            coeffs.append(Matrix([[draw(scalars(field, scale)) for _ in range(cols)] for _ in range(rows)]))
        else:
            coeffs.append(Matrix.zeros(rows, cols))
    return Poly(coeffs)


@st.composite
def scalar_polys(draw, field, max_degree=3):
    return Poly([draw(scalars(field)) for _ in range(draw(st.integers(0, max_degree + 1)))])


fields = st.sampled_from(["Q", "Q(i)"])
sizes = st.integers(0, 3)
scales = st.sampled_from(SCALES)


@settings(max_examples=60, deadline=None)
@given(st.data(), fields, sizes, sizes, scales)
def test_sum_difference_negation(data, field, rows, cols, scale):
    a = data.draw(matrix_polys(field, rows, cols, scale))
    b = data.draw(matrix_polys(field, rows, cols, scale))
    A, B = stacked(a, rows, cols), stacked(b, rows, cols)
    assert unstacked(A) == a
    assert unstacked(A + B) == a + b
    assert unstacked(A - B) == a - b
    assert unstacked(-A) == -a
    assert (A + B) - B == A  # reduced: equal polynomials have equal arrays
    assert (A - A).is_zero()
    assert A.shape == (rows, cols) and len(A) == len(a.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data(), fields, sizes, sizes, sizes, scales)
def test_product(data, field, rows, inner, cols, scale):
    a = data.draw(matrix_polys(field, rows, inner, scale))
    b = data.draw(matrix_polys(field, inner, cols, scale))
    product = stacked(a, rows, inner) * stacked(b, inner, cols)
    assert product.shape == (rows, cols)
    assert unstacked(product) == a * b


@settings(max_examples=60, deadline=None)
@given(st.data(), fields, sizes, sizes, scales)
def test_scalar_and_scalar_polynomial_multiples(data, field, rows, cols, scale):
    a = data.draw(matrix_polys(field, rows, cols, scale))
    A = stacked(a, rows, cols)
    s = data.draw(scalars(field))
    assert unstacked(A * s) == a.scale(s)
    assert unstacked(s * A) == a.scale(s)
    p = data.draw(scalar_polys(field))
    assert unstacked(A * p) == a * p
    assert unstacked(p * A) == p * a


@settings(max_examples=60, deadline=None)
@given(st.data(), fields, sizes, sizes, scales)
def test_derivative_evaluation_and_taylor_shift(data, field, rows, cols, scale):
    a = data.draw(matrix_polys(field, rows, cols, scale))
    A = stacked(a, rows, cols)
    assert unstacked(A.derivative()) == a.derivative()
    x = data.draw(scalars(field))
    if a.is_zero():
        assert taylor_at(A, x, 1).is_zero()
    else:
        assert constant(taylor_at(A, x, 1)) == a(x)
    count = data.draw(st.integers(1, 5))
    assert unstacked(taylor_at(A, x, count)) == Poly(taylor_coefficients(a, x, count))


def taylor_at(A, x, count):
    """The first count coefficients of A in powers of (u - x), from the ``point_table`` of x alone."""
    return A.contract(*point_table((x,), (count,), max(A.degree, 0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), fields, st.integers(0, 6))
def test_point_table_matches_taylor_matrix(data, field, degree):
    """Row (s, k) of the integer table over its denominator is row k of the reference ``taylor_matrix`` at b_s."""
    points = tuple(data.draw(st.lists(scalars(field), min_size=0, max_size=4, unique=True)))
    counts = tuple(data.draw(st.lists(st.integers(0, 4), min_size=len(points), max_size=len(points))))
    re, im, den = point_table(points, counts, degree)
    assert re.shape == (sum(counts), degree + 1) and (im is None or im.shape == re.shape)
    got = [[_exact(re[r, j], None if im is None else im[r, j], den) for j in range(degree + 1)] for r in range(len(re))]
    expect = [list(row) for b, count in zip(points, counts) for row in taylor_matrix(b, degree, count)]
    assert got == expect


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), fields)
def test_root_products_match_the_quotients(data, field):
    """The integer cofactor table is the ``scalar_table`` of every P / (u - x_s) after reduction, and P the product."""
    roots = tuple(data.draw(st.lists(scalars(field), min_size=0, max_size=5, unique=True)))
    p, (re, im, den) = root_products(roots)
    assert p == Poly.from_roots(roots)
    e_re, e_im, e_den = scalar_table([p.exact_div(Poly([-x, x * 0 + 1])) for x in roots])
    assert re.shape == e_re.shape == (len(roots), len(roots))
    im = im if im is not None else np.zeros_like(re)
    e_im = e_im if e_im is not None else np.zeros_like(e_re)
    for got, expect in ((re, e_re), (im, e_im)):
        assert np.array_equal(got.astype(object) * e_den, expect.astype(object) * den)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), fields)
def test_divide_out_points_matches_repeated_division(data, field):
    """The capped orders and the quotient of p = r prod_s (u - x_s)^m_s, against dividing by u - x_s with
    ``Poly.divmod`` for as long as the remainder vanishes; where r vanishes at no point, order s is min(cap, m_s)."""
    points = tuple(data.draw(st.lists(scalars(field), min_size=0, max_size=4, unique=True)))
    mults = [data.draw(st.integers(0, 3)) for _ in points]
    caps = tuple(data.draw(st.integers(0, 3)) for _ in points)
    r = data.draw(scalar_polys(field))
    if r.is_zero():
        r = Poly([F(1)])
    p = r * Poly.from_roots([x for x, m in zip(points, mults) for _ in range(m)])
    q, orders = p, []
    for x, cap in zip(points, caps):
        order = 0
        while order < cap:
            quot, rem = q.divmod(Poly([-x, x * 0 + 1]))
            if not rem.is_zero():
                break
            q, order = quot, order + 1
        orders.append(order)
    assert divide_out_points(p, points, caps) == (tuple(orders), q)
    if all(r(x) != 0 for x in points):
        assert orders == [min(c, m) for c, m in zip(caps, mults)]


@settings(max_examples=60, deadline=None)
@given(st.data(), fields, sizes, sizes, scales)
def test_exact_division_by_a_monic_polynomial(data, field, rows, cols, scale):
    roots = data.draw(st.lists(scalars(field), min_size=0, max_size=3))
    monic = Poly.from_roots(roots)
    q = data.draw(matrix_polys(field, rows, cols, scale))
    assert unstacked(stacked(q * monic, rows, cols).exact_div(monic)) == q
    r = data.draw(matrix_polys(field, rows, cols, scale, max_degree=len(roots) - 1))
    if not r.is_zero():
        with pytest.raises(ValueError):
            (q * monic + r).exact_div(monic)  # the reference raises too
        with pytest.raises(ValueError):
            stacked(q * monic + r, rows, cols).exact_div(monic)


def test_exact_division_builds_each_reciprocal_series_once():
    """Dividing several stacks of one length by one divisor, as ``BetheOperator.cleared`` does once per
    coefficient, builds the reciprocal series on the first call only, as read-only arrays."""
    monic = Poly.from_roots([Fraction(1, 3), 2, GaussianRational(Fraction(0), Fraction(1))])
    quotients = [MatrixPoly(np.arange(12).reshape(3, 2, 2) + k) for k in range(3)]
    _reciprocal.cache_clear()
    assert [(q * monic).exact_div(monic) for q in quotients] == quotients
    assert (_reciprocal.cache_info().misses, _reciprocal.cache_info().hits) == (1, 2)
    assert not any(part.flags.writeable for part in _reciprocal(monic, 3)[:2])


@settings(max_examples=40, deadline=None)
@given(st.data(), fields, st.integers(1, 3), scales)
def test_scalar_coefficients_and_commutation(data, field, n, scale):
    a = data.draw(matrix_polys(field, n, n, scale))
    c = data.draw(scalars(field, zeros=False))
    a = a + Poly([c * Matrix.identity(n)])  # at least one scalar coefficient
    A = stacked(a, n, n)
    assert A.scalars() == [m.scalar_of_identity() for m in a.coeffs]
    commute = all(x.commutator(y).is_zero() for x in a.coeffs for y in a.coeffs)
    assert pairwise_commute(A.re, A.im) == commute


@settings(max_examples=40, deadline=None)
@given(st.data(), fields, sizes, sizes, st.sampled_from([1, 2**40, 2**80]))
def test_complex_conversion(data, field, rows, cols, scale):
    a = data.draw(matrix_polys(field, rows, cols, scale))
    count = data.draw(st.integers(1, 5))
    got = stacked(a, rows, cols).to_complex(count)
    assert got.shape == (count, rows, cols)
    for k in range(count):
        m = a.coeff(k) if k <= a.degree else Matrix.zeros(rows, cols)
        for i in range(rows):
            for j in range(cols):
                assert got[k, i, j] == complex(m.get(i, j))


@settings(max_examples=30, deadline=None)
@given(st.data(), fields, st.integers(1, 3), sizes, sizes)
def test_combination_of_a_stack(data, field, points, rows, cols):
    polys = [data.draw(scalar_polys(field)) for _ in range(points)]
    stack = np.array(
        data.draw(st.lists(st.integers(-50, 50), min_size=points * rows * cols, max_size=points * rows * cols)),
        dtype=np.int64,
    ).reshape(points, rows, cols)
    den = data.draw(st.sampled_from([1, 2, 6]))
    expect = Poly()
    for p, m in zip(polys, stack):
        mat = Matrix._of(m.astype(object), None, den)
        expect = expect + p * Poly([mat])
    assert unstacked(MatrixPoly.combination(scalar_table(polys), stack, den)) == expect


def test_empty_blocks():
    """0-row and 0-column blocks: every polynomial on them is zero, with its shape kept."""
    empty = MatrixPoly.zero(0, 3)
    assert empty.is_zero() and empty.shape == (0, 3) and len(empty) == 0
    assert MatrixPoly.identity(0).is_zero()
    full = stacked(Poly([Matrix([[F(1)], [F(2)], [F(3)]])]), 3, 1)
    assert (empty * full).shape == (0, 1) and (empty * full).is_zero()
    assert (full * MatrixPoly.zero(1, 0)).shape == (3, 0)
    assert taylor_at(empty, F(2), 3) == empty and empty.derivative() == empty
    assert empty.to_complex(2).shape == (2, 0, 3)
    assert empty != MatrixPoly.zero(3, 0)


def test_equality_across_denominators_and_fields():
    a = stacked(Poly([Matrix([[F(1, 7), F(2, 3)], [F(0), F(5, 21)]])]), 2, 2)
    b = stacked(Poly([Matrix([[F(3, 10), F(1, 4)], [F(9, 5), F(0)]])]), 2, 2)
    assert (a + b) - b == a  # the sum lives over 420
    assert a * 21 == stacked(Poly([Matrix([[F(3), F(14)], [F(0), F(5)]])]), 2, 2)
    g = stacked(Poly([Matrix([[GR(F(1, 7)), GR(F(2, 3))], [GR(0), GR(F(5, 21))]])]), 2, 2)
    assert g == a and g.im is None  # zero imaginary parts are dropped
    assert (g * GR(0, 1)) * GR(0, -1) == a


@pytest.mark.parametrize(
    "big, inner, int64",
    [(2**30 - 1, 4, True), (2**30, 4, False), (2**29, 15, True), (2**29, 16, False), (2**40, 3, False)],
)
def test_product_near_and_beyond_the_int64_bound(big, inner, int64):
    """Products stay exact on both sides of the bound max|A| * max|B| * inner < 2**62.

    The integer matrix J with J[i][j] = (-1)**(i + j) * big has J*J = inner * big * J,
    so every entry of the product is as large as the bound allows; a result below
    2**62 is stored as int64 and one above it as Python ints.
    """
    bound = big * big * inner
    assert (bound < 2**62) == int64  # the side of the bound this case is on
    ref = [[F((-1) ** (i + j) * big) for j in range(inner)] for i in range(inner)]
    m = Poly([Matrix(ref)])
    got = stacked(m, inner, inner) * stacked(m, inner, inner)
    assert unstacked(got) == m * m
    assert (got.re.dtype == np.int64) == int64
    # over Q(i) each of the three real products meets its own bound as well
    g = Poly([Matrix([[GR(x, x) for x in row] for row in ref])])
    assert unstacked(stacked(g, inner, inner) * stacked(g, inner, inner)) == g * g


def test_python_int_bound_refuses_where_an_int64_bound_would_wrap():
    """With entries 2**32 the int64 product of the two maxima wraps to 0, so a
    bound computed in numpy would take the int64 path and overflow; the bound in
    Python ints refuses it, and the product stays exact."""
    big = 2**32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert int(np.int64(big) * np.int64(big)) == 0
    m = Poly([Matrix([[F(big), F(-big)], [F(big), F(big)]]), Matrix([[F(1), F(0)], [F(0), F(big)]])])
    A = stacked(m, 2, 2)
    assert A.re.dtype == np.int64  # each entry fits
    product = A * A
    assert unstacked(product) == m * m
    assert product.re.dtype == object
    assert unstacked(A * (2**70)) == m.scale(F(2**70))


def test_product_bound_counts_the_sum_over_degrees():
    """The u^2 coefficient of (c + cu + cu^2)^2 sums three products c^2: with
    c^2 below 2**62 but 3 c^2 above 2**63, the bound must count the terms."""
    c = 2_000_000_000
    assert c * c < 2**62 and 3 * c * c > 2**63
    m = Poly([Matrix([[F(c)]])] * 3)
    A = stacked(m, 1, 1)
    assert unstacked(A * A) == m * m


def _scaled_by_contraction(A, scalar):
    """A times an exact scalar through the general contraction with the scalar times the identity."""
    re, im, den = _split(scalar)
    eye = np.identity(len(A), dtype=object)
    return A.contract(eye * re, eye * im if im else None, den)


@settings(max_examples=80, deadline=None)
@given(st.data(), fields, sizes, sizes, scales,
       st.sampled_from(["int", "Fraction", "GaussianRational", "real GaussianRational"]))
def test_scalar_multiple_is_the_contraction(data, field, rows, cols, scale, kind):
    """A * c scales the numerator stacks directly, for int, Fraction and GaussianRational c, and equals the
    contraction with c times the identity, arrays and dtypes included, also past the int64 bound."""
    A = stacked(data.draw(matrix_polys(field, rows, cols, scale)), rows, cols)
    s = data.draw(scalars("Q", data.draw(st.sampled_from(SCALES))))
    s = {"int": s.numerator, "Fraction": s, "GaussianRational": GR(s, data.draw(scalars("Q"))),
         "real GaussianRational": GR(s, 0)}[kind]
    for got in (A * s, s * A):
        expect = _scaled_by_contraction(A, s)
        assert got == expect
        assert (got.re.dtype, None if got.im is None else got.im.dtype) == (
            expect.re.dtype, None if expect.im is None else expect.im.dtype)


def test_scalar_multiple_past_the_int64_bound():
    """A stack near 2**62 times a scalar leaves int64 for Python ints, as the contraction does, and a
    Gaussian scalar mixes the real and imaginary stacks."""
    big = np.full((1, 2, 2), 2**61, dtype=np.int64)
    A = MatrixPoly(big, np.ones((1, 2, 2), dtype=np.int64))
    for s in (3, F(5, 7), GR(F(1), F(-2)), GR(F(2**70), F(1, 3))):
        got, expect = A * s, _scaled_by_contraction(A, s)
        assert got == expect and (got.re.dtype, got.im.dtype) == (expect.re.dtype, expect.im.dtype)
    assert (A * 3).re.dtype == object and (A * 3).im.dtype == np.int64
    assert (A * GR(F(0), F(1))) == MatrixPoly(-np.ones((1, 2, 2), dtype=np.int64), big)


def test_eigenvector_blocks_are_unchanged_by_the_direct_scaling(monkeypatch):
    """Every fixture's eigenvector_blocks, which scale each block value by 1/P at a point, are bit for bit
    those of the contraction-based scalar multiple."""
    direct = [build_bethe_operator(InstanceConfig.from_file(path).spec).eigenvector_blocks[0] for path in FIXTURES]
    monkeypatch.setattr(MatrixPoly, "_scaled", _scaled_by_contraction)
    for path, blocks in zip(FIXTURES, direct):
        reference = build_bethe_operator(InstanceConfig.from_file(path).spec).eigenvector_blocks[0]
        assert blocks.shape == reference.shape and np.array_equal(blocks, reference), path.stem
