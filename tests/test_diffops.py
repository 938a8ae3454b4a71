import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.diffops import DiffOp, QuasiExp, compose_chain, wronskian
from gaudin.linalg import Matrix
from gaudin.polynomials import Poly
from gaudin.ratfun import RatFun

from oracles import numeric_wronskian, rdet

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def ratc(c):
    return RatFun.constant(F(c))


def test_wronskian_two_exponentials():
    a, b = F(2), F(5)
    wr = wronskian([QuasiExp(a, P(1)), QuasiExp(b, P(1))])
    assert wr.exponent == a + b
    assert wr.poly == P(b - a)


def test_wronskian_single():
    f = QuasiExp(F(3), P(1, 2))
    wr = wronskian([f])
    assert wr.exponent == f.exponent and wr.poly == f.poly


def test_wronskian_u_and_one():
    wr = wronskian([QuasiExp(F(0), P(0, 1)), QuasiExp(F(0), P(1))])
    assert wr.poly == P(-1)


def test_wronskian_alternation_and_repeats():
    f = QuasiExp(F(1), P(3, 1))
    g = QuasiExp(F(0), P(1, 0, 1))
    assert wronskian([f, g]).poly == (-wronskian([g, f]).poly)
    assert wronskian([f, f]).poly.is_zero()


def test_wronskian_matches_numeric():
    funcs = [(F(1), P(1, 1)), (F(0), P(0, 0, 1)), (F(-2), P(2))]
    wr = wronskian([QuasiExp(k, p) for k, p in funcs])
    for point in (F(1, 2), F(3)):
        import cmath

        direct = numeric_wronskian(funcs, complex(point))
        ours = complex(wr.poly(point)) * cmath.exp(complex(wr.exponent) * complex(point))
        assert abs(direct - ours) <= 1e-9 * max(1.0, abs(direct))


def test_compose_basic():
    dd = DiffOp.derivative_op()
    assert dd.compose(dd).order == 2
    # (d - 1/u) after d has no zero-order term on the right factor
    left = DiffOp([RatFun(P(-1), P(0, 1)), ratc(1)])
    out = left.compose(dd)
    assert out.order == 2
    assert out.coeff(0).is_zero()
    assert out.coeff(1) == RatFun(P(-1), P(0, 1))


def test_compose_first_order_leibniz():
    # (a d + c)(b d + e) = ab d^2 + (a b' + a e + c b) d + (a e' + c e)
    a, c = ratc(2), RatFun(P(1), P(0, 1))
    b, e = RatFun(P(0, 1)), RatFun(P(3, 1))
    left = DiffOp([c, a])
    right = DiffOp([e, b])
    out = left.compose(right)
    assert out.coeff(2) == a * b
    assert out.coeff(1) == a * b.derivative() + a * e + c * b
    assert out.coeff(0) == a * e.derivative() + c * e


def test_compose_agrees_with_sequential_application():
    rng = random.Random(5)

    def random_first_order():
        c = RatFun(Poly([F(rng.randint(-4, 4)), F(rng.randint(-4, 4))]))
        return DiffOp([c, ratc(1)])

    tests = [
        QuasiExp(F(0), P(1)),
        QuasiExp(F(0), P(0, 1)),
        QuasiExp(F(0), P(0, 0, 1)),
        QuasiExp(F(1), P(1)),
        QuasiExp(F(1), P(0, 1)),
    ]
    for _ in range(6):
        ops = [random_first_order() for _ in range(3)]
        composed = compose_chain(ops)
        for f in tests:
            k, direct = composed.apply(f)
            # apply right to left, carrying polynomial parts exactly
            poly = RatFun(f.poly)
            for op in reversed(ops):
                c0, c1 = op.coeff(0), op.coeff(1)
                poly = c1 * (poly.scale(f.exponent) + poly.derivative()) + c0 * poly
            assert direct == poly


def test_rdet_diagonal():
    entries = [
        [DiffOp([ratc(-3), ratc(1)]), DiffOp([ratc(0)])],
        [DiffOp([ratc(0)]), DiffOp([ratc(-7), ratc(1)])],
    ]
    out = rdet(entries)
    expect = entries[0][0].compose(entries[1][1])
    assert out == expect


def test_rdet_one_by_one():
    entry = DiffOp([RatFun(P(-2), P(0, 1)), ratc(1)])
    assert rdet([[entry]]) == entry


def test_rdet_constant_two_by_two():
    a, b, c, d = F(2), F(3), F(5), F(7)
    entries = [
        [DiffOp([ratc(-a), ratc(1)]), DiffOp([ratc(-c)])],
        [DiffOp([ratc(-d)]), DiffOp([ratc(-b), ratc(1)])],
    ]
    out = rdet(entries)
    assert out.coeff(2) == ratc(1)
    assert out.coeff(1) == ratc(-(a + b))
    assert out.coeff(0) == ratc(a * b - d * c)


def test_apply_kernel_and_powers():
    k = F(3)
    d_minus_k = DiffOp([ratc(-k), ratc(1)])
    _, r = d_minus_k.apply(QuasiExp(k, P(1)))
    assert r.is_zero()
    dd = DiffOp.derivative_op().compose(DiffOp.derivative_op())
    _, r2 = dd.apply(QuasiExp(F(0), P(0, 0, 1)))
    assert r2 == RatFun(P(2))


def _random_matrix_ratfun(rng, dim=2):
    num = Poly(
        [
            Matrix([[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)])
            for _ in range(2)
        ]
    )
    return RatFun(num, Poly([F(1)]), reduce=False)


def test_matrix_composition_order_sensitive_but_consistent():
    rng = random.Random(11)
    ident = RatFun.constant(Matrix.identity(2))
    for _ in range(4):
        A = DiffOp([_random_matrix_ratfun(rng), ident])
        B = DiffOp([_random_matrix_ratfun(rng), ident])
        AB, BA = A.compose(B), B.compose(A)
        assert not (AB == BA)  # generically order matters
        # both agree with sequential application on a vector quasi-exponential
        col = Poly([Matrix([[F(1)], [F(2)]]), Matrix([[F(0)], [F(1)]])])
        f = QuasiExp(F(1), col)
        for first, second, combined in ((B, A, AB), (A, B, BA)):
            k1, mid = first.apply(f)
            c0, c1 = second.coeff(0), second.coeff(1)
            seq = c1 * (mid.scale(f.exponent) + mid.derivative()) + c0 * mid
            _, direct = combined.apply(f)
            assert direct == seq


small = st.integers(-5, 5).map(F)


@settings(max_examples=30, deadline=None)
@given(st.lists(small, min_size=1, max_size=3), st.lists(small, min_size=1, max_size=3))
def test_wronskian_swap_property(c1, c2):
    f = QuasiExp(F(0), Poly(c1))
    g = QuasiExp(F(2), Poly(c2))
    if f.poly.is_zero() or g.poly.is_zero():
        return
    assert wronskian([f, g]).poly == -wronskian([g, f]).poly
