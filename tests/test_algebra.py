import pathlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.algebra import (
    ModuleSpec,
    Partition,
    apply_e_block,
    build_embedded_module,
    enumerate_indices,
    enumerate_weight_basis,
    find_singular_vector,
)
from gaudin.harness import InstanceConfig
from gaudin.polynomials import Poly
from gaudin.scalars import GaussianRational

from oracles import (
    Matrix,
    ambient_generator_block,
    brute_weight_indices,
    e_point_matrices,
    e_series,
    express,
    member_vectors,
    submatrix,
    tensor_weight_dimension,
)

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_partition_validation():
    assert Partition((2, 1)).weight == 3
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_module_spec_validation():
    with pytest.raises(ValueError):
        ModuleSpec(2, ("0", "0"), ((1,), (1,)), ("0", "1"), (1, 1))
    with pytest.raises(ValueError):
        ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "0"), (1, 1))
    with pytest.raises(ValueError):
        ModuleSpec(2, ("0", "1"), ((1,),), ("0",), (1, 1))


def test_indicial_target_examples():
    """const * prod_l (a - lam_l - N + l), const = prod_{r != s} (b_s - b_r)^{n_r}."""
    golden = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    assert golden.indicial_target(0) == Poly([F(0), F(2), F(-1)])  # -(a)(a - 2)
    assert golden.indicial_target(1) == Poly([F(0), F(-2), F(1)])  # (a)(a - 2)
    single = ModuleSpec(2, ("0", "1"), ((1, 1),), ("3",), (1, 1))
    assert single.indicial_target(0) == Poly.from_roots([F(2), F(1)])


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_indicial_targets_are_the_product_formula_on_every_fixture(path):
    """The constant read from the point table is prod_{r != s} (b_s - b_r)^{n_r}, exactly."""
    spec = InstanceConfig.from_file(path).spec
    N = spec.rank
    for s, (b_s, part) in enumerate(zip(spec.points, spec.partitions)):
        const = F(1)
        for b, n in zip(spec.points, spec.factor_sizes):
            if b != b_s:
                const *= (b_s - b) ** n
        lam = part.padded(N)
        want = Poly.from_roots([lam[l] + N - 1 - l for l in range(N)]).scale(const)
        assert spec.indicial_target(s) == want


def test_spec_polynomials_are_built_once_per_spec():
    """The pole polynomial and indicial targets are kept on the frozen spec;
    a spec made by ``dataclasses.replace`` builds its own."""
    golden = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    assert golden.pole_polynomial() is golden.pole_polynomial()
    assert golden.complex_pole_polynomial() is golden.complex_pole_polynomial()
    assert golden.indicial_target(1) is golden.indicial_target(1)
    assert golden.complex_pole_polynomial() == Poly([0j, -1 + 0j, 1 + 0j])
    moved = replace(golden, points=("0", "2"))
    assert moved.pole_polynomial() == Poly.from_roots([F(0), F(2)])
    assert moved.indicial_target(1) == Poly([F(0), F(-4), F(2)])  # 2 a (a - 2)
    assert golden.pole_polynomial() == Poly.from_roots([F(0), F(1)])


def test_enumerate_weight_basis_examples():
    assert enumerate_weight_basis(2, 2, (1, 1)) == ((1, 2), (2, 1))
    assert len(enumerate_weight_basis(2, 4, (2, 2))) == 6
    perms = enumerate_weight_basis(3, 3, (1, 1, 1))
    assert len(perms) == 6
    assert set(perms) == {p for p in product((1, 2, 3), repeat=3) if len(set(p)) == 3}


@pytest.mark.parametrize(
    "N,n,weight",
    [(2, 3, (2, 1)), (3, 3, (1, 1, 1)), (3, 4, (2, 1, 1)), (2, 4, (2, 2))],
)
def test_enumeration_matches_brute_force(N, n, weight):
    assert list(enumerate_weight_basis(N, n, weight)) == sorted(brute_weight_indices(N, n, weight))


def test_enumerate_indices_non_partition_weight():
    out = enumerate_indices(3, 2, (1, 0, 1))
    assert out == ((1, 3), (3, 1))


def test_act_e_examples():
    assert apply_e_block(2, 1, [1], {(1, 2): F(1)}) == {(2, 2): F(1)}
    assert apply_e_block(1, 2, [1], {(1, 2): F(1)}) == {}


def _operator_matrix(N, n, i, j, source_basis, target_basis):
    target = {J: r for r, J in enumerate(target_basis)}
    cols = []
    for J in source_basis:
        vec = apply_e_block(i, j, range(1, n + 1), {J: F(1)})
        col = [F(0)] * len(target_basis)
        for K, c in vec.items():
            col[target[K]] += c
        cols.append(col)
    return cols  # cols[j][i]


def test_commutation_relations_small():
    """[e_ij, e_sk] = d_js e_ik - d_ik e_sj on full tensor powers, N <= 3, n <= 4."""
    rng = random.Random(3)
    for N, n in ((2, 3), (3, 2), (2, 4), (3, 3)):
        basis = list(product(range(1, N + 1), repeat=n))
        lookup = {J: r for r, J in enumerate(basis)}

        def matrix(i, j):
            cols = [[F(0)] * len(basis) for _ in basis]
            for cidx, J in enumerate(basis):
                for K, c in apply_e_block(i, j, range(1, n + 1), {J: F(1)}).items():
                    cols[cidx][lookup[K]] += c
            return Matrix([[cols[c][r] for c in range(len(basis))] for r in range(len(basis))])

        pairs = [
            ((i, j), (s, k))
            for i in range(1, N + 1)
            for j in range(1, N + 1)
            for s in range(1, N + 1)
            for k in range(1, N + 1)
        ]
        for (i, j), (s, k) in rng.sample(pairs, min(10, len(pairs))):
            lhs = matrix(i, j).commutator(matrix(s, k))
            rhs = Matrix.zeros(len(basis), len(basis))
            if j == s:
                rhs = rhs + matrix(i, k)
            if i == k:
                rhs = rhs - matrix(s, j)
            assert lhs == rhs


def test_singular_vector_examples():
    assert find_singular_vector(2, 1, (1,)) == {(1,): F(1)}
    v = find_singular_vector(2, 2, (1, 1))
    assert v == {(1, 2): F(1), (2, 1): F(-1)}
    assert find_singular_vector(2, 2, (2, 0)) == {(1, 1): F(1)}
    assert find_singular_vector(2, 3, (2, 1)) == {(1, 1, 2): F(1), (1, 2, 1): F(-1)}
    # e_1 (x) (e_1 ^ e_2 ^ e_3): the shortest column comes first
    assert find_singular_vector(3, 4, (2, 1, 1)) == {
        (1, 1, 2, 3): F(1),
        (1, 1, 3, 2): F(-1),
        (1, 2, 1, 3): F(-1),
        (1, 2, 3, 1): F(1),
        (1, 3, 1, 2): F(1),
        (1, 3, 2, 1): F(-1),
    }


def test_singular_vector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        find_singular_vector(2, 3, (1, 1))  # size mismatch
    with pytest.raises(ValueError):
        find_singular_vector(2, 3, (1, 1, 1))  # more than N parts


@pytest.mark.parametrize(
    "N,mu",
    [
        (2, (1, 1)),
        (2, (2, 1)),
        (3, (1, 1, 1)),
        (3, (2, 1, 0)),
        (3, (3, 1)),
        (3, (2, 2, 1)),
        (3, (3, 2, 1)),
        (4, (2, 1, 1, 1)),
    ],
)
def test_singular_vector_annihilated_by_all_raising(N, mu):
    size = sum(mu)
    v = find_singular_vector(N, size, mu)
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            assert apply_e_block(i, j, range(1, size + 1), v) == {}


@pytest.mark.parametrize(
    "data,expected_dim",
    [
        ({"N": 2, "K": ("0", "1"), "partitions": ((1,), (1,)), "b": ("0", "1"), "weight": (1, 1)}, 2),
        ({"N": 2, "K": ("0", "1"), "partitions": ((2, 0),), "b": ("0",), "weight": (1, 1)}, 1),
        ({"N": 3, "K": ("0", "1", "2"), "partitions": ((1, 1, 0),), "b": ("0",), "weight": (1, 1, 0)}, 1),
        ({"N": 2, "K": ("0", "1"), "partitions": ((2, 0), (1, 1)), "b": ("0", "1"), "weight": (2, 2)}, 1),
        ({"N": 2, "K": ("0", "1"), "partitions": ((2, 1), (1, 0)), "b": ("0", "1"), "weight": (2, 2)}, 2),
        ({"N": 3, "K": ("0", "1", "2"), "partitions": ((1,), (1,), (1,)), "b": ("0", "1", "2"), "weight": (1, 1, 1)}, 6),
    ],
)
def test_embedded_dimension_matches_character_oracle(data, expected_dim):
    spec = ModuleSpec(data["N"], data["K"], data["partitions"], data["b"], data["weight"])
    module = build_embedded_module(spec)
    oracle = tensor_weight_dimension(
        [p.parts for p in spec.partitions], spec.weight.parts, spec.rank
    )
    assert oracle == expected_dim
    assert len(module.weight_indices(spec.weight)) == expected_dim
    total = sum(
        tensor_weight_dimension([p.parts for p in spec.partitions], w, spec.rank)
        for w in module.weights
    )
    assert module.dim == total


def test_embedded_examples_from_lowering():
    spec = ModuleSpec(2, ("0", "1"), ((2, 0),), ("0",), (1, 1))
    module = build_embedded_module(spec)
    idx = module.weight_indices((1, 1))
    assert len(idx) == 1
    vec = member_vectors(module)[idx[0]]
    # one lowering applied to (1,1): symmetric combination
    ratio = vec[(1, 2)] / vec[(2, 1)]
    assert ratio == 1

    spec2 = ModuleSpec(3, ("0", "1", "2"), ((1, 1, 0),), ("0",), (1, 1, 0))
    module2 = build_embedded_module(spec2)
    vec2 = member_vectors(module2)[module2.weight_indices((1, 1, 0))[0]]
    assert vec2[(1, 2)] / vec2[(2, 1)] == -1


def test_express_visits_the_members_and_rejects_what_lies_outside():
    spec = ModuleSpec(2, ("0", "1"), ((2, 0),), ("0",), (1, 1))
    module = build_embedded_module(spec)
    [k] = module.weight_indices((1, 1))
    vec = member_vectors(module)[k]
    assert express(module, {J: 3 * c for J, c in vec.items()}) == {k: 3}
    with pytest.raises(ValueError):
        express(module, {(1, 2): F(1)})  # not symmetric: outside Sym^2 V


def test_e_series_single_factor_scalar():
    spec = ModuleSpec(1, ("0",), ((1,),), ("2",), (1,))
    module = build_embedded_module(spec)
    # e_11(u) = 1 / (u - 2): the numerator over u - 2 is 1
    assert e_series(module, 1, 1) == Poly([Matrix.identity(1)])


def test_e_series_diagonal_example(golden_module):
    series = e_series(golden_module, 1, 1)
    idx = golden_module.weight_indices((1, 1))
    # block basis order is lexicographic: (1,2) then (2,1); e_11 acts in the
    # factor whose index is 1, so the diagonal is (1/u, 1/(u-1))
    for pt in (F(5), F(7)):
        val = submatrix(series(pt) / (pt * (pt - 1)), idx, idx)
        assert val.get(0, 0) == 1 / pt
        assert val.get(1, 1) == 1 / (pt - 1)
        assert val.get(0, 1) == 0 and val.get(1, 0) == 0


def test_trace_identity(golden_module):
    # e_11(u) + e_22(u) = (1/u + 1/(u - 1)) I, so its numerator over u(u - 1) is (2u - 1) I
    total = e_series(golden_module, 1, 1) + e_series(golden_module, 2, 2)
    assert total == Poly([F(-1), F(2)]).scale(Matrix.identity(golden_module.dim))


def test_weight_shift_structure(golden_module):
    """e_ij(u) maps the weight-mu block into the weight mu + e_i - e_j block."""
    module = golden_module
    weights = module.weights
    val = e_series(module, 1, 2)(F(3))  # the numerator at 3: the same support as e_12(3)
    for w_src, idx_src in weights.items():
        target = (w_src[0] + 1, w_src[1] - 1)
        for w_dst, idx_dst in weights.items():
            block = submatrix(val, idx_dst, idx_src)
            if w_dst != target and not block.is_zero():
                raise AssertionError(f"e_12(u) leaks from {w_src} to {w_dst}")
    # off-diagonal generator is zero ON a fixed weight block
    idx = module.weight_indices((1, 1))
    assert submatrix(val, idx, idx).is_zero()


def test_generator_blocks_are_cuts_of_the_whole_module_matrices():
    """e_ij in factor s from weight nu, built from the weight-nu members
    alone, is the (nu + e_i - e_j, nu) block of its whole-module matrix."""
    spec = ModuleSpec(3, ("0", "1", "2"), ((2, 1), (1,)), ("0", "1"), (2, 1, 1))
    module = build_embedded_module(spec)
    for i, j in product(range(1, 4), repeat=2):
        whole = e_point_matrices(module, i, j)
        for nu, cols in module.weights.items():
            target = tuple(w + (k == i - 1) - (k == j - 1) for k, w in enumerate(nu))
            rows = module.weight_indices(target)
            stack, den = module.generator_block(i, j, nu)
            assert stack.shape == (len(whole), len(rows), len(cols))
            for got, full in zip(stack, whole):
                assert Matrix._of(got, None, den) == submatrix(full, rows, cols)
    assert not module.leaks


def _assert_blocks_match_the_ambient_path(module):
    """Every generator block, for every (i, j) and every weight, equals the
    one built through the ambient space, entry by entry and over the same
    denominator, and no image leaves its weight."""
    N = module.spec.rank
    for i, j in product(range(1, N + 1), repeat=2):
        for nu in module.weights:
            stack, den = module.generator_block(i, j, nu)
            want, want_den, leaked = ambient_generator_block(module, i, j, nu)
            assert den == want_den and stack.shape == want.shape and (stack == want).all(), (i, j, nu)
            assert not leaked
    assert not module.leaks


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_generator_blocks_match_the_ambient_path_on_every_fixture(path):
    """Higher factors in mixed_cells and hook_n3, Q(i) points in gauss_n2."""
    _assert_blocks_match_the_ambient_path(build_embedded_module(InstanceConfig.from_file(path).spec))


SMALL_PARTITIONS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_generator_blocks_match_the_ambient_path_on_drawn_modules(data):
    """N <= 3, at most 4 factors, each of at most 3 boxes and at most N rows."""
    N = data.draw(st.integers(1, 3))
    shapes = [p for p in SMALL_PARTITIONS if len(p) <= N]
    partitions = data.draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=4))
    top = [sum(p[k] if k < len(p) else 0 for p in partitions) for k in range(N)]
    spec = ModuleSpec(N, [str(k) for k in range(N)], partitions, [str(s) for s in range(len(partitions))], top)
    _assert_blocks_match_the_ambient_path(build_embedded_module(spec))


def test_gaussian_rational_points():
    spec = ModuleSpec(1, ("0",), ((1,),), ("i",), (1,))
    module = build_embedded_module(spec)
    point = GaussianRational(1, 1)
    got = e_series(module, 1, 1)(point) / (point - GaussianRational(0, 1))
    assert got.get(0, 0) == GaussianRational(1, 0) / GaussianRational(1, 0)  # 1/(1+i-i) = 1
