"""Weight bases and gl_N actions on tensor products of evaluation modules.

Vectors in V^{(x)n} are sparse dicts keyed by index tuples J = (j_1..j_n),
1 <= j_s <= N, where e_J = e_{j_1,1}v+ (x) ... (x) e_{j_n,1}v+.  Irreducible
factors L_mu sit inside V^{(x)|mu|} as the span of a singular vector under
lowering operators.  g(u) = sum_s g^{(s)} / (u - b_s) acts on one factor at
a time, so each e_ij is computed on each factor's own basis.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import lcm, prod

import numpy as np

from .linalg import MatrixPoly, point_table, root_products
from .polynomials import Poly
from .scalars import promote_field, to_complex


@dataclass(frozen=True)
class Partition:
    """Non-increasing tuple of non-negative integers."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in partition {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def padded(self, n: int) -> tuple:
        if len(self.parts) > n:
            if any(self.parts[n:]):
                raise ValueError(f"partition {self.parts} has more than {n} parts")
            return self.parts[:n]
        return self.parts + (0,) * (n - len(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class ModuleSpec:
    """A tensor product of evaluation modules plus a target weight.

    rank N, twist exponents K (distinct), partitions Lambda with evaluation
    points b (distinct), and the weight lam cut out of the tensor product.
    """

    rank: int
    exponents: tuple
    partitions: tuple
    points: tuple
    weight: Partition

    def __init__(self, rank, exponents, partitions, points, weight):
        rank = int(rank)
        exponents = tuple(promote_field(list(exponents)))
        points = tuple(promote_field(list(points)))
        partitions = tuple(p if isinstance(p, Partition) else Partition(p) for p in partitions)
        weight = weight if isinstance(weight, Partition) else Partition(weight)
        if rank < 1:
            raise ValueError("rank must be positive")
        if len(exponents) != rank:
            raise ValueError("need one exponent per row index")
        if len(set(exponents)) != rank:
            raise ValueError("exponents must be pairwise distinct")
        if len(points) != len(partitions):
            raise ValueError("need one evaluation point per tensor factor")
        if len(set(points)) != len(points):
            raise ValueError("evaluation points must be pairwise distinct")
        for p in partitions + (weight,):
            p.padded(rank)
        if sum(p.weight for p in partitions) != weight.weight:
            raise ValueError("factor sizes do not add up to the target weight")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "partitions", partitions)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weight", weight)

    @property
    def factor_sizes(self) -> tuple:
        return tuple(p.weight for p in self.partitions)

    @property
    def size(self) -> int:
        return sum(self.factor_sizes)

    @property
    def all_vector_factors(self) -> bool:
        return all(n == 1 for n in self.factor_sizes)

    # The values below depend on the instance only and are built once: the
    # spec is frozen and a Poly is immutable.  A cached_property writes to the
    # instance dict past the frozen __setattr__, and a spec made by
    # ``dataclasses.replace`` starts without them.

    @cached_property
    def _pole(self) -> Poly:
        # from integer linear factors; with vector factors this is the build's own P1
        return root_products(tuple(b for b, n in zip(self.points, self.factor_sizes) for _ in range(n)))[0]

    @cached_property
    def _complex_pole(self) -> Poly:
        return Poly([to_complex(c) for c in self._pole.coeffs])

    @cached_property
    def _indicial_targets(self) -> tuple:
        # prod_{r != s} (b_s - b_r)^{n_r} is the (u - b_s)^{n_s} Taylor coefficient of P: row
        # (s, n_s) of the point table that check_polynomiality expands the cleared A_i with
        N, counts = self.rank, tuple(n + 1 for n in self.factor_sizes)
        taylor = (MatrixPoly.identity(1) * self._pole).contract(*point_table(self.points, counts, self.size)).scalars()
        roots = {}  # one root polynomial per distinct partition
        for part in set(self.partitions):
            lam = part.padded(N)
            roots[part] = Poly.from_roots([lam[l] + N - 1 - l for l in range(N)])
        return tuple(roots[part].scale(taylor[row - 1]) for part, row in zip(self.partitions, accumulate(counts)))

    def pole_polynomial(self) -> Poly:
        """prod over s of (u - b_s)^{n_s}."""
        return self._pole

    def complex_pole_polynomial(self) -> Poly:
        """The pole polynomial with complex float coefficients."""
        return self._complex_pole

    def indicial_target(self, s: int) -> Poly:
        """prod_{r != s} (b_s - b_r)^{n_r} prod_l (a - lam^(s)_l - N + l), in a.

        Both sides' indicial polynomial at b_s.
        """
        return self._indicial_targets[s]


@lru_cache(maxsize=256)
def enumerate_indices(N: int, n: int, counts: tuple) -> tuple:
    """Index tuples with the given letter counts, in lexicographic order, built once per (N, n, counts).

    Any non-negative count vector is allowed; weight subspaces exist for
    every weight, not only for partitions.
    """
    counts = list(counts) + [0] * (N - len(counts))
    if len(counts) > N or any(c < 0 for c in counts):
        raise ValueError(f"bad count vector {counts} for rank {N}")
    if sum(counts) != n:
        raise ValueError(f"weight {tuple(counts)} is not a weight of n={n} factors")
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(N):
            if counts[i]:
                counts[i] -= 1
                prefix.append(i + 1)
                rec(prefix)
                prefix.pop()
                counts[i] += 1

    rec([])
    return tuple(out)


def enumerate_weight_basis(N: int, n: int, lam) -> tuple:
    """All index tuples of weight lam in lexicographic order.

    The count is the multinomial n! / prod(lam_i!).
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return enumerate_indices(N, n, lam.padded(N))


def apply_e_block(i, j, positions, vec):
    """Sum of e_ij over the given factor positions (diagonal block action) on a sparse vector."""
    out = {}
    for J, c in vec.items():
        for s in positions:
            if J[s - 1] == j:
                K = J[: s - 1] + (i,) + J[s:]
                out[K] = out.get(K, c * 0) + c
    return {K: c for K, c in out.items() if c != 0}


def find_singular_vector(N: int, size: int, mu) -> dict:
    """The singular vector of weight mu in V^{(x)size}: a product of column wedges.

    A column of height h of the diagram of mu gives the wedge
    e_1 ^ ... ^ e_h = sum over permutations P of sgn(P) e_P(1) (x) ... (x) e_P(h),
    which every e_ij with i < j kills, and the wedges are multiplied
    shortest column first.  The smallest index tuple is (1..h_1, 1..h_2, ...)
    with coefficient 1.
    """
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if mu.weight != size:
        raise ValueError("partition size must match the number of factors")
    mu.padded(N)  # a ValueError for more than N parts
    vec = {(): Fraction(1)}
    for k in range(max(mu.parts, default=0), 0, -1):
        h = sum(1 for p in mu.parts if p >= k)
        wedge = {P: (-1) ** sum(a > b for a, b in combinations(P, 2)) for P in permutations(range(1, h + 1))}
        vec = {J + P: c * sign for J, c in vec.items() for P, sign in wedge.items()}
    return vec


def reduce(rows, vec):
    """Forward substitution of a sparse vector against rows with distinct leads.

    ``rows`` maps a lead tuple to a sparse row whose smallest tuple is that
    lead, with coefficient 1.  The tuples of the working vector are visited
    in increasing order, and only those present: at a lead with coefficient
    c, c times its row is subtracted, which changes only larger tuples.
    Returns the coordinates {lead: c} and the remainder, which holds no lead.
    """
    coords = {}
    work = {J: c for J, c in vec.items() if c != 0}
    pending = sorted(work)
    k = 0
    while k < len(pending):
        J = pending[k]
        k += 1
        row, c = rows.get(J), work.get(J)
        if row is None or c is None:
            continue
        coords[J] = c
        for K, m in row.items():
            if K not in work:
                insort(pending, K)  # K > J: it lands among the tuples still to visit
            r = work.get(K, c * 0) - c * m
            if r == 0:
                work.pop(K, None)
            else:
                work[K] = r
    return coords, work


def irreducible_factor_basis(N: int, mu) -> dict:
    """Basis of L_mu realized inside V^{(x)|mu|}, as {lead tuple: row}.

    Spans the singular vector by breadth-first words in the lowering
    operators e_{i+1,i}.  Each image is reduced against the rows found so
    far; a nonzero remainder, scaled to 1 at its smallest tuple, is a new
    row led by that tuple.
    """
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    positions = range(1, mu.weight + 1)
    rows = {}

    def spans_new(vec):
        _, rest = reduce(rows, vec)
        if rest:
            lead = min(rest)
            rows[lead] = {J: c / rest[lead] for J, c in rest.items()}
        return bool(rest)

    frontier = [find_singular_vector(N, mu.weight, mu)]
    spans_new(frontier[0])
    while frontier:
        fresh = []
        for vec in frontier:
            for i in range(1, N):
                image = apply_e_block(i + 1, i, positions, vec)
                if image and spans_new(image):
                    fresh.append(image)
        frontier = fresh
    return rows


class EmbeddedModule:
    """Basis of a tensor product of irreducible factors: a member is a tuple t of factor basis indices.

    t_s numbers the rows of :func:`irreducible_factor_basis` of factor s,
    0 <= t_s < d_s.  ``members`` lists (weight, lead) by decreasing weight,
    then lead; a lead joins the factors' leads.  The mixed-radix code
    sum_s t_s d_{s+1}...d_last of a tuple maps to its member index.
    """

    def __init__(self, spec: ModuleSpec):
        self.spec = spec
        N = spec.rank
        self._bases = {mu: irreducible_factor_basis(N, mu) for mu in set(spec.partitions)}
        self._dims = [len(self._bases[mu]) for mu in spec.partitions]
        self._strides = np.array([prod(self._dims[s + 1:]) for s in range(len(self._dims))], dtype=np.intp)
        self._factors = {mu: np.array([s for s, p in enumerate(spec.partitions) if p == mu], dtype=np.intp)
                         for mu in self._bases}  # the factors of each partition
        leads = [sum(t, ()) for t in product(*(list(self._bases[mu]) for mu in spec.partitions))]  # in code order
        members = [(tuple(lead.count(i) for i in range(1, N + 1)), lead) for lead in leads]
        codes = sorted(range(len(members)), key=lambda c: (tuple(-x for x in members[c][0]), members[c][1]))
        self.members = [members[c] for c in codes]
        self.dim = len(members)
        self._codes = np.array(codes, dtype=np.intp)  # code of each member
        self._member_of_code = np.empty_like(self._codes)
        self._member_of_code[self._codes] = np.arange(self.dim)
        self._weights = {}
        for k, (w, _) in enumerate(self.members):
            self._weights.setdefault(w, []).append(k)
        self._actions = {}  # (mu, i, j) -> factor_action(mu, i, j)
        self._blocks = {}  # (i, j, nu) -> generator_block(i, j, nu)
        self.leaks = set()  # keys of generator blocks whose images leave their weight

    @property
    def weights(self):
        return dict(self._weights)

    def weight_indices(self, lam) -> list:
        lam = lam.padded(self.spec.rank) if isinstance(lam, Partition) else tuple(lam)
        return list(self._weights.get(lam, []))

    def factor_action(self, mu: Partition, i: int, j: int) -> tuple:
        """e_ij on the basis of L_mu as integer arrays (num, den), memoized.

        num[b, a] / den[b, a], in lowest terms, is the b-th coordinate of the
        image of the a-th basis vector, reduced against the factor's rows.
        """
        key = (mu, i, j)
        if key not in self._actions:
            rows = self._bases[mu]
            index = {lead: b for b, lead in enumerate(rows)}
            num = np.zeros((len(rows), len(rows)), dtype=object)
            den = np.ones_like(num)
            for a, vec in enumerate(rows.values()):
                coords, rest = reduce(rows, apply_e_block(i, j, range(1, mu.weight + 1), vec))
                if rest:
                    raise ValueError(f"L_{mu.parts} is not closed under e_{i}{j}")
                for lead, c in coords.items():
                    num[index[lead], a], den[index[lead], a] = c.numerator, c.denominator
            self._actions[key] = (num, den)
        return self._actions[key]

    def generator_block(self, i: int, j: int, nu) -> tuple:
        """The matrices E_s of e_ij in factor s from weight nu to nu + e_i - e_j, as (stack, den).

        ``stack`` is one integer array of shape (points, rows, cols) and
        E_s = stack[s] / den.  Columns are the weight-nu members, rows the
        members of the target weight; both are empty when the weight has no
        members.  e_ij in factor s moves only t_s, by :meth:`factor_action`,
        so images are found by arithmetic on the codes, for all factors of
        one partition at once: one ``nonzero`` and one scatter per
        partition.  The block is memoized.  An image outside the target
        weight puts the key (i, j, nu) into ``leaks`` and is dropped from
        the block.
        """
        nu = tuple(nu)
        key = (i, j, nu)
        if key not in self._blocks:
            target = list(nu)
            target[i - 1] += 1
            target[j - 1] -= 1
            cols = self._weights.get(nu, [])
            rows = self._weights.get(tuple(target), [])
            codes = self._codes[cols]
            images = []  # per partition: factor, member, column, numerator and denominator of each nonzero
            for mu, factors in self._factors.items():
                num, den = self.factor_action(mu, i, j)
                strides = self._strides[factors]
                basis = codes // strides[:, None] % len(num)  # (factors, cols): t_s of each column
                b, f, c = np.nonzero(num[:, basis])
                t = basis[f, c]
                members = self._member_of_code[codes[c] + (b - t) * strides[f]]
                images.append((factors[f], members, c, num[b, t], den[b, t]))
            den = lcm(*(x for *_, dens in images for x in dens))
            stack = np.zeros((len(self._dims), len(rows), len(cols)), dtype=object)
            for s, members, c, nums, dens in images:
                r = members - (rows[0] if rows else 0)  # the members of one weight are consecutive
                inside = (r >= 0) & (r < len(rows))
                if not inside.all():
                    self.leaks.add(key)
                stack[s[inside], r[inside], c[inside]] = nums[inside] * (den // dens[inside])
            self._blocks[key] = (stack, den)
        return self._blocks[key]


def build_embedded_module(spec: ModuleSpec) -> EmbeddedModule:
    return EmbeddedModule(spec)
