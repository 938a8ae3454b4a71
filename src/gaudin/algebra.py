"""Weight bases and gl_N actions on tensor products of evaluation modules.

Vectors in V^{(x)n} are sparse dicts keyed by index tuples J = (j_1..j_n),
1 <= j_s <= N, where e_J = e_{j_1,1}v+ (x) ... (x) e_{j_n,1}v+.  Irreducible
factors L_mu sit inside V^{(x)|mu|} as the span of a singular vector under
lowering operators, so the evaluation action of the current algebra comes
for free: g(u) acts as the block-diagonal g divided by (u - b_s).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod

import numpy as np

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
        roots = []
        for b, n in zip(self.points, self.factor_sizes):
            roots.extend([b] * n)
        return Poly.from_roots(roots)

    @cached_property
    def _complex_pole(self) -> Poly:
        return Poly([to_complex(c) for c in self._pole.coeffs])

    @cached_property
    def _indicial_targets(self) -> tuple:
        N = self.rank
        out = []
        for b_s, part in zip(self.points, self.partitions):
            const = prod((b_s - b) ** n for b, n in zip(self.points, self.factor_sizes) if b != b_s)
            lam = part.padded(N)
            out.append(Poly.from_roots([lam[l] + N - 1 - l for l in range(N)]).scale(const))
        return tuple(out)

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


def weight_of_index(J, N):
    counts = [0] * N
    for j in J:
        counts[j - 1] += 1
    return tuple(counts)


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
    """Basis of a tensor product of irreducible factors inside V^{(x)n}.

    Basis members carry a definite weight and a distinguished lead index
    tuple, their smallest, with coefficient 1; lead tuples are distinct, so
    expressing any ambient vector in the basis is a forward substitution.
    """

    def __init__(self, spec: ModuleSpec):
        self.spec = spec
        N = spec.rank
        sizes = spec.factor_sizes
        offsets = []
        acc = 0
        for n_s in sizes:
            offsets.append(acc)
            acc += n_s
        self.size = acc
        self.factor_positions = [
            range(offsets[s] + 1, offsets[s] + sizes[s] + 1) for s in range(len(sizes))
        ]
        factor_bases = [irreducible_factor_basis(N, p) for p in spec.partitions]

        members = []  # (weight, lead tuple, sparse vector)
        for rows in product(*[fb.items() for fb in factor_bases]):
            lead = ()
            vec = {(): Fraction(1)}
            for flead, fvec in rows:
                lead += flead
                vec = {J + J2: c * c2 for J, c in vec.items() for J2, c2 in fvec.items()}
            members.append((weight_of_index(lead, N), lead, vec))
        members.sort(key=lambda m: (tuple(-x for x in m[0]), m[1]))
        self.members = members
        self.dim = len(members)
        self._rows = {lead: vec for _, lead, vec in members}
        self._index = {lead: k for k, (_, lead, _) in enumerate(members)}
        self._weights = {}
        for k, (w, _, _) in enumerate(members):
            self._weights.setdefault(w, []).append(k)
        self._blocks = {}  # (i, j, nu) -> generator_block(i, j, nu)
        self.leaks = set()  # keys of generator blocks whose images leave their weight

    @property
    def weights(self):
        return dict(self._weights)

    def weight_indices(self, lam) -> list:
        lam = lam.padded(self.spec.rank) if isinstance(lam, Partition) else tuple(lam)
        return list(self._weights.get(lam, []))

    def express(self, vec: dict) -> dict:
        """Nonzero coordinates {member index: c} of an ambient vector in the embedded basis (exact).

        The forward substitution of :func:`reduce` visits only the tuples of
        the vector and of the members it subtracts.
        """
        coords, rest = reduce(self._rows, vec)
        if rest:
            raise ValueError("vector does not lie in the embedded module")
        return {self._index[J]: c for J, c in coords.items()}

    def generator_block(self, i: int, j: int, nu) -> tuple:
        """The matrices E_s of e_ij in factor s from weight nu to nu + e_i - e_j, as (stack, den).

        ``stack`` is one integer array of shape (points, rows, cols) and
        E_s = stack[s] / den.  Columns are the weight-nu members, rows the
        members of the target weight; both are empty when the weight has no
        members.  The block is built from the images of the weight-nu members
        only and memoized.  Each image is expressed over the whole basis, so a
        coordinate outside the target weight is seen: the block's key
        (i, j, nu) then goes into ``leaks`` and that coordinate is dropped
        from the block.
        """
        nu = tuple(nu)
        key = (i, j, nu)
        if key not in self._blocks:
            target = list(nu)
            target[i - 1] += 1
            target[j - 1] -= 1
            cols = self._weights.get(nu, [])
            rows = {r: a for a, r in enumerate(self._weights.get(tuple(target), []))}
            images = [
                [self.express(apply_e_block(i, j, positions, self.members[k][2])) for k in cols]
                for positions in self.factor_positions
            ]
            if any(r not in rows for per_point in images for img in per_point for r in img):
                self.leaks.add(key)
            den = lcm(*(c.denominator for per_point in images for img in per_point for c in img.values()))
            stack = np.zeros((len(images), len(rows), len(cols)), dtype=object)
            for s, per_point in enumerate(images):
                for col, img in enumerate(per_point):
                    for r, c in img.items():
                        if r in rows:
                            stack[s, rows[r], col] = c.numerator * (den // c.denominator)
            self._blocks[key] = (stack, den)
        return self._blocks[key]


def build_embedded_module(spec: ModuleSpec) -> EmbeddedModule:
    return EmbeddedModule(spec)
