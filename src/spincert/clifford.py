"""The split quadratic space and the bivector basis of so(n).

The quadratic space is split: hyperbolic pairs (p_i, q_i) for i = 1..m with
B(p_i, q_i) = 1/2, plus one unit vector u with B(u, u) = 1 when n is odd.
The generators are ordered p_1, q_1, ..., p_m, q_m, u, and the integer table
2B(e_i, e_j) is all the rest of the package reads of the form.  In Cl(n),
v w + w v = 2 B(v, w), so p_i q_i + q_i p_i = 1 and u^2 = 1.

so(n) is spanned by the bivectors m_ab = (e_a e_b - e_b e_a)/4 of Cl(n) for
a < b, acting on vectors by [m_ab, v] = B(b, v) e_a - B(a, v) e_b.  Their
brackets follow from the form alone,

    [m_ab, m_cd] = B(b,c) m_ad - B(a,c) m_bd + B(b,d) m_ca - B(a,d) m_cb,

with m_xy = -m_yx and m_xx = 0, so the structure constants are index
arithmetic on the 2B table; no Clifford product is formed.  The
normalization is a fixed convention, chosen once so every downstream
structure constant is reproducible.
"""

from __future__ import annotations

__all__ = [
    "QuadraticSpace",
    "so_pairs",
    "so_dim",
    "SoStructure",
    "so_structure_constants",
]


class QuadraticSpace:
    """Split quadratic space of dimension n."""

    __slots__ = ("n", "m", "odd")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.m = n // 2
        self.odd = n % 2

    def __repr__(self):
        return f"QuadraticSpace({self.n})"

    def __eq__(self, other):
        return isinstance(other, QuadraticSpace) and other.n == self.n

    def __hash__(self):
        return hash(("QuadraticSpace", self.n))

    def partner(self, g: int) -> int:
        """Hyperbolic partner of generator g (u is its own partner)."""
        return g ^ 1 if g < 2 * self.m else g

    def q_int(self, g: int) -> int:
        """q(e_g): 0 on hyperbolic generators, 1 on u."""
        return 1 if (self.odd and g == self.n - 1) else 0

    def two_b_int(self, i: int, j: int) -> int:
        """2 B(e_i, e_j) as an integer."""
        if i == j:
            return 2 * self.q_int(i)
        return 1 if self.partner(i) == j else 0


def so_pairs(space: QuadraticSpace):
    """Ordered basis labels of so(n): pairs (a, b) with a < b."""
    return tuple((a, b) for a in range(space.n) for b in range(a + 1, space.n))


def so_dim(space: QuadraticSpace) -> int:
    return space.n * (space.n - 1) // 2


class SoStructure:
    """Structure constants of so(n) in the bivector basis.

    table[(i, j)] for i < j holds the sparse expansion of [m_i, m_j]; use
    :meth:`bracket_row` for arbitrary index order.
    """

    __slots__ = ("space", "field", "pairs", "index", "table")

    def __init__(self, space, field, pairs, table):
        self.space = space
        self.field = field
        self.pairs = pairs
        self.index = {p: k for k, p in enumerate(pairs)}
        self.table = table

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def bracket_row(self, i: int, j: int):
        """Sparse expansion of [m_i, m_j] as a tuple of (k, coeff)."""
        if i == j:
            return ()
        if i < j:
            return self.table[(i, j)]
        return tuple((k, self.field.reduce(-c)) for k, c in self.table[(j, i)])


def so_structure_constants(space: QuadraticSpace, field) -> SoStructure:
    """Every [m_i, m_j], i < j, from the 2B table (see the module docstring).

    The four terms of a bracket land on distinct basis pairs, so each term
    is one coefficient +-B(x, y) of the expansion, or nothing when B(x, y)
    vanishes or the pair is m_xx.
    """
    pairs = so_pairs(space)
    index = {p: k for k, p in enumerate(pairs)}
    half = field.inv(field.scalar(2))
    coeff = {v: field.reduce(field.scalar(v) * half) for v in (-2, -1, 1, 2)}

    def term(sign, x, y, z, w):
        # sign * B(x, y) m_zw as (index of the sorted pair, coefficient)
        tb = space.two_b_int(x, y)
        if not tb or z == w:
            return None
        return (index[(z, w)], coeff[sign * tb]) if z < w else (index[(w, z)], coeff[-sign * tb])

    table = {}
    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            terms = (term(1, b, c, a, d), term(-1, a, c, b, d), term(1, b, d, c, a), term(-1, a, d, c, b))
            table[(i, j)] = tuple(sorted(t for t in terms if t))
    return SoStructure(space, field, pairs, table)
