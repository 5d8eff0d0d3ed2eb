"""The split quadratic space and the bivector basis of so(n).

The quadratic space is split: hyperbolic pairs (p_i, q_i) for i = 1..m with
B(p_i, q_i) = 1/2, plus one unit vector u with B(u, u) = 1 when n is odd.
The generators are ordered p_1, q_1, ..., p_m, q_m, u, and the integer table
2B(e_i, e_j) (``QuadraticSpace.two_b_matrix``, set by index arrays) is all
the rest of the package reads of the form.  In Cl(n), v w + w v = 2 B(v, w),
so p_i q_i + q_i p_i = 1 and u^2 = 1.

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

import numpy as np

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

    def two_b_matrix(self) -> np.ndarray:
        """The n x n integer table 2 B(e_i, e_j): 1 between p_i and q_i, 2 on u."""
        out = np.zeros((self.n, self.n), dtype=np.int64)
        p = np.arange(0, 2 * self.m, 2)
        out[p, p + 1] = out[p + 1, p] = 1
        out[2 * self.m :, 2 * self.m :] = 2  # u, when n is odd
        return out


def so_pairs(space: QuadraticSpace):
    """Ordered basis labels of so(n): pairs (a, b) with a < b."""
    return tuple((a, b) for a in range(space.n) for b in range(a + 1, space.n))


def so_dim(space: QuadraticSpace) -> int:
    return space.n * (space.n - 1) // 2


class SoStructure:
    """Structure constants of so(n) in the bivector basis, as aligned arrays.

    [m_i, m_j] = sum_t coeff[t] m_{k[t]} over the entries t with i[t] = i and
    j[t] = j, for i < j.  The entries are sorted by (i, j, k); ``i``, ``j``
    and ``k`` are int64 arrays, ``coeff`` a field array.
    """

    __slots__ = ("space", "field", "i", "j", "k", "coeff")

    def __init__(self, space, field, i, j, k, coeff):
        self.space = space
        self.field = field
        self.i, self.j, self.k, self.coeff = i, j, k, coeff


def so_structure_constants(space: QuadraticSpace, field) -> SoStructure:
    """Every [m_i, m_j], i < j, from the 2B table (see the module docstring).

    The four terms of a bracket land on distinct basis pairs, so each term
    is one coefficient +-B(x, y) of the expansion, or nothing when B(x, y)
    vanishes or the pair is m_xx.  All pairs i < j are expanded at once by
    index arithmetic: m_zw with z > w is -m_wz.
    """
    pairs = np.array(so_pairs(space))
    g = len(pairs)
    two_b = space.two_b_matrix()
    index = np.zeros((space.n, space.n), dtype=np.int64)
    index[pairs[:, 0], pairs[:, 1]] = index[pairs[:, 1], pairs[:, 0]] = np.arange(g)
    i, j = np.triu_indices(g, 1)  # row-major, so (i, j) ascends
    (a, b), (c, d) = pairs[i].T, pairs[j].T
    # one column per term sign * B(x, y) m_zw of the bracket formula
    x, y = np.stack([b, a, b, a], 1), np.stack([c, c, d, d], 1)
    z, w = np.stack([a, b, c, c], 1), np.stack([d, d, a, b], 1)
    twice = np.array([1, -1, 1, -1]) * two_b[x, y] * np.where(z < w, 1, -1)
    row, col = np.nonzero(twice * (z != w))
    k = index[z, w][row, col]
    order = np.lexsort((k, row))
    row, col = row[order], col[order]
    coeff = field.reduce(field.array(twice[row, col]) * field.inv(2))
    return SoStructure(space, field, i[row], j[row], k[order], coeff)
