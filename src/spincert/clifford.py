"""Split Clifford algebras and the bivector realization of so(n).

The quadratic space is split: hyperbolic pairs (p_i, q_i) for i = 1..m with
B(p_i, q_i) = 1/2, plus one unit vector u with B(u, u) = 1 when n is odd.
Generator relations are v w + w v = 2 B(v, w), so p_i q_i + q_i p_i = 1 and
u^2 = 1; creation/annihilation operators then need no normalization.

Blades are indexed by bitmasks over the generators in the fixed order
p_1, q_1, ..., p_m, q_m, u.  A blade times a single generator is computed by
moving the generator into sorted position, one transposition at a time, each
swap contributing a sign and (for hyperbolic partners) a contraction term.
All blade-product coefficients are integers with this form, so the product
table is field-independent and cached per space.

so(n) sits inside Cl(n) as the bivectors m_ab = (e_a e_b - e_b e_a)/4 for
a < b; the normalization is a fixed convention, chosen once so every
downstream structure constant is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "QuadraticSpace",
    "CliffordElement",
    "bivector_basis",
    "so_pairs",
    "so_dim",
    "expand_in_bivectors",
    "SoStructure",
    "so_structure_constants",
]


class QuadraticSpace:
    """Split quadratic space of dimension n with its blade product table."""

    __slots__ = ("n", "m", "odd", "labels", "_gen_cache", "_mul_cache")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.m = n // 2
        self.odd = n % 2
        labels = []
        for i in range(self.m):
            labels += [f"p{i + 1}", f"q{i + 1}"]
        if self.odd:
            labels.append("u")
        self.labels = tuple(labels)
        self._gen_cache: dict[tuple[int, int], tuple] = {}
        self._mul_cache: dict[tuple[int, int], tuple] = {}

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

    def gram(self):
        """Polarization matrix B as Fractions (n x n)."""
        g = [[Fraction(0)] * self.n for _ in range(self.n)]
        for i in range(self.m):
            g[2 * i][2 * i + 1] = Fraction(1, 2)
            g[2 * i + 1][2 * i] = Fraction(1, 2)
        if self.odd:
            g[self.n - 1][self.n - 1] = Fraction(1)
        return g

    def blade_label(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "*".join(self.labels[g] for g in _bits(mask))

    def blade_key(self, mask: int):
        """Canonical ordering key: by (size, lexicographic subset)."""
        return (mask.bit_count(), tuple(_bits(mask)))

    def _blade_gen(self, mask: int, g: int):
        """Blade E_mask times generator e_g: tuple of (mask, int coeff)."""
        key = (mask, g)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        if mask == 0:
            out = ((1 << g, 1),)
        else:
            j = mask.bit_length() - 1
            rest = mask ^ (1 << j)
            if g == j:
                qv = self.q_int(g)
                out = ((rest, qv),) if qv else ()
            elif g > j:
                out = ((mask | (1 << g), 1),)
            else:
                terms = []
                tb = self.two_b_int(j, g)
                if tb:
                    terms.append((rest, tb))
                for m2, c in self._blade_gen(rest, g):
                    terms.append((m2 | (1 << j), -c))
                out = tuple(terms)
        self._gen_cache[key] = out
        return out

    def blade_mul(self, a: int, b: int):
        """Product of two blades: tuple of (mask, int coeff)."""
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        acc = {a: 1}
        for g in _bits(b):
            nxt: dict[int, int] = {}
            for mask, c in acc.items():
                for m2, c2 in self._blade_gen(mask, g):
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            acc = {m: c for m, c in nxt.items() if c}
        out = tuple(sorted(acc.items()))
        self._mul_cache[key] = out
        return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CliffordElement:
    """Element of Cl(n) over a field: sparse blade-coefficient map."""

    __slots__ = ("space", "field", "coeffs")

    def __init__(self, space: QuadraticSpace, field, coeffs: dict):
        self.space = space
        self.field = field
        self.coeffs = {m: c for m, c in coeffs.items() if not field.is_zero(c)}

    @classmethod
    def scalar(cls, space, field, value):
        return cls(space, field, {0: field.scalar(value)})

    @classmethod
    def generator(cls, space, field, g: int):
        return cls(space, field, {1 << g: field.one})

    @classmethod
    def zero(cls, space, field):
        return cls(space, field, {})

    def _check(self, other):
        if self.space != other.space or self.field != other.field:
            raise ValueError("Clifford elements from different spaces or fields")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        f = self.field
        for m, c in other.coeffs.items():
            out[m] = f.add(out.get(m, f.zero), c)
        return CliffordElement(self.space, f, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        f = self.field
        for m, c in other.coeffs.items():
            out[m] = f.sub(out.get(m, f.zero), c)
        return CliffordElement(self.space, f, out)

    def __neg__(self):
        f = self.field
        return CliffordElement(self.space, f, {m: f.neg(c) for m, c in self.coeffs.items()})

    def scale(self, c):
        f = self.field
        c = f.scalar(c)
        return CliffordElement(self.space, f, {m: f.mul(v, c) for m, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        self._check(other)
        f = self.field
        out: dict = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                cab = f.mul(ca, cb)
                for m, ic in self.space.blade_mul(ma, mb):
                    term = f.mul(cab, f.scalar(ic))
                    out[m] = f.add(out.get(m, f.zero), term)
        return CliffordElement(self.space, f, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.space == other.space and self.field == other.field and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self.coeffs}

    def scalar_part(self):
        return self.coeffs.get(0, self.field.zero)

    def vector_coords(self):
        """Coordinates of the degree-1 part in the generator basis."""
        out = [self.field.zero] * self.space.n
        for m, c in self.coeffs.items():
            if m.bit_count() == 1:
                out[m.bit_length() - 1] = c
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=self.space.blade_key):
            parts.append(f"{self.coeffs[m]}*{self.space.blade_label(m)}")
        return " + ".join(parts)


def so_pairs(space: QuadraticSpace):
    """Ordered basis labels of so(n): pairs (a, b) with a < b."""
    return tuple((a, b) for a in range(space.n) for b in range(a + 1, space.n))


def so_dim(space: QuadraticSpace) -> int:
    return space.n * (space.n - 1) // 2


def bivector_basis(space: QuadraticSpace, field) -> list[CliffordElement]:
    """m_ab = (e_a e_b - e_b e_a)/4 for a < b, in the so_pairs order."""
    quarter = field.inv(field.scalar(4))
    out = []
    for a, b in so_pairs(space):
        ea = CliffordElement.generator(space, field, a)
        eb = CliffordElement.generator(space, field, b)
        out.append((ea * eb - eb * ea).scale(quarter))
    return out


def expand_in_bivectors(elem: CliffordElement) -> list:
    """Coefficients of ``elem`` in the bivector basis.

    Valid only when elem = sum x_ab m_ab; since m_ab = e_a e_b / 2 - B(a,b)/2,
    the degree-2 blades determine the coefficients and the scalar part is an
    exact consistency constraint.  Raises ValueError otherwise.
    """
    space, field = elem.space, elem.field
    if not elem.grades() <= {0, 2}:
        raise ValueError(f"not a bivector combination: grades {sorted(elem.grades())}")
    index = _bivector_index(space)
    coeffs = [field.zero] * len(index)
    expected_scalar = field.zero
    quarter = field.inv(field.scalar(4))
    two = field.scalar(2)
    for mask, c in elem.coeffs.items():
        if not mask:
            continue
        k, tb = index[mask]
        x = field.mul(two, c)
        coeffs[k] = x
        if tb:
            # m_ab = E_ab/2 - tb/4, so x*m_ab contributes -x*tb/4 in degree 0
            contrib = field.mul(x, field.mul(field.scalar(tb), quarter))
            expected_scalar = field.sub(expected_scalar, contrib)
    if elem.scalar_part() != expected_scalar:
        raise ValueError("scalar part inconsistent with a bivector combination")
    return coeffs


@lru_cache(maxsize=None)
def _bivector_index(space: QuadraticSpace) -> dict:
    """Degree-2 blade mask -> (so_pairs index, 2 B(a, b)) for one space."""
    return {(1 << a) | (1 << b): (k, space.two_b_int(a, b)) for k, (a, b) in enumerate(so_pairs(space))}


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
        f = self.field
        return tuple((k, f.neg(c)) for k, c in self.table[(j, i)])


def so_structure_constants(space: QuadraticSpace, field) -> SoStructure:
    """Compute every [m_i, m_j] inside Cl(n) and expand it in the basis."""
    bivs = bivector_basis(space, field)
    pairs = so_pairs(space)
    table = {}
    for i in range(len(bivs)):
        for j in range(i + 1, len(bivs)):
            comm = bivs[i] * bivs[j] - bivs[j] * bivs[i]
            coeffs = expand_in_bivectors(comm)
            table[(i, j)] = tuple((k, c) for k, c in enumerate(coeffs) if not field.is_zero(c))
    return SoStructure(space, field, pairs, table)
