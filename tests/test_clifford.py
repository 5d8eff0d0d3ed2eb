"""The index-arithmetic so(n) tables against a dict Clifford algebra.

The package derives the brackets of so(n) and the chain-embedding pair maps
from the 2B table alone.  This file keeps a minimal Clifford algebra Cl(n)
over a field, with blades as bitmasks and products by moving generators
into place, and expands the same brackets and sub bivectors inside it.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from spincert.clifford import QuadraticSpace, so_dim, so_pairs, so_structure_constants
from spincert.fields import GF, QQ
from spincert.spinreps import embed_subalgebra

F = GF(1_000_003)
PRIMES = (F, GF(999_983))


# -- the oracle ------------------------------------------------------------------


def two_b(space: QuadraticSpace, i: int, j: int) -> int:
    """2 B(e_i, e_j) of the split form, written out here rather than read from the package.

    p_k = e_{2k} and q_k = e_{2k+1} pair to 1; u = e_{n-1} (n odd) gives 2.
    """
    n = space.n
    if i == j:
        return 2 if n % 2 and i == n - 1 else 0
    return 1 if max(i, j) < n - n % 2 and j == i ^ 1 else 0


def _bits(mask: int):
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def blade_label(space: QuadraticSpace, mask: int) -> str:
    names = [f"{'pq'[g % 2]}{g // 2 + 1}" if g < 2 * space.m else "u" for g in _bits(mask)]
    return "*".join(names) or "1"


def blade_key(mask: int):
    """Canonical ordering key: by (size, lexicographic subset)."""
    return (mask.bit_count(), tuple(_bits(mask)))


@lru_cache(maxsize=None)
def _blade_gen(space: QuadraticSpace, mask: int, g: int):
    """Blade E_mask times generator e_g: tuple of (mask, int coeff).

    E_mask = E_rest e_j with j the top generator; for g < j,
    e_j e_g = 2B(j, g) - e_g e_j moves e_g one place left.
    """
    if mask == 0:
        return ((1 << g, 1),)
    j = mask.bit_length() - 1
    rest = mask ^ (1 << j)
    if g > j:
        return ((mask | 1 << g, 1),)
    if g == j:
        return ((rest, two_b(space, g, g) // 2),) if two_b(space, g, g) else ()
    tb = two_b(space, j, g)
    moved = tuple((m | 1 << j, -c) for m, c in _blade_gen(space, rest, g))
    return ((rest, tb),) + moved if tb else moved


@lru_cache(maxsize=None)
def blade_mul(space: QuadraticSpace, a: int, b: int):
    """Product of two blades: tuple of (mask, int coeff)."""
    acc = {a: 1}
    for g in _bits(b):
        nxt: dict = {}
        for mask, c in acc.items():
            for m2, c2 in _blade_gen(space, mask, g):
                nxt[m2] = nxt.get(m2, 0) + c * c2
        acc = {m: c for m, c in nxt.items() if c}
    return tuple(sorted(acc.items()))


class CliffordElement:
    """Element of Cl(n) over a field: sparse blade-coefficient map."""

    def __init__(self, space, field, coeffs: dict):
        self.space, self.field = space, field
        self.coeffs = {m: c for m, c in coeffs.items() if c != 0}

    @classmethod
    def scalar(cls, space, field, value):
        return cls(space, field, {0: field.scalar(value)})

    @classmethod
    def generator(cls, space, field, g: int):
        return cls(space, field, {1 << g: field.scalar(1)})

    @classmethod
    def vector(cls, space, field, coords):
        return cls(space, field, {1 << g: field.scalar(c) for g, c in enumerate(coords)})

    def _check(self, other):
        if self.space != other.space or self.field != other.field:
            raise ValueError("Clifford elements from different spaces or fields")

    def _combine(self, other, sign):
        self._check(other)
        f = self.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = f.reduce(out.get(m, 0) + sign * c)
        return CliffordElement(self.space, f, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        f = self.field
        return CliffordElement(self.space, f, {m: f.reduce(v * f.scalar(c)) for m, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        self._check(other)
        f, out = self.field, {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                for m, ic in blade_mul(self.space, ma, mb):
                    out[m] = f.reduce(out.get(m, 0) + ca * cb * ic)
        return CliffordElement(self.space, f, out)

    def __eq__(self, other):
        return (self.space, self.field, self.coeffs) == (other.space, other.field, other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def grades(self) -> set:
        return {m.bit_count() for m in self.coeffs}

    def vector_coords(self):
        """Coordinates of the degree-1 part in the generator basis."""
        return [self.coeffs.get(1 << g, self.field.scalar(0)) for g in range(self.space.n)]

    def __repr__(self):
        terms = (f"{self.coeffs[m]}*{blade_label(self.space, m)}" for m in sorted(self.coeffs, key=blade_key))
        return " + ".join(terms) or "0"


def commutator(x, y):
    return x * y - y * x


def bivector_basis(space, field):
    """m_ab = (e_a e_b - e_b e_a)/4 for a < b, in the so_pairs order."""
    quarter = field.inv(field.scalar(4))
    e = [CliffordElement.generator(space, field, g) for g in range(space.n)]
    return [commutator(e[a], e[b]).scale(quarter) for a, b in so_pairs(space)]


@lru_cache(maxsize=None)
def _bivector_index(space):
    """Degree-2 blade mask -> (so_pairs index, 2B(a, b))."""
    return {1 << a | 1 << b: (k, two_b(space, a, b)) for k, (a, b) in enumerate(so_pairs(space))}


def expand_in_bivectors(elem):
    """Coefficients of ``elem`` in the bivector basis, or ValueError.

    m_ab = E_ab/2 - 2B(a,b)/4, so the degree-2 blades give the coefficients
    and the scalar part is an exact consistency constraint.
    """
    f, index = elem.field, _bivector_index(elem.space)
    if not elem.grades() <= {0, 2}:
        raise ValueError(f"not a bivector combination: grades {sorted(elem.grades())}")
    coeffs = [f.scalar(0)] * len(index)
    scalar = f.scalar(0)
    for mask, c in elem.coeffs.items():
        if mask:
            k, tb = index[mask]
            coeffs[k] = f.reduce(2 * c)
            scalar = f.reduce(scalar - c * f.scalar(Fraction(tb, 2)))
    if elem.coeffs.get(0, 0) != scalar:
        raise ValueError("scalar part inconsistent with a bivector combination")
    return coeffs


@lru_cache(maxsize=None)
def oracle_table(n, field):
    """{(i, j): ((k, coeff), ...)} for i < j, expanded inside Cl(n)."""
    space = QuadraticSpace(n)
    bivs = bivector_basis(space, field)
    table = {}
    for i in range(len(bivs)):
        for j in range(i + 1, len(bivs)):
            coeffs = expand_in_bivectors(commutator(bivs[i], bivs[j]))
            table[(i, j)] = tuple((k, c) for k, c in enumerate(coeffs) if c != 0)
    return table


def oracle_pair_map(ambient, vectors):
    """Every sub bivector (v_a v_b - v_b v_a)/4 expanded in the ambient basis, over Q: matrix rows."""
    elems = [CliffordElement.vector(ambient, QQ, v) for v in vectors]
    out = []
    for a, b in so_pairs(QuadraticSpace(len(vectors))):
        coeffs = expand_in_bivectors(commutator(elems[a], elems[b]).scale(Fraction(1, 4)))
        assert all(c.denominator == 1 for c in coeffs)
        out.append([int(c) for c in coeffs])
    return out


# -- the oracle itself -------------------------------------------------------------


def gens(space, field):
    return [CliffordElement.generator(space, field, g) for g in range(space.n)]


def test_generator_relations_forced_values():
    sp = QuadraticSpace(7)
    e = gens(sp, QQ)
    one = CliffordElement.scalar(sp, QQ, 1)
    assert e[0] * e[1] + e[1] * e[0] == one  # p1 q1 + q1 p1 = 1
    assert (e[0] * e[0]).is_zero()  # q(p1) = 0
    assert e[6] * e[6] == one  # q(u) = 1


@pytest.mark.parametrize("n", [2, 5, 7, 10])
def test_generator_relations_all_pairs(n):
    sp = QuadraticSpace(n)
    for field in (QQ, F):
        e = gens(sp, field)
        for i in range(n):
            for j in range(n):
                lhs = e[i] * e[j] + e[j] * e[i]
                rhs = CliffordElement.scalar(sp, field, two_b(sp, i, j))
                assert lhs == rhs, (n, i, j)


def _random_elements(n, seed, terms):
    sp = QuadraticSpace(n)
    rnd = random.Random(seed)
    while True:
        yield CliffordElement(sp, QQ, {rnd.randrange(1 << n): Fraction(rnd.randint(-3, 3)) for _ in range(terms)})


def test_product_associativity_random():
    elems = _random_elements(6, 0, 4)
    for _ in range(40):
        a, b, c = next(elems), next(elems), next(elems)
        assert (a * b) * c == a * (b * c)


def test_product_bilinearity_random():
    elems = _random_elements(5, 1, 3)
    for _ in range(20):
        a, b, c = next(elems), next(elems), next(elems)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_space_mismatch_rejected():
    a = CliffordElement.generator(QuadraticSpace(4), QQ, 0)
    b = CliffordElement.generator(QuadraticSpace(6), QQ, 0)
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("n,count", [(7, 21), (11, 55), (14, 91)])
def test_bivector_count(n, count):
    sp = QuadraticSpace(n)
    assert so_dim(sp) == count
    assert len(bivector_basis(sp, F)) == count
    assert len(so_pairs(sp)) == count


def test_bivectors_are_degree_two_plus_scalar():
    sp = QuadraticSpace(5)
    for b in bivector_basis(sp, QQ):
        assert b.grades() <= {0, 2}


def test_expand_roundtrip():
    sp = QuadraticSpace(6)
    rnd = random.Random(2)
    basis = bivector_basis(sp, QQ)
    coeffs = [Fraction(rnd.randint(-5, 5)) for _ in basis]
    elem = CliffordElement.scalar(sp, QQ, 0)
    for c, b in zip(coeffs, basis):
        elem = elem + b.scale(c)
    assert expand_in_bivectors(elem) == coeffs


def test_expand_rejects_non_bivectors():
    sp = QuadraticSpace(5)
    e = gens(sp, QQ)
    with pytest.raises(ValueError):
        expand_in_bivectors(e[0])  # degree 1
    with pytest.raises(ValueError):
        expand_in_bivectors(CliffordElement.scalar(sp, QQ, 3))  # bad scalar part


def test_blade_label_and_key():
    sp = QuadraticSpace(5)
    assert blade_label(sp, 0) == "1"
    assert blade_label(sp, 0b11) == "p1*q1"
    assert blade_label(sp, 0b10001) == "p1*u"
    assert blade_key(0b101) == (2, (0, 2))


# -- the package's tables against the oracle -------------------------------------


def table_of(struct):
    """{(i, j): ((k, coeff), ...)} for every i < j, read off the structure arrays."""
    g = so_dim(struct.space)
    table = {(i, j): () for i in range(g) for j in range(i + 1, g)}
    for i, j, k, c in zip(struct.i.tolist(), struct.j.tolist(), struct.k.tolist(), struct.coeff.tolist()):
        table[(i, j)] += ((k, c),)
    return table


def bracket_row(table, field, i, j):
    """Sparse expansion of [m_i, m_j] for any index order, as a tuple of (k, coeff)."""
    if i == j:
        return ()
    if i < j:
        return table[(i, j)]
    return tuple((k, field.reduce(-c)) for k, c in table[(j, i)])


@pytest.mark.parametrize("n", range(3, 15))
def test_structure_constants_match_oracle_mod_p(n):
    for field in PRIMES:
        got = table_of(so_structure_constants(QuadraticSpace(n), field))
        assert got == oracle_table(n, field)
        assert all(type(c) is int for row in got.values() for _, c in row)


@pytest.mark.parametrize("n", range(3, 11))
def test_structure_constants_match_oracle_over_qq(n):
    got = table_of(so_structure_constants(QuadraticSpace(n), QQ))
    assert got == oracle_table(n, QQ)
    assert all(type(c) is Fraction for row in got.values() for _, c in row)


@pytest.mark.parametrize("n", range(3, 15))
def test_pair_maps_match_oracle(n):
    space = QuadraticSpace(n)
    for sub_n in range(2, n):
        emb = embed_subalgebra(space, sub_n)
        assert emb.pair_map.tolist() == oracle_pair_map(space, emb.gen_vectors)


def test_structure_constants_close_and_antisymmetric():
    sp = QuadraticSpace(7)
    s = so_structure_constants(sp, QQ)
    assert so_dim(s.space) == 21
    table = table_of(s)
    for (i, j), row in table.items():
        flipped = dict(bracket_row(table, QQ, j, i))
        assert flipped == {k: -c for k, c in row}


def test_structure_constants_jacobi():
    # [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = 0, expanded through the table
    sp = QuadraticSpace(5)
    s = so_structure_constants(sp, QQ)
    g = so_dim(s.space)
    table = table_of(s)

    def bracket_vec(vec_sparse, k2):
        out = {}
        for k1, c1 in vec_sparse.items():
            for k3, c3 in bracket_row(table, QQ, k1, k2):
                out[k3] = out.get(k3, Fraction(0)) + c1 * c3
        return {k: v for k, v in out.items() if v}

    rnd = random.Random(3)
    for _ in range(30):
        a, b, c = rnd.randrange(g), rnd.randrange(g), rnd.randrange(g)
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = dict(bracket_row(table, QQ, y, z))
            for k, v in bracket_vec(inner, x).items():
                acc[k] = acc.get(k, Fraction(0)) - v  # [x, inner] = -[inner, x]
        assert all(v == 0 for v in acc.values())


def test_structure_constants_match_across_fields():
    sp = QuadraticSpace(5)
    s_qq = so_structure_constants(sp, QQ)
    s_gf = so_structure_constants(sp, F)
    table_gf = table_of(s_gf)
    for key, row in table_of(s_qq).items():
        got = dict(table_gf[key])
        want = {k: F.scalar(c) for k, c in row}
        assert got == want
