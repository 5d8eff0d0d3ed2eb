import random
from fractions import Fraction

import pytest

from spincert.clifford import (
    CliffordElement,
    QuadraticSpace,
    bivector_basis,
    expand_in_bivectors,
    so_dim,
    so_pairs,
    so_structure_constants,
)
from spincert.fields import GF, QQ

F = GF(1_000_003)


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
                rhs = CliffordElement.scalar(sp, field, sp.two_b_int(i, j))
                assert lhs == rhs, (n, i, j)


def test_product_associativity_random():
    sp = QuadraticSpace(6)
    rnd = random.Random(0)

    def rand_elem():
        return CliffordElement(
            sp, QQ, {rnd.randrange(1 << 6): Fraction(rnd.randint(-3, 3)) for _ in range(4)}
        )

    for _ in range(40):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_product_bilinearity_random():
    sp = QuadraticSpace(5)
    rnd = random.Random(1)

    def rand_elem():
        return CliffordElement(
            sp, QQ, {rnd.randrange(1 << 5): Fraction(rnd.randint(-3, 3)) for _ in range(3)}
        )

    for _ in range(20):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
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
    elem = CliffordElement.zero(sp, QQ)
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


def test_structure_constants_close_and_antisymmetric():
    sp = QuadraticSpace(7)
    s = so_structure_constants(sp, QQ)
    assert s.dim == 21
    for (i, j), row in s.table.items():
        flipped = dict(s.bracket_row(j, i))
        assert flipped == {k: -c for k, c in row}


def test_structure_constants_jacobi():
    # [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = 0, expanded through the table
    sp = QuadraticSpace(5)
    s = so_structure_constants(sp, QQ)
    g = s.dim

    def bracket_vec(vec_sparse, k2):
        out = {}
        for k1, c1 in vec_sparse.items():
            for k3, c3 in s.bracket_row(k1, k2):
                out[k3] = out.get(k3, Fraction(0)) + c1 * c3
        return {k: v for k, v in out.items() if v}

    rnd = random.Random(3)
    for _ in range(30):
        a, b, c = rnd.randrange(g), rnd.randrange(g), rnd.randrange(g)
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = dict(s.bracket_row(y, z))
            for k, v in bracket_vec(inner, x).items():
                acc[k] = acc.get(k, Fraction(0)) - v  # [x, inner] = -[inner, x]
        assert all(v == 0 for v in acc.values())


def test_structure_constants_match_across_fields():
    sp = QuadraticSpace(5)
    s_qq = so_structure_constants(sp, QQ)
    s_gf = so_structure_constants(sp, F)
    for key, row in s_qq.table.items():
        got = dict(s_gf.table[key])
        want = {k: F.scalar(c) for k, c in row}
        assert got == want


def test_blade_label_and_key():
    sp = QuadraticSpace(5)
    assert sp.blade_label(0) == "1"
    assert sp.blade_label(0b11) == "p1*q1"
    assert sp.blade_key(0b101) == (2, (0, 2))
