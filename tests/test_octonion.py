import numpy as np
import pytest

from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import Matrix
from spincert.octonion import (
    Octonion,
    derivation_algebra,
    g2_stabilizer_checks,
    multiplication_tensor,
    oct_multiply,
    octonion_basis,
    split_generating_triple,
    subalgebra_generated,
)
from spincert.orbits import subalgebra_structure_from_matrices

F = GF(1_000_003)
PRIMES = (1_000_003, 999_983)


def rand_oct(field, rng):
    return Octonion.from_coords(field, rng.scalars(field, 8))


def test_unit_and_idempotents():
    one = Octonion.one(F)
    rng = RandomSource(0)
    x = rand_oct(F, rng)
    assert (one * x).coords() == x.coords()
    assert (x * one).coords() == x.coords()
    e1 = Octonion.from_coords(F, [1, 0, 0, 0, 0, 0, 0, 0])
    assert (e1 * e1).coords() == e1.coords()


@pytest.mark.parametrize("field", [F, QQ])
def test_norm_multiplicative_100_pairs(field):
    rng = RandomSource(1)
    for _ in range(100):
        x, y = rand_oct(field, rng), rand_oct(field, rng)
        assert (x * y).norm() == field.mul(x.norm(), y.norm())


def test_alternative_laws():
    rng = RandomSource(2)
    for field in (F, QQ):
        for _ in range(50):
            x, y = rand_oct(field, rng), rand_oct(field, rng)
            assert (x * (x * y)).coords() == ((x * x) * y).coords()
            assert ((y * x) * x).coords() == (y * (x * x)).coords()


def test_not_associative():
    basis = octonion_basis(QQ)
    found = False
    for i in (2, 3, 4):
        a, b, c = basis[1], basis[i], basis[5]
        if ((a * b) * c).coords() != (a * (b * c)).coords():
            found = True
    assert found


def test_trace_form_nondegenerate_and_derivations_skew():
    # tr(xy) as an 8x8 matrix in the coordinate basis
    basis = octonion_basis(F)
    t = Matrix(F, [[(basis[i] * basis[j]).trace() for j in range(8)] for i in range(8)])
    assert t.rank() == 8
    for m in derivation_algebra(F).matrices:
        assert (m.T @ t + t @ m).is_zero()


def test_field_mismatch():
    with pytest.raises(ValueError):
        oct_multiply(Octonion.one(F), Octonion.one(QQ))


def test_derivation_dimension_both_primes():
    for p in PRIMES:
        assert derivation_algebra(GF(p)).dimension == 14


def test_derivation_dimension_over_qq():
    assert derivation_algebra(QQ).dimension == 14


def test_derivations_kill_unit_and_leibniz():
    da = derivation_algebra(F)
    one = np.array(Octonion.one(F).coords(), dtype=np.int64)
    basis = octonion_basis(F)
    for m in da.matrices:
        assert not m.apply(one).any()
        # Leibniz on all 64 basis pairs, exact
        for i in range(8):
            for j in range(8):
                xi, xj = basis[i], basis[j]
                dxi = Octonion.from_coords(F, list(m.apply(np.eye(8, dtype=np.int64)[i])))
                dxj = Octonion.from_coords(F, list(m.apply(np.eye(8, dtype=np.int64)[j])))
                lhs = m.apply(np.array((xi * xj).coords(), dtype=np.int64))
                rhs = (dxi * xj + xi * dxj).coords()
                assert list(lhs) == rhs


def test_derivations_closed_under_commutator():
    da = derivation_algebra(F)
    ss = subalgebra_structure_from_matrices(da.matrices)  # raises on non-closure
    assert ss.dimension == 14
    assert ss.killing_rank == 14


def test_derivations_preserve_trace_zero():
    da = derivation_algebra(F)
    assert len(da.trace_zero_matrices) == 14
    assert all(m.shape == (7, 7) for m in da.trace_zero_matrices)


def test_subalgebra_generated_examples():
    rng = RandomSource(3)
    zero = Octonion.zero(F)
    x = rand_oct(F, rng)
    assert subalgebra_generated(x, zero, zero) <= 2
    trace_zero = [
        Octonion.from_coords(F, [d, a, b, c, e, g, h, F.neg(d)])
        for d, a, b, c, e, g, h in [tuple(rng.scalars(F, 7)) for _ in range(3)]
    ]
    assert subalgebra_generated(*trace_zero) == 8
    assert subalgebra_generated(*split_generating_triple(F)) == 8
    assert subalgebra_generated(*split_generating_triple(QQ)) == 8


def test_split_triple_is_trace_zero():
    for o in split_generating_triple(F):
        assert F.is_zero(o.trace())


def test_subalgebra_generated_monotone():
    rng = RandomSource(5)
    zero = Octonion.zero(F)
    x, y, z = (rand_oct(F, rng) for _ in range(3))
    d1 = subalgebra_generated(x, zero, zero)
    d2 = subalgebra_generated(x, y, zero)
    d3 = subalgebra_generated(x, y, z)
    assert d1 <= d2 <= d3 <= 8


def test_g2_checks_certificates():
    # each prime, and a seed change, leave the certificate values alone
    for p in PRIMES:
        derivations = derivation_algebra(GF(p))
        assert g2_stabilizer_checks(derivations, 3, 0) == (0, 8, 8)
        assert g2_stabilizer_checks(derivations, 3, 777) == (0, 8, 8)


def test_cross_module_g2_equals_spin7_stabilizer():
    from spincert.clifford import QuadraticSpace
    from spincert.linalg import random_vector
    from spincert.orbits import stabilizer, subalgebra_structure
    from spincert.spinreps import spin_rep, vector_rep

    da = derivation_algebra(F)
    deriv_struct = subalgebra_structure_from_matrices(da.matrices)
    rep = spin_rep(QuadraticSpace(7), F)
    v = random_vector(F, 8, RandomSource(0).child(0))
    r = stabilizer(rep, v)
    spinor_struct = subalgebra_structure(r.kernel, vector_rep(QuadraticSpace(7), F))
    assert da.dimension == r.dimension == 14
    assert deriv_struct.killing_rank == spinor_struct.killing_rank == 14


def test_multiplication_tensor_consistent():
    t = multiplication_tensor(F)
    basis = octonion_basis(F)
    rng = RandomSource(4)
    x, y = rand_oct(F, rng), rand_oct(F, rng)
    xv = np.array(x.coords(), dtype=np.int64)
    yv = np.array(y.coords(), dtype=np.int64)
    via_tensor = np.einsum("i,j,ijk->k", xv, yv, t) % F.p
    assert list(via_tensor) == (x * y).coords()
