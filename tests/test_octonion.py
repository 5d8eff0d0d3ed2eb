import numpy as np
import pytest

from spincert import octonion
from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import kernel, rank
from spincert.octonion import (
    ConstructionFailure,
    anisotropic,
    derivation_algebra,
    multiplication_tensor,
    split_generating_triple,
    subalgebra_generated,
)
from spincert.orbits import min_trial_stabilizer, stabilizer, subalgebra_structure_from_matrices
from spincert.spinreps import direct_sum

F = GF(1_000_003)
PRIMES = (1_000_003, 999_983)
LARGEST = GF(2_147_483_647)
UNIT = [1, 0, 0, 0, 0, 0, 0, 1]


# -- independent oracles -------------------------------------------------------


def zorn_oracle(field, x, y):
    """[[a, v], [w, b]] [[c, s], [t, d]] one scalar at a time, on coordinate lists."""
    a, v, w, b = x[0], x[1:4], x[4:7], x[7]
    c, s, t, d = y[0], y[1:4], y[4:7], y[7]

    def dot(p, q):
        return sum(pi * qi for pi, qi in zip(p, q))

    def cross(p, q):
        return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]

    out = [a * c + dot(v, t)]
    out += [a * si + d * vi - ci for si, vi, ci in zip(s, v, cross(w, t))]
    out += [c * wi + b * ti + ci for wi, ti, ci in zip(w, t, cross(v, s))]
    out += [b * d + dot(w, s)]
    return [field.scalar(z) for z in out]


def norm(field, x):
    """N = ab - v.w of one coordinate row."""
    a, v, w, b = x[0], x[1:4], x[4:7], x[7]
    return field.reduce(a * b - sum(vi * wi for vi, wi in zip(v, w)))


def leibniz_by_loops(field):
    """The Leibniz system built entry by entry, unknown D[r, c] at column 8r + c."""
    tensor = multiplication_tensor(field)
    rows = []
    for i in range(8):
        for j in range(8):
            for b in range(8):
                row = field.zeros(64)
                for l in range(8):
                    row[b * 8 + l] = field.reduce(row[b * 8 + l] + tensor[i, j, l])
                for r in range(8):
                    row[r * 8 + i] = field.reduce(row[r * 8 + i] - tensor[r, j, b])
                    row[r * 8 + j] = field.reduce(row[r * 8 + j] - tensor[i, r, b])
                rows.append(row)
    return np.stack(rows)


def loop_derivations(field):
    """The 8x8 derivations, D[r, c] the r-th coordinate of D(e_c): the loop-built system's kernel."""
    (null,) = kernel(field, leibniz_by_loops(field)[None])
    return null.reshape(-1, 8, 8)


def trace_zero_basis(field):
    """The 8x7 basis (e_0 - e_7, e_1, ..., e_6) of the trace-zero octonions, as columns."""
    return field.array(np.vstack([np.eye(7, dtype=np.int64), [[-1, 0, 0, 0, 0, 0, 0]]]))


# -- helpers -------------------------------------------------------------------


def tensor_mul(field, xs, ys):
    """Row-wise products xs[k] * ys[k] through the multiplication tensor."""
    left = field.matmul(xs, multiplication_tensor(field).reshape(8, 64)).reshape(-1, 8, 8)
    return field.matmul(ys[:, None, :], left)[:, 0]


def rand_rows(field, rng, count):
    return rng.scalars(field, 8 * count).reshape(count, 8)


def rand_trace_zero(field, rng):
    d, a, b, c, e, g, h = rng.scalars(field, 7)
    return field.array([d, a, b, c, e, g, h, field.reduce(-d)])


# -- tests ---------------------------------------------------------------------


def test_unit_and_idempotents():
    one = F.array([UNIT])
    x = rand_rows(F, RandomSource(0), 1)
    assert np.array_equal(tensor_mul(F, one, x), x)
    assert np.array_equal(tensor_mul(F, x, one), x)
    e1 = F.array([[1, 0, 0, 0, 0, 0, 0, 0]])
    assert np.array_equal(tensor_mul(F, e1, e1), e1)


@pytest.mark.parametrize("field", [F, QQ])
def test_norm_multiplicative_100_pairs(field):
    rng = RandomSource(1)
    xs, ys = rand_rows(field, rng, 100), rand_rows(field, rng, 100)
    for x, y, xy in zip(xs, ys, tensor_mul(field, xs, ys)):
        assert norm(field, xy) == field.reduce(norm(field, x) * norm(field, y))


def test_alternative_laws():
    rng = RandomSource(2)
    for field in (F, QQ):
        xs, ys = rand_rows(field, rng, 50), rand_rows(field, rng, 50)
        xx = tensor_mul(field, xs, xs)
        assert np.array_equal(tensor_mul(field, xs, tensor_mul(field, xs, ys)), tensor_mul(field, xx, ys))
        assert np.array_equal(tensor_mul(field, tensor_mul(field, ys, xs), xs), tensor_mul(field, ys, xx))


def test_not_associative():
    basis = QQ.eye(8)
    found = False
    for i in (2, 3, 4):
        a, b, c = basis[[1]], basis[[i]], basis[[5]]
        if not np.array_equal(tensor_mul(QQ, tensor_mul(QQ, a, b), c), tensor_mul(QQ, a, tensor_mul(QQ, b, c))):
            found = True
    assert found


def test_trace_form_nondegenerate_and_derivations_skew():
    # tr(xy) = a + b of the product, as an 8x8 matrix in the coordinate basis
    t = multiplication_tensor(F)
    t = F.reduce(t[:, :, 0] + t[:, :, 7])
    assert rank(F, t[None]) == [8]
    for m in loop_derivations(F):
        assert not np.count_nonzero(F.reduce(F.matmul(m.T, t) + F.matmul(t, m)))


def test_derivation_dimension_both_primes():
    for p in PRIMES:
        g2 = derivation_algebra(GF(p))
        assert (g2.g, g2.dim) == (14, 7)


def test_derivation_dimension_over_qq():
    g2 = derivation_algebra(QQ)
    assert (g2.g, g2.dim) == (14, 7)


def test_derivation_algebra_is_cached_per_field():
    # like the spin modules: one Leibniz kernel per field, shared read-only
    g2 = derivation_algebra(F)
    assert derivation_algebra(GF(1_000_003)) is g2
    assert derivation_algebra(GF(999_983)) is not g2
    assert not g2.tensor.flags.writeable


def test_derivations_match_loop_built_leibniz_system():
    # D B = B R for each loop-built derivation D, B the trace-zero basis: D
    # preserves trace zero, and R, the module's matrix, is its restriction
    for field in (*map(GF, PRIMES), QQ):
        full, basis, tensor = loop_derivations(field), trace_zero_basis(field), derivation_algebra(field).tensor
        assert full.shape == (14, 8, 8) and tensor.shape == (14, 7, 7)
        assert field.matmul(full, basis).tolist() == field.matmul(basis, tensor).tolist()


@pytest.mark.parametrize("field", [*map(GF, PRIMES), QQ], ids=repr)
def test_trace_zero_module_has_the_structure_of_the_full_derivations(field):
    # restriction to trace zero is an injective Lie map, so the 7x7 module has the
    # 8x8 derivations' structure constants and Killing form: cross-spinor's [14, 14]
    seven = subalgebra_structure_from_matrices(field, derivation_algebra(field).tensor)
    eight = subalgebra_structure_from_matrices(field, loop_derivations(field))
    assert np.array_equal(seven.structure_constants, eight.structure_constants)
    assert np.array_equal(seven.killing, eight.killing)
    assert seven.killing_rank == eight.killing_rank == 14


def test_dimension_guard_refuses_a_short_kernel(monkeypatch):
    derivation_algebra.cache_clear()  # a cached module would skip the guard
    real = octonion.kernel
    monkeypatch.setattr(octonion, "kernel", lambda field, stack: [null[1:] for null in real(field, stack)])
    with pytest.raises(ConstructionFailure, match="dimension 13, expected 14"):
        derivation_algebra(F)


def test_trace_zero_guard_refuses_a_derivation_leaving_it(monkeypatch):
    derivation_algebra.cache_clear()
    real = octonion.kernel

    def skewed(field, stack):
        (null,) = real(field, stack)
        null = null.copy()
        null[0, 1] = field.reduce(null[0, 1] + 1)  # D(e_1) gains an a-entry and no b-entry
        return [null]

    monkeypatch.setattr(octonion, "kernel", skewed)
    with pytest.raises(ConstructionFailure, match="does not preserve trace zero"):
        derivation_algebra(F)


def test_derivations_kill_unit_and_leibniz():
    basis = F.eye(8)
    # row 8i + j: e_i and e_j
    left, right = np.repeat(basis, 8, axis=0), np.tile(basis, (8, 1))
    products = tensor_mul(F, left, right)
    for m in loop_derivations(F):
        assert not np.count_nonzero(F.matmul(m, F.array(UNIT)[:, None]))
        # Leibniz on all 64 basis pairs, exact: D(e_i e_j) = D(e_i) e_j + e_i D(e_j)
        d = m.T  # row i is D(e_i)
        lhs = F.matmul(products, d)
        rhs = F.reduce(tensor_mul(F, np.repeat(d, 8, axis=0), right) + tensor_mul(F, left, np.tile(d, (8, 1))))
        assert np.array_equal(lhs, rhs)


def test_derivations_closed_under_commutator():
    ss = subalgebra_structure_from_matrices(F, derivation_algebra(F).tensor)  # raises on non-closure
    assert ss.dimension == 14
    assert ss.killing_rank == 14


def test_derivations_preserve_trace_zero():
    # the module's 14 matrices act on the 7-dim trace-zero space, and every
    # loop-built derivation sends a trace-zero basis vector to a trace-zero vector
    tensor = derivation_algebra(F).tensor
    assert len(tensor) == 14
    assert all(m.shape == (7, 7) for m in tensor)
    images = F.matmul(loop_derivations(F), trace_zero_basis(F))
    assert not np.count_nonzero(F.reduce(images[:, 0] + images[:, 7]))


def test_subalgebra_generated_examples():
    rng = RandomSource(3)
    zero = F.zeros(8)
    x = rand_rows(F, rng, 1)[0]
    assert subalgebra_generated(F, [x, zero, zero]) <= 2
    trace_zero = [rand_trace_zero(F, rng) for _ in range(3)]
    assert subalgebra_generated(F, trace_zero) == 8
    assert subalgebra_generated(F, split_generating_triple(F)) == 8
    assert subalgebra_generated(QQ, split_generating_triple(QQ)) == 8


def test_split_triple_is_trace_zero():
    rows = split_generating_triple(F)
    assert not np.count_nonzero(F.reduce(rows[:, 0] + rows[:, 7]))


def test_subalgebra_generated_monotone():
    rng = RandomSource(5)
    zero = F.zeros(8)
    x, y, z = rand_rows(F, rng, 3)
    d1 = subalgebra_generated(F, [x, zero, zero])
    d2 = subalgebra_generated(F, [x, y, zero])
    d3 = subalgebra_generated(F, [x, y, z])
    assert d1 <= d2 <= d3 <= 8


def g2_kernels(field, trials, seed):
    """(triple, vector, scaled) kernel dimensions, as the g2_octonion suite takes them."""
    g2 = derivation_algebra(field)
    triple, _ = min_trial_stabilizer(direct_sum([g2] * 3), trials, seed)
    vector, v = min_trial_stabilizer(g2, trials, seed, witness=lambda x: anisotropic(field, x))
    return triple.dimension, vector.dimension, stabilizer(g2.with_scaling(), v).dimension


def test_g2_checks_certificates():
    # each prime, and a seed change, leave the certificate values alone
    for p in PRIMES:
        assert g2_kernels(GF(p), 3, 0) == (0, 8, 8)
        assert g2_kernels(GF(p), 3, 777) == (0, 8, 8)


def test_anisotropy_is_the_witness_the_scaled_kernel_needs():
    # an isotropic trace-zero point has the generic stabilizer dimension, 8,
    # but the scaling generator adds one: only the witness tells them apart
    g2 = derivation_algebra(F)
    for x, witnessed, scaled in (([1, 0, 0, 0, 0, 0, 0], True, 8), ([0, 1, 0, 0, 0, 0, 0], False, 9)):
        x = F.array(x)
        assert anisotropic(F, x) is witnessed
        assert stabilizer(g2, x).dimension == 8
        assert stabilizer(g2.with_scaling(), x).dimension == scaled


def test_octonion_checks_at_largest_prime():
    # residue products there leave int64 unless every sum goes through field.matmul
    assert g2_kernels(LARGEST, 3, 0) == (0, 8, 8)
    assert subalgebra_generated(LARGEST, split_generating_triple(LARGEST)) == 8
    rng = RandomSource(6)
    assert subalgebra_generated(LARGEST, [rand_trace_zero(LARGEST, rng) for _ in range(3)]) == 8


def test_cross_module_g2_equals_spin7_stabilizer():
    from spincert.clifford import QuadraticSpace
    from spincert.orbits import kernel_action_matrices, stabilizer
    from spincert.spinreps import spin_rep, vector_rep

    g2 = derivation_algebra(F)
    deriv_struct = subalgebra_structure_from_matrices(F, g2.tensor)
    rep = spin_rep(QuadraticSpace(7), F)
    v = RandomSource(0).child(0).scalars(F, 8)
    r = stabilizer(rep, v)
    on_vector = kernel_action_matrices(r.kernel, vector_rep(QuadraticSpace(7), F))
    spinor_struct = subalgebra_structure_from_matrices(F, on_vector)
    assert g2.g == r.dimension == 14
    assert deriv_struct.killing_rank == spinor_struct.killing_rank == 14


def test_multiplication_tensor_consistent():
    # the tensor against the scalar oracle on all 64 basis pairs
    for field in (*map(GF, PRIMES), QQ):
        t = multiplication_tensor(field)
        basis = np.eye(8, dtype=np.int64).tolist()
        for i in range(8):
            for j in range(8):
                assert t[i, j].tolist() == zorn_oracle(field, basis[i], basis[j])
    # and on a random pair, through both contractions
    rng = RandomSource(4)
    x, y = rand_rows(F, rng, 2)
    assert tensor_mul(F, x[None], y[None])[0].tolist() == zorn_oracle(F, x.tolist(), y.tolist())
