import random

import numpy as np
import pytest

from spincert.clifford import QuadraticSpace
from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import Matrix, random_vector
from spincert.orbits import (
    Aborted,
    ClosureViolation,
    fixed_subspace,
    invariant_bilinear_space,
    invariant_quartic_dim,
    isotypic_fingerprint,
    kernel_action_matrices,
    min_trial_stabilizer,
    stabilizer,
    subalgebra_structure,
    subalgebra_structure_from_matrices,
)
from spincert.spinreps import (
    LieRepresentation,
    direct_sum,
    embed_subalgebra,
    half_spin_reps,
    restrict,
    spin_rep,
    vector_rep,
)

F = GF(1_000_003)
PRIMES = (1_000_003, 999_983)


def test_stabilizer_of_zero_is_everything():
    rep = spin_rep(QuadraticSpace(7), F)
    r = stabilizer(rep, np.zeros(8, dtype=np.int64))
    assert r.dimension == 21 and r.orbit_dimension == 0


def generic_dims(build, trials=3, seed=0):
    """Generic stabilizer dimension over each of the two primes."""
    return [min_trial_stabilizer(build(GF(p)), trials, seed)[0].dimension for p in PRIMES]


def test_spin7_generic_stabilizer():
    assert generic_dims(lambda f: spin_rep(QuadraticSpace(7), f)) == [14, 14]


def test_half14_generic_stabilizer():
    assert generic_dims(lambda f: half_spin_reps(QuadraticSpace(14), f)[0]) == [28, 28]


def test_generic_dim_stable_under_seed_change():
    rep = spin_rep(QuadraticSpace(7), F)
    d0 = min_trial_stabilizer(rep, 3, 0)[0].dimension
    d1 = min_trial_stabilizer(rep, 3, 12345)[0].dimension
    assert d0 == d1 == 14


def test_min_trial_stabilizer_keeps_first_minimum(monkeypatch):
    import spincert.orbits as orbits_mod

    rep = spin_rep(QuadraticSpace(7), F)
    dims = iter([5, 3, 3, 4])
    real = orbits_mod.stabilizer

    def scripted(rep, v):
        r = real(rep, v)
        r.dimension = next(dims)
        return r

    monkeypatch.setattr(orbits_mod, "stabilizer", scripted)
    rpt, v = min_trial_stabilizer(rep, 4, 7)
    # trial 1 reached the minimum first; trial 2 ties and must not replace it
    assert rpt.dimension == 3
    assert np.array_equal(v, random_vector(F, 8, RandomSource(7).child(1)))
    monkeypatch.setattr(orbits_mod, "stabilizer", real)
    assert min_trial_stabilizer(rep, 4, 7)[0].dimension == 14
    with pytest.raises(ValueError):
        min_trial_stabilizer(rep, 0, 7)


# module -> (stabilizer dim, fixed subspace of the stabilizer's action,
# Killing [rank, nullity] and derived dim of the stabilizer, forms [sym, alt, sample_rank])
SMALL_MODULES = {
    "spin5": (lambda f: spin_rep(QuadraticSpace(5), f), 6, 1, (3, 3, 6), [0, 1, 4]),
    "vector5": (lambda f: vector_rep(QuadraticSpace(5), f), 6, 1, (6, 0, 6), [1, 0, 5]),
    "half_spin6": (lambda f: half_spin_reps(QuadraticSpace(6), f)[0], 11, 1, (8, 3, 11), [0, 0, 0]),
    "vector5+spin5": (
        lambda f: direct_sum([vector_rep(QuadraticSpace(5), f), spin_rep(QuadraticSpace(5), f)]),
        2,
        4,
        (0, 2, 0),
        [1, 1, 5],
    ),
    "spin7|so5": (
        lambda f: restrict(spin_rep(QuadraticSpace(7), f), embed_subalgebra(QuadraticSpace(7), 5)),
        3,
        4,
        (3, 0, 3),
        [1, 3, 8],
    ),
}


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@pytest.mark.parametrize("name", list(SMALL_MODULES))
def test_orbit_values_agree_over_q_and_fp(name, field, monkeypatch):
    build, stab_dim, fixed_dim, structure, forms = SMALL_MODULES[name]
    rep = build(field)
    # one small-integer point, the same over both fields
    rng = random.Random(11)
    v = Matrix(field, [[rng.randint(-9, 9) for _ in range(rep.dim)]]).row(0)
    r = stabilizer(rep, v)
    assert (r.dimension, r.orbit_dimension) == (stab_dim, rep.g - stab_dim)
    mats = kernel_action_matrices(r.kernel, rep)
    assert len(mats) == stab_dim
    assert all((m @ Matrix.column(field, v)).is_zero() for m in mats)
    assert fixed_subspace(mats)[0] == fixed_dim
    ss = subalgebra_structure_from_matrices(mats)
    assert (ss.killing_rank, ss.killing_nullity, ss.derived_dimension) == structure
    inv = invariant_bilinear_space(rep)
    assert [inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank] == forms
    # the re-check rejects a kernel vector that does not annihilate the point
    first_generator = Matrix.identity(field, rep.g).col(0)
    monkeypatch.setattr(Matrix, "kernel_basis", lambda self: [first_generator])
    with pytest.raises(AssertionError, match="does not annihilate"):
        stabilizer(rep, v)


def test_stabilizer_kernel_annihilates_exactly():
    rep = spin_rep(QuadraticSpace(7), F)
    v = random_vector(F, 8, RandomSource(0).child(0))
    r = stabilizer(rep, v)
    for z in r.kernel:
        acting = np.tensordot(z, rep.tensor, axes=(0, 0)) % F.p
        assert not (acting @ np.asarray(v) % F.p).any()


def test_subalgebra_structure_g2_fingerprint():
    rep = spin_rep(QuadraticSpace(7), F)
    v = random_vector(F, 8, RandomSource(0).child(0))
    r = stabilizer(rep, v)
    ss = subalgebra_structure(r.kernel, vector_rep(QuadraticSpace(7), F))
    assert ss.dimension == 14
    assert ss.killing_rank == 14 and ss.killing_nullity == 0
    assert ss.derived_dimension == 14  # perfect algebra


def test_subalgebra_structure_spin10_radical():
    rep = half_spin_reps(QuadraticSpace(10), F)[0]
    v = random_vector(F, 16, RandomSource(0).child(0))
    r = stabilizer(rep, v)
    assert r.dimension == 29
    ss = subalgebra_structure(r.kernel, vector_rep(QuadraticSpace(10), F))
    assert ss.killing_rank == 21 and ss.killing_nullity == 8


def test_closure_violation_on_non_closed_span():
    # opposite root vectors: their bracket is a Cartan combination, which
    # leaves the two-dimensional span
    rep = vector_rep(QuadraticSpace(7), F)
    z1 = np.zeros(21, dtype=np.int64)
    z2 = np.zeros(21, dtype=np.int64)
    z1[rep.basis_labels.index((0, 2))] = 1  # p1 p2
    z2[rep.basis_labels.index((1, 3))] = 1  # q1 q2
    with pytest.raises(ClosureViolation):
        subalgebra_structure([z1, z2], rep)


def test_stabilizer_kernels_bracket_closed():
    # subalgebra_structure succeeding is the closure certificate
    for n, build in ((7, spin_rep), (11, spin_rep)):
        rep = build(QuadraticSpace(n), F)
        v = random_vector(F, rep.dim, RandomSource(3).child(0))
        r = stabilizer(rep, v)
        subalgebra_structure(r.kernel, vector_rep(QuadraticSpace(n), F))


def test_generic_stabilizer_vector_sums():
    dims = generic_dims(lambda f: direct_sum([vector_rep(QuadraticSpace(10), f)] * 5))
    assert dims == [10, 10]
    dims = generic_dims(
        lambda f: direct_sum(
            [vector_rep(QuadraticSpace(7), f)] * 3 + [spin_rep(QuadraticSpace(7), f)]
        )
    )
    assert dims == [0, 0]


def test_invariant_bilinear_spin7():
    inv = invariant_bilinear_space(spin_rep(QuadraticSpace(7), F))
    assert (inv.symmetric_dim, inv.antisymmetric_dim) == (1, 0)
    assert inv.sample_rank == 8 and inv.sample_symmetric
    # the sample is genuinely invariant and symmetric, re-checked cold
    B = inv.sample
    assert B == B.T
    rep = spin_rep(QuadraticSpace(7), F)
    for m in rep.matrices:
        assert (m.T @ B + B @ m).is_zero()


def test_invariant_bilinear_spin5_symplectic():
    inv = invariant_bilinear_space(spin_rep(QuadraticSpace(5), F))
    assert (inv.symmetric_dim, inv.antisymmetric_dim) == (0, 1)
    assert inv.sample_rank == 4 and inv.sample_symmetric is False


def test_invariant_bilinear_open_orbit_controls():
    inv10 = invariant_bilinear_space(half_spin_reps(QuadraticSpace(10), F)[0])
    assert (inv10.symmetric_dim, inv10.antisymmetric_dim) == (0, 0)
    assert inv10.sample is None


def test_invariant_bilinear_vector_rep_is_gram_line():
    inv = invariant_bilinear_space(vector_rep(QuadraticSpace(7), F))
    assert (inv.symmetric_dim, inv.antisymmetric_dim) == (1, 0)
    assert inv.sample_rank == 7


def test_fixed_subspace_examples():
    rep = spin_rep(QuadraticSpace(7), F)
    v = random_vector(F, 8, RandomSource(0).child(0))
    r = stabilizer(rep, v)
    mats = kernel_action_matrices(r.kernel, rep)
    dim, basis = fixed_subspace(mats)
    assert dim == 1
    stacked = Matrix(F, np.stack([basis[0], np.asarray(v)]))
    assert stacked.rank() == 1  # the fixed line is the point's line
    dim_full, _ = fixed_subspace(rep.matrices)
    assert dim_full == 0  # irreducibility control


def test_isotypic_fingerprint_restricted_so5():
    space = QuadraticSpace(10)
    emb = embed_subalgebra(space, 5)
    res = restrict(half_spin_reps(space, F)[0], emb)
    assert isotypic_fingerprint(res.matrices) == (16, 16)


def test_isotypic_fingerprint_spin11_natural_module():
    # The generic stabilizer is sl(5) in so(10) in so(11), so V11 splits as
    # 5 + dual(5) + 1: closure 25 + 25 + 1 = 51 and three inequivalent simple
    # summands, hence commutant 3.  An irreducible 10 + 1 would give closure
    # 101, and as an orthogonal module it would carry no alternating
    # invariant form.  The pairing of 5 with dual(5) gives one symmetric and
    # one alternating form; the trivial line adds a second symmetric form.
    rep = spin_rep(QuadraticSpace(11), F)
    v = random_vector(F, 32, RandomSource(0).child(0))
    r = stabilizer(rep, v)
    mats = kernel_action_matrices(r.kernel, vector_rep(QuadraticSpace(11), F))
    assert isotypic_fingerprint(mats) == (51, 3)
    assert fixed_subspace(mats)[0] == 1
    on_v11 = LieRepresentation(
        11, F, "stabilizer on vector(11)", tuple((k,) for k in range(len(mats))), np.stack([m.data for m in mats])
    )
    forms = invariant_bilinear_space(on_v11)
    assert (forms.symmetric_dim, forms.antisymmetric_dim) == (2, 1)


def test_scaling_extension_invariant():
    # appending the scaling generator: stabilizer stays 8 for the derivation
    # action on one octonion copy (radial line joins the orbit image); the
    # spin14 variant is exercised in the suites
    from spincert.octonion import derivation_algebra, g2_stabilizer_checks

    for p in PRIMES:
        _, vector_kernel, scaled_kernel = g2_stabilizer_checks(derivation_algebra(GF(p)), 3, 0)
        assert vector_kernel == scaled_kernel == 8


def test_quartic_invariants_vector7():
    # q^2 spans the degree-4 invariants of the quadratic form
    assert invariant_quartic_dim(vector_rep(QuadraticSpace(7), F)) == 1


def test_quartic_invariants_spin11():
    assert invariant_quartic_dim(spin_rep(QuadraticSpace(11), F)) == 1


def test_quartic_budget_and_field_guards(monkeypatch):
    import spincert.orbits as orbits_mod

    with monkeypatch.context() as m:
        m.setattr(orbits_mod, "_QUARTIC_MAX_CANDIDATES", 10)
        with pytest.raises(Aborted, match="candidate budget"):
            invariant_quartic_dim(spin_rep(QuadraticSpace(11), F))
    with monkeypatch.context() as m:
        m.setattr(orbits_mod, "_QUARTIC_MAX_ROWS", 1)
        with pytest.raises(Aborted, match="row budget"):
            invariant_quartic_dim(vector_rep(QuadraticSpace(7), F))
    with pytest.raises(ValueError):
        invariant_quartic_dim(spin_rep(QuadraticSpace(11), QQ))
    with pytest.raises(ValueError):
        invariant_quartic_dim(half_spin_reps(QuadraticSpace(14), F)[0])


def test_subalgebra_structure_rejects_dependent_basis():
    rep = vector_rep(QuadraticSpace(5), F)
    z = np.zeros(10, dtype=np.int64)
    z[0] = 1
    z2 = (2 * z) % F.p
    with pytest.raises(ValueError):
        subalgebra_structure([z, z2], rep)
