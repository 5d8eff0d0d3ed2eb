import random

import numpy as np
import pytest

from spincert.clifford import QuadraticSpace
from spincert.fields import GF, QQ, PrimeField, RandomSource
from spincert.linalg import associative_closure, commutant_dimension, hom_space, kernel, rank, solve
from spincert.octonion import derivation_algebra
from spincert.orbits import (
    Aborted,
    ClosureViolation,
    NotWitnessed,
    invariant_bilinear_space,
    invariant_quartic_dim,
    kernel_action_matrices,
    min_trial_stabilizer,
    stabilizer,
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


def fixed_space(field, mats):
    """Basis of the vectors every matrix of the stack kills: the maps from the trivial line."""
    return hom_space(field, mats, field.zeros((len(mats), 1, 1)))


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
    real = orbits_mod._stabilizers

    def scripted(rep, points):
        reports = real(rep, points)
        for r in reports:
            r.dimension = next(dims)
        return reports

    # the trials are one stack, so the script replaces the stacked stabilizer
    monkeypatch.setattr(orbits_mod, "_stabilizers", scripted)
    rpt, v = min_trial_stabilizer(rep, 4, 7)
    # trial 1 reached the minimum first; trial 2 ties and must not replace it
    assert rpt.dimension == 3
    assert np.array_equal(v, RandomSource(7).child(1).scalars(F, 8))
    monkeypatch.setattr(orbits_mod, "_stabilizers", real)
    assert min_trial_stabilizer(rep, 4, 7)[0].dimension == 14
    with pytest.raises(ValueError):
        min_trial_stabilizer(rep, 0, 7)


def _spy_stabilizers(monkeypatch):
    """Record the number of points of every stacked stabilizer call."""
    import spincert.orbits as orbits_mod

    sizes = []
    real = orbits_mod._stabilizers

    def spy(rep, points):
        sizes.append(len(points))
        return real(rep, points)

    monkeypatch.setattr(orbits_mod, "_stabilizers", spy)
    return sizes


def test_min_trial_stops_at_the_floor(monkeypatch):
    # free-7: three natural copies plus the spin module, 29 > g = 21, so the floor is 0
    space = QuadraticSpace(7)
    rep = direct_sum([vector_rep(space, F)] * 3 + [spin_rep(space, F)])
    sizes = _spy_stabilizers(monkeypatch)
    rpt, v = min_trial_stabilizer(rep, 3, 0)
    assert rpt.dimension == 0 and sizes == [1]
    assert np.array_equal(v, RandomSource(0).child(0).scalars(F, rep.dim))


def test_min_trial_above_the_floor_eliminates_the_rest(monkeypatch):
    # spin7: floor 21 - 8 = 13, generic stabilizer g2 of dimension 14
    rep = spin_rep(QuadraticSpace(7), F)
    sizes = _spy_stabilizers(monkeypatch)
    assert min_trial_stabilizer(rep, 3, 0)[0].dimension == 14
    assert sizes == [1, 2]
    sizes.clear()
    assert min_trial_stabilizer(rep, 1, 0)[0].dimension == 14
    assert sizes == [1]


def _left_gl2(field):
    """gl2 acting on 2x2 matrices by left multiplication: the stabilizer of x has dim 2 (2 - rank x)."""
    units = np.eye(4, dtype=np.int64).reshape(4, 2, 2)
    tensor = field.array(np.stack([np.kron(z, np.eye(2, dtype=np.int64)) for z in units]))
    return LieRepresentation(2, field, "gl2 on 2x2 matrices", tuple(("gl2", k) for k in range(4)), tensor)


def test_min_trial_witness_skips_failing_trials_even_when_smaller():
    f5 = GF(5)
    rep = _left_gl2(f5)

    def singular(x):
        return rank(f5, x.reshape(1, 2, 2)) != [2]

    # a seed whose trial 0 is invertible (stabilizer 0) and trial 1 singular
    def point(seed, t):
        return RandomSource(seed).child(t).scalars(f5, 4)

    seed = next(s for s in range(100) if [singular(point(s, t)) for t in (0, 1)] == [False, True])
    rpt, v = min_trial_stabilizer(rep, 2, seed)
    assert rpt.dimension == 0 and np.array_equal(v, point(seed, 0))
    # a witness that only passes singular points: trial 0 is smaller but may not compete
    rpt, v = min_trial_stabilizer(rep, 2, seed, witness=singular)
    assert rpt.dimension > 0 and np.array_equal(v, point(seed, 1))


def test_min_trial_witness_with_no_passing_trial_raises():
    with pytest.raises(NotWitnessed):
        min_trial_stabilizer(_left_gl2(F), 3, 0, witness=lambda x: False)


# over Q one 106 x 91 elimination of free-14 takes seconds, so free-14 runs over F_p only
@pytest.mark.parametrize(
    "name, field, trials",
    [("free-14", F, 3), ("chain-11", F, 3), ("chain-11", QQ, 3)],
    ids=["free-14-GF", "chain-11-GF", "chain-11-QQ"],
)
def test_min_trial_stabilizer_equals_per_trial_loop(name, field, trials):
    # the coregular_free reps: three natural copies plus a half-spin module, four natural copies
    n, copies, half = {"free-14": (14, 3, True), "chain-11": (11, 4, False)}[name]
    space = QuadraticSpace(n)
    rep = direct_sum([vector_rep(space, field)] * copies + ([half_spin_reps(space, field)[0]] if half else []))
    rpt, v = min_trial_stabilizer(rep, trials, 5)
    best = None
    for t in range(trials):
        w = RandomSource(5).child(t).scalars(field, rep.dim)
        r = stabilizer(rep, w)
        if best is None or r.dimension < best[0].dimension:
            best = (r, w)
    assert (rpt.dimension, rpt.orbit_dimension) == (best[0].dimension, best[0].orbit_dimension)
    assert len(rpt.kernel) == len(best[0].kernel)
    assert all(np.array_equal(a, b) for a, b in zip(rpt.kernel, best[0].kernel))
    assert np.array_equal(v, best[1])


# module -> (stabilizer dim, fixed subspace of the stabilizer's action,
# Killing [rank, nullity] of the stabilizer, forms [sym, alt, sample_rank])
SMALL_MODULES = {
    "spin5": (lambda f: spin_rep(QuadraticSpace(5), f), 6, 1, (3, 3), [0, 1, 4]),
    "vector5": (lambda f: vector_rep(QuadraticSpace(5), f), 6, 1, (6, 0), [1, 0, 5]),
    "half_spin6": (lambda f: half_spin_reps(QuadraticSpace(6), f)[0], 11, 1, (8, 3), [0, 0, 0]),
    "vector5+spin5": (
        lambda f: direct_sum([vector_rep(QuadraticSpace(5), f), spin_rep(QuadraticSpace(5), f)]),
        2,
        4,
        (0, 2),
        [1, 1, 5],
    ),
    "spin7|so5": (
        lambda f: restrict(spin_rep(QuadraticSpace(7), f), embed_subalgebra(QuadraticSpace(7), 5)),
        3,
        4,
        (3, 0),
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
    v = field.array([rng.randint(-9, 9) for _ in range(rep.dim)])
    r = stabilizer(rep, v)
    assert (r.dimension, r.orbit_dimension) == (stab_dim, rep.g - stab_dim)
    mats = kernel_action_matrices(r.kernel, rep)
    assert len(mats) == stab_dim
    assert not np.count_nonzero(field.matmul(mats, v[:, None]))
    assert len(fixed_space(field, mats)) == fixed_dim
    ss = subalgebra_structure_from_matrices(field, mats)
    assert (ss.killing_rank, ss.killing_nullity) == structure
    inv = invariant_bilinear_space(rep)
    assert [inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank] == forms
    # the re-check rejects a kernel vector that does not annihilate the point
    import spincert.orbits as orbits_mod

    first_generator = field.eye(rep.g)[:1]
    monkeypatch.setattr(orbits_mod, "kernel", lambda field, stack: [first_generator for _ in stack])
    with pytest.raises(AssertionError, match="does not annihilate"):
        stabilizer(rep, v)


def test_stabilizer_kernel_annihilates_exactly():
    rep = spin_rep(QuadraticSpace(7), F)
    v = RandomSource(0).child(0).scalars(F, 8)
    r = stabilizer(rep, v)
    for z in r.kernel:
        acting = np.tensordot(z, rep.tensor, axes=(0, 0)) % F.p
        assert not (acting @ np.asarray(v) % F.p).any()


def test_subalgebra_structure_g2_fingerprint():
    rep = spin_rep(QuadraticSpace(7), F)
    v = RandomSource(0).child(0).scalars(F, 8)
    r = stabilizer(rep, v)
    ss = subalgebra_structure_from_matrices(F, kernel_action_matrices(r.kernel, vector_rep(QuadraticSpace(7), F)))
    assert ss.dimension == 14
    assert ss.killing_rank == 14 and ss.killing_nullity == 0


def test_subalgebra_structure_spin10_radical():
    rep = half_spin_reps(QuadraticSpace(10), F)[0]
    v = RandomSource(0).child(0).scalars(F, 16)
    r = stabilizer(rep, v)
    assert r.dimension == 29
    ss = subalgebra_structure_from_matrices(F, kernel_action_matrices(r.kernel, vector_rep(QuadraticSpace(10), F)))
    assert ss.killing_rank == 21 and ss.killing_nullity == 8


def _structure_by_pairs(field, mats):
    """The pairwise loop the batched subalgebra_structure_from_matrices replaces:
    (structure constants, Killing matrix)."""
    k = len(mats)
    flats = np.stack([m.ravel() for m in mats], axis=1)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    c = field.zeros((k, k, k))

    def bracket(x, y):
        return field.reduce(field.matmul(x, y) - field.matmul(y, x))

    if pairs:
        targets = np.stack([bracket(mats[i], mats[j]).ravel() for i, j in pairs], axis=1)
        (coords,) = solve(field, flats[None], targets[None])
        for idx, (i, j) in enumerate(pairs):
            c[i, j] = coords[:, idx]
            c[j, i] = field.reduce(-coords[:, idx])
    ads = [np.ascontiguousarray(c[i].T) for i in range(k)]
    killing = field.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            killing[i, j] = killing[j, i] = field.reduce(np.trace(field.matmul(ads[i], ads[j])))
    return c, killing


def _stabilizer_mats(rep, v):
    space = QuadraticSpace(rep.n)
    return kernel_action_matrices(stabilizer(rep, v).kernel, vector_rep(space, rep.field))


def _spin7_stabilizer(field):
    return _stabilizer_mats(spin_rep(QuadraticSpace(7), field), RandomSource(0).child(0).scalars(field, 8))


def _spin10_stabilizer(field):
    # 1 + f2 f3 f4 f5 is not a pure spinor, so its stabilizer is the generic
    # one (dimension 29); its kernel has small entries, which keeps Q cheap
    v = np.zeros(16, dtype=np.int64)
    v[[0, 15]] = 1
    mats = _stabilizer_mats(half_spin_reps(QuadraticSpace(10), field)[0], v)
    assert len(mats) == 29
    return mats


def _spin14_stabilizer(field):
    # the generic stabilizer of half-spin(14) on V_14: k = 28, d = 14; over Q a
    # random point's kernel has entries so large that the loop takes minutes
    half = half_spin_reps(QuadraticSpace(14), field)[0]
    return _stabilizer_mats(half, RandomSource(0).child(0).scalars(field, half.dim))


STRUCTURE_BUILDS = {
    "g2-derivations": lambda f: derivation_algebra(f).tensor,
    "spin7-stabilizer": _spin7_stabilizer,
    "spin10-stabilizer": _spin10_stabilizer,
    "one-matrix": lambda f: f.array([[[0, 1], [-1, 0]]]),
    "spin14-stabilizer": _spin14_stabilizer,
}


@pytest.mark.parametrize(
    "name,field",
    [(name, field) for name in STRUCTURE_BUILDS for field in (F, QQ) if (name, field) != ("spin14-stabilizer", QQ)],
    ids=lambda x: x if isinstance(x, str) else repr(x),
)
def test_subalgebra_structure_matches_pairwise_loop(name, field):
    mats = STRUCTURE_BUILDS[name](field)
    c, killing = _structure_by_pairs(field, mats)
    ss = subalgebra_structure_from_matrices(field, mats)
    assert ss.dimension == len(mats)
    assert np.array_equal(ss.structure_constants, c)
    assert np.array_equal(ss.killing, killing)
    (killing_rank,) = rank(field, killing[None])
    assert ss.killing_rank == killing_rank and ss.killing_nullity == len(mats) - killing_rank


def test_closure_violation_on_non_closed_span():
    # opposite root vectors: their bracket is a Cartan combination, which
    # leaves the two-dimensional span
    rep = vector_rep(QuadraticSpace(7), F)
    z1 = np.zeros(21, dtype=np.int64)
    z2 = np.zeros(21, dtype=np.int64)
    z1[rep.basis_labels.index((0, 2))] = 1  # p1 p2
    z2[rep.basis_labels.index((1, 3))] = 1  # q1 q2
    with pytest.raises(ClosureViolation):
        subalgebra_structure_from_matrices(F, kernel_action_matrices([z1, z2], rep))


def test_stabilizer_kernels_bracket_closed():
    # subalgebra_structure_from_matrices succeeding is the closure certificate
    for n, build in ((7, spin_rep), (11, spin_rep)):
        rep = build(QuadraticSpace(n), F)
        v = RandomSource(3).child(0).scalars(F, rep.dim)
        r = stabilizer(rep, v)
        subalgebra_structure_from_matrices(F, kernel_action_matrices(r.kernel, vector_rep(QuadraticSpace(n), F)))


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
    assert inv.sample_rank == 8
    # the sample is genuinely invariant and symmetric, re-checked cold
    B = inv.sample
    assert np.array_equal(B, B.T)
    rep = spin_rep(QuadraticSpace(7), F)
    for m in rep.tensor:
        assert not np.count_nonzero(F.reduce(F.matmul(m.T, B) + F.matmul(B, m)))


def test_invariant_bilinear_spin5_symplectic():
    inv = invariant_bilinear_space(spin_rep(QuadraticSpace(5), F))
    assert (inv.symmetric_dim, inv.antisymmetric_dim) == (0, 1)
    assert inv.sample_rank == 4 and not np.array_equal(inv.sample, inv.sample.T)


def test_invariant_bilinear_open_orbit_controls():
    inv10 = invariant_bilinear_space(half_spin_reps(QuadraticSpace(10), F)[0])
    assert (inv10.symmetric_dim, inv10.antisymmetric_dim) == (0, 0)
    assert inv10.sample is None


def test_invariant_bilinear_vector_rep_is_gram_line():
    inv = invariant_bilinear_space(vector_rep(QuadraticSpace(7), F))
    assert (inv.symmetric_dim, inv.antisymmetric_dim) == (1, 0)
    assert inv.sample_rank == 7


def dense_bilinear_forms(rep):
    """The invariant forms from the full (d^2, c) constraint of every generator,
    one candidate column at a time: the reference for ``invariant_bilinear_space``.
    Returns (symmetric dim, alternating dim, sample, sample rank, sample symmetric)."""
    field, d = rep.field, rep.dim
    weights = [np.diagonal(m) for m in rep.tensor if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))]
    candidates = [
        (a, b) for a in range(d) for b in range(d) if all(field.reduce(w[a] + w[b]) == 0 for w in weights)
    ]
    if not candidates:
        return 0, 0, None, 0, None
    K = field.eye(len(candidates))
    for M in rep.tensor:
        img = field.zeros((d * d, len(candidates)))
        for j, (a, b) in enumerate(candidates):
            np.add.at(img[:, j], np.arange(d) * d + b, M[a, :])
            np.add.at(img[:, j], a * d + np.arange(d), M[b, :])
        (null,) = kernel(field, field.matmul(field.reduce(img), K)[None])
        if not len(null):
            return 0, 0, None, 0, None
        K = field.matmul(K, null.T)
    forms = field.zeros((K.shape[1], d, d))
    for j, (a, b) in enumerate(candidates):
        forms[:, a, b] = K[j]
    dims, samples = [], []
    for parts in (forms + forms.transpose(0, 2, 1), forms - forms.transpose(0, 2, 1)):
        flat = field.reduce(parts).reshape(len(forms), d * d)
        flat = flat[np.count_nonzero(flat, axis=1) > 0]
        dims.append(rank(field, flat[None])[0] if len(flat) else 0)
        samples += list(flat[:1])
    sample = samples[0].reshape(d, d)
    return dims[0], dims[1], sample, rank(field, sample[None])[0], bool(np.array_equal(sample, sample.T))


def _sheared_vector5(field):
    # vector(5) conjugated by I + E_01: a Cartan generator gains an off-diagonal
    # entry, so it is no diagonal member and cuts the candidates itself, and
    # weight-zero monomials meet diagonal coefficient sums such as 1 + (p - 1),
    # which vanish only mod p
    rep = vector_rep(QuadraticSpace(5), field)
    shear, unshear = np.eye(5, dtype=np.int64), np.eye(5, dtype=np.int64)
    shear[0, 1], unshear[0, 1] = 1, -1
    tensor = field.matmul(field.matmul(field.array(shear), rep.tensor), field.array(unshear))
    return LieRepresentation(5, field, "sheared vector(5)", rep.basis_labels, tensor)


FORM_MODULES = {
    "spin5": lambda f: spin_rep(QuadraticSpace(5), f),
    "spin7": lambda f: spin_rep(QuadraticSpace(7), f),
    "vector7": lambda f: vector_rep(QuadraticSpace(7), f),
    "half10": lambda f: half_spin_reps(QuadraticSpace(10), f)[0],
    "spin11|so10": lambda f: restrict(spin_rep(QuadraticSpace(11), f), embed_subalgebra(QuadraticSpace(11), 10)),
    "sheared-vector5": _sheared_vector5,
    "g2-trace-zero": derivation_algebra,
}


@pytest.mark.parametrize("field", [F, GF(7), QQ], ids=["GF(1000003)", "GF(7)", "QQ"])
@pytest.mark.parametrize("name", list(FORM_MODULES))
def test_invariant_bilinear_matches_dense_constraints(name, field):
    inv = invariant_bilinear_space(FORM_MODULES[name](field))
    sym, alt, sample, sample_rank, sample_sym = dense_bilinear_forms(FORM_MODULES[name](field))
    assert (inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank) == (sym, alt, sample_rank)
    assert (inv.sample is None) == (sample is None)
    if sample is not None:
        assert np.array_equal(inv.sample, inv.sample.T) == sample_sym
        assert inv.sample.dtype == sample.dtype and np.array_equal(inv.sample, sample)


def forms_by_dense_images(rep):
    """Invariant forms from a dense (d^2, c) image of the c weight-zero units E_ab
    per generator, diagonal ones included, its nonzero rows eliminated.
    Returns (symmetric dim, alternating dim, sample, sample rank)."""
    field, d = rep.field, rep.dim
    keep = np.ones((d, d), dtype=bool)
    for m in rep.tensor:
        if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
            w = np.diagonal(m)
            keep &= field.reduce(w[:, None] + w[None, :]) == 0
    a, b = np.nonzero(keep)
    K = field.eye(len(a))
    x, j = np.arange(d)[:, None], np.arange(len(a))
    for M in rep.tensor:
        # (M^T E_ab + E_ab M)[x, y] = M[a, x] [y == b] + [x == a] M[b, y]
        img = field.zeros((d * d, len(a)))
        img[x * d + b, j] = M[a].T
        img[a * d + x, j] += M[b].T
        # reduce the rows some candidate reaches, then drop those that cancel mod p
        img = field.reduce(img[np.count_nonzero(img, axis=1) > 0])
        (null,) = kernel(field, field.matmul(img[np.count_nonzero(img, axis=1) > 0], K)[None])
        K = field.matmul(K, null.T)
    forms = field.zeros((K.shape[1], d, d))
    forms[:, a, b] = K.T
    sym, alt = (field.reduce(forms + sign * forms.transpose(0, 2, 1)).reshape(len(forms), -1) for sign in (1, -1))
    parts = np.concatenate([sym, alt])
    sample = parts[np.count_nonzero(parts, axis=1) > 0][0].reshape(d, d)
    return rank(field, sym[None])[0], rank(field, alt[None])[0], sample, rank(field, sample[None])[0]


@pytest.mark.parametrize("n", [5, 7, 13])
def test_invariant_bilinear_matches_dense_images(n):
    rep = spin_rep(QuadraticSpace(n), F)
    sym, alt, sample, sample_rank = forms_by_dense_images(rep)
    inv = invariant_bilinear_space(rep)
    assert (inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank) == (sym, alt, sample_rank)
    assert np.array_equal(inv.sample, sample)


# the spinor modules still to be certified: a symmetric form on half-spin(8)
# and spin(9), an alternating one on half-spin(12) and spin(13)
SPINOR_ROW_FORMS = {
    "half8": (lambda f: half_spin_reps(QuadraticSpace(8), f)[0], [1, 0]),
    "spin9": (lambda f: spin_rep(QuadraticSpace(9), f), [1, 0]),
    "half12": (lambda f: half_spin_reps(QuadraticSpace(12), f)[0], [0, 1]),
    "spin13": (lambda f: spin_rep(QuadraticSpace(13), f), [0, 1]),
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", list(SPINOR_ROW_FORMS))
def test_invariant_bilinear_new_spinor_rows(name, p):
    build, forms = SPINOR_ROW_FORMS[name]
    rep = build(GF(p))
    inv = invariant_bilinear_space(rep)
    assert [inv.symmetric_dim, inv.antisymmetric_dim] == forms
    # nondegenerate, as a nonzero invariant form on an irreducible module must be
    assert inv.sample_rank == rep.dim


def test_fixed_subspace_examples():
    rep = spin_rep(QuadraticSpace(7), F)
    v = RandomSource(0).child(0).scalars(F, 8)
    r = stabilizer(rep, v)
    mats = kernel_action_matrices(r.kernel, rep)
    basis = fixed_space(F, mats)
    assert len(basis) == 1
    assert rank(F, np.stack([basis[0], v])[None]) == [1]  # the fixed line is the point's line
    assert len(fixed_space(F, rep.tensor)) == 0  # irreducibility control


@pytest.mark.parametrize("p", PRIMES)
def test_hom_spaces_under_the_generic_stabilizer(p):
    # Hom_H(A, B) is hom_space(f, B's matrices, A's matrices), H the generic
    # stabilizer of the row's module at seed 0 and 3 trials, as the suites draw it
    f = GF(p)

    def generic_action(rep, dim):
        r, _ = min_trial_stabilizer(rep, 3, 0)
        assert r.dimension == dim
        return lambda module: kernel_action_matrices(r.kernel, module)

    # spin7: H = g2 splits spin as 1 + 7, the 7 being V_7, so V_7 maps into spin once
    space = QuadraticSpace(7)
    spin = spin_rep(space, f)
    on = generic_action(spin, 14)
    assert len(hom_space(f, on(spin), on(vector_rep(space, f)))) == 1
    # half-spin(8) on S+: H = spin7 acts on V_8 and on S- as its 8-dim spin module
    # (triality), so Hom_H(V_8, S-) = 1, and on S+ as 1 + 7, so Hom_H(V_8, S+) = 0
    space = QuadraticSpace(8)
    plus, minus = half_spin_reps(space, f)
    on = generic_action(plus, 21)
    on_vector = on(vector_rep(space, f))
    assert len(hom_space(f, on(minus), on_vector)) == 1
    assert len(hom_space(f, on(plus), on_vector)) == 0


def test_isotypic_fingerprint_restricted_so5():
    space = QuadraticSpace(10)
    emb = embed_subalgebra(space, 5)
    res = restrict(half_spin_reps(space, F)[0], emb)
    assert (associative_closure(F, res.tensor), commutant_dimension(F, res.tensor)) == (16, 16)


def test_isotypic_fingerprint_spin11_natural_module():
    # The generic stabilizer is sl(5) in so(10) in so(11), so V11 splits as
    # 5 + dual(5) + 1: closure 25 + 25 + 1 = 51 and three inequivalent simple
    # summands, hence commutant 3.  An irreducible 10 + 1 would give closure
    # 101, and as an orthogonal module it would carry no alternating
    # invariant form.  The pairing of 5 with dual(5) gives one symmetric and
    # one alternating form; the trivial line adds a second symmetric form.
    rep = spin_rep(QuadraticSpace(11), F)
    v = RandomSource(0).child(0).scalars(F, 32)
    r = stabilizer(rep, v)
    mats = kernel_action_matrices(r.kernel, vector_rep(QuadraticSpace(11), F))
    assert (associative_closure(F, mats), commutant_dimension(F, mats)) == (51, 3)
    assert len(fixed_space(F, mats)) == 1
    on_v11 = LieRepresentation(11, F, "stabilizer on vector(11)", tuple((k,) for k in range(len(mats))), mats)
    forms = invariant_bilinear_space(on_v11)
    assert (forms.symmetric_dim, forms.antisymmetric_dim) == (2, 1)


def test_scaling_extension_invariant():
    # appending the scaling generator: stabilizer stays 8 for the derivation
    # action on one octonion copy (radial line joins the orbit image); the
    # spin14 variant is exercised in the suites
    from spincert.octonion import anisotropic

    for p in PRIMES:
        field = GF(p)
        g2 = derivation_algebra(field)
        rpt, v = min_trial_stabilizer(g2, 3, 0, witness=lambda x: anisotropic(field, x))
        assert rpt.dimension == stabilizer(g2.with_scaling(), v).dimension == 8


def test_quartic_invariants_vector7():
    # q^2 spans the degree-4 invariants of the quadratic form
    assert invariant_quartic_dim(vector_rep(QuadraticSpace(7), F)) == 1


def test_quartic_invariants_spin11():
    assert invariant_quartic_dim(spin_rep(QuadraticSpace(11), F)) == 1


def _quartic_by_dicts(rep):
    """The dict loop the batched invariant_quartic_dim replaces, for the
    default budgets."""
    field, d, p = rep.field, rep.dim, rep.field.p
    diags = [kk for kk, m in enumerate(rep.tensor) if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))]
    weights = [np.diagonal(rep.tensor[kk]) for kk in diags]
    candidates = [
        (i, j, k, l)
        for i in range(d)
        for j in range(i, d)
        for k in range(j, d)
        for l in range(k, d)
        if not any((int(w[i]) + int(w[j]) + int(w[k]) + int(w[l])) % p for w in weights)
    ]
    if not candidates:
        return 0
    K = field.eye(len(candidates))
    for kk in range(rep.g):
        if kk in diags:
            continue
        M = rep.tensor[kk]
        rows_index, entries = {}, []
        for j, mono in enumerate(candidates):
            acc = {}
            for pos in range(4):
                for b in range(d):
                    coeff = int(M[mono[pos], b])
                    if coeff:
                        new = list(mono)
                        new[pos] = b
                        key = tuple(sorted(new))
                        acc[key] = (acc.get(key, 0) + coeff) % p
            for key, coeff in acc.items():
                if coeff:
                    entries.append((rows_index.setdefault(key, len(rows_index)), j, coeff))
        img = np.zeros((len(rows_index), len(candidates)), dtype=np.int64)
        for r, j, coeff in entries:
            img[r, j] = coeff
        (null,) = kernel(field, field.matmul(img, K)[None])
        if not len(null):
            return 0
        K = field.matmul(K, null.T)
    return K.shape[1]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda f: vector_rep(QuadraticSpace(5), f), id="vector5"),
        pytest.param(lambda f: vector_rep(QuadraticSpace(7), f), id="vector7"),
        pytest.param(lambda f: spin_rep(QuadraticSpace(7), f), id="spin7"),
        pytest.param(lambda f: half_spin_reps(QuadraticSpace(8), f)[0], id="half-spin8"),
        pytest.param(lambda f: spin_rep(QuadraticSpace(11), f), id="spin11"),
        pytest.param(_sheared_vector5, id="sheared-vector5"),
    ],
)
def test_quartic_matches_dict_loop(build, p, monkeypatch):
    rep = build(GF(p))
    # the left operands of every product: each image before it meets K, then K
    seen = []
    product = PrimeField.matmul
    monkeypatch.setattr(PrimeField, "matmul", lambda self, a, b: seen.append(a.copy()) or product(self, a, b))
    want = _quartic_by_dicts(rep)
    want_operands = seen[:]
    seen.clear()
    assert invariant_quartic_dim(rep) == want
    # the images are the dict loop's, entries and row order included
    assert len(seen) == len(want_operands)
    assert all(np.array_equal(x, y) for x, y in zip(seen, want_operands))


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


def test_invariant_row_budget_fires_before_the_candidate_identity(monkeypatch):
    # K starts as the c x c identity; with c * c over the row budget the
    # computation aborts before allocating it (spin(11)'s quartic has c = 336)
    import spincert.orbits as orbits_mod

    rep = spin_rep(QuadraticSpace(11), F)
    sizes, real_eye = [], PrimeField.eye
    monkeypatch.setattr(orbits_mod, "_QUARTIC_MAX_ROWS", 1_000)
    monkeypatch.setattr(PrimeField, "eye", lambda self, n: sizes.append(n) or real_eye(self, n))
    with pytest.raises(Aborted, match="row budget"):
        invariant_quartic_dim(rep)
    assert [n for n in sizes if n * n > 1_000 * 8] == []


def test_invariant_row_budget_fires_inside_the_cut_loop(monkeypatch):
    # the weights of h leave c = 2 candidate forms, E_01 and E_10, and the dense
    # member's image of them has t > c rows, so a budget between c * c and t * c
    # passes the up-front check and aborts in the cut loop
    import spincert.orbits as orbits_mod

    h, dense = F.array(np.diag([1, -1, 2, 5])), F.array(np.arange(1, 17).reshape(4, 4))
    rep = LieRepresentation(4, F, "diagonal and dense", (("h",), ("dense",)), np.stack([h, dense]))
    assert invariant_bilinear_space(rep).symmetric_dim == 0
    rows = []
    monkeypatch.setattr(orbits_mod, "kernel", lambda field, stack: rows.append(stack.shape[1]) or kernel(field, stack))
    invariant_bilinear_space(rep)
    sizes, real_eye = [], PrimeField.eye
    monkeypatch.setattr(PrimeField, "eye", lambda self, n: sizes.append(n) or real_eye(self, n))
    monkeypatch.setattr(orbits_mod, "_QUARTIC_MAX_ROWS", 1)
    c, budget = 2, 1 * 8
    assert c * c <= budget < rows[0] * c
    with pytest.raises(Aborted, match="row budget"):
        invariant_bilinear_space(rep)
    assert sizes[0] == 2  # K = I_2 was allocated: the up-front check passed


def test_subalgebra_structure_rejects_dependent_basis():
    rep = vector_rep(QuadraticSpace(5), F)
    z = np.zeros(10, dtype=np.int64)
    z[0] = 1
    z2 = (2 * z) % F.p
    with pytest.raises(ValueError):
        subalgebra_structure_from_matrices(F, kernel_action_matrices([z, z2], rep))
