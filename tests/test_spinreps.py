import dataclasses
import math
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from test_clifford import CliffordElement, bivector_basis, bracket_row, commutator, table_of, two_b

from spincert import spinreps
from spincert.clifford import QuadraticSpace, SoStructure, so_dim, so_pairs, so_structure_constants
from spincert.fields import GF, QQ, PrimeField, RandomSource
from spincert.linalg import kernel, rank, rref
from spincert.spinreps import (
    LieRepresentation,
    center_acts_minus_one,
    direct_sum,
    embed_subalgebra,
    half_spin_reps,
    parity_indices,
    restrict,
    spin_rep,
    vector_rep,
    verify_lie_homomorphism,
)

F = GF(1_000_003)


@cache
def fock_generator_matrices(n):
    """Action of each generator e_g on the Fock basis, as 0/+-1 int matrices:
    the dense form of ``spinreps._fock_rows``."""
    rows, signs = spinreps._fock_rows(n)
    out = np.zeros((n, rows.shape[1], rows.shape[1]), dtype=np.int64)
    out[np.arange(n)[:, None], rows, np.arange(rows.shape[1])] = signs
    return tuple(out)


def inverse(field, m):
    """Reference inverse of a regular matrix, read off the rref of [A | I]."""
    n = len(m)
    ((red, _),) = rref(field, np.hstack([m, field.eye(n)])[None])
    return red[:, n:]


def gram_matrix(space, field):
    """The polarization B, read off the integer 2B table."""
    n = space.n
    return field.array([[Fraction(two_b(space, i, j), 2) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [4, 5, 7, 10])
def test_vector_rep_is_b_skew(n):
    space = QuadraticSpace(n)
    g = gram_matrix(space, QQ)
    rep = vector_rep(space, QQ)
    for m in rep.tensor:
        assert not np.count_nonzero(QQ.matmul(m.T, g) + QQ.matmul(g, m))


def test_vector_rep_cartan_is_diagonal_with_opposite_signs():
    # the hyperbolic-pair bivector acts diagonally on its own pair, zero elsewhere
    space = QuadraticSpace(4)
    rep = vector_rep(space, QQ)
    k = rep.basis_labels.index((0, 1))
    m = rep.tensor[k]
    assert m[0, 0] == -m[1, 1] and m[0, 0] != 0
    off = [(i, j) for i in range(4) for j in range(4) if i != j]
    assert all(m[i, j] == 0 for i, j in off)
    assert m[2, 2] == m[3, 3] == 0


def test_vector_rep_matches_clifford_commutator():
    # columns of the built matrices equal [m_ab, e_c] computed inside the oracle Cl(n)
    space = QuadraticSpace(5)
    rep = vector_rep(space, QQ)
    bivs = bivector_basis(space, QQ)
    for k in range(rep.g):
        for c in range(space.n):
            comm = commutator(bivs[k], CliffordElement.generator(space, QQ, c))
            assert comm.grades() <= {1}
            assert list(rep.tensor[k][:, c]) == comm.vector_coords()


@pytest.mark.parametrize("n,d", [(5, 4), (7, 8), (10, 32), (11, 32)])
def test_spin_dimension(n, d):
    assert spin_rep(QuadraticSpace(n), F).dim == d


def test_fock_creation_annihilation_relations():
    # E_i I_i + I_i E_i = Id and the full Clifford relations through the module
    space = QuadraticSpace(7)
    gens = fock_generator_matrices(7)
    d = gens[0].shape[0]
    for i in range(3):
        e, q = gens[2 * i], gens[2 * i + 1]
        assert np.array_equal(e @ q + q @ e, np.eye(d, dtype=np.int64))
    for i in range(7):
        for j in range(7):
            got = gens[i] @ gens[j] + gens[j] @ gens[i]
            assert np.array_equal(got, two_b(space, i, j) * np.eye(d, dtype=np.int64))


@pytest.mark.parametrize("n", range(3, 15))
def test_spin_x4_matches_dense_products(n):
    # the entries composed from signed rows, scattered, against one dense product per pair
    space = QuadraticSpace(n)
    gens = fock_generator_matrices(n)
    eye = np.eye(gens[0].shape[0], dtype=np.int64)
    want = np.stack([2 * (gens[a] @ gens[b]) - two_b(space, a, b) * eye for a, b in so_pairs(space)])
    k, r, c, v = spinreps._spin_x4(n)
    got = np.zeros_like(want)
    got[k, r, c] = v
    assert v.dtype == np.int64 and np.array_equal(got, want)
    # every nonzero once, in C order
    assert np.array_equal(np.ravel_multi_index((k, r, c), want.shape), np.flatnonzero(want))


def test_spin_rep_lie_homomorphism_small():
    for n in (5, 7):
        space = QuadraticSpace(n)
        struct = so_structure_constants(space, F)
        assert verify_lie_homomorphism(spin_rep(space, F), struct)
        assert verify_lie_homomorphism(vector_rep(space, F), struct)


def test_lie_homomorphism_over_qq():
    space = QuadraticSpace(5)
    struct = so_structure_constants(space, QQ)
    assert verify_lie_homomorphism(spin_rep(space, QQ), struct)
    assert verify_lie_homomorphism(vector_rep(space, QQ), struct)


@pytest.mark.parametrize("n", range(3, 15))
def test_every_standard_module_is_a_lie_homomorphism(n):
    space = QuadraticSpace(n)
    struct = so_structure_constants(space, F)
    halves = half_spin_reps(space, F) if n % 2 == 0 else ()
    for rep in (vector_rep(space, F), spin_rep(space, F), *halves):
        assert verify_lie_homomorphism(rep, struct), rep.name


def test_lie_check_refuses_mismatched_inputs():
    space5, space7 = QuadraticSpace(5), QuadraticSpace(7)
    spin7 = spin_rep(space7, F)
    for field in (GF(999_983), QQ):
        with pytest.raises(ValueError, match="different fields"):
            verify_lie_homomorphism(spin7, so_structure_constants(space7, field))
    # so(5) = sp(4), but constants in the bivector basis do not describe another basis
    spin5 = spin_rep(space5, F)
    relabelled = dataclasses.replace(spin5, basis_labels=tuple(("sp4", k) for k in range(10)))
    for rep, space in ((relabelled, space5), (spin5, space7), (spin7.with_scaling(), space7)):
        with pytest.raises(ValueError, match="bivector basis"):
            verify_lie_homomorphism(rep, so_structure_constants(space, F))


def test_spin14_construction_allocates_only_its_field_tensors():
    # building from entries: the peak is the three field tensors, not a dense integer copy beside them
    for cached in (spinreps._fock_rows, spinreps._spin_x4, spin_rep, half_spin_reps):
        cached.cache_clear()
    space = QuadraticSpace(14)
    tracemalloc.start()
    try:
        reps = [spin_rep(space, F), *half_spin_reps(space, F)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(rep.tensor.nbytes for rep in reps)


def test_half_spin_blocks():
    space = QuadraticSpace(10)
    even, odd = half_spin_reps(space, F)
    assert even.dim == odd.dim == 16
    assert even.g == odd.g == 45
    struct = so_structure_constants(space, F)
    assert verify_lie_homomorphism(even, struct)
    assert verify_lie_homomorphism(odd, struct)
    with pytest.raises(ValueError):
        half_spin_reps(QuadraticSpace(7), F)


def test_direct_sum_blocks():
    space = QuadraticSpace(5)
    rep = direct_sum([vector_rep(space, F), spin_rep(space, F)])
    assert rep.dim == 9
    k = 0
    assert not rep.tensor[k][:5, 5:].any() and not rep.tensor[k][5:, :5].any()
    struct = so_structure_constants(space, F)
    assert verify_lie_homomorphism(rep, struct)


def test_with_scaling_appends_identity():
    rep = vector_rep(QuadraticSpace(5), F).with_scaling()
    assert rep.g == 11
    assert np.array_equal(rep.tensor[-1], np.eye(5, dtype=np.int64))
    assert rep.basis_labels[-1] == ("scale",)


def test_embedding_drop_u():
    # so(10) inside so(11) keeps exactly the bivectors avoiding u
    space = QuadraticSpace(11)
    emb = embed_subalgebra(space, 10)
    rows, cols = np.nonzero(emb.pair_map)
    assert emb.pair_map.shape == (45, 55) and rows.tolist() == list(range(45))
    assert (emb.pair_map[rows, cols] == 1).all()
    assert [so_pairs(space)[c] for c in cols] == list(so_pairs(QuadraticSpace(10)))


def test_pair_map_rejects_vectors_breaking_the_split_form():
    space = QuadraticSpace(7)
    doubled = np.array(embed_subalgebra(space, 5).gen_vectors)
    doubled[0] *= 2  # 2B(2 p_1, q_1) = 2, not 1
    isotropic = np.eye(7, dtype=np.int64)[:5]  # p_3 in place of a unit vector
    for vectors in (doubled, isotropic):
        with pytest.raises(ValueError, match="split sub form"):
            spinreps._pair_map(space, vectors)


def test_embedding_fold_last_pair():
    space = QuadraticSpace(10)
    emb = embed_subalgebra(space, 5)
    assert emb.gen_vectors[4] == (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
    assert len(emb.gen_vectors) == 5
    assert len(emb.pair_map) == 10
    # eq and hash read the vectors, not the pair-map array
    assert emb == embed_subalgebra(space, 5) and hash(emb) == hash(embed_subalgebra(space, 5))


def test_embedded_images_satisfy_sub_structure_constants():
    space = QuadraticSpace(10)
    emb = embed_subalgebra(space, 5)
    res = restrict(vector_rep(space, F), emb)
    struct5 = so_structure_constants(QuadraticSpace(5), F)
    assert verify_lie_homomorphism(res, struct5)
    res_spin = restrict(half_spin_reps(space, F)[0], emb)
    assert verify_lie_homomorphism(res_spin, struct5)


def test_restrict_spin11_to_so10_parity_blocks():
    space = QuadraticSpace(11)
    emb = embed_subalgebra(space, 10)
    res = restrict(spin_rep(space, F), emb)
    even, odd = parity_indices(11)
    assert len(even) == len(odd) == 16
    for k in range(res.g):
        assert not res.tensor[k][np.ix_(even, odd)].any()
        assert not res.tensor[k][np.ix_(odd, even)].any()


def test_restrict_vector11_to_so10_fixes_u():
    space = QuadraticSpace(11)
    emb = embed_subalgebra(space, 10)
    res = restrict(vector_rep(space, F), emb)
    (basis,) = kernel(F, res.tensor.reshape(1, -1, res.dim))
    assert len(basis) == 1
    v = basis[0]
    assert v[10] != 0 and not v[:10].any()


@pytest.mark.parametrize("n", range(3, 15))
def test_center_acts_minus_one_spin(n):
    space = QuadraticSpace(n)
    halves = half_spin_reps(space, F) if n % 2 == 0 else ()
    assert all(center_acts_minus_one(rep) is True for rep in (spin_rep(space, F), *halves))
    assert center_acts_minus_one(vector_rep(space, F)) is False


def test_center_acts_minus_one_half_spin():
    space = QuadraticSpace(10)
    even, odd = half_spin_reps(space, F)
    assert center_acts_minus_one(even) is True
    assert center_acts_minus_one(odd) is True
    # h1 = diag(1, -1, 0, ...) on vectors: the kernel of Spin_n -> SO_n acts trivially
    assert center_acts_minus_one(vector_rep(space, F)) is False


def test_center_acts_minus_one_reads_the_module():
    # the check reads h1 on whatever module it is given, cached or not
    space7 = QuadraticSpace(7)
    spin7 = spin_rep(space7, F)
    assert center_acts_minus_one(direct_sum([spin7, spin7])) is True
    copy = LieRepresentation(7, F, spin7.name, spin7.basis_labels, spin7.tensor)
    assert center_acts_minus_one(copy) is True
    # h1 with entries +-1 makes exp(2 pi i h1) the identity
    doubled = spin7.tensor.copy()
    doubled[0] = F.reduce(2 * doubled[0])
    assert center_acts_minus_one(LieRepresentation(7, F, "doubled", spin7.basis_labels, doubled)) is False


def _g2_on_octonions():
    from spincert.octonion import derivation_algebra

    return derivation_algebra(F)


def test_center_check_refuses_modules_of_another_algebra():
    # g2's first derivation is not h1, although the module has n = 7
    g2 = _g2_on_octonions()
    assert g2.n == 7
    with pytest.raises(ValueError, match="bivector basis"):
        center_acts_minus_one(g2)


@pytest.mark.parametrize(
    "module",
    [_g2_on_octonions, lambda: vector_rep(QuadraticSpace(7), F).with_scaling()],
    ids=["g2", "scaled-vector7"],
)
def test_restrict_refuses_modules_not_labeled_by_so_pairs(module):
    with pytest.raises(ValueError, match="bivector basis"):
        restrict(module(), embed_subalgebra(QuadraticSpace(7), 5))


def test_minus_one_conjugation_fixes_vectors():
    # (-1) v (-1)^{-1} = v inside the oracle Clifford algebra
    space = QuadraticSpace(10)
    minus = CliffordElement.scalar(space, QQ, -1)
    for g in range(space.n):
        v = CliffordElement.generator(space, QQ, g)
        assert minus * v * minus == v


def fock_action(elem):
    """Matrix of an oracle Clifford element on the Fock space, blade by blade."""
    gens = fock_generator_matrices(elem.space.n)
    d = gens[0].shape[0]
    acc = np.zeros((d, d), dtype=object)
    for mask, coeff in elem.coeffs.items():
        part = np.eye(d, dtype=np.int64)
        for g in range(elem.space.n):
            if mask >> g & 1:
                part = part @ gens[g]
        acc = acc + coeff * part
    return elem.field.array(acc)


def test_fock_element_action_respects_products():
    # the Fock generators make the Fock space a Cl(n)-module: products act as products
    space = QuadraticSpace(7)
    a = CliffordElement.generator(space, F, 0) * CliffordElement.generator(space, F, 3)
    b = CliffordElement.generator(space, F, 1) + CliffordElement.generator(space, F, 6).scale(5)
    assert np.array_equal(fock_action(a * b), F.matmul(fock_action(a), fock_action(b)))
    for x, y in ((a, b), (b, a), (bivector_basis(space, F)[4], b)):
        assert np.array_equal(fock_action(x * y), F.matmul(fock_action(x), fock_action(y)))


# -- the sparse Lie-homomorphism check against the definition ------------------


def dense_homomorphism(rep, struct):
    """[T_i, T_j] == sum c T_k for every i != j, by dense products.

    Entries become Python ints (over Q after clearing denominators), so the
    products are exact whatever their size.
    """
    p = rep.field.p if isinstance(rep.field, PrimeField) else None
    if p:
        scale = 1
        T = rep.tensor.astype(object)
    else:
        scale = math.lcm(*(x.denominator for x in rep.tensor.reshape(-1)))
        T = np.vectorize(lambda x: int(x * scale), otypes=[object])(rep.tensor)
    prods = np.matmul(T[:, None], T[None, :])  # scale**2 * T_i T_j
    table = table_of(struct)
    for i in range(rep.g):
        for j in range(rep.g):
            if i == j:
                continue
            diff = prods[i, j] - prods[j, i]
            for k, c in bracket_row(table, struct.field, i, j):
                diff = diff - scale * c * T[k]
            if any(x % p if p else x for x in diff.reshape(-1)):
                return False
    return True


def conjugated(rep, seed=7):
    """rep conjugated by a random invertible matrix: the same Lie map, dense."""
    rng = RandomSource(seed)
    while True:
        P = rng.scalars(rep.field, rep.dim * rep.dim).reshape(rep.dim, rep.dim)
        if rank(rep.field, P[None]) == [rep.dim]:
            break
    mats = rep.field.matmul(rep.field.matmul(P, rep.tensor), inverse(rep.field, P))
    return LieRepresentation(rep.n, rep.field, f"conj({rep.name})", rep.basis_labels, mats)


def _standard(n, kind):
    def build(field):
        space = QuadraticSpace(n)
        if kind == "vector":
            rep = vector_rep(space, field)
        elif kind == "spin":
            rep = spin_rep(space, field)
        else:
            rep = half_spin_reps(space, field)[kind == "half_odd"]
        return rep, so_structure_constants(space, field)

    return build


def _direct_sum(field):
    space = QuadraticSpace(6)
    rep = direct_sum([vector_rep(space, field), spin_rep(space, field)])
    return rep, so_structure_constants(space, field)


def _restricted(field):
    space = QuadraticSpace(8)
    rep = restrict(spin_rep(space, field), embed_subalgebra(space, 5))
    return rep, so_structure_constants(QuadraticSpace(5), field)


def _conjugated_spin7(field):
    space = QuadraticSpace(7)
    return conjugated(spin_rep(space, field)), so_structure_constants(space, field)


HOMOMORPHISM_CASES = {
    **{f"{kind}{n}": _standard(n, kind) for n in range(5, 9) for kind in ("vector", "spin")},
    **{f"{kind}{n}": _standard(n, kind) for n in (6, 8) for kind in ("half_even", "half_odd")},
    "direct_sum6": _direct_sum,
    "restrict8to5": _restricted,
    "conjugated_spin7": _conjugated_spin7,
}
FIELDS = {"GF": F, "QQ": QQ}


@pytest.mark.parametrize("case", sorted(HOMOMORPHISM_CASES))
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_sparse_check_matches_definition(fname, case):
    rep, struct = HOMOMORPHISM_CASES[case](FIELDS[fname])
    assert dense_homomorphism(rep, struct)
    assert verify_lie_homomorphism(rep, struct)


def _set_entry(rep, struct, where, change):
    """rep with the entry at ``where(T)`` replaced by ``change(old value)``."""
    T = rep.tensor.copy()
    idx = where(T)
    T[idx] = change(T[idx])
    if isinstance(rep.field, PrimeField):
        T %= rep.field.p
    return LieRepresentation(rep.n, rep.field, rep.name, rep.basis_labels, T), struct


def _nonzero_of(k):
    """First nonzero entry of generator k."""
    return lambda T: (k % len(T), *np.argwhere(T[k] != 0)[0])


def _perturb_structure(rep, struct, last=False):
    """One coefficient of the first nonzero bracket, or of the last nonzero one with the last generator."""
    table = table_of(struct)
    keys = [key for key, row in table.items() if row and (not last or key[1] == so_dim(struct.space) - 1)]
    key = keys[-1] if last else keys[0]
    # the entries are sorted by (i, j, k), so the bracket's first term is the first entry of its pair
    t = np.flatnonzero((struct.i == key[0]) & (struct.j == key[1]))[0]
    coeff = struct.coeff.copy()
    coeff[t] = struct.field.reduce(coeff[t] + 1)
    return rep, SoStructure(struct.space, struct.field, struct.i, struct.j, struct.k, coeff)


def _swap_basis(rep, struct):
    T = rep.tensor.copy()
    T[[0, 1]] = T[[1, 0]]
    return LieRepresentation(rep.n, rep.field, rep.name, rep.basis_labels, T), struct


MUTANTS = {
    "perturbed_entry": lambda rep, struct: _set_entry(rep, struct, _nonzero_of(0), lambda x: x + 1),
    # the last generator is never a left factor, only a right one
    "perturbed_last_entry": lambda rep, struct: _set_entry(rep, struct, _nonzero_of(-1), lambda x: x + 1),
    "dropped_entry": lambda rep, struct: _set_entry(rep, struct, _nonzero_of(0), lambda x: 0 * x),
    "filled_entry": lambda rep, struct: _set_entry(rep, struct, lambda T: tuple(np.argwhere(T == 0)[0]), lambda x: x + 1),
    "structure_coefficient": _perturb_structure,
    "structure_coefficient_last": lambda rep, struct: _perturb_structure(rep, struct, last=True),
    "swapped_basis": _swap_basis,
}


# the conjugated representation has no zero entry to fill
MUTANT_CASES = [
    (case, mutant)
    for case in ("spin7", "conjugated_spin7")
    for mutant in sorted(MUTANTS)
    if (case, mutant) != ("conjugated_spin7", "filled_entry")
]


@pytest.mark.parametrize("case,mutant", MUTANT_CASES)
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_sparse_check_rejects_mutants(fname, case, mutant):
    rep, struct = MUTANTS[mutant](*HOMOMORPHISM_CASES[case](FIELDS[fname]))
    assert not dense_homomorphism(rep, struct)
    assert not verify_lie_homomorphism(rep, struct)


def join_sizes(rep, struct):
    """Entries the three joins of each left generator produce, counted densely."""
    nz = rep.tensor != 0
    per_row, per_col = nz.sum(axis=2), nz.sum(axis=1)  # (g, d) entries per row and per column
    sizes = []
    for i in range(rep.g):
        right = slice(i + 1, rep.g)
        # T_i T_j: the entries in column c of T_i meet those in row c of T_j; T_j T_i the other way
        size = (per_col[i] * per_row[right].sum(axis=0)).sum() + (per_row[i] * per_col[right].sum(axis=0)).sum()
        sizes.append(size + sum(nz[k].sum() for k in struct.k[struct.i == i]))
    return np.array(sizes)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_sparse_check_block_boundaries(fname, monkeypatch):
    rep, struct = _conjugated_spin7(FIELDS[fname])
    sizes = join_sizes(rep, struct)
    expand, joins = spinreps._expand_ranges, []

    def spy(lo, hi):
        joins.append(int((hi - lo).sum()))
        return expand(lo, hi)

    monkeypatch.setattr(spinreps, "_expand_ranges", spy)
    assert verify_lie_homomorphism(rep, struct)
    # a row join, a column join and the structure terms per block: blocks of
    # 1, 2, 4, 8 and the last 6 left generators, each joining what the dense count says
    blocks = [(0, 1), (1, 3), (3, 7), (7, 15), (15, 21)]
    assert [sum(joins[3 * b : 3 * b + 3]) for b in range(len(joins) // 3)] == [sizes[i0:i1].sum() for i0, i1 in blocks]
    assert sum(joins) == sizes.sum()
    for name, mutant in MUTANTS.items():
        if name != "filled_entry":
            assert not verify_lie_homomorphism(*mutant(rep, struct))


def test_sparse_check_at_largest_prime():
    field = GF(2_147_483_647)
    space = QuadraticSpace(7)
    struct = so_structure_constants(space, field)
    assert verify_lie_homomorphism(spin_rep(space, field), struct)
    assert verify_lie_homomorphism(conjugated(spin_rep(space, field)), struct)
    assert not verify_lie_homomorphism(*_perturb_structure(spin_rep(space, field), struct))
