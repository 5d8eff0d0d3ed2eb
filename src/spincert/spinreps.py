"""Vector, spin and half-spin representations of so(n) as explicit matrices.

The spin module is the Fock space Lambda(span(f_1..f_m)) with basis indexed
by subsets of {1..m}: p_i acts by exterior multiplication with f_i, q_i by
the dual contraction, and the odd unit vector u by the parity involution.
Each generator is a signed partial permutation of that basis, set by bit
arithmetic.  Substituting these generator actions into
m_ab = (e_a e_b - e_b e_a)/4 gives the so(n) matrices; the same bivectors act
on the generator basis itself for the vector representation.

Every constructed matrix has entries in Z/4 (quarter-integers), so the
integer quadruple of each family is built once per n, as the list of its
nonzero entries (k, r, c, v) in C order, and only those entries are reduced
into whatever field a caller asks for; no dense integer tensor is formed.
A subalgebra embedding is an integer matrix, and restricting a
module is one product with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache

import numpy as np

from .clifford import QuadraticSpace, so_dim, so_pairs

__all__ = [
    "LieRepresentation",
    "vector_rep",
    "spin_rep",
    "half_spin_reps",
    "direct_sum",
    "SubalgebraEmbedding",
    "embed_subalgebra",
    "restrict",
    "center_acts_minus_one",
    "parity_indices",
    "verify_lie_homomorphism",
]


@dataclass(frozen=True)
class LieRepresentation:
    """An ordered list of d x d matrices aligned with a labeled Lie algebra basis.

    ``tensor`` has shape (g, d, d): int64 residues over a prime field,
    Fraction objects over Q.  ``basis_labels`` are the generator-index pairs
    (a, b) of the so(n) bivector basis, or name another algebra's basis (the
    g2 of ``octonion.derivation_algebra``, n then being its defining module's
    dimension), which ``restrict``, ``center_acts_minus_one`` and
    ``verify_lie_homomorphism`` refuse.  A trailing ("scale",) label marks
    an appended scaling generator.
    """

    n: int
    field: object
    name: str
    basis_labels: tuple
    tensor: np.ndarray

    @property
    def g(self) -> int:
        return self.tensor.shape[0]

    @property
    def dim(self) -> int:
        return self.tensor.shape[1]

    def with_scaling(self) -> "LieRepresentation":
        """Append the identity as one extra generator (scalar action)."""
        tensor = np.concatenate([self.tensor, self.field.eye(self.dim)[None]], axis=0)
        return LieRepresentation(
            self.n,
            self.field,
            f"{self.name}+scale",
            self.basis_labels + (("scale",),),
            _freeze(tensor),
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# -- integer construction, cached per n --------------------------------------


def _degree_parity(m: int) -> np.ndarray:
    """Parity of the exterior degree of every Fock index s < 2**m: its bit count mod 2."""
    return (np.arange(1 << m)[:, None] >> np.arange(m) & 1).sum(axis=1) & 1


def _entries(shape, k, r, c, v) -> tuple:
    """Integer entries (k, r, c, v) of a ``shape`` tensor in C order, repeated positions summed and zeros dropped.

    The four arguments broadcast against each other.
    """
    k, r, c, v = np.broadcast_arrays(k, r, c, v)
    keys, at = np.unique(np.ravel_multi_index((k, r, c), shape).ravel(), return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, at, v.ravel())
    keep = sums != 0
    return tuple(map(_freeze, (*np.unravel_index(keys[keep], shape), sums[keep])))


@cache
def _fock_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every generator e_g on the Fock basis: column s holds signs[g, s] in row rows[g, s].

    Fock basis index = subset bitmask s over {0..m-1}; p_i creates, q_i
    annihilates (signed by the parity of the bits of s below i), u flips
    sign on odd-degree vectors.  A zero column has sign 0 and row s.
    """
    m = n // 2
    s = np.arange(1 << m)
    parity = _degree_parity(m)
    bit = 1 << np.arange(m)[:, None]
    sign = 1 - 2 * parity[s & (bit - 1)]
    has = (s & bit) != 0
    rows = np.stack([s | bit, s & ~bit], axis=1).reshape(2 * m, -1)
    signs = np.stack([sign * ~has, sign * has], axis=1).reshape(2 * m, -1)
    if n % 2:
        rows, signs = np.vstack([rows, s]), np.vstack([signs, 1 - 2 * parity])
    return _freeze(rows), _freeze(signs)


@cache
def _spin_x4(n: int) -> tuple:
    """4 * m_ab on the Fock space, 2 e_a e_b - 2B(a,b), as integer entries (k, r, c, v).

    With every generator a signed partial permutation (``_fock_rows``),
    e_a e_b sends column s to row rows_a[rows_b[s]] with sign
    signs_a[rows_b[s]] * signs_b[s]; each column gets that entry, doubled,
    and its diagonal entry -2B(a,b), written for all pairs at once.
    """
    space = QuadraticSpace(n)
    rows, signs = _fock_rows(n)
    g, d = so_dim(space), rows.shape[1]
    a, b = np.array(so_pairs(space)).T
    via = rows[b]
    r = np.stack(np.broadcast_arrays(rows[a[:, None], via], np.arange(d)))
    v = np.stack(np.broadcast_arrays(2 * signs[a[:, None], via] * signs[b], -space.two_b_matrix()[a, b][:, None]))
    return _entries((g, d, d), np.arange(g)[:, None], r, np.arange(d), v)


@cache
def _vector_x4(n: int) -> tuple:
    """4 * (v -> [m_ab, v]) on the generator basis, as integer entries (k, r, c, v).

    [m_ab, e_c] = B(b,c) e_a - B(a,c) e_b, so row a of 4 m_ab is twice row b
    of the 2B table and row b is minus twice row a.
    """
    space = QuadraticSpace(n)
    two_b = space.two_b_matrix()
    a, b = np.array(so_pairs(space)).T
    g = len(a)
    rows, values = np.stack([a, b])[:, :, None], 2 * np.stack([two_b[b], -two_b[a]])
    return _entries((g, n, n), np.arange(g)[:, None], rows, np.arange(n), values)


def parity_indices(n: int) -> tuple[list[int], list[int]]:
    """Fock indices of even and odd exterior degree."""
    parity = _degree_parity(n // 2)
    return np.flatnonzero(parity == 0).tolist(), np.flatnonzero(parity).tolist()


def _from_x4(space: QuadraticSpace, field, name: str, dim: int, x4: tuple) -> LieRepresentation:
    """The module of so(n) whose 4x-scaled integer entries are ``x4``; only their values are converted."""
    k, r, c, v = x4
    tensor = field.zeros((so_dim(space), dim, dim))
    tensor[k, r, c] = field.reduce(field.array(v) * field.inv(4))
    return LieRepresentation(space.n, field, name, so_pairs(space), _freeze(tensor))


# Representations are cached per (space, field); both hash by value.


@cache
def vector_rep(space: QuadraticSpace, field) -> LieRepresentation:
    """The natural n-dimensional representation; every matrix is B-skew."""
    return _from_x4(space, field, f"vector({space.n})", space.n, _vector_x4(space.n))


@cache
def spin_rep(space: QuadraticSpace, field) -> LieRepresentation:
    """The 2^floor(n/2)-dimensional spin representation (Fock model)."""
    return _from_x4(space, field, f"spin({space.n})", 1 << space.m, _spin_x4(space.n))


@cache
def half_spin_reps(space: QuadraticSpace, field):
    """Even and odd parity blocks of the spin representation (n even).

    Every so(n) matrix is block-diagonal for the parity grading; extraction
    asserts it for the whole integer entry list at once, as every entry's
    row and column having the same parity.  A Fock index sits in its block
    at its rank among the indices of its parity, so each block's entries
    are the spin entries of that parity, renumbered, and the full spin
    tensor is never built over the field.
    """
    if space.odd:
        raise ValueError("half-spin representations need even n")
    k, r, c, v = _spin_x4(space.n)
    parity = _degree_parity(space.m)
    if np.any(parity[r] != parity[c]):
        raise AssertionError("spin matrix not parity-block-diagonal")
    odd_before = np.cumsum(parity) - parity
    rank = np.where(parity, odd_before, np.arange(len(parity)) - odd_before)
    block, x4 = parity[r], (k, rank[r], rank[c], v)
    return tuple(
        _from_x4(space, field, f"half_spin_{label}({space.n})", len(parity) // 2, tuple(x[block == q] for x in x4))
        for q, label in enumerate(("even", "odd"))
    )


def direct_sum(reps: list[LieRepresentation]) -> LieRepresentation:
    """Block-diagonal sum of representations of the same so(n)."""
    first = reps[0]
    for r in reps:
        if r.n != first.n or r.field != first.field or r.basis_labels != first.basis_labels:
            raise ValueError("direct sum needs matching algebras and bases")
    g = first.g
    d = sum(r.dim for r in reps)
    tensor = first.field.zeros((g, d, d))
    off = 0
    for r in reps:
        tensor[:, off : off + r.dim, off : off + r.dim] = r.tensor
        off += r.dim
    name = " + ".join(r.name for r in reps)
    return LieRepresentation(first.n, first.field, name, first.basis_labels, _freeze(tensor))


def _require_so_basis(rep: LieRepresentation, n: int):
    if rep.basis_labels != so_pairs(QuadraticSpace(n)):
        raise ValueError(f"{rep.name} is not labeled by the so({n}) bivector basis")


# -- the center of Spin_n --------------------------------------------------------


def center_acts_minus_one(rep: LieRepresentation) -> bool:
    """True when the central -1 of Spin_n acts as -Id on the module of ``rep``.

    h_1 = 2 m_{p_1 q_1} (basis index 0) acts on the vector module as
    diag(1, -1, 0, ...), so exp(2 pi i h_1) lies in the kernel of
    Spin_n -> SO_n.  When h_1 acts on the module diagonally with every entry
    +-1/2, exp(2 pi i h_1) acts as exp(+-pi i) = -1 on every basis vector, so
    it is the nontrivial element of that kernel and negates the module.  The
    check reads the module's first matrix and nothing else.
    """
    _require_so_basis(rep, rep.n)
    field = rep.field
    h1 = field.reduce(2 * rep.tensor[0])
    halves = (field.inv(2), field.reduce(-field.inv(2)))
    return bool(np.count_nonzero(h1) == rep.dim and all(x in halves for x in np.diagonal(h1)))


# -- subalgebra embeddings -----------------------------------------------------


@dataclass(frozen=True)
class SubalgebraEmbedding:
    """so(n') inside so(n) by a choice of n' ambient quadratic vectors.

    ``gen_vectors`` is an integer (n' x n) matrix as a tuple of rows, row a the
    ambient coordinates of sub-generator a.  ``pair_map``, an integer (g' x g)
    array, expands each sub bivector in the ambient basis; eq and hash skip it.
    """

    ambient_n: int
    sub_n: int
    gen_vectors: tuple
    pair_map: np.ndarray = dc_field(compare=False)


def _pair_map(ambient: QuadraticSpace, vectors: np.ndarray) -> np.ndarray:
    """Expand every sub bivector (v_a v_b - v_b v_a)/4 in the ambient basis.

    The rows of ``vectors`` must reproduce the split sub form, V 2B V^T = 2B'.
    The sub bivector is sum_{i<j} (v_ai v_bj - v_aj v_bi) m_ij: 2 x 2 minors of V.
    """
    sub = QuadraticSpace(len(vectors))
    if not np.array_equal(vectors @ ambient.two_b_matrix() @ vectors.T, sub.two_b_matrix()):
        raise ValueError("embedding vectors do not restrict to the split sub form")
    (a, b), (i, j) = np.array(so_pairs(sub)).T, np.array(so_pairs(ambient)).T
    return _freeze(vectors[np.ix_(a, i)] * vectors[np.ix_(b, j)] - vectors[np.ix_(a, j)] * vectors[np.ix_(b, i)])


def embed_subalgebra(space: QuadraticSpace, sub_n: int) -> SubalgebraEmbedding:
    """Canonical chain embedding so(sub_n) in so(n).

    One step down from odd n drops the unit vector u; one step down from
    even n folds the last hyperbolic pair into the unit vector p_m + q_m.
    Composing the steps keeps the first sub_n generators, the last of them
    folded with its partner (p + q) when sub_n is odd.
    """
    if sub_n >= space.n:
        raise ValueError("need sub_n < n")
    if sub_n < 2:
        raise ValueError("need sub_n >= 2")
    vectors = np.eye(space.n, dtype=np.int64)[:sub_n]
    if sub_n % 2:
        vectors[-1, sub_n] = 1
    return SubalgebraEmbedding(space.n, sub_n, tuple(map(tuple, vectors.tolist())), _pair_map(space, vectors))


def _expand_ranges(lo: np.ndarray, hi: np.ndarray):
    """Concatenate the ranges [lo_t, hi_t): (range index t, position) per element."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    pos = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return owner, pos


def verify_lie_homomorphism(rep: LieRepresentation, struct) -> bool:
    """Check rho([m_i, m_j]) = [rho(m_i), rho(m_j)] on every basis pair.

    ``struct`` carries the bracket expansions derived from the 2B table of
    the quadratic form alone (``clifford.so_structure_constants``), so this
    compares the representation against structure constants the Fock
    matrices had no hand in producing.  Both sides are antisymmetric, so the
    pairs i < j suffice.

    The check works on the nonzero entries (k, r, c, v) of the tensor, and
    on a block of left generators i at a time.  Joining the column of each
    entry of T_i with the row of the entries of every T_j (j > i) gives
    T_i T_j; joining on the row of T_i and the column of T_j gives T_j T_i.
    Those products, minus coeff * T_k for every entry (i, j, k, coeff) of
    ``struct``, are keyed by (i, j, row, col), sorted and summed per key;
    any nonzero sum is a failure.  A block holds whole left generators, so
    no key's sum is split across blocks.

    Blocks start at one generator and double, so a defect at a low
    generator is found early.  No cap bounds a block, since the joins stay
    far smaller than the dense tensor the check already reads: the three
    joins of the whole spin(14) module hold 142k entries, its largest block
    46k, against the 1.49M entries of its tensor (spin(16): 144k against
    7.86M).
    The sums are taken in integers: with T = A / den and coeff = C / cden
    (``field.cleared``), den**2 * cden times each key's sum is cden times the
    sum of the A products minus den times the C * A terms.  Over F_p, where
    den = cden = 1, every product of two residues is below 2**62 for
    p < 2**31 and is reduced mod p before summing, so int64 stays exact;
    over Q the same code runs on Python ints.
    """
    if rep.field != struct.field:
        raise ValueError(f"{rep.name} and the structure constants are over different fields")
    _require_so_basis(rep, struct.space.n)
    field = rep.field

    def times(x, y):
        return field.reduce(x * y)

    ints, den = field.cleared(rep.tensor)
    coeff, cden = field.cleared(struct.coeff)
    g, d = rep.g, rep.dim
    k, r, c = np.nonzero(ints)  # C order: k ascending
    v = ints[k, r, c]
    k_start = np.searchsorted(k, np.arange(g + 1))
    t_start = np.searchsorted(struct.i, np.arange(g + 1))
    by_row = np.lexsort((k, r))
    row_key = (r * g + k)[by_row]
    by_col = np.lexsort((k, c))
    col_key = (c * g + k)[by_col]

    def ranges(e):
        """Where entries e meet the entries of generators k + 1 .. g - 1.

        An entry (r, c) of T_i meets row c of T_j in T_i T_j and column r of
        T_j in T_j T_i: (start, stop) positions in row_key and in col_key.
        """
        lo = k[e] + 1
        row = np.searchsorted(row_key, c[e] * g + lo), np.searchsorted(row_key, c[e] * g + g)
        col = np.searchsorted(col_key, r[e] * g + lo), np.searchsorted(col_key, r[e] * g + g)
        return row, col

    def defect_free(i0, i1):
        """Every key with left generator in [i0, i1) sums to zero."""
        e = np.arange(k_start[i0], k_start[i1])
        row, col = ranges(e)
        # T_i T_j
        owner, pos = _expand_ranges(*row)
        a, b = e[owner], by_row[pos]
        keys = [((k[a] * g + k[b]) * d + r[a]) * d + c[b]]
        vals = [cden * times(v[a], v[b])]
        # - T_j T_i
        owner, pos = _expand_ranges(*col)
        a, b = e[owner], by_col[pos]
        keys.append(((k[a] * g + k[b]) * d + r[b]) * d + c[a])
        vals.append(-cden * times(v[b], v[a]))
        # - coeff * T_k for each term (i, j, k, coeff) of [m_i, m_j]
        t = np.arange(t_start[i0], t_start[i1])
        owner, pos = _expand_ranges(k_start[struct.k[t]], k_start[struct.k[t] + 1])
        t = t[owner]
        keys.append(((struct.i[t] * g + struct.j[t]) * d + r[pos]) * d + c[pos])
        vals.append(-den * times(coeff[t], v[pos]))
        keys = np.concatenate(keys)
        if not len(keys):
            return True
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        return not np.count_nonzero(field.reduce(np.add.reduceat(np.concatenate(vals)[order], starts)))

    i0, width = 0, 1
    while i0 < g - 1:
        i1 = min(i0 + width, g)
        if not defect_free(i0, i1):
            return False
        i0, width = i1, 2 * width
    return True


def restrict(rep: LieRepresentation, emb: SubalgebraEmbedding) -> LieRepresentation:
    """Representation of so(n') on the same space, via the embedding's pair map."""
    if rep.n != emb.ambient_n:
        raise ValueError("representation and embedding ambient dimensions differ")
    _require_so_basis(rep, rep.n)  # a scaling-augmented module included
    field = rep.field
    tensor = field.matmul(field.array(emb.pair_map), rep.tensor.reshape(rep.g, -1))
    return LieRepresentation(
        emb.sub_n,
        field,
        f"{rep.name}|so({emb.sub_n})",
        so_pairs(QuadraticSpace(emb.sub_n)),
        _freeze(tensor.reshape(-1, rep.dim, rep.dim)),
    )
