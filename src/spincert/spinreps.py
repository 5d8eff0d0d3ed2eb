"""Vector, spin and half-spin representations of so(n) as explicit matrices.

The spin module is the Fock space Lambda(span(f_1..f_m)) with basis indexed
by subsets of {1..m}: p_i acts by exterior multiplication with f_i, q_i by
the dual contraction, and the odd unit vector u by the parity involution.
Substituting these generator actions into m_ab = (e_a e_b - e_b e_a)/4 gives
the so(n) matrices; the same bivectors act on the generator basis itself for
the vector representation.

Every constructed matrix has entries in Z/4 (quarter-integers), so the
integer quadruple of each family is built once per n and reduced into
whatever field a caller asks for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .clifford import QuadraticSpace, so_pairs

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
    "fock_generator_matrices",
    "parity_indices",
    "verify_lie_homomorphism",
]


@dataclass(frozen=True)
class LieRepresentation:
    """An ordered list of d x d matrices aligned with a labeled Lie algebra basis.

    ``tensor`` has shape (g, d, d): int64 residues over a prime field,
    Fraction objects over Q.  ``basis_labels`` are the generator-index pairs
    (a, b) of the so(n) bivector basis, or name another algebra's basis (the
    g2 of ``octonion.trace_zero_rep``, n then being its defining module's
    dimension), which ``restrict`` and ``center_acts_minus_one`` refuse.  A
    trailing ("scale",) label marks an appended scaling generator.
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


def _reduce_x4(field, x4: np.ndarray) -> np.ndarray:
    """Turn a 4x-scaled integer tensor into field entries, converting only its nonzero entries."""
    out = field.zeros(x4.shape)
    nonzero = np.nonzero(x4)
    out[nonzero] = field.reduce(field.array(x4[nonzero]) * field.inv(4))
    return _freeze(out)


# -- integer construction, cached per n --------------------------------------


@cache
def fock_generator_matrices(n: int) -> tuple[np.ndarray, ...]:
    """Action of each generator e_g on the Fock basis, as read-only 0/+-1 int matrices.

    Fock basis index = subset bitmask over {0..m-1}; p_i creates, q_i
    annihilates, u flips sign on odd-degree vectors.
    """
    space = QuadraticSpace(n)
    m = space.m
    d = 1 << m
    mats = []
    for g in range(n):
        mat = np.zeros((d, d), dtype=np.int64)
        if space.odd and g == n - 1:
            for s in range(d):
                mat[s, s] = 1 if s.bit_count() % 2 == 0 else -1
        else:
            i = g // 2
            bit = 1 << i
            creating = g % 2 == 0
            for s in range(d):
                if creating and not s & bit:
                    sign = -1 if (s & (bit - 1)).bit_count() % 2 else 1
                    mat[s | bit, s] = sign
                elif not creating and s & bit:
                    sign = -1 if (s & (bit - 1)).bit_count() % 2 else 1
                    mat[s ^ bit, s] = sign
        mats.append(_freeze(mat))
    return tuple(mats)


@cache
def _spin_x4(n: int) -> np.ndarray:
    """4 * m_ab on the Fock space: 2 e_a e_b - 2B(a,b), integer entries.

    Every generator is a signed partial permutation with at most one nonzero
    per column, say sign_b[s] in row row_b[s] of column s, so column s of
    e_a e_b is column row_b[s] of e_a times sign_b[s]: a signed column
    gather instead of a dense product.  Each left generator gathers for all
    its pairs at once, into a zeroed array, so no temporary is larger than
    one generator's share of the output.
    """
    space = QuadraticSpace(n)
    gens = np.stack(fock_generator_matrices(n))
    d = gens.shape[1]
    a, b = np.array(so_pairs(space)).T
    rows = np.abs(gens).argmax(axis=1)  # a zero column points at row 0 and gets sign 0
    signs = np.take_along_axis(gens, rows[:, None, :], axis=1)[:, 0]
    out = np.zeros((len(a), d, d), dtype=np.int64)
    for x in range(n):
        k = np.flatnonzero(a == x)
        out[k] = gens[x][:, rows[b[k]]].transpose(1, 0, 2) * (2 * signs[b[k]])[:, None, :]
    out[:, np.arange(d), np.arange(d)] -= space.two_b_matrix()[a, b][:, None]
    return _freeze(out)


@cache
def _vector_x4(n: int) -> np.ndarray:
    """4 * (v -> [m_ab, v]) on the generator basis: [m_ab, e_c] = B(b,c) e_a - B(a,c) e_b.

    Row a of 4 m_ab is twice row b of the 2B table and row b is minus twice
    row a; since a < b, the two rows never overlap.
    """
    space = QuadraticSpace(n)
    two_b = space.two_b_matrix()
    a, b = np.array(so_pairs(space)).T
    out = np.zeros((len(a), n, n), dtype=np.int64)
    out[np.arange(len(a)), a] = 2 * two_b[b]
    out[np.arange(len(a)), b] = -2 * two_b[a]
    return _freeze(out)


def parity_indices(n: int) -> tuple[list[int], list[int]]:
    """Fock indices of even and odd exterior degree."""
    m = n // 2
    even = [s for s in range(1 << m) if s.bit_count() % 2 == 0]
    odd = [s for s in range(1 << m) if s.bit_count() % 2 == 1]
    return even, odd


# Representations are cached per (space, field); both hash by value.


@cache
def vector_rep(space: QuadraticSpace, field) -> LieRepresentation:
    """The natural n-dimensional representation; every matrix is B-skew."""
    tensor = _reduce_x4(field, _vector_x4(space.n))
    return LieRepresentation(space.n, field, f"vector({space.n})", so_pairs(space), tensor)


@cache
def spin_rep(space: QuadraticSpace, field) -> LieRepresentation:
    """The 2^floor(n/2)-dimensional spin representation (Fock model)."""
    tensor = _reduce_x4(field, _spin_x4(space.n))
    return LieRepresentation(space.n, field, f"spin({space.n})", so_pairs(space), tensor)


@cache
def half_spin_reps(space: QuadraticSpace, field):
    """Even and odd parity blocks of the spin representation (n even).

    Every so(n) matrix is block-diagonal for the parity grading; extraction
    asserts it for the whole integer stack at once, as the two diagonal
    blocks holding every nonzero entry.  Each block is gathered from the
    cached integer tensor and reduced into the field on its own, so the
    full spin tensor is never built over the field.
    """
    if space.odd:
        raise ValueError("half-spin representations need even n")
    full = _spin_x4(space.n)
    blocks = [full[:, idx[:, None], idx] for idx in map(np.array, parity_indices(space.n))]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(full):
        raise AssertionError("spin matrix not parity-block-diagonal")
    return tuple(
        LieRepresentation(space.n, field, f"half_spin_{label}({space.n})", so_pairs(space), _reduce_x4(field, block))
        for label, block in zip(("even", "odd"), blocks)
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


def _require_so_basis(rep: LieRepresentation):
    if rep.basis_labels != so_pairs(QuadraticSpace(rep.n)):
        raise ValueError(f"{rep.name} is not labeled by the so({rep.n}) bivector basis")


# -- the center of Spin_n --------------------------------------------------------


def center_acts_minus_one(space: QuadraticSpace, rep: LieRepresentation) -> bool:
    """True when the central -1 of Spin_n acts as -Id on the module of ``rep``.

    h_1 = 2 m_{p_1 q_1} (basis index 0) acts on the vector module as
    diag(1, -1, 0, ...), so exp(2 pi i h_1) lies in the kernel of
    Spin_n -> SO_n.  When h_1 acts on the module diagonally with every entry
    +-1/2, exp(2 pi i h_1) acts as exp(+-pi i) = -1 on every basis vector, so
    it is the nontrivial element of that kernel and negates the module.  The
    check reads the module's first matrix and nothing else.
    """
    if rep.n != space.n:
        raise ValueError(f"center check needs a module of so({space.n}), got {rep.name}")
    _require_so_basis(rep)
    field = rep.field
    h1 = field.reduce(2 * rep.tensor[0])
    halves = (field.inv(2), field.reduce(-field.inv(2)))
    return bool(np.count_nonzero(h1) == rep.dim and all(x in halves for x in np.diagonal(h1)))


# -- subalgebra embeddings -----------------------------------------------------


@dataclass(frozen=True)
class SubalgebraEmbedding:
    """so(n') inside so(n) by a choice of n' ambient quadratic vectors.

    ``gen_vectors`` is an integer (n' x n) matrix: row a gives the ambient
    coordinates of the a-th sub-generator.  ``pair_map`` expands each sub
    bivector in the ambient bivector basis with integer coefficients.
    """

    ambient_n: int
    sub_n: int
    gen_vectors: tuple
    pair_map: tuple


def _pair_map_from_vectors(ambient: QuadraticSpace, vectors: list[list[int]]):
    """Expand every sub bivector (v_a v_b - v_b v_a)/4 in the ambient basis.

    With m_ij = (e_i e_j - e_j e_i)/4 for all i, j, the sub bivector is
    sum_{i<j} (v_ai v_bj - v_aj v_bi) m_ij: integer coefficients, no
    Clifford product.
    """
    sub = QuadraticSpace(len(vectors))
    support = [[(i, c) for i, c in enumerate(v) if c] for v in vectors]
    # B-compatibility: the chosen vectors must reproduce the split sub form.
    for a, b in itertools.product(range(sub.n), repeat=2):
        tb = sum(ci * cj * ambient.two_b_int(i, j) for i, ci in support[a] for j, cj in support[b])
        if tb != sub.two_b_int(a, b):
            raise ValueError("embedding vectors do not restrict to the split sub form")
    out = []
    for a, b in so_pairs(sub):
        va, vb = vectors[a], vectors[b]
        coeffs = (va[i] * vb[j] - va[j] * vb[i] for i, j in so_pairs(ambient))
        out.append(tuple((k, c) for k, c in enumerate(coeffs) if c))
    return tuple(out)


def embed_subalgebra(space: QuadraticSpace, sub_n: int) -> SubalgebraEmbedding:
    """Canonical chain embedding so(sub_n) in so(n).

    One step down from odd n drops the unit vector u; one step down from
    even n folds the last hyperbolic pair into the unit vector p_m + q_m.
    Larger drops compose the steps.
    """
    if sub_n >= space.n:
        raise ValueError("need sub_n < n")
    if sub_n < 2:
        raise ValueError("need sub_n >= 2")
    n = space.n
    vectors = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    k = n
    while k > sub_n:
        if k % 2 == 1:
            vectors = vectors[: k - 1]
        else:
            folded = [vectors[k - 2][j] + vectors[k - 1][j] for j in range(n)]
            vectors = vectors[: k - 2] + [folded]
        k -= 1
    pair_map = _pair_map_from_vectors(space, vectors)
    return SubalgebraEmbedding(n, sub_n, tuple(tuple(v) for v in vectors), pair_map)


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
    if len(rep.basis_labels) != struct.dim:
        raise ValueError("representation basis does not match the structure constants")
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
    """Representation of so(n') on the same space, via the embedding."""
    if rep.n != emb.ambient_n:
        raise ValueError("representation and embedding ambient dimensions differ")
    _require_so_basis(rep)  # a scaling-augmented module included
    field = rep.field
    d = rep.dim
    tensor = field.zeros((len(emb.pair_map), d, d))
    for k, row in enumerate(emb.pair_map):
        for amb, c in row:
            tensor[k] = field.reduce(tensor[k] + c * rep.tensor[amb])
    sub = QuadraticSpace(emb.sub_n)
    return LieRepresentation(
        emb.sub_n,
        field,
        f"{rep.name}|so({emb.sub_n})",
        so_pairs(sub),
        _freeze(tensor),
    )
