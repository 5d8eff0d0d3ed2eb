"""Lie-algebra orbit and stabilizer analysis.

Everything here reduces to exact kernels of stacked action maps: stabilizer
subalgebras, generic freeness, and invariant bilinear forms and quartics.
Genericity claims follow one protocol,
``min_trial_stabilizer``: a handful of random trials, take the minimum
dimension (dimension only jumps upward on special points), among the points
that pass the claim's witness when it has one, and stop at the first trial
that reaches the floor max(0, g - dim V); the suites recompute each
claim over two primes and record a split as a failing check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from .fields import PrimeField, RandomSource
from .linalg import kernel, rank, solve
from .spinreps import LieRepresentation, _expand_ranges

__all__ = [
    "ClosureViolation",
    "Aborted",
    "NotWitnessed",
    "StabilizerReport",
    "SubalgebraStructure",
    "BilinearInvariants",
    "action_matrix",
    "stabilizer",
    "kernel_action_matrices",
    "min_trial_stabilizer",
    "subalgebra_structure_from_matrices",
    "invariant_bilinear_space",
    "invariant_quartic_dim",
]


class ClosureViolation(RuntimeError):
    """A bracket left the candidate subalgebra span (bug or special point)."""


class Aborted(RuntimeError):
    """A budgeted computation exceeded its resource limit."""


class NotWitnessed(RuntimeError):
    """No trial point passed the genericity witness."""


@dataclass
class StabilizerReport:
    """Kernel of the stacked action map at one point."""

    dimension: int
    orbit_dimension: int
    kernel: np.ndarray  # (dimension, g): one so(n) coordinate row per basis vector


def _cell_sums(field, terms: np.ndarray, cell: np.ndarray, size: int) -> np.ndarray:
    """(t, size) field array whose column j sums the columns e of ``terms`` with cell[e] == j.

    The columns are sorted by cell and summed with one ``np.add.reduceat``.
    Over F_p each term is a residue below 2**31 and a cell sums at most one
    term per module entry, far fewer than 2**32, so the int64 sums stay exact.
    """
    out = field.zeros((len(terms), size))
    if len(cell):
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        out[:, cell[starts]] = field.reduce(np.add.reduceat(terms[:, order], starts, axis=1))
    return out


def action_matrix(rep: LieRepresentation, points) -> np.ndarray:
    """(k, d, g) stack for k points of shape (k, d): column j of matrix t is rho(m_j) v_t.

    Cell (r, j) of matrix t sums v * v_t[c] over the entries (j, r, c, v) of
    the module: O(k nnz) work, and no dense tensor.
    """
    field = rep.field
    x = field.array(points)
    k, r, c, v = rep.entries
    cols = _cell_sums(field, field.reduce(x[:, c] * v), r * rep.g + k, rep.dim * rep.g)
    return cols.reshape(len(x), rep.dim, rep.g)


def stabilizer(rep: LieRepresentation, v) -> StabilizerReport:
    """Stabilizer subalgebra of the point v: exact kernel, re-verified."""
    return _stabilizers(rep, [v])[0]


def _stabilizers(rep: LieRepresentation, points: list) -> list[StabilizerReport]:
    """Stabilizer reports of several points, their action matrices eliminated as one stack."""
    field = rep.field
    mats = action_matrix(rep, np.stack(points))
    reports = []
    for mat, z in zip(mats, kernel(field, mats)):
        # the defining property, checked again after extraction: A z = sum_k z_k rho(m_k) v = 0
        if np.count_nonzero(field.matmul(mat, z.T)):
            raise AssertionError("kernel vector does not annihilate the point")
        dim = len(z)
        reports.append(StabilizerReport(dim, rep.g - dim, z))
    return reports


def kernel_action_matrices(kernel, rep: LieRepresentation) -> np.ndarray:
    """(k, d, d) images of k kernel vectors (so(n) coordinates) under the representation.

    Cell (r, c) of image t sums z_t[j] * v over the entries (j, r, c, v).
    """
    field = rep.field
    z = field.array(kernel).reshape(-1, rep.g)
    k, r, c, v = rep.entries
    mats = _cell_sums(field, field.reduce(z[:, k] * v), r * rep.dim + c, rep.dim * rep.dim)
    return mats.reshape(-1, rep.dim, rep.dim)


def _first_trial_decides(values, at_bound, *trials) -> list:
    """One value per trial, the first trial computed alone.

    ``trials`` are sequences of equal length (the points, or stacks of
    them), and ``values`` maps slices of them to one value per trial.  A
    first value ``at_bound``, which no other trial can beat, decides; only
    otherwise are the other trials computed, as one stack.
    """
    found = values(*(t[:1] for t in trials))
    if len(trials[0]) > 1 and not at_bound(found[0]):
        found += values(*(t[1:] for t in trials))
    return found


def min_trial_stabilizer(
    rep: LieRepresentation, trials: int, seed: int, witness=None
) -> tuple[StabilizerReport, np.ndarray]:
    """Stabilizer report and point of the first minimum-dimension trial.

    Trial t samples its point from ``RandomSource(seed).child(t)``; a later
    trial replaces the best one only if its dimension is strictly smaller.
    A ``witness``, a predicate on a point, says which points are generic:
    only the trials whose point passes compete, whatever the dimension of
    the others, and NotWitnessed is raised when none passes.

    The first competing trial is eliminated alone.  No stabilizer has
    dimension below max(0, g - dim V), since the orbit dimension is at most
    dim V; a first trial at that floor cannot be replaced and is returned.
    Otherwise the action matrices of the remaining trials are eliminated as
    one stack.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    points = [RandomSource(seed).child(t).scalars(rep.field, rep.dim) for t in range(trials)]
    points = [v for v in points if witness is None or witness(v)]
    if not points:
        raise NotWitnessed(f"no point of {trials} trials on {rep.name} passes the genericity witness")
    floor = max(0, rep.g - rep.dim)
    reports = _first_trial_decides(lambda pts: _stabilizers(rep, pts), lambda r: r.dimension == floor, points)
    best = min(range(len(reports)), key=lambda t: reports[t].dimension)  # min keeps the first
    return reports[best], points[best]


# -- subalgebra structure ------------------------------------------------------


@dataclass
class SubalgebraStructure:
    """Bracket-closed subalgebra with its own structure constants.

    The Killing form is computed from these structure constants (ad within
    the subalgebra), never restricted from the ambient algebra: the
    rank/nullity fingerprint is a statement about the subalgebra itself.
    """

    dimension: int
    structure_constants: np.ndarray  # (k, k, k), c[i, j, :] = [x_i, x_j]
    killing: np.ndarray
    killing_rank: int
    killing_nullity: int


def subalgebra_structure_from_matrices(field, stack) -> SubalgebraStructure:
    """Structure constants and Killing form of the span of a (k, d, d) stack.

    The brackets [x_i, x_j] of the pairs i < j, in ``np.triu_indices`` order,
    come from one batched product over the (k, d, d) stack, every x_i x_j
    from one broadcast of the stack against itself with no operand copied,
    and are solved in the span of the basis by ``solve``, whose unique
    solution also proves the basis independent, even for k = 1.  Without
    one, a dependent basis raises ValueError and a bracket outside the span
    ClosureViolation.  ad_i maps e_j to c[i, j, :], so its matrix is c[i].T
    and trace(ad_i ad_j) = sum_{a,b} c[i,b,a] c[j,a,b]: the whole Killing
    form is one (k, k^2) @ (k^2, k) product.
    """
    k = len(stack)
    if k == 0:
        raise ValueError("empty subalgebra")
    flats = np.ascontiguousarray(stack.reshape(k, -1).T)
    i, j = np.triu_indices(k, 1)
    prods = field.matmul(stack[:, None], stack[None])  # (k, k, d, d): x_i x_j at [i, j]
    brackets = field.reduce(prods[i, j] - prods[j, i]).reshape(len(i), len(flats))
    del prods
    (coords,) = solve(field, flats[None], np.ascontiguousarray(brackets.T)[None])
    if coords is None:
        if rank(field, stack.reshape(k, -1)[None]) != [k]:
            raise ValueError("basis matrices are not linearly independent")
        raise ClosureViolation("a bracket is outside the span of the basis")
    c = field.zeros((k, k, k))
    c[i, j] = coords.T
    c[j, i] = field.reduce(-coords.T)

    killing = field.matmul(c.reshape(k, k * k), c.transpose(0, 2, 1).reshape(k, k * k).T)
    (krank,) = rank(field, killing[None])
    return SubalgebraStructure(
        dimension=k,
        structure_constants=c,
        killing=killing,
        killing_rank=krank,
        killing_nullity=k - krank,
    )


# -- invariant tensors: bilinear forms and quartics ------------------------------


@dataclass
class BilinearInvariants:
    symmetric_dim: int
    antisymmetric_dim: int
    sample: np.ndarray | None
    sample_rank: int


def _diagonal_members(rep: LieRepresentation) -> list[int]:
    # diagonal exactly when no entry sits off the diagonal
    k, r, c, _ = rep.entries
    return np.flatnonzero(np.bincount(k[r != c], minlength=rep.g) == 0).tolist()


_QUARTIC_MAX_CANDIDATES = 60_000
_QUARTIC_MAX_ROWS = 2_000_000


def _invariants(rep: LieRepresentation, tuples: np.ndarray, symmetric: bool):
    """The candidates, as s index rows, and a basis of the invariants among them, as the columns of K.

    Column t of the (s, N) array ``tuples`` stands for x_{i_1} ... x_{i_s}: a
    monomial when ``symmetric`` (each column ascending), else an ordered
    tensor.  The diagonal basis members (the split Cartan acts diagonally on
    all the representations built here) keep the candidates, the tuples of
    weight zero, and vanish on them.  The images of the other generators
    come from their entries M[a, b]: a candidate slot holding a becomes b
    with coefficient M[a, b], the result is sorted when ``symmetric``, keyed
    in base d and summed per (generator, candidate, key).  Each generator's
    image keeps its nonzero rows, numbered by first appearance in candidate,
    slot, column order.  The first image's kernel gives K, and each later
    image cuts K in turn through its product with K; with no generator to
    cut, K is the identity.  Budget overruns raise Aborted.
    """
    field, d = rep.field, rep.dim
    k, ra, rb, values = rep.entries  # M[a, b] of generator k
    k_start = np.searchsorted(k, np.arange(rep.g + 1))
    diags = _diagonal_members(rep)
    keep = np.ones(tuples.shape[1], dtype=bool)
    for kk in diags:
        e = slice(k_start[kk], k_start[kk + 1])
        w = field.zeros(d)
        w[ra[e]] = values[e]
        keep &= field.reduce(sum(w[slot] for slot in tuples)) == 0
    candidates = tuples.T[keep].astype(np.int64)
    c, s = candidates.shape
    if c > _QUARTIC_MAX_CANDIDATES:
        raise Aborted(f"invariant candidate budget exceeded ({_QUARTIC_MAX_CANDIDATES})")
    if c * c > _QUARTIC_MAX_ROWS * 8:  # the cut loop's bound on t x c, checked before expanding or allocating I_c
        raise Aborted("invariant row budget exceeded")

    gens = np.delete(np.arange(rep.g), diags)
    n = len(gens)
    if not c or not n:  # nothing to cut: every candidate is invariant
        return candidates.T, field.eye(c)
    # the entries of the other generators, in C order: columns ascend within a row
    off = np.isin(k, gens)
    gen, ra, rb, values = np.searchsorted(gens, k[off]), ra[off], rb[off], values[off]
    starts = np.searchsorted(gen * d + ra, np.arange(n * d + 1))
    # each generator meets each candidate slot: a slot holding a meets the entries of row a
    lo = (np.arange(n)[:, None] * d + candidates.reshape(-1)).reshape(-1)
    owner, entry = _expand_ranges(starts[lo], starts[lo + 1])
    new = candidates[owner // s % c]
    new[np.arange(len(owner)), owner % s] = rb[entry]
    if symmetric:
        new.sort(axis=1)
    code = owner // s  # generator, then candidate, then image key in base d
    for col in new.T:
        code = code * d + col
    pair, first, inv = np.unique(code, return_index=True, return_inverse=True)
    coeff = field.zeros(len(pair))
    np.add.at(coeff, inv, values[entry])
    coeff = field.reduce(coeff)
    kept = np.flatnonzero(coeff)
    (source, key), first, coeff = np.divmod(pair[kept], d**s), first[kept], coeff[kept]
    # one image row per (generator, key); positions run generator by generator, so ranking all
    # rows by first appearance numbers each generator's rows in order, after the earlier generators'
    rows, row = np.unique(source // c * d**s + key, return_inverse=True)
    appear = np.full(len(rows), len(owner))
    np.minimum.at(appear, row, first)
    row = np.argsort(np.argsort(appear))[row]
    ends = np.searchsorted(source // c, np.arange(n + 1))
    offsets = np.searchsorted(rows // d**s, np.arange(n + 1))
    del new, lo, code, inv, entry, owner, pair, rows
    K = None  # its columns span the invariants among the candidates so far; None before the first cut
    for i in range(n):
        e = slice(ends[i], ends[i + 1])
        t = offsets[i + 1] - offsets[i]
        if t * (c if K is None else K.shape[1]) > _QUARTIC_MAX_ROWS * 8:
            raise Aborted("invariant row budget exceeded")
        img = field.zeros((t, c))
        img[row[e] - offsets[i], source[e] % c] = coeff[e]
        (null,) = kernel(field, (img if K is None else field.matmul(img, K))[None])
        if not len(null):
            return candidates.T, field.zeros((c, 0))
        K = null.T if K is None else field.matmul(K, null.T)
    return candidates.T, K


def invariant_bilinear_space(rep: LieRepresentation) -> BilinearInvariants:
    """All bilinear forms B with rho(m)^T B + B rho(m) = 0 for every basis m.

    The candidates are the matrix units E_ab, that is the ordered pairs
    (a, b) in lexicographic order, cut by ``_invariants``: B(x, y) = x_a y_b
    meets x_i -> sum_j M[i, j] x_j in each slot, which is M^T E_ab + E_ab M.
    What is left here is the split of the invariant space into its
    symmetric and alternating parts, and a sample form.
    """
    field, d = rep.field, rep.dim
    (a, b), K = _invariants(rep, np.indices((d, d)).reshape(2, -1), symmetric=False)
    total = K.shape[1]
    if not total:
        return BilinearInvariants(0, 0, None, 0)

    # the candidate units E_ab are distinct, so each form is a scatter of one column of K
    forms = field.zeros((total, d, d))
    forms[:, a, b] = K.T
    nonzero = []
    for parts in (forms + forms.transpose(0, 2, 1), forms - forms.transpose(0, 2, 1)):
        flat = field.reduce(parts).reshape(total, d * d)
        nonzero.append(flat[np.count_nonzero(flat, axis=1) > 0])
    sym_dim, alt_dim = (rank(field, part[None])[0] if len(part) else 0 for part in nonzero)
    if sym_dim + alt_dim != total:
        raise AssertionError("invariant form space did not split into parities")

    # the parities add up to total > 0, so one of them holds a nonzero form
    sample = (nonzero[0] if len(nonzero[0]) else nonzero[1])[0].reshape(d, d)
    return BilinearInvariants(sym_dim, alt_dim, sample, rank(field, sample[None])[0])


# -- degree-4 invariants (budgeted stretch operation) ---------------------------


def invariant_quartic_dim(rep: LieRepresentation) -> int:
    """Dimension of degree-4 invariant polynomials of the representation.

    The candidates are the monomials x_i x_j x_k x_l (i <= j <= k <= l,
    lexicographic), cut by ``_invariants`` under the derivation action
    x_a -> sum_b M[a, b] x_b.  Prime fields and dimension <= 32 only.
    """
    if not isinstance(rep.field, PrimeField):
        raise ValueError("quartic invariants are computed over a prime field only")
    d = rep.dim
    if d > 32:
        raise ValueError("quartic invariants support dimension <= 32")
    # int8 straight from the iterator keeps up to 52,360 monomials small
    monos = np.fromiter(chain.from_iterable(combinations_with_replacement(range(d), 4)), np.int8).reshape(-1, 4).T
    return _invariants(rep, monos, symmetric=True)[1].shape[1]
