"""Lie-algebra orbit and stabilizer analysis.

Everything here reduces to exact kernels of stacked action maps: stabilizer
subalgebras, generic freeness, invariant bilinear forms, fixed subspaces and
isotypic fingerprints.  Genericity claims follow one protocol: a handful of
random trials, take the minimum dimension (dimension only jumps upward on
special points); the suites recompute each claim over two primes and
record a split as a failing check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from .fields import PrimeField, RandomSource
from .linalg import (
    Matrix,
    associative_closure,
    commutant_dimension,
    coordinates_in_span,
    random_vector,
)
from .spinreps import LieRepresentation, _expand_ranges

__all__ = [
    "ClosureViolation",
    "Aborted",
    "StabilizerReport",
    "SubalgebraStructure",
    "BilinearInvariants",
    "action_matrix",
    "stabilizer",
    "kernel_action_matrices",
    "min_trial_stabilizer",
    "subalgebra_structure",
    "subalgebra_structure_from_matrices",
    "invariant_bilinear_space",
    "fixed_subspace",
    "isotypic_fingerprint",
    "invariant_quartic_dim",
]


class ClosureViolation(RuntimeError):
    """A bracket left the candidate subalgebra span (bug or special point)."""


class Aborted(RuntimeError):
    """A budgeted computation exceeded its resource limit."""


@dataclass
class StabilizerReport:
    """Kernel of the stacked action map at one point."""

    dimension: int
    algebra_dimension: int
    orbit_dimension: int
    kernel: list


def action_matrix(rep: LieRepresentation, v) -> Matrix:
    """d x g matrix whose k-th column is rho(m_k) v."""
    field = rep.field
    cols = field.matmul(rep.tensor, field.array(v).reshape(1, -1, 1))
    return Matrix(field, None, _raw=np.ascontiguousarray(cols[:, :, 0].T))


def stabilizer(rep: LieRepresentation, v) -> StabilizerReport:
    """Stabilizer subalgebra of the point v: exact kernel, re-verified."""
    return _stabilizers(rep, [v])[0]


def _stabilizers(rep: LieRepresentation, points: list) -> list[StabilizerReport]:
    """Stabilizer reports of several points, their action matrices eliminated as one stack."""
    field = rep.field
    # one product per point: a single (g*d, d) @ (d, t) product would run in threaded BLAS
    mats = Matrix.stacked(field, np.stack([action_matrix(rep, v).data for v in points]))
    reports = []
    for mat in mats:
        kernel = mat.kernel_basis()
        # the defining property, checked again after extraction: A z = sum_k z_k rho(m_k) v = 0
        z = field.array(kernel).reshape(-1, rep.g)
        if np.count_nonzero(field.matmul(mat.data, z.T)):
            raise AssertionError("kernel vector does not annihilate the point")
        dim = len(kernel)
        reports.append(StabilizerReport(dim, rep.g, rep.g - dim, kernel))
    return reports


def kernel_action_matrices(kernel: list, rep: LieRepresentation) -> list[Matrix]:
    """Images of kernel vectors (so(n) coordinates) under the representation."""
    field = rep.field
    z = field.array(kernel).reshape(-1, rep.g)
    acting = field.matmul(z, rep.tensor.reshape(rep.g, -1)).reshape(-1, rep.dim, rep.dim)
    return [Matrix(field, None, _raw=a) for a in acting]


def min_trial_stabilizer(rep: LieRepresentation, trials: int, seed: int) -> tuple[StabilizerReport, np.ndarray]:
    """Stabilizer report and point of the first minimum-dimension trial.

    Trial t samples its point from ``RandomSource(seed).child(t)``; a later
    trial replaces the best one only if its dimension is strictly smaller.
    The action matrices of all trials are eliminated as one stack.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    points = [random_vector(rep.field, rep.dim, RandomSource(seed).child(t)) for t in range(trials)]
    reports = _stabilizers(rep, points)
    best = min(range(trials), key=lambda t: reports[t].dimension)  # min keeps the first
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
    basis: list
    structure_constants: np.ndarray  # (k, k, k), c[i, j, :] = [x_i, x_j]
    killing: Matrix
    killing_rank: int
    killing_nullity: int
    derived_dimension: int


def subalgebra_structure(kernel_vectors: list, carrier_rep: LieRepresentation) -> SubalgebraStructure:
    """Structure of the span of kernel vectors, through a faithful carrier.

    The kernel vectors live in so(n) coordinates; their images under any
    faithful representation (the natural one is the cheap choice) have the
    same brackets, so closure and structure constants are computed there.
    """
    mats = kernel_action_matrices(kernel_vectors, carrier_rep)
    return subalgebra_structure_from_matrices(mats, basis_vectors=list(kernel_vectors))


def subalgebra_structure_from_matrices(
    mats: list[Matrix], basis_vectors: list | None = None
) -> SubalgebraStructure:
    """Structure constants, Killing form and derived size of a matrix span.

    The brackets [x_i, x_j] of the pairs i < j, in ``np.triu_indices`` order,
    come from one batched product over the (k, d, d) stack and are solved in
    the span of the basis by one elimination.  ad_i maps e_j to c[i, j, :],
    so its matrix is c[i].T and trace(ad_i ad_j) = sum_{a,b} c[i,b,a] c[j,a,b]:
    the whole Killing form is one (k, k^2) @ (k^2, k) product.
    """
    k = len(mats)
    if k == 0:
        raise ValueError("empty subalgebra")
    field = mats[0].field
    stack = np.stack([m.data for m in mats])
    flats = Matrix(field, None, _raw=np.ascontiguousarray(stack.reshape(k, -1).T))
    if flats.rank() != k:
        raise ValueError("subalgebra basis matrices are dependent")
    i, j = np.triu_indices(k, 1)
    c = field.zeros((k, k, k))
    if len(i):
        # x_i x_j and x_j x_i for every pair, as one batch
        prods = field.matmul(stack[np.concatenate([i, j])], stack[np.concatenate([j, i])])
        brackets = field.reduce(prods[: len(i)] - prods[len(i) :]).reshape(len(i), -1)
        try:
            coords = coordinates_in_span(flats, Matrix(field, None, _raw=np.ascontiguousarray(brackets.T)))
        except ValueError as exc:
            raise ClosureViolation(str(exc)) from exc
        c[i, j] = coords.data.T
        c[j, i] = field.reduce(-coords.data.T)

    killing = field.matmul(c.reshape(k, k * k), np.ascontiguousarray(c.transpose(0, 2, 1).reshape(k, k * k).T))
    kmat = Matrix(field, None, _raw=killing)
    krank = kmat.rank()
    derived_dim = Matrix(field, None, _raw=c[i, j]).rank() if len(i) else 0

    return SubalgebraStructure(
        dimension=k,
        basis=basis_vectors if basis_vectors is not None else [m.flatten() for m in mats],
        structure_constants=c,
        killing=kmat,
        killing_rank=krank,
        killing_nullity=k - krank,
        derived_dimension=derived_dim,
    )


# -- invariant bilinear forms --------------------------------------------------


@dataclass
class BilinearInvariants:
    symmetric_dim: int
    antisymmetric_dim: int
    sample: Matrix | None
    sample_rank: int
    sample_symmetric: bool | None


def _diagonal_members(rep: LieRepresentation) -> list[int]:
    # diagonal exactly when every nonzero entry sits on the diagonal
    return [kk for kk, m in enumerate(rep.tensor) if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))]


def invariant_bilinear_space(rep: LieRepresentation) -> BilinearInvariants:
    """All bilinear forms B with rho(m)^T B + B rho(m) = 0 for every basis m.

    Diagonal basis members (the split Cartan acts diagonally on all the
    representations built here) prune the candidate matrix units E_ab to the
    weight-opposite pairs; the surviving space is then intersected exactly
    with the constraint of every generator, diagonal ones included.
    """
    field = rep.field
    d = rep.dim
    diags = _diagonal_members(rep)
    if diags:
        neg_key = {}
        buckets: dict = {}
        for a in range(d):
            key = tuple(rep.tensor[kk][a, a] for kk in diags)
            buckets.setdefault(key, []).append(a)
            neg_key[a] = tuple(field.reduce(-x) for x in key)
        candidates = []
        for a in range(d):
            for b in buckets.get(neg_key[a], ()):
                candidates.append((a, b))
    else:
        candidates = [(a, b) for a in range(d) for b in range(d)]
    c = len(candidates)
    if c == 0:
        return BilinearInvariants(0, 0, None, 0, None)

    K = Matrix.identity(field, c)
    for kk in range(rep.g):
        if K.cols == 0:
            break
        M = rep.tensor[kk]
        img = field.zeros((d * d, c))
        for j, (a, b) in enumerate(candidates):
            rows1 = np.arange(d) * d + b
            np.add.at(img[:, j], rows1, M[a, :])
            rows2 = a * d + np.arange(d)
            np.add.at(img[:, j], rows2, M[b, :])
        constrained = Matrix(field, None, _raw=field.reduce(img)) @ K
        null = constrained.kernel_basis()
        if not null:
            K = Matrix.zeros(field, c, 0)
            break
        K = K @ Matrix(field, np.stack(null, axis=1))

    total = K.cols
    if total == 0:
        return BilinearInvariants(0, 0, None, 0, None)

    # the candidate units E_ab are distinct, so each form is a scatter of one column of K
    rows, cols = zip(*candidates)
    forms = []
    for j in range(total):
        B = field.zeros((d, d))
        B[rows, cols] = K.data[:, j]
        forms.append(Matrix(field, B))

    sym_parts = [f + f.T for f in forms]
    alt_parts = [f - f.T for f in forms]

    def span_dim(parts):
        stack = [m.flatten() for m in parts if not m.is_zero()]
        if not stack:
            return 0
        return Matrix(field, np.stack(stack, axis=0)).rank()

    sym_dim = span_dim(sym_parts)
    alt_dim = span_dim(alt_parts)
    if sym_dim + alt_dim != total:
        raise AssertionError("invariant form space did not split into parities")

    sample = None
    sample_sym = None
    pool = [m for m in sym_parts if not m.is_zero()] or [m for m in alt_parts if not m.is_zero()]
    if pool:
        sample = pool[0]
        sample_sym = sample == sample.T
    return BilinearInvariants(sym_dim, alt_dim, sample, sample.rank() if sample else 0, sample_sym)


def fixed_subspace(mats: list[Matrix]):
    """Common null space of a nonempty list of matrices; returns (dimension, basis vectors)."""
    basis = Matrix.vstack(mats).kernel_basis()
    return len(basis), basis


def isotypic_fingerprint(mats: list[Matrix]) -> tuple[int, int]:
    """(generated associative algebra dim, commutant dim).

    Certifies a module's decomposition shape without explicit intertwiners.
    """
    if not mats:
        raise ValueError("fingerprint of an empty matrix list")
    return associative_closure(mats), commutant_dimension(mats)


# -- degree-4 invariants (budgeted stretch operation) ---------------------------

_QUARTIC_MAX_CANDIDATES = 60_000
_QUARTIC_MAX_ROWS = 2_000_000


def invariant_quartic_dim(rep: LieRepresentation) -> int:
    """Dimension of degree-4 invariant polynomials of the representation.

    Monomials x_i x_j x_k x_l (i <= j <= k <= l, lexicographic) are pruned by
    the diagonal (weight) generators first, then the surviving space is cut
    exactly by the derivation action of every other generator.  A
    generator's image is built from its nonzeros M[a, b]: each candidate
    slot holding a meets the entries of row a, the slot is replaced by b,
    the sorted result is keyed in base d, and the coefficients are summed
    per (key, candidate) mod p.  Image rows are numbered by the first
    appearance of their key in candidate, slot, column order.  Prime fields
    only; budget overruns raise Aborted.
    """
    field = rep.field
    if not isinstance(field, PrimeField):
        raise ValueError("quartic invariants are computed over a prime field only")
    d = rep.dim
    if d > 32:
        raise ValueError("quartic invariants support dimension <= 32")
    p = field.p

    diags = _diagonal_members(rep)
    # one column per monomial; int8 straight from the iterator keeps up to 52,360 of them small
    monos = np.fromiter(chain.from_iterable(combinations_with_replacement(range(d), 4)), np.int8).reshape(-1, 4).T
    weightless = np.ones(monos.shape[1], dtype=bool)
    for kk in diags:
        w = np.diagonal(rep.tensor[kk])
        weightless &= (w[monos[0]] + w[monos[1]] + w[monos[2]] + w[monos[3]]) % p == 0
    candidates = monos.T[weightless].astype(np.int64)
    c = len(candidates)
    if c > _QUARTIC_MAX_CANDIDATES:
        raise Aborted(f"quartic candidate budget exceeded ({_QUARTIC_MAX_CANDIDATES})")
    if c == 0:
        return 0

    K = Matrix.identity(field, c)
    for kk in range(rep.g):
        if K.cols == 0:
            break
        if kk in diags:
            continue  # already exact on the candidate set by construction
        M = rep.tensor[kk]
        ra, rb = np.nonzero(M)  # row-major, so columns ascend within a row
        starts = np.searchsorted(ra, np.arange(d + 1))
        slots = candidates.reshape(-1)
        # derivation: x_a -> sum_b M[a, b] x_b in each slot holding a
        owner, entry = _expand_ranges(starts[slots], starts[slots + 1])
        j = owner // 4
        new = candidates[j]
        new[np.arange(len(owner)), owner % 4] = rb[entry]
        new.sort(axis=1)
        key = ((new[:, 0] * d + new[:, 1]) * d + new[:, 2]) * d + new[:, 3]
        # one code per (candidate, image monomial), with the position of its first entry
        pair, first, inv = np.unique(j * d**4 + key, return_index=True, return_inverse=True)
        coeff = np.zeros(len(pair), dtype=np.int64)
        np.add.at(coeff, inv, M[ra, rb][entry])
        coeff %= p
        kept = np.flatnonzero(coeff)
        keys, row = np.unique(pair[kept] % d**4, return_inverse=True)
        t = len(keys)
        if t * K.cols > _QUARTIC_MAX_ROWS * 8:
            raise Aborted("quartic row budget exceeded")
        appear = np.full(t, len(owner))
        np.minimum.at(appear, row, first[kept])
        img = np.zeros((t, c), dtype=np.int64)
        img[np.argsort(np.argsort(appear))[row], pair[kept] // d**4] = coeff[kept]
        constrained = Matrix(field, None, _raw=img) @ K
        null = constrained.kernel_basis()
        if not null:
            return 0
        K = K @ Matrix(field, np.stack(null, axis=1))
    return K.cols
