"""The SL_n action on matrix pairs and its invariant product map.

V is the space of pairs (X, Y) with X of shape n x (n-1) and Y of shape
(n-1) x n.  SL_n acts by A: (X, Y) -> (AX, Y A^{-1}); the involution tau
swaps and transposes; pi(X, Y) = YX is SL_n-invariant.  The operations here
turn the nonsingular-pi fiber geometry into executable exact checks:
normalization of X to the J block, the unipotent transporter inside one
fiber, triviality of the tangent stabilizer, and surjectivity of the
differential of pi.

Every function takes and returns field arrays, with the same code over
either field, and works on stacks of pairs along a leading axis: X of shape
(k, n, n-1) and Y of shape (k, n-1, n), a single pair being a stack of one.
``tau`` and ``pi`` also take an unstacked pair.  Whatever eliminates does so
once for the whole stack (``linalg.rref``, ``linalg.det``): the
normalizations and their scales, the transporter systems, the Jacobians,
and each of the two stages of the tangent stabilizers.  Group elements
always come with their inverse, so acting needs no elimination:
``random_samples`` draws A = LU from two unitriangular factors and forms
A^{-1} = U^{-1} L^{-1} by forward substitution, normalization inverts the
completed basis of X, and a transporter I + t e_n^T has inverse
I - t e_n^T.  ``act`` checks the given inverses with one product and
refuses any determinant other than one.
"""

from __future__ import annotations

import numpy as np

from .fields import RandomSource
from .linalg import det, kernel, rank, rref, solve

__all__ = [
    "NotInSLn",
    "NotSameFiber",
    "SingularFiber",
    "canonical_j",
    "act",
    "tau",
    "pi",
    "normalizations_to_j",
    "fiber_transporter",
    "stabilizer_lie_dims",
    "jacobian_ranks_pi",
    "random_pairs",
    "random_samples",
]


class NotInSLn(ValueError):
    """The acting matrix does not have determinant one."""


class NotSameFiber(ValueError):
    """The two pairs have different products YX."""


class SingularFiber(ValueError):
    """The product YX is singular; the transporter system is not unique."""


def canonical_j(field, n: int) -> np.ndarray:
    """The n x (n-1) block with the identity on top and a zero last row."""
    return field.array(np.eye(n, n - 1, dtype=np.int64))


def act(field, a, a_inv, x, y):
    """(X, Y) -> (AX, Y A^{-1}) for a stack of A in SL_n, with A^{-1} given by
    the caller.

    ``a`` and ``a_inv`` have shape (k, n, n), one element per pair of the
    stacks ``x`` and ``y``.  Raises ValueError unless A A^{-1} = I, and
    NotInSLn for any A whose determinant is not one; both checks cover the
    whole stack at once.
    """
    k, n, _ = x.shape
    if a.shape != (k, n, n) or a_inv.shape != a.shape:
        raise ValueError("acting matrices do not match the stack of pairs")
    if not np.array_equal(field.matmul(a, a_inv), np.broadcast_to(field.eye(n), a.shape)):
        raise ValueError("a_inv is not the inverse of a")
    if any(d != 1 for d in det(field, a)):
        raise NotInSLn("acting matrix must have determinant 1")
    return field.matmul(a, x), field.matmul(y, a_inv)


def tau(x, y):
    """The involution (X, Y) -> (Y^T, X^T)."""
    return np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2)


def pi(field, x, y):
    """The invariant product YX, of shape (..., n-1, n-1)."""
    return field.matmul(y, x)


def normalizations_to_j(field, x):
    """(full, A, A^{-1}) for a stack X of shape (k, n, n-1): the boolean mask
    ``full`` marks the X of rank n-1, and for those, in order, A in SL_n with
    A X = J and its inverse, stacked with shape (m, n, n).

    The columns of X are completed to a basis by the first standard basis
    vector e_i outside their span, and that appended column is scaled by the
    inverse determinant to land in SL_n; A^{-1} is that basis.  One
    reduction of [X | I] finds everything: X has rank n-1 iff its columns
    are pivots, the next pivot is the column of e_i, and the right block E
    of the reduced form is [X | e_i]^{-1}.  So the scale is det E, and A is
    E with its last row divided by det E.  Deterministic by construction;
    the k reductions run as one stack, and so do the m determinants.
    """
    k, n, _ = x.shape
    aug = np.concatenate([x, np.broadcast_to(field.eye(n), (k, n, n))], axis=2)
    reduced = rref(field, aug)
    full = np.array([pivots[: n - 1] == tuple(range(n - 1)) for _, pivots in reduced], dtype=bool)
    kept = [r for r, ok in zip(reduced, full) if ok]
    a = np.array([red[:, n - 1 :] for red, _ in kept], dtype=x.dtype).reshape(-1, n, n)
    scales = det(field, a)
    a_inv = np.concatenate([x[full], field.zeros((len(a), n, 1))], axis=2)
    a_inv[np.arange(len(a)), [pivots[n - 1] - (n - 1) for _, pivots in kept], n - 1] = scales
    a[:, n - 1] = field.reduce(a[:, n - 1] * field.array([field.inv(s) for s in scales])[:, None])
    j = np.broadcast_to(canonical_j(field, n), (len(a), n, n - 1))
    if not np.array_equal(field.matmul(a, x[full]), j):
        raise AssertionError("normalization replay failed")
    return full, a, a_inv


def fiber_transporter(field, y, z) -> np.ndarray:
    """The unique unipotent A with A . (J, Y) = (J, Z), for nonsingular YJ,
    for each pair of two stacks of shape (k, n-1, n).

    ``y`` and ``z`` are the Y blocks of pairs normalized to J.  AJ = J forces
    A to be the identity plus a free last column t; Z A = Y then is a linear
    system whose coefficient matrix is exactly YJ, so nonsingularity gives
    exactly one solution, and a singular YJ gives none or many.  Y = Z
    returns the identity, which is the scheme-theoretic triviality of the
    stabilizer seen at the level of points.  The k systems are solved as one
    stack and the k transporters replayed with one ``act``; NotSameFiber or
    SingularFiber is raised if any one pair is off.
    """
    k, _, n = y.shape
    j = np.broadcast_to(canonical_j(field, n), (k, n, n - 1))
    pi_y = pi(field, j, y)
    if not np.array_equal(pi_y, pi(field, j, z)):
        raise NotSameFiber("pairs have different products YX")
    a, a_inv = (np.broadcast_to(field.eye(n), (k, n, n)).copy() for _ in range(2))
    for i, t in enumerate(solve(field, pi_y, field.reduce(y[:, :, n - 1 :] - z[:, :, n - 1 :]))):
        if t is None:
            raise SingularFiber("YX is singular")
        a[i, : n - 1, n - 1 :] = t
        a_inv[i, : n - 1, n - 1 :] = field.reduce(-t)
    moved_j, moved_y = act(field, a, a_inv, j, y)
    if not (np.array_equal(moved_j, j) and np.array_equal(moved_y, z)):
        raise AssertionError("transporter replay failed")
    return a


def stabilizer_lie_dims(field, x, y) -> list[int]:
    """dim {a in sl_n : a X = 0 and Y a = 0} for each pair of a stack, X of
    shape (k, n, n-1) and Y of shape (k, n-1, n); 0 wherever YX is
    nonsingular.

    Solved in two stages.  a X = 0 puts every row of a in the left null
    space of X, so a = sum_j c_j w_j^T over a basis w_1..w_m of that space,
    and a is determined by the columns c_j.  What remains is Y c_j = 0 for
    each j and the trace sum_j w_j . c_j = 0: an (m(n-1) + 1) x mn system,
    n x n when X has rank n-1.  The k null spaces are found as one stack,
    and the systems of each size m as one more.
    """
    k, n, _ = x.shape
    bases = kernel(field, np.swapaxes(x, 1, 2))
    dims = [0] * k
    for m in sorted({len(w) for w in bases}):
        ids = [i for i, w in enumerate(bases) if len(w) == m]
        j = np.arange(m)
        # unknown c_j[b] is column j*n + b; row block j holds Y c_j
        ys = field.zeros((len(ids), m, n - 1, m, n))
        ys[:, j, :, j, :] = y[ids]
        trace = np.stack([bases[i] for i in ids]).reshape(len(ids), 1, m * n)
        systems = np.concatenate([ys.reshape(len(ids), m * (n - 1), m * n), trace], axis=1)
        for i, r in zip(ids, rank(field, systems)):
            dims[i] = m * n - r
    return dims


def jacobian_ranks_pi(field, x, y) -> list[int]:
    """Rank of (H, K) -> Y H + K X, from dimension 2n(n-1) onto (n-1)^2, for
    each pair of a stack, X of shape (k, n, n-1) and Y of shape (k, n-1, n);
    the k Jacobians are eliminated as one stack."""
    k, n, _ = x.shape
    idx = np.arange(n - 1)
    # row (i, j); H[a, j] is column a*(n-1)+j, K[i, b] is column n(n-1) + i*n + b
    yh = field.zeros((k, n - 1, n - 1, n, n - 1))
    yh[:, :, idx, :, idx] = y
    kx = field.zeros((k, n - 1, n - 1, n - 1, n))
    kx[:, idx, :, idx, :] = np.swapaxes(x, 1, 2)
    mat = np.concatenate([m.reshape(k, (n - 1) ** 2, -1) for m in (yh, kx)], axis=2)
    return rank(field, mat)


def _lower_unitriangular_inverse(field, t):
    """Inverses of a stack of lower unitriangular matrices T, by forward
    substitution: row i of T^{-1} is e_i - T[i, :i] T^{-1}[:i]."""
    n = t.shape[-1]
    inv = np.broadcast_to(field.eye(n), t.shape).copy()
    for i in range(1, n):
        inv[..., i, :i] = field.reduce(-field.matmul(t[..., i, None, :i], inv[..., :i, :i])[..., 0, :])
    return inv


def _sl_with_inverse(field, n, scalars):
    """(A, A^{-1}) with A = LU, from scalars of shape (..., n(n-1)).

    For each i and each j < i the scalars give the entry L[i, j], then
    U[j, i].  A^{-1} = U^{-1} L^{-1}, and U^{-1} is the transpose of the
    inverse of U^T.
    """
    rows, cols = np.tril_indices(n, -1)
    lo = np.broadcast_to(field.eye(n), scalars.shape[:-1] + (n, n)).copy()
    up_t = lo.copy()
    lo[..., rows, cols] = scalars[..., 0::2]
    up_t[..., rows, cols] = scalars[..., 1::2]
    a = field.matmul(lo, np.swapaxes(up_t, -1, -2))
    up_inv = np.swapaxes(_lower_unitriangular_inverse(field, up_t), -1, -2)
    return a, field.matmul(up_inv, _lower_unitriangular_inverse(field, lo))


def random_pairs(field, n: int, rng: RandomSource, count: int):
    """``count`` random pairs, stacked: X of shape (count, n, n-1) and Y of
    shape (count, n-1, n).  Each pair draws the entries of X, then of Y,
    row by row."""
    k = n * (n - 1)
    s = rng.scalars(field, count * 2 * k).reshape(count, 2 * k)
    return s[:, :k].reshape(count, n, n - 1), s[:, k:].reshape(count, n - 1, n)


def random_samples(field, n: int, rng: RandomSource, count: int):
    """``count`` random pairs with a random SL_n element each, stacked:
    (X, Y, A, A^{-1}).

    Each sample draws its pair as ``random_pairs`` does, then the n(n-1)
    scalars of A = LU in the order ``_sl_with_inverse`` reads them.
    """
    k = n * (n - 1)
    s = rng.scalars(field, count * 3 * k).reshape(count, 3 * k)
    a, a_inv = _sl_with_inverse(field, n, s[:, 2 * k :])
    return s[:, :k].reshape(count, n, n - 1), s[:, k : 2 * k].reshape(count, n - 1, n), a, a_inv
