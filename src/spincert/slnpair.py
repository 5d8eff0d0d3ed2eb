"""The SL_n action on matrix pairs and its invariant product map.

V is the space of pairs (X, Y) with X of shape n x (n-1) and Y of shape
(n-1) x n.  SL_n acts by A: (X, Y) -> (AX, Y A^{-1}); the involution tau
swaps and transposes; pi(X, Y) = YX is SL_n-invariant.  The operations here
turn the nonsingular-pi fiber geometry into executable exact checks:
normalization of X to the J block, the unipotent transporter inside one
fiber, triviality of the tangent stabilizer, and surjectivity of the
differential of pi.

Every function takes and returns field arrays, with the same code over
either field: X of shape (..., n, n-1) and Y of shape (..., n-1, n), one
pair or a stack of pairs along a leading axis.  ``act``, ``tau`` and ``pi``
take either; ``normalizations_to_j``, ``stabilizer_lie_dims`` and
``jacobian_ranks_pi`` take a stack and eliminate the systems of all its
pairs as one stack (``linalg.rref``), so a single pair is a stack of one;
``fiber_transporter`` and ``random_fiber_partner`` take Y blocks of single
pairs normalized to J.  Group elements always come with their
inverse, so acting needs no elimination: ``random_samples`` draws A = LU
from two unitriangular factors and forms A^{-1} = U^{-1} L^{-1} by forward
substitution, normalization inverts the completed basis of X, and a
transporter I + t e_n^T has inverse I - t e_n^T.  ``act`` checks the given
inverse with one product and refuses a determinant other than one.
"""

from __future__ import annotations

import numpy as np

from .fields import RandomSource
from .linalg import NON_UNIQUE, NO_SOLUTION, det, rank, rref, solve

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
    "random_fiber_partner",
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
    """(X, Y) -> (AX, Y A^{-1}) for A in SL_n, with A^{-1} given by the caller.

    ``a`` and ``a_inv`` have shape (..., n, n), matching the pairs.
    Raises ValueError unless A A^{-1} = I, and NotInSLn for any A whose
    determinant is not one.
    """
    n = x.shape[-2]
    if a.shape[-2:] != (n, n) or a_inv.shape != a.shape:
        raise ValueError("acting matrix has the wrong size")
    if not np.array_equal(field.matmul(a, a_inv), np.broadcast_to(field.eye(n), a.shape)):
        raise ValueError("a_inv is not the inverse of a")
    if any(d != 1 for d in det(field, a.reshape(-1, n, n))):
        raise NotInSLn("acting matrix must have determinant 1")
    return field.matmul(a, x), field.matmul(y, a_inv)


def tau(x, y):
    """The involution (X, Y) -> (Y^T, X^T)."""
    return np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2)


def pi(field, x, y):
    """The invariant product YX, of shape (..., n-1, n-1)."""
    return field.matmul(y, x)


def normalizations_to_j(field, x) -> list:
    """For each X of a stack of shape (k, n, n-1), (A, A^{-1}) with A in SL_n
    and A X = J, or None where X has rank below n-1.

    The columns of X are completed to a basis by the first standard basis
    vector e_i outside their span, and that appended column is scaled by the
    inverse determinant to land in SL_n; A^{-1} is that basis.  One
    reduction of [X | I] finds everything: X has rank n-1 iff its columns
    are pivots, the next pivot is the column of e_i, and the right block E
    of the reduced form is [X | e_i]^{-1}.  So the scale is det E, and A is
    E with its last row divided by det E.  Deterministic by construction;
    the k reductions run as one stack.
    """
    k, n, _ = x.shape
    j = canonical_j(field, n)
    aug = np.concatenate([x, np.broadcast_to(field.eye(n), (k, n, n))], axis=2)
    out = []
    for xk, (red, pivots) in zip(x, rref(field, aug)):
        if pivots[: n - 1] != tuple(range(n - 1)):
            out.append(None)
            continue
        e = red[:, n - 1 :]
        (scale,) = det(field, e[None])
        basis = np.hstack([xk, field.zeros((n, 1))])
        basis[pivots[n - 1] - (n - 1), n - 1] = scale
        a = e.copy()
        a[n - 1] = field.reduce(a[n - 1] * field.inv(scale))
        if not np.array_equal(field.matmul(a, xk), j):
            raise AssertionError("normalization replay failed")
        out.append((a, basis))
    return out


def fiber_transporter(field, y, z) -> np.ndarray:
    """The unique unipotent A with A . (J, Y) = (J, Z), for nonsingular YJ.

    ``y`` and ``z`` are the Y blocks of two pairs normalized to J.  AJ = J
    forces A to be the identity plus a free last column t; Z A = Y then is
    a linear system whose coefficient matrix is exactly YJ, so
    nonsingularity gives exactly one solution, and a singular YJ gives none
    or many.  Y = Z returns the identity, which is the scheme-theoretic
    triviality of the stabilizer seen at the level of points.
    """
    n = y.shape[-1]
    j = canonical_j(field, n)
    pi_y = pi(field, j, y)
    if not np.array_equal(pi_y, pi(field, j, z)):
        raise NotSameFiber("pairs have different products YX")
    (t,) = solve(field, pi_y[None], field.reduce(y[:, n - 1] - z[:, n - 1])[None])
    if t is NO_SOLUTION or t is NON_UNIQUE:
        raise SingularFiber("YX is singular")
    a, a_inv = field.eye(n), field.eye(n)
    a[: n - 1, n - 1] = t
    a_inv[: n - 1, n - 1] = field.reduce(-t)
    moved_j, moved_y = act(field, a, a_inv, j, y)
    if not (np.array_equal(moved_j, j) and np.array_equal(moved_y, z)):
        raise AssertionError("transporter replay failed")
    return a


def stabilizer_lie_dims(field, x, y) -> list[int]:
    """dim {a in sl_n : a X = 0 and Y a = 0} for each pair of a stack, X of
    shape (k, n, n-1) and Y of shape (k, n-1, n); 0 wherever YX is
    nonsingular.  The k systems are eliminated as one stack."""
    n = x.shape[1]
    return [n * n - r for r in rank(field, _stabilizer_systems(field, x, y))]


def _stabilizer_systems(field, x, y):
    """The (k, 2n(n-1) + 1, n^2) systems a X = 0, Y a = 0, trace a = 0."""
    k, n, _ = x.shape
    idx = np.arange(n)
    # a flattened row-major: (aX)[i, j] = sum_k X[k, j] a[i, k], (Ya)[i, j] = sum_k Y[i, k] a[k, j]
    ax = field.zeros((k, n, n - 1, n, n))
    ax[:, idx, :, idx, :] = np.swapaxes(x, 1, 2)
    ya = field.zeros((k, n - 1, n, n, n))
    ya[:, :, idx, :, idx] = y
    trace = field.zeros((k, 1, n, n))
    trace[:, 0, idx, idx] = field.scalar(1)
    return np.concatenate([m.reshape(k, -1, n * n) for m in (ax, ya, trace)], axis=1)


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


def random_fiber_partner(field, y, rng: RandomSource) -> np.ndarray:
    """The Y block Z of a pair (J, Z) in the fiber of (J, Y): Z shares the
    left block of Y, with a fresh last column (that column is the free
    parameter of the fiber)."""
    n = y.shape[-1]
    z = y.copy()
    z[: n - 1, n - 1] = rng.scalars(field, n - 1)
    return z
