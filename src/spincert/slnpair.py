"""The SL_n action on matrix pairs and its invariant product map.

V is the space of pairs (X, Y) with X of shape n x (n-1) and Y of shape
(n-1) x n.  SL_n acts by A: (X, Y) -> (AX, Y A^{-1}); the involution tau
swaps and transposes; pi(X, Y) = YX is SL_n-invariant.  The operations here
turn the nonsingular-pi fiber geometry into executable exact checks:
normalization of X to the J block, the unipotent transporter inside one
fiber, triviality of the tangent stabilizer, and surjectivity of the
differential of pi.

Group elements always come with their inverse, so acting needs no
elimination: ``random_sl`` and ``random_samples`` draw A = LU from two
unitriangular factors and form A^{-1} = U^{-1} L^{-1} by forward substitution,
normalization inverts the completed basis of X, and a transporter I + t e_n^T
has inverse I - t e_n^T.  ``act`` checks the given inverse with one product
and refuses a determinant other than one.  It takes field arrays, one pair
or a stack, so ``random_samples`` and ``act`` run many samples in a few
batched products, with the same code over either field.  The sampled checks
take stacks too: ``normalizations_to_j``, ``stabilizer_lie_dims`` and
``jacobian_ranks_pi`` eliminate the systems of all their pairs as one stack
(``Matrix.stacked``), and the single-pair functions are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import RandomSource
from .linalg import NON_UNIQUE, NO_SOLUTION, Matrix

__all__ = [
    "NotInSLn",
    "DegeneratePair",
    "NotSameFiber",
    "SingularFiber",
    "MatrixPair",
    "canonical_j",
    "act",
    "tau",
    "pi",
    "normalize_to_j",
    "normalizations_to_j",
    "fiber_transporter",
    "stabilizer_lie_dim",
    "stabilizer_lie_dims",
    "jacobian_rank_pi",
    "jacobian_ranks_pi",
    "random_sl",
    "random_pair",
    "random_pairs",
    "random_samples",
    "random_fiber_partner",
]


class NotInSLn(ValueError):
    """The acting matrix does not have determinant one."""


class DegeneratePair(ValueError):
    """X has rank below n-1, so no SL_n translate reaches the J form."""


class NotSameFiber(ValueError):
    """The two pairs have different products YX."""


class SingularFiber(ValueError):
    """The product YX is singular; the transporter system is not unique."""


@dataclass(frozen=True)
class MatrixPair:
    """A point (X, Y) of the pair space, shape-checked on construction."""

    X: Matrix
    Y: Matrix

    def __post_init__(self):
        n = self.X.rows
        if self.X.cols != n - 1 or self.Y.rows != n - 1 or self.Y.cols != n:
            raise ValueError(
                f"pair shapes must be n x (n-1) and (n-1) x n, got {self.X.shape} and {self.Y.shape}"
            )
        if self.X.field != self.Y.field:
            raise ValueError("pair components over different fields")
        if n < 2:
            raise ValueError("need n >= 2")

    @property
    def n(self) -> int:
        return self.X.rows

    @property
    def field(self):
        return self.X.field


def canonical_j(field, n: int) -> Matrix:
    """The n x (n-1) block with the identity on top and a zero last row."""
    arr = np.zeros((n, n - 1), dtype=np.int64)
    for i in range(n - 1):
        arr[i, i] = 1
    return Matrix(field, arr)


def act(field, a, a_inv, x, y):
    """(X, Y) -> (AX, Y A^{-1}) for A in SL_n, with A^{-1} given by the caller.

    Field arrays: ``a`` and ``a_inv`` of shape (..., n, n), ``x`` of shape
    (..., n, n-1) and ``y`` of shape (..., n-1, n), one pair or a stack.
    Raises ValueError unless A A^{-1} = I, and NotInSLn for any A whose
    determinant is not one.
    """
    n = x.shape[-2]
    if a.shape[-2:] != (n, n) or a_inv.shape != a.shape:
        raise ValueError("acting matrix has the wrong size")
    if not np.array_equal(field.matmul(a, a_inv), np.broadcast_to(field.eye(n), a.shape)):
        raise ValueError("a_inv is not the inverse of a")
    if any(Matrix(field, None, _raw=m).det() != 1 for m in a.reshape(-1, n, n)):
        raise NotInSLn("acting matrix must have determinant 1")
    return field.matmul(a, x), field.matmul(y, a_inv)


def tau(pair: MatrixPair) -> MatrixPair:
    """The involution (X, Y) -> (Y^T, X^T)."""
    return MatrixPair(pair.Y.T, pair.X.T)


def pi(pair: MatrixPair) -> Matrix:
    """The invariant product YX, an (n-1) x (n-1) matrix."""
    return pair.Y @ pair.X


def normalize_to_j(pair: MatrixPair) -> tuple[Matrix, Matrix]:
    """Find A in SL_n with A X = J; returns (A, A^{-1}).

    The columns of X are completed to a basis by the first standard basis
    vector e_i outside their span, and that appended column is scaled by the
    inverse determinant to land in SL_n; A^{-1} is that basis.  One
    reduction of [X | I] finds everything: X has rank n-1 iff its columns
    are pivots, the next pivot is the column of e_i, and the right block E
    of the reduced form is [X | e_i]^{-1}.  So the scale is det E, and A is
    E with its last row divided by det E.  Deterministic by construction.
    """
    (found,) = normalizations_to_j(pair.field, pair.X.data[None])
    if found is None:
        raise DegeneratePair("X has rank below n-1")
    return tuple(Matrix(pair.field, None, _raw=m) for m in found)


def normalizations_to_j(field, x) -> list:
    """``normalize_to_j`` for a stack of X blocks of shape (k, n, n-1).

    One (A, A^{-1}) pair of field arrays per block, or None where X has
    rank below n-1; the k reductions of [X | I] run as one stack.
    """
    k, n, _ = x.shape
    j = canonical_j(field, n).data
    aug = np.concatenate([x, np.broadcast_to(field.eye(n), (k, n, n))], axis=2)
    out = []
    for xk, m in zip(x, Matrix.stacked(field, aug)):
        red, pivots = m.rref()
        if pivots[: n - 1] != tuple(range(n - 1)):
            out.append(None)
            continue
        e = red.data[:, n - 1 :]
        scale = Matrix(field, None, _raw=e).det()
        basis = np.hstack([xk, field.zeros((n, 1))])
        basis[pivots[n - 1] - (n - 1), n - 1] = scale
        a = e.copy()
        a[n - 1] = field.reduce(a[n - 1] * field.inv(scale))
        if not np.array_equal(field.matmul(a, xk), j):
            raise AssertionError("normalization replay failed")
        out.append((a, basis))
    return out


def fiber_transporter(pair_jy: MatrixPair, pair_jz: MatrixPair) -> Matrix:
    """The unique unipotent A with A . (J, Y) = (J, Z), for nonsingular YX.

    AJ = J forces A to be the identity plus a free last column t; Z A = Y
    then is a linear system whose coefficient matrix is exactly YJ, so
    nonsingularity gives exactly one solution, and a singular YX gives none
    or many.  Y = Z returns the identity, which is the scheme-theoretic
    triviality of the stabilizer seen at the level of points.
    """
    n = pair_jy.n
    field = pair_jy.field
    j = canonical_j(field, n)
    if not (pair_jy.X == j and pair_jz.X == j):
        raise ValueError("fiber transporter expects pairs normalized to J")
    pi_y = pi(pair_jy)
    if not pi_y == pi(pair_jz):
        raise NotSameFiber("pairs have different products YX")
    t = pi_y.solve(field.reduce(pair_jy.Y.col(n - 1) - pair_jz.Y.col(n - 1)))
    if t is NO_SOLUTION or t is NON_UNIQUE:
        raise SingularFiber("YX is singular")
    a, a_inv = field.eye(n), field.eye(n)
    a[: n - 1, n - 1] = t
    a_inv[: n - 1, n - 1] = field.reduce(-t)
    x, y = act(field, a, a_inv, pair_jy.X.data, pair_jy.Y.data)
    if not (np.array_equal(x, pair_jz.X.data) and np.array_equal(y, pair_jz.Y.data)):
        raise AssertionError("transporter replay failed")
    return Matrix(field, None, _raw=a)


def stabilizer_lie_dim(pair: MatrixPair) -> int:
    """dim {a in sl_n : a X = 0 and Y a = 0}; 0 whenever YX is nonsingular."""
    return stabilizer_lie_dims(pair.field, pair.X.data[None], pair.Y.data[None])[0]


def stabilizer_lie_dims(field, x, y) -> list[int]:
    """``stabilizer_lie_dim`` of each pair of a stack, X of shape (k, n, n-1)
    and Y of shape (k, n-1, n); the k systems are eliminated as one stack."""
    return [len(m.kernel_basis()) for m in Matrix.stacked(field, _stabilizer_systems(field, x, y))]


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


def jacobian_rank_pi(pair: MatrixPair) -> int:
    """Rank of (H, K) -> Y H + K X from dimension 2n(n-1) onto (n-1)^2."""
    return jacobian_ranks_pi(pair.field, pair.X.data[None], pair.Y.data[None])[0]


def jacobian_ranks_pi(field, x, y) -> list[int]:
    """``jacobian_rank_pi`` of each pair of a stack, X of shape (k, n, n-1)
    and Y of shape (k, n-1, n); the k Jacobians are eliminated as one stack."""
    k, n, _ = x.shape
    idx = np.arange(n - 1)
    # row (i, j); H[a, j] is column a*(n-1)+j, K[i, b] is column n(n-1) + i*n + b
    yh = field.zeros((k, n - 1, n - 1, n, n - 1))
    yh[:, :, idx, :, idx] = y
    kx = field.zeros((k, n - 1, n - 1, n - 1, n))
    kx[:, idx, :, idx, :] = np.swapaxes(x, 1, 2)
    mat = np.concatenate([m.reshape(k, (n - 1) ** 2, -1) for m in (yh, kx)], axis=2)
    return [m.rank() for m in Matrix.stacked(field, mat)]


def _lower_unitriangular_inverse(field, t):
    """Inverses of a stack of lower unitriangular matrices T, by forward
    substitution: row i of T^{-1} is e_i - T[i, :i] T^{-1}[:i]."""
    n = t.shape[-1]
    inv = np.broadcast_to(field.eye(n), t.shape).copy()
    for i in range(1, n):
        inv[..., i, :i] = field.reduce(-field.matmul(t[..., i, None, :i], inv[..., :i, :i])[..., 0, :])
    return inv


def _sl_with_inverse(field, n, scalars):
    """(A, A^{-1}) with A = LU, from scalars in the order ``random_sl`` draws them.

    ``scalars`` has shape (..., n(n-1)): for each i and each j < i the entry
    L[i, j], then U[j, i].  A^{-1} = U^{-1} L^{-1}, and U^{-1} is the
    transpose of the inverse of U^T.
    """
    rows, cols = np.tril_indices(n, -1)
    lo = np.broadcast_to(field.eye(n), scalars.shape[:-1] + (n, n)).copy()
    up_t = lo.copy()
    lo[..., rows, cols] = scalars[..., 0::2]
    up_t[..., rows, cols] = scalars[..., 1::2]
    a = field.matmul(lo, np.swapaxes(up_t, -1, -2))
    up_inv = np.swapaxes(_lower_unitriangular_inverse(field, up_t), -1, -2)
    return a, field.matmul(up_inv, _lower_unitriangular_inverse(field, lo))


def random_sl(field, n: int, rng: RandomSource) -> tuple[Matrix, Matrix]:
    """A random determinant-one matrix and its inverse: A = LU for two random unitriangulars."""
    a, a_inv = _sl_with_inverse(field, n, field.array(rng.scalars(field, n * (n - 1))))
    return Matrix(field, None, _raw=a), Matrix(field, None, _raw=a_inv)


def random_pair(field, n: int, rng: RandomSource) -> MatrixPair:
    (x,), (y,) = random_pairs(field, n, rng, 1)
    return MatrixPair(Matrix(field, None, _raw=x), Matrix(field, None, _raw=y))


def random_pairs(field, n: int, rng: RandomSource, count: int):
    """``count`` draws of ``random_pair``, stacked: X of shape (count, n, n-1)
    and Y of shape (count, n-1, n), from the same scalars in the same order."""
    k = n * (n - 1)
    s = field.array(rng.scalars(field, count * 2 * k)).reshape(count, 2 * k)
    return s[:, :k].reshape(count, n, n - 1), s[:, k:].reshape(count, n - 1, n)


def random_samples(field, n: int, rng: RandomSource, count: int):
    """``count`` draws of (random_pair, random_sl), stacked: (X, Y, A, A^{-1}).

    The scalars, and their order in the stream, are those of ``count``
    alternating calls to ``random_pair`` and ``random_sl``.
    """
    k = n * (n - 1)
    s = field.array(rng.scalars(field, count * 3 * k)).reshape(count, 3 * k)
    a, a_inv = _sl_with_inverse(field, n, s[:, 2 * k :])
    return s[:, :k].reshape(count, n, n - 1), s[:, k : 2 * k].reshape(count, n - 1, n), a, a_inv


def random_fiber_partner(pair_jy: MatrixPair, rng: RandomSource) -> MatrixPair:
    """A pair (J, Z) in the same fiber: Z shares the left block of Y, with a
    fresh last column (that column is the free parameter of the fiber)."""
    n = pair_jy.n
    field = pair_jy.field
    z = pair_jy.Y.data.copy()
    z[: n - 1, n - 1] = rng.scalars(field, n - 1)
    return MatrixPair(pair_jy.X, Matrix(field, None, _raw=z))
