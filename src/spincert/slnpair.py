"""The SL_n action on matrix pairs and its invariant product map.

V is the space of pairs (X, Y) with X of shape n x (n-1) and Y of shape
(n-1) x n.  SL_n acts by A: (X, Y) -> (AX, Y A^{-1}); the involution tau
swaps and transposes; pi(X, Y) = YX is SL_n-invariant.  The operations here
turn the nonsingular-pi fiber geometry into executable exact checks:
normalization of X to the J block, the unipotent transporter inside one
fiber, triviality of the tangent stabilizer, and surjectivity of the
differential of pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import RandomSource
from .linalg import NON_UNIQUE, NO_SOLUTION, Matrix, random_matrix

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
    "fiber_transporter",
    "stabilizer_lie_dim",
    "jacobian_rank_pi",
    "random_sl",
    "random_pair",
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


def act(a: Matrix, pair: MatrixPair) -> MatrixPair:
    """(X, Y) -> (AX, Y A^{-1}), defined only for det(A) = 1."""
    n = pair.n
    if a.rows != n or a.cols != n:
        raise ValueError("acting matrix has the wrong size")
    if a.det() != pair.field.one:
        raise NotInSLn("acting matrix must have determinant 1")
    return MatrixPair(a @ pair.X, pair.Y @ a.inverse())


def tau(pair: MatrixPair) -> MatrixPair:
    """The involution (X, Y) -> (Y^T, X^T)."""
    return MatrixPair(pair.Y.T, pair.X.T)


def pi(pair: MatrixPair) -> Matrix:
    """The invariant product YX, an (n-1) x (n-1) matrix."""
    return pair.Y @ pair.X


def normalize_to_j(pair: MatrixPair) -> tuple[Matrix, Matrix]:
    """Find A in SL_n with A X = J; returns (A, Y A^{-1}).

    The columns of X are completed to a basis by the first standard basis
    vector outside their span, and that appended column is scaled by the
    inverse determinant to land in SL_n.  Deterministic by construction.
    """
    n = pair.n
    field = pair.field
    if pair.X.rank() != n - 1:
        raise DegeneratePair("X has rank below n-1")
    completed = None
    for i in range(n):
        e = Matrix.zeros(field, n, 1).data.copy()
        e[i, 0] = field.one
        cand = Matrix.hstack([pair.X, Matrix(field, e)])
        if cand.rank() == n:
            completed = cand
            break
    assert completed is not None
    d = completed.det()
    scaled = completed.data.copy()
    scaled[:, n - 1] = field.reduce(scaled[:, n - 1] * field.inv(d))
    basis = Matrix(field, None, _raw=scaled)
    a = basis.inverse()
    j = canonical_j(field, n)
    if not (a @ pair.X) == j:
        raise AssertionError("normalization replay failed")
    return a, pair.Y @ basis


def fiber_transporter(pair_jy: MatrixPair, pair_jz: MatrixPair) -> Matrix:
    """The unique unipotent A with A . (J, Y) = (J, Z), for nonsingular YX.

    AJ = J forces A to be the identity plus a free last column t; Z A = Y
    then is a linear system whose coefficient matrix is exactly YJ, so
    nonsingularity gives exactly one solution.  Y = Z returns the identity,
    which is the scheme-theoretic triviality of the stabilizer seen at the
    level of points.
    """
    n = pair_jy.n
    field = pair_jy.field
    j = canonical_j(field, n)
    if not (pair_jy.X == j and pair_jz.X == j):
        raise ValueError("fiber transporter expects pairs normalized to J")
    pi_y = pi(pair_jy)
    pi_z = pi(pair_jz)
    if not pi_y == pi_z:
        raise NotSameFiber("pairs have different products YX")
    if pi_y.rank() != n - 1:
        raise SingularFiber("YX is singular")
    t = pi_y.solve(field.reduce(pair_jy.Y.col(n - 1) - pair_jz.Y.col(n - 1)))
    if t is NO_SOLUTION or t is NON_UNIQUE:
        raise AssertionError("nonsingular system failed to solve uniquely")
    arr = Matrix.identity(field, n).data.copy()
    arr[: n - 1, n - 1] = t
    a = Matrix(field, None, _raw=arr)
    moved = act(a, pair_jy)
    if not (moved.X == pair_jz.X and moved.Y == pair_jz.Y):
        raise AssertionError("transporter replay failed")
    return a


def stabilizer_lie_dim(pair: MatrixPair) -> int:
    """dim {a in sl_n : a X = 0 and Y a = 0}; 0 whenever YX is nonsingular."""
    n = pair.n
    field = pair.field
    rows = []
    # (aX)[i, j] = sum_k a[i, k] X[k, j]
    for i in range(n):
        for jcol in range(n - 1):
            row = field.zeros(n * n)
            for k in range(n):
                row[i * n + k] = pair.X.data[k, jcol]
            rows.append(row)
    # (Ya)[i, j] = sum_k Y[i, k] a[k, j]
    for i in range(n - 1):
        for jcol in range(n):
            row = field.zeros(n * n)
            for k in range(n):
                row[k * n + jcol] = pair.Y.data[i, k]
            rows.append(row)
    trace = field.zeros(n * n)
    for i in range(n):
        trace[i * n + i] = field.one
    rows.append(trace)
    system = Matrix(field, np.stack(rows))
    return len(system.kernel_basis())


def jacobian_rank_pi(pair: MatrixPair) -> int:
    """Rank of (H, K) -> Y H + K X from dimension 2n(n-1) onto (n-1)^2."""
    n = pair.n
    field = pair.field
    mat = field.zeros(((n - 1) * (n - 1), 2 * n * (n - 1)))
    # H has shape n x (n-1): columns H[a, j] at index a*(n-1)+j
    # K has shape (n-1) x n: columns K[i, b] at offset n(n-1) + i*n + b
    off = n * (n - 1)
    for i in range(n - 1):
        for j in range(n - 1):
            r = i * (n - 1) + j
            for a in range(n):
                mat[r, a * (n - 1) + j] = pair.Y.data[i, a]
            for b in range(n):
                mat[r, off + i * n + b] = pair.X.data[b, j]
    return Matrix(field, None, _raw=mat).rank()


def random_sl(field, n: int, rng: RandomSource) -> Matrix:
    """A random determinant-one matrix: product of two random unitriangulars."""
    lo = Matrix.identity(field, n).data.copy()
    up = Matrix.identity(field, n).data.copy()
    for i in range(n):
        for j in range(i):
            lo[i, j] = rng.scalar(field)
            up[j, i] = rng.scalar(field)
    return Matrix(field, None, _raw=lo) @ Matrix(field, None, _raw=up)


def random_pair(field, n: int, rng: RandomSource) -> MatrixPair:
    return MatrixPair(random_matrix(field, n, n - 1, rng), random_matrix(field, n - 1, n, rng))


def random_fiber_partner(pair_jy: MatrixPair, rng: RandomSource) -> MatrixPair:
    """A pair (J, Z) in the same fiber: Z shares the left block of Y, with a
    fresh last column (that column is the free parameter of the fiber)."""
    n = pair_jy.n
    field = pair_jy.field
    z = pair_jy.Y.data.copy()
    for i in range(n - 1):
        z[i, n - 1] = rng.scalar(field)
    return MatrixPair(pair_jy.X, Matrix(field, None, _raw=z))
