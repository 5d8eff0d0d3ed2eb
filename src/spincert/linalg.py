"""Dense exact linear algebra over Q and F_p, as functions over field arrays.

A matrix is a field array (see ``fields``), and a single matrix is a stack
of one: ``rref``, ``rank``, ``kernel``, ``solve`` and ``det`` take a
``(k, rows, cols)`` stack and return one result per matrix.  Elimination is
the one step that differs by field (``_eliminate``): over F_p a stack of
more than one matrix is one ``kernels.rref_stack`` call, which is how the
genericity protocols eliminate all their trials, and a single matrix goes
through ``kernels.rref_mod``; over Q each matrix goes through fraction-free
Gauss-Jordan on cleared-denominator integer rows, which forms one
``Fraction`` per output entry at the end (``_rref_qq``).  Pivoting is always
first-nonzero in column order, so every result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, _cleared
from .kernels import rref_mod, rref_stack

__all__ = [
    "NoSolution",
    "NonUnique",
    "NO_SOLUTION",
    "NON_UNIQUE",
    "rref",
    "rank",
    "kernel",
    "solve",
    "det",
    "associative_closure",
    "commutant_dimension",
    "SpanBuilder",
    "coordinates_in_span",
]


class NoSolution:
    """Marker: the linear system has no solution."""

    def __repr__(self):
        return "NoSolution"


class NonUnique:
    """Marker: the system is consistent but the kernel is nontrivial."""

    def __repr__(self):
        return "NonUnique"


NO_SOLUTION = NoSolution()
NON_UNIQUE = NonUnique()


# -- elimination ---------------------------------------------------------------


def rref(field, stack) -> list[tuple[np.ndarray, tuple]]:
    """Reduced row echelon form of every matrix of a (k, rows, cols) field
    array: one (array, pivot column tuple) per matrix."""
    if np.ndim(stack) != 3:
        raise ValueError(f"elimination needs a (k, rows, cols) stack, got shape {np.shape(stack)}")
    return _eliminate(field, stack)


def rank(field, stack) -> list[int]:
    return [len(pivots) for _, pivots in rref(field, stack)]


def kernel(field, stack) -> list[np.ndarray]:
    """Basis of the right null space of every matrix of a stack, as the rows
    of a (nullity, cols) array; each row v satisfies m @ v == 0."""
    cols = np.shape(stack)[-1]
    out = []
    for red, pivots in rref(field, stack):
        free = np.delete(np.arange(cols), pivots)
        basis = field.zeros((len(free), cols))
        basis[:, free] = field.eye(len(free))
        basis[:, list(pivots)] = field.reduce(-red[: len(pivots), free].T)
        out.append(basis)
    return out


def solve(field, a, b) -> list:
    """Solve ``a[i] @ x = b[i]`` for a (k, rows, cols) stack and (k, rows) right-hand sides.

    Each result is the unique solution vector, or NO_SOLUTION / NON_UNIQUE.
    The two failure modes are never collapsed: uniqueness is load-bearing
    for the fiber-transporter argument.
    """
    k, rows, cols = np.shape(a)
    if np.shape(b) != (k, rows):
        raise ValueError("dimension mismatch between matrix and rhs")
    out = []
    for red, pivots in rref(field, np.concatenate([a, b[:, :, None]], axis=2)):
        if cols in pivots:
            out.append(NO_SOLUTION)
        elif len(pivots) < cols:
            out.append(NON_UNIQUE)
        else:
            out.append(red[:cols, cols].copy())
    return out


def det(field, stack) -> list:
    """Determinant of every matrix of a (k, n, n) stack, exact over either
    field.  Over F_p one int64 Gaussian elimination runs over the whole
    stack, column by column with first-nonzero pivoting and row swaps, and
    multiplies the pivots mod p (p < 2^31 keeps every product below 2^62);
    over Q each matrix runs Bareiss elimination on integer rows."""
    k, rows, cols = np.shape(stack)
    if rows != cols:
        raise ValueError("det of non-square matrix")
    if isinstance(field, PrimeField):
        p = field.p
        m = np.asarray(stack, dtype=np.int64) % p
        out = np.ones(k, dtype=np.int64)
        at = np.arange(k)
        for c in range(rows):
            r = c + np.argmax(m[:, c:, c] != 0, axis=1)  # c itself where the column is zero: pivot 0
            m[at, c], m[at, r] = m[at, r], m[at, c]
            out = np.where(r != c, -out, out) * m[:, c, c] % p
            inv = np.array([pow(v, -1, p) if v else 0 for v in m[:, c, c].tolist()], dtype=np.int64)
            f = m[:, c + 1 :, c] * inv[:, None] % p
            m[:, c + 1 :, c:] = (m[:, c + 1 :, c:] - f[:, :, None] * m[:, None, c, c:]) % p
        return out.tolist()
    out = []
    for m in stack:
        ints, den = _cleared(m)
        out.append(Fraction(_det_int(ints.tolist()), den**rows))
    return out


def _eliminate(field, arr):
    """RREF of every matrix of a (k, rows, cols) field array: [(array, pivots)].

    Over F_p a stack of more than one matrix is one ``kernels.rref_stack``
    call and a single matrix goes through ``rref_mod``; over Q each matrix
    goes through ``_rref_qq``.
    """
    if not isinstance(field, PrimeField):
        return [_rref_qq(x) for x in arr]
    if len(arr) == 1:
        return [rref_mod(arr[0], field.p)]
    red, pivots = rref_stack(arr, field.p)
    return list(zip(red, pivots))


def _rref_qq(arr: np.ndarray):
    """RREF over Q by fraction-free Gauss-Jordan on integer rows.

    The matrix is first scaled by the lcm of its denominators, which changes
    neither the row space nor the pivots.  Each pivot step then replaces
    every other row by (piv * row - f * pivot row) / prev, prev the previous
    pivot; the division is exact, because every entry stays an integer minor
    (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and Williams, ACM SIGSAM
    Bull. 31(3), 1997).  At the end each pivot row is d times its reduced
    row, d the last pivot, so each output entry is one ``Fraction(x, d)``.
    """
    rows, cols = arr.shape
    m, _ = _cleared(arr)
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c] != 0)
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        piv = m[r, c]
        others = np.arange(rows) != r
        m[others] = (piv * m[others] - np.outer(m[others, c], m[r])) // prev
        prev = piv
        pivots.append(c)
    out = np.full((rows, cols), Fraction(0), dtype=object)
    out[: len(pivots)] = np.frompyfunc(lambda x: Fraction(x, prev), 1, 1)(m[: len(pivots)])
    return out, tuple(pivots)


def _det_int(work: list[list[int]]) -> int:
    """Determinant of an integer matrix (rows as lists, consumed) by Bareiss elimination."""
    n = len(work)
    sign = 1
    prev = 1
    for c in range(n):
        sel = next((i for i in range(c, n) if work[i][c]), -1)
        if sel < 0:
            return 0
        if sel != c:
            work[c], work[sel] = work[sel], work[c]
            sign = -sign
        piv = work[c][c]
        for i in range(c + 1, n):
            f = work[i][c]
            work[i] = [(piv * x - f * y) // prev for x, y in zip(work[i], work[c])]
        prev = piv
    return sign * prev


# -- spans -------------------------------------------------------------------


class SpanBuilder:
    """Incremental row-space in reduced echelon form.

    Tracks the dimension of vector-at-a-time span closures such as octonion
    subalgebras.
    """

    def __init__(self, field, ambient_dim: int):
        self.field = field
        self.n = ambient_dim
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> np.ndarray:
        v = self.field.array(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = self.field.reduce(v - c * row)
        return v

    def add(self, vec) -> bool:
        """Add a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        nz = np.flatnonzero(v)
        if len(nz) == 0:
            return False
        j = int(nz[0])
        lead = v[j]
        if lead != 1:
            v = self.field.reduce(v * self.field.inv(lead))
        for k, row in enumerate(self.rows):
            c = row[j]
            if c:
                self.rows[k] = self.field.reduce(row - c * v)
        self.rows.append(v)
        self.pivots.append(j)
        return True


def coordinates_in_span(field, basis_cols, targets) -> np.ndarray:
    """Coordinates of each target column in the span of the basis columns.

    ``basis_cols`` must have full column rank.  Raises ValueError naming the
    first target column that falls outside the span.
    """
    k = basis_cols.shape[1]
    ((red, pivots),) = rref(field, np.hstack([basis_cols, targets])[None])
    if len([p for p in pivots if p < k]) != k:
        raise ValueError("basis columns are not linearly independent")
    for p in pivots:
        if p >= k:
            raise ValueError(f"target column {p - k} is outside the span")
    return np.ascontiguousarray(red[:k, k:])


def associative_closure(field, gens) -> int:
    """Dimension of the unital associative algebra generated by a (k, d, d) stack.

    Level-batched spinning (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 7): the algebra is the span of
    {I} under left multiplication by the generators.  An echelon basis W of
    the flattened matrices is kept together with a frontier spanning a
    complement of the previous W.  Each round multiplies every generator by
    every frontier matrix in one batched product, stacks the results under W
    and reduces once; the rows of the new reduced form whose pivots are new
    span a complement of the old W (pivot sets grow under inclusion) and
    become the next frontier.  The rank stops growing at the closure, which
    is bounded by d^2.
    """
    k, d, _ = gens.shape
    if not k:
        return 1
    left = gens[:, None]
    basis = field.eye(d).reshape(1, d * d)
    frontier = basis
    pivots = {0}
    while len(frontier):
        # every g_i F_j as one batch of small products
        right = frontier.reshape(1, -1, d, d)
        prod = field.matmul(left, right).reshape(-1, d * d)
        ((red, new_pivots),) = rref(field, np.vstack([basis, prod])[None])
        basis = red[: len(new_pivots)]
        frontier = basis[[i for i, c in enumerate(new_pivots) if c not in pivots]]
        pivots = set(new_pivots)
    return len(basis)


def commutant_dimension(field, gens) -> int:
    """Dimension of {X : Xg = gX for every g of a (k, d, d) stack}.

    Kernels are intersected one generator at a time: K starts as the kernel
    of the first generator's Sylvester map X -> Xg - gX, and each further
    generator replaces K by K times the kernel of its Sylvester map
    restricted to the span of K's columns.  The systems shrink as K does,
    instead of one stacked (k d^2) x d^2 elimination.
    """
    k, d, _ = gens.shape
    if not k:
        return d * d
    eye = field.eye(d)

    def sylvester(g):
        # the map X -> Xg - gX on row-major flattened X
        return field.reduce(np.kron(eye, np.ascontiguousarray(g.T)) - np.kron(g, eye))

    K = kernel(field, sylvester(gens[0])[None])[0].T  # never empty: the identity commutes with everything
    for g in gens[1:]:
        K = field.matmul(K, kernel(field, field.matmul(sylvester(g), K)[None])[0].T)
    return K.shape[1]
