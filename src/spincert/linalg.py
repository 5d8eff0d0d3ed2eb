"""Dense exact linear algebra over Q and F_p.

The ``Matrix`` class is the universal carrier for representation matrices,
stacked action maps, Jacobians and kernels.  Its entry arrays, and the
arithmetic on them, come from the field (see ``fields``).  Elimination is the
one step that differs by field: over F_p it goes through the selected kernel
backend; over Q it is fraction-free Gauss-Jordan on cleared-denominator
integer rows, which forms one ``Fraction`` per output entry at the end
(``_rref_qq``).  ``Matrix.stacked`` eliminates a stack of matrices of one
shape together, one kernel call over F_p, which is how the genericity
protocols eliminate all their trials.  Pivoting is always first-nonzero in
column order, so every result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, RandomSource, _cleared
from .kernels import rref_mod, rref_stack

__all__ = [
    "Matrix",
    "NoSolution",
    "NonUnique",
    "NO_SOLUTION",
    "NON_UNIQUE",
    "associative_closure",
    "commutant_dimension",
    "SpanBuilder",
    "coordinates_in_span",
    "random_matrix",
    "random_vector",
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


class Matrix:
    """Immutable dense matrix over one field.

    All entries share the field; arithmetic is exact.  Instances cache their
    reduced row echelon form, so rank/kernel/solve reuse one elimination.
    """

    __slots__ = ("field", "rows", "cols", "data", "_rref")

    def __init__(self, field, data, _raw: np.ndarray | None = None):
        self.field = field
        arr = _raw if _raw is not None else field.array(data)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-d, got shape {arr.shape}")
        arr.flags.writeable = False
        self.data = arr
        self.rows, self.cols = arr.shape
        self._rref = None

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, None, _raw=field.zeros((rows, cols)))

    @classmethod
    def identity(cls, field, n):
        return cls(field, None, _raw=field.eye(n))

    @classmethod
    def vstack(cls, mats):
        field = mats[0].field
        return cls(field, None, _raw=np.vstack([m.data for m in mats]))

    @classmethod
    def hstack(cls, mats):
        field = mats[0].field
        return cls(field, None, _raw=np.hstack([m.data for m in mats]))

    @classmethod
    def column(cls, field, vec):
        return cls(field, None, _raw=field.array(vec).reshape(-1, 1))

    # -- arithmetic --------------------------------------------------------

    def _wrap(self, arr):
        return Matrix(self.field, None, _raw=arr)

    def __add__(self, other):
        self._check_compatible(other)
        return self._wrap(self.field.reduce(self.data + other.data))

    def __sub__(self, other):
        self._check_compatible(other)
        return self._wrap(self.field.reduce(self.data - other.data))

    def __matmul__(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return self._wrap(self.field.matmul(self.data, other.data))

    @property
    def T(self):
        return self._wrap(np.ascontiguousarray(self.data.T))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.data)

    def flatten(self) -> np.ndarray:
        return self.data.reshape(-1).copy()

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def _check_compatible(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("incompatible matrices")

    # -- elimination -------------------------------------------------------

    @classmethod
    def stacked(cls, field, arr) -> list["Matrix"]:
        """One matrix per leading index of a (k, rows, cols) field array, with
        the RREFs of all of them computed together (``_eliminate``) and cached."""
        mats = [cls(field, None, _raw=x) for x in arr]
        for m, found in zip(mats, _eliminate(field, arr)):
            m._keep_rref(*found)
        return mats

    def rref(self):
        """Reduced row echelon form: (Matrix, pivot column tuple).  Cached."""
        if self._rref is None:
            self._keep_rref(*_eliminate(self.field, self.data[None])[0])
        return self._rref

    def _keep_rref(self, red, pivots):
        red.flags.writeable = False
        self._rref = (self._wrap(red), pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[np.ndarray]:
        """Basis of the right null space; each v satisfies self @ v == 0."""
        red, pivots = self.rref()
        free = np.delete(np.arange(self.cols), pivots)
        basis = self.field.zeros((len(free), self.cols))
        basis[:, free] = self.field.eye(len(free))
        basis[:, list(pivots)] = self.field.reduce(-red.data[: len(pivots), free].T)
        return list(basis)

    def solve(self, b):
        """Solve ``self @ x = b`` for a vector b.

        Returns the unique solution vector, or NO_SOLUTION / NON_UNIQUE.
        The two failure modes are never collapsed: uniqueness is load-bearing
        for the fiber-transporter argument.
        """
        rhs = Matrix.column(self.field, b)
        if rhs.rows != self.rows:
            raise ValueError("dimension mismatch between matrix and rhs")
        aug = Matrix.hstack([self, rhs])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return NO_SOLUTION
        if len(pivots) < self.cols:
            return NON_UNIQUE
        x = self.field.zeros(self.cols)
        for i, c in enumerate(pivots):
            x[c] = red.data[i, self.cols]
        return x

    def det(self):
        """Determinant (square matrices), exact over either field."""
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        if isinstance(self.field, PrimeField):
            return _det_int(self.data.tolist()) % self.field.p
        ints, den = _cleared(self.data)
        return Fraction(_det_int(ints.tolist()), den**self.rows)


# -- vectors ----------------------------------------------------------------


def random_vector(field, n, rng: RandomSource) -> np.ndarray:
    return field.array(rng.scalars(field, n))


def random_matrix(field, rows, cols, rng: RandomSource) -> Matrix:
    data = [rng.scalars(field, cols) for _ in range(rows)]
    return Matrix(field, data)


# -- elimination ---------------------------------------------------------------


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


def coordinates_in_span(basis_cols: Matrix, targets: Matrix) -> Matrix:
    """Coordinates of each target column in the span of the basis columns.

    ``basis_cols`` must have full column rank.  Raises ValueError naming the
    first target column that falls outside the span.
    """
    k = basis_cols.cols
    aug = Matrix.hstack([basis_cols, targets])
    red, pivots = aug.rref()
    if len([p for p in pivots if p < k]) != k:
        raise ValueError("basis columns are not linearly independent")
    for p in pivots:
        if p >= k:
            raise ValueError(f"target column {p - k} is outside the span")
    return Matrix(basis_cols.field, None, _raw=np.ascontiguousarray(red.data[:k, k:]))


def _square_family(gens: list[Matrix]):
    """(field, d) shared by a nonempty list of d x d matrices over one field."""
    field = gens[0].field
    d = gens[0].rows
    for g in gens:
        if g.rows != d or g.cols != d or g.field != field:
            raise ValueError("generators must be square, equal size, one field")
    return field, d


def associative_closure(gens: list[Matrix]) -> int:
    """Dimension of the unital associative algebra generated by ``gens``.

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
    if not gens:
        return 1
    field, d = _square_family(gens)
    left = np.stack([g.data for g in gens])[:, None]
    basis = Matrix.identity(field, d).data.reshape(1, d * d)
    frontier = basis
    pivots = {0}
    while len(frontier):
        # every g_i F_j as one batch of small products
        right = frontier.reshape(1, -1, d, d)
        prod = field.matmul(left, right).reshape(-1, d * d)
        red, new_pivots = Matrix(field, None, _raw=np.vstack([basis, prod])).rref()
        basis = red.data[: len(new_pivots)]
        frontier = basis[[i for i, c in enumerate(new_pivots) if c not in pivots]]
        pivots = set(new_pivots)
    return len(basis)


def commutant_dimension(gens: list[Matrix]) -> int:
    """Dimension of {X : Xg = gX for all g}.

    Kernels are intersected one generator at a time: K starts as the kernel
    of the first generator's Sylvester map X -> Xg - gX, and each further
    generator replaces K by K times the kernel of its Sylvester map
    restricted to the span of K's columns.  The systems shrink as K does,
    instead of one stacked (k d^2) x d^2 elimination.
    """
    if not gens:
        raise ValueError("commutant of an empty set needs an ambient size; pass d via gens")
    field, d = _square_family(gens)
    eye = field.eye(d)

    def sylvester(g):
        # the map X -> Xg - gX on row-major flattened X
        system = np.kron(eye, np.ascontiguousarray(g.data.T)) - np.kron(g.data, eye)
        return Matrix(field, None, _raw=field.reduce(system))

    def kernel(m):
        # never empty: the identity commutes with everything
        return Matrix(field, None, _raw=np.stack(m.kernel_basis(), axis=1))

    K = kernel(sylvester(gens[0]))
    for g in gens[1:]:
        K = K @ kernel(sylvester(g) @ K)
    return K.cols
