"""Dense exact linear algebra over Q and F_p, as functions over field arrays.

A matrix is a field array (see ``fields``), and a single matrix is a stack
of one: ``rref``, ``rank``, ``kernel``, ``solve`` and ``det`` take a
``(k, rows, cols)`` stack and return one result per matrix.  ``solve``, the
one solver of A X = B, takes (k, rows, t) right-hand sides and gives each
(cols, t) solution, or None where a system has no solution or more than one.
RREF differs by field, in ``rref`` alone: over F_p the stack is one
``kernels.rref_stack`` call, which picks the elimination leaf; over Q each
matrix runs fraction-free Gauss-Jordan on cleared integer rows
(``_rref_qq``).  ``det`` runs one fraction-free (Bareiss) loop over the
whole stack for both fields.  Pivoting is always first-nonzero in column
order, so every result is deterministic.
``associative_closure`` and ``hom_space`` share one spinning routine,
``_spin``: the closure spins I, a Hom space the seeds of its source module.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import QQ, PrimeField
from .kernels import rref_stack

__all__ = [
    "rref",
    "rank",
    "kernel",
    "solve",
    "det",
    "associative_closure",
    "hom_space",
    "commutant_dimension",
    "SpanBuilder",
]


# -- elimination ---------------------------------------------------------------


def rref(field, stack) -> list[tuple[np.ndarray, tuple]]:
    """Reduced row echelon form of every matrix of a (k, rows, cols) field
    array: one (array, pivot column tuple) per matrix."""
    if np.ndim(stack) != 3:
        raise ValueError(f"elimination needs a (k, rows, cols) stack, got shape {np.shape(stack)}")
    if not isinstance(field, PrimeField):
        return [_rref_qq(x) for x in stack]
    red, pivots = rref_stack(stack, field.p)
    return list(zip(red, pivots))


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
    """Solve ``a[i] @ X = b[i]`` for a (k, rows, cols) stack and (k, rows, t) right-hand sides.

    Each result is the unique (cols, t) solution, or None when there is none
    or more than one.  A square or wide stack is one elimination of [a | b].
    A tall one first eliminates each a[i]^T, whose pivots name cols
    independent rows (fewer give None); only those rows of [a[i] | b[i]] are
    reduced, and one batched product checks every X against all rows.
    """
    k, rows, cols = np.shape(a)
    if np.ndim(b) != 3 or np.shape(b)[:2] != (k, rows):
        raise ValueError("dimension mismatch between matrix and rhs")
    if rows <= cols:
        systems = rref(field, np.concatenate([a, b], axis=2))
        return [red[:cols, cols:].copy() if pivots == tuple(range(cols)) else None for red, pivots in systems]
    picks = [pivots for _, pivots in rref(field, np.ascontiguousarray(a.transpose(0, 2, 1)))]
    full = [i for i, pivots in enumerate(picks) if len(pivots) == cols]
    out = [None] * k
    if not full:
        return out
    at, sel = np.array(full)[:, None], np.array([picks[i] for i in full], dtype=np.intp)
    x = np.stack([red[:, cols:] for red, _ in rref(field, np.concatenate([a[at, sel], b[at, sel]], axis=2))])
    a, b = (a, b) if len(full) == k else (a[full], b[full])  # no copies when every a[i] is full
    residual = field.reduce(field.matmul(a, x) - b)
    for i, xi, bad in zip(full, x, np.count_nonzero(residual.reshape(len(full), -1), axis=1)):
        out[i] = None if bad else xi
    return out


def det(field, stack) -> list:
    """Determinant of every matrix of a (k, n, n) stack, exact over either field.

    One fraction-free (Bareiss) elimination runs over the whole stack of
    ``field.cleared`` integers, which over Q share one denominator d.  At
    each column every matrix pivots on its first nonzero entry, a row swap
    flipping its sign, and each entry x below and right of the pivot
    becomes (piv x - below right) / prev, prev the previous pivot (Bareiss,
    Math. Comp. 22, 1968).  The last pivot, signed, is the determinant of
    the integers, and det = that / d^n.  A column without a pivot zeroes the
    rest of its matrix, whose later divisions use 1.  Only the division
    differs by field: exact ``//`` over Q, a product with the inverse mod p
    over F_p (p < 2^31 keeps every product below 2^62).
    """
    k, n, cols = np.shape(stack)
    if n != cols:
        raise ValueError("det of non-square matrix")
    ints, den = field.cleared(stack)
    m = np.array(ints)  # a copy for the swaps: over F_p the cleared stack is the input
    at, sign = np.arange(k), np.ones(k, dtype=np.int64)
    piv = prev = np.ones(k, dtype=m.dtype)
    for c in range(n):
        r = c + np.argmax(m[:, c:, c] != 0, axis=1)  # c itself where the column is zero: pivot 0
        m[at, c], m[at, r] = m[at, r], m[at, c]
        sign = np.where(r != c, -sign, sign)
        piv = m[:, c, c]
        x = piv[:, None, None] * m[:, c + 1 :, c + 1 :] - m[:, c + 1 :, c, None] * m[:, None, c, c + 1 :]
        if isinstance(field, PrimeField):
            inv = np.array([pow(v, -1, field.p) for v in prev.tolist()], dtype=np.int64)
            m[:, c + 1 :, c + 1 :] = x % field.p * inv[:, None, None] % field.p
        else:
            m[:, c + 1 :, c + 1 :] = x // prev[:, None, None]
        prev = np.where(piv == 0, 1, piv)
    return field.reduce(field.array(sign * piv) * field.inv(den**n)).tolist()


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
    m, _ = QQ.cleared(arr)
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


# -- spans -------------------------------------------------------------------


class SpanBuilder:
    """Incremental row-space in reduced echelon form.

    Tracks the dimension of vector-at-a-time span closures such as octonion
    subalgebras.
    """

    def __init__(self, field):
        self.field = field
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Add a vector; True if it enlarged the span."""
        v = self.field.array(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = self.field.reduce(v - c * row)
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


def _pair(field, gens) -> np.ndarray:
    """Sum (i+1) g_i and sum (i+1)^2 g_i: two fixed elements of the algebra a (k, d, d) stack generates."""
    k, d, _ = gens.shape
    w = np.arange(1, k + 1)
    return field.matmul(field.array(np.stack([w, w * w])), gens.reshape(k, d * d)).reshape(2, d, d)


def _spin(field, a, b, basis, frontier, width) -> tuple:
    """Spin an echelon basis under the pairs (a_i, b_i) of two (k, ., .) stacks.

    g_i maps a row [W | M], W a flattened (db, width / db) matrix and M
    flattened (da, da) blocks, to [b_i W | a_i M].  Each level maps the
    frontier, the rows not yet mapped, by every g_i in one batched product
    and reduces the images under the basis once (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, section 7).  Rows with
    new pivots in W are the next frontier; rows whose W vanishes are returned.
    """
    (k, db, _), da = b.shape, a.shape[1]
    pivots, found = set(np.argmax(basis != 0, axis=1).tolist()), []
    while len(frontier):
        w = field.matmul(b[:, None], frontier[:, :width].reshape(1, -1, db, width // db)).reshape(k, -1, width)
        m = field.matmul(a[:, None], frontier[:, width:].reshape(1, -1, da, da)).reshape(k, len(frontier), -1)
        ((red, new),) = rref(field, np.vstack([basis, np.concatenate([w, m], 2).reshape(-1, frontier.shape[1])])[None])
        kept = int(np.searchsorted(new, width))
        basis, found = red[:kept], found + [red[kept : len(new)]]
        frontier = basis[[i for i, c in enumerate(new[:kept]) if c not in pivots]]
        pivots = set(new[:kept])
    return basis, found


def _left_kernel(field, m) -> np.ndarray:
    """Basis of {c : c m = 0}: the tails of the rows of rref [m | I] whose m part vanishes."""
    ((red, pivots),) = rref(field, np.hstack([m, field.eye(len(m))])[None])
    return red[int(np.searchsorted(pivots, m.shape[1])) : len(pivots), m.shape[1] :]


def associative_closure(field, gens) -> int:
    """Dimension of the unital associative algebra generated by a (k, d, d) stack:
    ``_spin`` of {I} under left multiplication, W the flattened matrices.

    More than two generators are first replaced by the pair ``_pair``, as a
    few elements usually generate the whole algebra (Holt and Rees,
    "Testing modules for irreducibility", J. Austral. Math. Soc. 57, 1994).
    The pair lies in the algebra, so its closure is the whole algebra when
    one rank shows every generator inside it; otherwise the generators are spun.
    """
    k, d, _ = gens.shape
    if not k:
        return 1
    one = field.eye(d).reshape(1, d * d)
    if k > 2:
        pair = _pair(field, gens)
        basis, _ = _spin(field, pair, pair, one, one, d * d)
        if rank(field, np.vstack([basis, gens.reshape(k, d * d)])[None]) == [len(basis)]:
            return len(basis)
    return len(_spin(field, gens, gens, one, one, d * d)[0])


def hom_space(field, a, b) -> np.ndarray:
    """Basis of {X : a_i X = X b_i for every i}, the module maps from a (k, db, db)
    stack b's module to a (k, da, da) stack a's, as (dim, da db) rows, X row-major.

    The MeatAxe's standard-basis method (Lux and Szoke, Experimental Math.
    12, 2003): a map is fixed by the images y of seeds e_c, c a column
    without a pivot, taken only while the spun span falls short of b's
    module.  ``_spin`` spins rows [w | M], X w = M y, under w -> b_i w and
    M -> a_i M; a row whose w vanishes gives conditions M y = 0.  Then the
    w part is I, so X e_j = M_j y, and the kernel of the conditions, one
    wide elimination, gives the basis.  More than two generators are first
    replaced by ``_pair`` on both sides, whose Hom space contains the
    answer; the defects of the generators failing on it then cut it.
    """
    (k, da, _), (kb, db, _) = a.shape, b.shape
    if k != kb:
        raise ValueError(f"Hom space of stacks of {k} and {kb} matrices")
    if not k:
        return field.eye(da * db)
    pa, pb = (a, b) if k <= 2 else (_pair(field, a), _pair(field, b))
    basis = conditions = field.zeros((0, db))
    while len(basis) < db:
        basis, conditions = (np.hstack([x, field.zeros((len(x), da * da))]) for x in (basis, conditions))
        seed = np.hstack([field.zeros((1, basis.shape[1] - da * da)), field.eye(da).reshape(1, -1)])
        seed[0, min(set(range(db)).difference(np.argmax(basis != 0, axis=1).tolist()))] = field.scalar(1)
        basis, found = _spin(field, pa, pb, np.vstack([basis, seed]), seed, db)
        conditions = np.vstack([conditions, *found])
    maps = basis[:, db:].reshape(db, -1, da, da).transpose(2, 0, 1, 3).reshape(da * db, -1)
    eqs = conditions[:, db:].reshape(-1, maps.shape[1] // da, da, da).transpose(1, 3, 0, 2).reshape(maps.shape[1], -1)
    K = field.matmul(_left_kernel(field, eqs), maps.T)
    xs = K.reshape(1, -1, da, db)
    defect = field.reduce(field.matmul(a[:, None], xs) - field.matmul(xs, b[:, None]))
    if np.count_nonzero(defect):  # only where the pair misses a generator; zero columns cost no step
        K = field.matmul(_left_kernel(field, defect.transpose(1, 0, 2, 3).reshape(len(K), -1)), K)
    return K


def commutant_dimension(field, gens) -> int:
    """Dimension of {X : Xg = gX for every g of a (k, d, d) stack}: ``hom_space`` of the stack with itself."""
    return len(hom_space(field, gens, gens))
