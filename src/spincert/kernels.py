"""Backend selection and the exact mod-p kernels.

The elimination leaf exists twice: a Cython extension (``_modp_core``) and
a NumPy kernel (``_modp_fallback``).  The compiled one is picked at import
when it is built.  ``benchmarks/bench_kernels.py`` compares the two.

The NumPy kernel eliminates a whole ``(k, rows, cols)`` stack in one call
and takes a single matrix as a stack of one.  ``linalg.rref`` sends a stack
of more than one matrix to ``rref_stack``, whatever the backend: that is
where the genericity protocols eliminate all their trials, and their stacks
are far below the row-blocked driver's size floor.  A stack of one goes to
``rref_mod``, which stays 2-D.  Each matrix of a stack gets exactly the
RREF (int64 residues) and pivots that ``rref_mod`` gives it alone.

All matrices advance one column per step, each pivoting on its first
nonzero row at or below its pivot count.  While every matrix pivots at the
same row, the pivot rows are one strided slice of the stack, so a step
costs as many NumPy calls for k matrices as for one (the batched-BLAS idea:
Dongarra et al., "The design and performance of batched BLAS on modern
high-performance computing systems", Procedia Computer Science 108, 2017).
The rank-1 update touches only the rows that are nonzero in the pivot
column of some matrix, through a slice when they fill at least half of
their span, and broadcasts each matrix's pivot row over its own rows.  A
column that is zero in every input stays zero under row operations and is
skipped.

The reduction mod p is lazy, as in FFLAS-FFPACK (reference below).  A step
reduces only the pivot column and the pivot rows.  An update subtracts a
product of two residues, at most (p-1)^2, so an entry reduced into [0, p)
stays above -2^63 for floor((2^63-1)/(p-1)^2) - 1 updates, and the
trailing block is reduced at that cadence: every 9,223,334 updates at
p = 1000003 (so never), every 8 at p = 10^9 + 7, and at every update near
p = 2^31, where the reduction is folded into the update of the rows it
touches.  Columns left of the current one receive no further updates, and
one final reduction makes the output exact.

``rref_mod`` sends tall, large inputs (``rows >= 2*cols`` and
``rows*cols >= 2**16``) through a row-blocked driver above the leaf, in the
style of Dumas, Giorgi and Pernet, "Dense linear algebra over word-size
prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008.  A leaf
pays rows x cols for every pivot although the rank is at most cols; the
driver keeps a reduced basis of rank <= cols and meets each block of 64 rows
with two ``matmul_mod`` products and one leaf call on the block alone.  The
basis is the identity on its pivot columns, so each block residual is formed
and eliminated on the free columns only; an all-zero block skips both
products and the leaf, and an all-zero residual skips the leaf.  RREF is
unique, so the output is the leaf's, bit for bit.  The size floor is there
because each block has a fixed cost that a low-rank input does not repay:
the leaf is cheap when it finds few pivots.

Matrix multiplication mod p is shared by both backends: for the default
primes the products fit a float64 mantissa exactly, so BLAS does the work
and the result is still exact integer arithmetic.  Larger primes fall back
to int64 products, summed over chunks of the inner dimension short enough
not to overflow.
"""

import numpy as np

from ._modp_fallback import rref_stack

try:
    from . import _modp_core as _impl  # type: ignore[attr-defined]

    _BACKEND = "cython"
except ImportError:
    from . import _modp_fallback as _impl

    _BACKEND = "python"


def backend() -> str:
    """Name of the active elimination backend: 'cython' or 'python'."""
    return _BACKEND


_BLOCK = 64


def rref_mod(a, p):
    """Reduced row echelon form over F_p; returns (int64 array, pivots).

    Tall, large inputs go through the row-blocked driver (module docstring).
    """
    rows, cols = np.shape(a)
    if rows < 2 * cols or rows * cols < 2**16:
        return _impl.rref(a, p)
    m = np.asarray(a, dtype=np.int64) % p
    basis = m[:0]  # reduced rows, one per pivot in increasing order
    pivots = np.zeros(0, dtype=np.intp)
    for start in range(0, rows, _BLOCK):
        block = m[start : start + _BLOCK]
        if not block.any():
            continue
        # the basis is the identity on its pivot columns, so the residual is zero there
        free = np.delete(np.arange(cols), pivots)
        residual = (block[:, free] - matmul_mod(block[:, pivots], basis[:, free], p)) % p
        if not residual.any():
            continue
        red, new = _impl.rref(residual, p)
        new = free[list(new)]
        fresh = np.zeros((len(new), cols), dtype=np.int64)
        fresh[:, free] = red[: len(new)]
        basis = (basis - matmul_mod(basis[:, new], fresh, p)) % p
        pivots = np.concatenate([pivots, new])
        order = np.argsort(pivots)
        basis, pivots = np.vstack([basis, fresh])[order], pivots[order]
        if len(pivots) == cols:
            break
    out = np.zeros((rows, cols), dtype=np.int64)
    out[: len(pivots)] = basis
    return out, tuple(int(c) for c in pivots)


_FLOAT_EXACT = 2**53


def matmul_mod(a, b, p):
    """Exact ``a @ b`` mod p for int64 arrays of any layout (supports batched shapes)."""
    inner = a.shape[-1]
    if inner == 0:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        return np.zeros(shape, dtype=np.int64)
    # C order whatever the caller passes: with more than one OpenBLAS thread (see
    # __init__) a transposed operand made it spin (2x CPU on spin14)
    if inner * (p - 1) * (p - 1) < _FLOAT_EXACT:
        c = np.matmul(a.astype(np.float64, order="C"), b.astype(np.float64, order="C"))
        return np.mod(c, float(p)).astype(np.int64)
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    # each chunk's int64 sum of products stays below 2**63; p < 2**31 keeps step >= 2
    step = (2**63 - 1) // ((p - 1) * (p - 1))
    return sum(np.matmul(a[..., s : s + step], b[..., s : s + step, :]) % p for s in range(0, inner, step)) % p
