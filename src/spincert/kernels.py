"""The exact mod-p kernels: Gauss-Jordan elimination and matrix multiplication.

Elimination has two leaves: a Cython extension (``_modp_core``), used for
single matrices when it is built, and a NumPy kernel (``_rref_numpy``)
that eliminates a whole ``(k, rows, cols)`` stack in one call.
``rref_stack`` is the one entry for a stack and picks the leaf: a stack of
one goes to ``rref_mod``, the compiled leaf when it is built and otherwise
the NumPy kernel on a stack of one; a larger stack, which is where the
genericity protocols eliminate their remaining trials, goes to the NumPy
kernel whatever the backend.  Each matrix of a stack gets exactly the RREF
(int64 residues) and pivots that ``rref_mod`` gives it alone.
``benchmarks/bench_kernels.py`` compares the two leaves.  The leaf takes
every matrix whole: no system the program builds is tall, since the
invariant-form and quartic images keep only their nonzero rows
(``orbits._invariants``).

The matrices of a stack move in lockstep: they share one pivot count r,
and in each column every matrix pivots on its first nonzero row at or
below row r, at the same offset in all of them.  The pivot rows are then
one strided slice of the stack, so a step costs as many NumPy calls for k
matrices as for one (the batched-BLAS idea: Dongarra et al., "The design
and performance of batched BLAS on modern high-performance computing
systems", Procedia Computer Science 108, 2017).  A column where no matrix
has a candidate is skipped.  Where the matrices part ways (some have a
candidate and others none, or the candidates sit at different offsets),
the leaf drops its work and eliminates each input matrix alone, as a stack
of one; the RREF is unique, so each result is still exactly what
``rref_mod`` gives.  A parting stack thus costs one more elimination per
matrix; no workload parts one, since generic trials pivot alike.
The rank-1 update touches only the rows that are nonzero in the pivot
column of some matrix, through a slice when they fill at least half of
their span, and broadcasts each matrix's pivot row over its own rows.  A
column that is zero in every input stays zero under row operations and is
skipped.

The reduction mod p is lazy, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet,
"Dense linear algebra over word-size prime fields: the FFLAS and FFPACK
packages", ACM TOMS 35(3), 2008).  A step reduces only the pivot column
and the pivot rows.  An update subtracts a product of two residues, at
most (p-1)^2, so an entry reduced into [0, p) stays above -2^63 for
floor((2^63-1)/(p-1)^2) - 1 updates, and the trailing block is reduced at
that cadence: every 9,223,334 updates at p = 1000003 (so never), every 8
at p = 10^9 + 7, and at every update near p = 2^31.  Columns left of the
current one receive no further updates, and one final reduction makes the
output exact.

Matrix multiplication mod p is shared by both backends.  For the default
primes the sums of products fit a float64 mantissa exactly (the window of
FFLAS-FFPACK), so BLAS does the work and the result is still exact integer
arithmetic; the reduction is delayed to the end and done once, in
integers: the float product is cast to int64 and reduced in place, so no
array beyond the answer is made.  Larger primes fall back to int64
products, summed over chunks of the inner dimension short enough not to
overflow.  An empty inner dimension takes the float path for every p,
whose product is the int64 zeros of the broadcast shape.
"""

from bisect import bisect_left

import numpy as np

try:
    from ._modp_core import rref as _compiled_rref  # type: ignore[import-not-found]

    _BACKEND = "cython"
except ImportError:
    _compiled_rref = None
    _BACKEND = "python"


def backend() -> str:
    """Name of the active elimination backend: 'cython' or 'python'."""
    return _BACKEND


def rref_mod(a, p):
    """Reduced row echelon form over F_p of one matrix; returns (int64 array, pivots)."""
    if _compiled_rref is not None:
        return _compiled_rref(a, p)
    red, pivots = _rref_numpy(np.asarray(a)[None], p)
    return red[0], pivots[0]


def rref_stack(stack, p):
    """Reduced row echelon form over F_p of every matrix of a (k, rows, cols) stack.

    Returns ``(r, pivots)``: an int64 array of the stack's shape and one
    pivot tuple per matrix, as ``rref_mod`` gives for each matrix alone.
    A larger stack is eliminated in lockstep, all matrices as one; if its
    matrices part ways, each is eliminated alone.
    """
    if len(stack) == 1:
        red, pivots = rref_mod(stack[0], p)  # the module global, so a wrapped rref_mod sees it
        return red[None], [pivots]
    return _rref_numpy(stack, p)


def _rref_numpy(a, p):
    """The NumPy leaf: ``rref_stack``'s contract, with a fresh output array."""
    m = np.mod(np.asarray(a, dtype=np.int64), p, order="C")  # so that flat below is a view of m
    k, rows, cols = m.shape
    cadence = (2**63 - 1) // ((p - 1) * (p - 1)) - 1
    if cadence < 1:
        raise OverflowError(f"p = {p} is too large for int64 elimination")
    flat = m.reshape(k * rows, cols)
    pivots = []
    updates = 0
    for c in flat.any(0).nonzero()[0].tolist():
        r = len(pivots)  # the pivot count all matrices share
        if r == rows:
            break
        col = flat[:, c] % p
        nz = col.nonzero()[0].tolist()
        # each matrix's first nonzero at or below its row r, as an offset from that row
        heads = set()
        for top in range(r, k * rows, rows):
            j = bisect_left(nz, top)
            heads.add(nz[j] - top if j < len(nz) and nz[j] < top - r + rows else None)
        if heads == {None}:
            continue
        if len(heads) > 1:  # the matrices part ways: each is eliminated alone
            red, piv = zip(*(_rref_numpy(x[None], p) for x in np.asarray(a)))
            return np.concatenate(red), [x for (x,) in piv]
        (g,) = heads
        src, dst = slice(r + g, None, rows), slice(r, None, rows)
        lead = col[src].tolist()
        prow = flat[src, c:] % p
        if lead != [1] * k:
            inv = [pow(x, -1, p) for x in lead]
            prow = prow * (inv[0] if k == 1 else np.array(inv)[:, None]) % p
        if g:
            flat[src, c:] = flat[dst, c:]
        flat[dst, c:] = prow
        pivots.append(c)
        if len(nz) > k:
            col[src] = 0  # the factors: column c without the pivots
            col3 = col.reshape(k, rows)
            upd = (col if k == 1 else col3.any(0)).nonzero()[0]
            if len(upd):
                lo, hi = upd[0], upd[-1] + 1
                if hi - lo <= 2 * len(upd):
                    m[:, lo:hi, c:] -= col3[:, lo:hi, None] * prow[:, None, :]
                else:
                    m[:, upd, c:] -= col3[:, upd, None] * prow[:, None, :]
                updates += 1
                if updates % cadence == 0:
                    m[:, :, c + 1 :] %= p
    if updates:
        m %= p
    return m, [tuple(pivots)] * k


_FLOAT_EXACT = 2**53


def matmul_mod(a, b, p):
    """Exact ``a @ b`` mod p for int64 arrays of any layout (supports batched shapes).

    The operands may be unreduced, with entries in (-p, p).  The answer is a
    new C-ordered int64 array of residues in [0, p).  Within the float
    window every entry of the float64 product is an integer of magnitude
    below 2**53, so the cast to int64 is exact and NumPy's integer ``%``
    gives the non-negative residue.
    """
    inner = a.shape[-1]
    # C order whatever the caller passes: with more than one OpenBLAS thread (see
    # __init__) a transposed operand made it spin (2x CPU on spin14)
    if inner * (p - 1) * (p - 1) < _FLOAT_EXACT:
        c = np.matmul(a.astype(np.float64, order="C"), b.astype(np.float64, order="C"))
        c = c.astype(np.int64)  # exact: every entry's magnitude is below 2**53
        c %= p
        return c
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    # each chunk's int64 sum of products stays below 2**63; p < 2**31 keeps step >= 2
    step = (2**63 - 1) // ((p - 1) * (p - 1))
    return sum(np.matmul(a[..., s : s + step], b[..., s : s + step, :]) % p for s in range(0, inner, step)) % p
