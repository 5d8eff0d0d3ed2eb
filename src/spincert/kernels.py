"""Backend selection for the hot mod-p kernels.

The elimination kernel exists twice: a Cython extension (``_modp_core``) and
a NumPy fallback (``_modp_fallback``).  The compiled one is picked at import
when available; setting the environment variable ``NOETHER_NO_EXT`` forces
the fallback.  ``benchmarks/bench_kernels.py`` compares the two.

Matrix multiplication mod p is shared by both backends: for the default
primes the products fit a float64 mantissa exactly, so BLAS does the work
and the result is still exact integer arithmetic.  Larger primes fall back
to int64 products, summed over chunks of the inner dimension short enough
not to overflow.
"""

import os

import numpy as np

if os.environ.get("NOETHER_NO_EXT"):
    from . import _modp_fallback as _impl

    _BACKEND = "python"
else:
    try:
        from . import _modp_core as _impl  # type: ignore[attr-defined]

        _BACKEND = "cython"
    except ImportError:
        from . import _modp_fallback as _impl

        _BACKEND = "python"


def backend() -> str:
    """Name of the active elimination backend: 'cython' or 'python'."""
    return _BACKEND


def rref_mod(a, p):
    """Reduced row echelon form over F_p; returns (int64 array, pivots)."""
    return _impl.rref(a, p)


_FLOAT_EXACT = 2**53


def matmul_mod(a, b, p):
    """Exact ``a @ b`` mod p for int64 arrays (supports batched shapes)."""
    inner = a.shape[-1]
    if inner == 0:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        return np.zeros(shape, dtype=np.int64)
    if inner * (p - 1) * (p - 1) < _FLOAT_EXACT:
        c = np.matmul(a.astype(np.float64), b.astype(np.float64))
        return np.mod(c, float(p)).astype(np.int64)
    # each chunk's int64 sum of products stays below 2**63; p < 2**31 keeps step >= 2
    step = (2**63 - 1) // ((p - 1) * (p - 1))
    return sum(np.matmul(a[..., s : s + step], b[..., s : s + step, :]) % p for s in range(0, inner, step)) % p
