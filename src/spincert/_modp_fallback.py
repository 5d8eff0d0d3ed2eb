"""Pure NumPy fallback for the mod-p elimination kernel.

Same contract as the compiled ``_modp_core`` extension: Gauss-Jordan
reduction to reduced row echelon form over F_p with first-nonzero pivoting.
Used automatically when the extension is not built.
"""

import numpy as np


def rref(a, p):
    """Reduced row echelon form of ``a`` over F_p.

    Returns ``(r, pivots)`` where ``r`` is a fresh int64 array and ``pivots``
    is the tuple of pivot column indices in increasing order.
    """
    m = np.array(a, dtype=np.int64, order="C") % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        piv = int(m[r, c])
        # the pivot row is zero left of c, so only columns c onward change
        if piv != 1:
            m[r, c:] = m[r, c:] * pow(piv, -1, p) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)
