"""The NumPy mod-p elimination kernel, over a stack of matrices.

Gauss-Jordan reduction to reduced row echelon form over F_p with
first-nonzero pivoting, for every matrix of a ``(k, rows, cols)`` stack at
once, with lazy reduction mod p; ``kernels`` states the contract and the
bound.  ``rref`` is the 2-D contract shared with the compiled
``_modp_core`` extension: a stack of one.
"""

from bisect import bisect_left

import numpy as np


def rref(a, p):
    """Reduced row echelon form of the 2-D ``a`` over F_p.

    Returns ``(r, pivots)`` where ``r`` is a fresh int64 array and ``pivots``
    is the tuple of pivot column indices in increasing order.
    """
    red, pivots = rref_stack(np.asarray(a)[None], p)
    return red[0], pivots[0]


def rref_stack(a, p):
    """Reduced row echelon form of every matrix of the stack ``a`` over F_p.

    Returns ``(r, pivots)``: a fresh int64 array of ``a``'s shape and one
    pivot tuple per matrix, as ``rref`` gives for each matrix alone.
    """
    m = np.mod(np.asarray(a, dtype=np.int64), p, order="C")  # so that flat below is a view of m
    k, rows, cols = m.shape
    cadence = (2**63 - 1) // ((p - 1) * (p - 1)) - 1
    if cadence < 1:
        raise OverflowError(f"p = {p} is too large for int64 elimination")
    flat = m.reshape(k * rows, cols)
    start = [i * rows for i in range(k)]  # flat index of each matrix's next pivot row
    stop = start[1:] + [k * rows]
    pivots = [[] for _ in range(k)]
    left = k * min(rows, cols)  # pivots still possible
    level = True  # every matrix has found the same number of pivots
    updates = 0
    for c in flat.any(0).nonzero()[0].tolist():
        col = flat[:, c] % p
        nz = col.nonzero()[0].tolist()
        act, pick, put = [], [], []
        for i in range(k):
            j = bisect_left(nz, start[i])
            if j < len(nz) and nz[j] < stop[i]:
                act.append(i)
                pick.append(nz[j])
                put.append(start[i])
        if not act:
            continue
        if len(act) == k and (k == 1 or level and len({g - t for g, t in zip(pick, put)}) == 1):
            src, dst = slice(pick[0], None, rows), slice(put[0], None, rows)
        else:
            src, dst = np.array(pick), np.array(put)
        lead = col[src].tolist()
        prow = flat[src, c:] % p
        if lead != [1] * len(lead):
            inv = [pow(x, -1, p) for x in lead]
            prow = prow * (inv[0] if len(inv) == 1 else np.array(inv)[:, None]) % p
        if pick != put:
            flat[src, c:] = flat[dst, c:]
        flat[dst, c:] = prow
        for i in act:
            pivots[i].append(c)
            start[i] += 1
        left -= len(act)
        level &= len(act) == k
        if len(nz) > len(act):
            # the factors: column c without the pivots, and zero in matrices without a pivot
            col[src] = 0
            col3 = col.reshape(k, rows)
            if len(act) < k:
                prow, idle = np.zeros((k, cols - c), dtype=np.int64), np.ones(k, dtype=bool)
                prow[act], idle[act] = flat[dst, c:], False
                col3[idle] = 0
            upd = (col if k == 1 else col3.any(0)).nonzero()[0]
            if len(upd):
                lo, hi = upd[0], upd[-1] + 1
                if hi - lo <= 2 * len(upd):
                    blk = m[:, lo:hi, c:]
                    blk -= col3[:, lo:hi, None] * prow[:, None, :]
                    if cadence == 1:
                        blk %= p
                else:
                    blk = m[:, upd, c:] - col3[:, upd, None] * prow[:, None, :]
                    if cadence == 1:
                        blk %= p
                    m[:, upd, c:] = blk
                updates += 1
                if cadence > 1 and updates % cadence == 0:
                    m[:, :, c + 1 :] %= p
        if not left:
            break
    if updates:
        m %= p
    return m, [tuple(x) for x in pivots]
