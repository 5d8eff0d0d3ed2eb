# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled mod-p elimination kernel.

Hot loop of the whole package: Gauss-Jordan reduction over F_p with
first-nonzero pivoting.  Gives exactly the RREF and pivots of the NumPy
leaf in ``spincert.kernels``; the two leaves are interchangeable and
tested against each other.
"""

import numpy as np


cdef long long _inv_mod(long long a, long long p):
    # extended Euclid; a != 0 mod p, p prime
    cdef long long t = 0, newt = 1, r = p, newr = a % p, q, tmp
    while newr != 0:
        q = r / newr
        tmp = t - q * newt
        t = newt
        newt = tmp
        tmp = r - q * newr
        r = newr
        newr = tmp
    if t < 0:
        t += p
    return t


def rref(a, long long p):
    """Reduced row echelon form over F_p; returns (array, pivot tuple)."""
    m = np.array(a, dtype=np.int64, order="C") % p
    if m.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    cdef long long[:, ::1] M = m
    cdef Py_ssize_t rows = M.shape[0], cols = M.shape[1]
    cdef Py_ssize_t r = 0, c, i, j, piv
    cdef long long inv, f, v
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        piv = -1
        for i in range(r, rows):
            if M[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(c, cols):
                v = M[r, j]
                M[r, j] = M[piv, j]
                M[piv, j] = v
        if M[r, c] != 1:
            inv = _inv_mod(M[r, c], p)
            for j in range(c, cols):
                M[r, j] = (M[r, j] * inv) % p
        for i in range(rows):
            if i != r and M[i, c] != 0:
                f = M[i, c]
                for j in range(c, cols):
                    v = (M[i, j] - f * M[r, j]) % p
                    if v < 0:
                        v += p
                    M[i, j] = v
        pivots.append(c)
        r += 1
    return m, tuple(pivots)
