import numpy as np
import pytest

from spincert import _modp_fallback
from spincert.kernels import backend, matmul_mod, rref_mod

try:
    from spincert import _modp_core
except ImportError:
    _modp_core = None

P = 1_000_003


def test_backend_name():
    assert backend() in ("cython", "python")


@pytest.mark.skipif(_modp_core is None, reason="compiled kernel not built")
def test_backend_parity_random():
    rng = np.random.default_rng(0)
    for rows, cols in [(1, 1), (5, 8), (8, 5), (40, 40), (30, 90), (90, 30)]:
        for _ in range(5):
            a = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
            r1, p1 = _modp_fallback.rref(a, P)
            r2, p2 = _modp_core.rref(a, P)
            assert p1 == p2
            assert np.array_equal(r1, r2)


@pytest.mark.skipif(_modp_core is None, reason="compiled kernel not built")
def test_backend_parity_structured():
    # rank-deficient and sparse inputs exercise the pivot-skip paths
    rng = np.random.default_rng(1)
    a = rng.integers(0, P, size=(10, 4), dtype=np.int64)
    b = rng.integers(0, P, size=(4, 12), dtype=np.int64)
    low_rank = a @ b % P
    r1, p1 = _modp_fallback.rref(low_rank, P)
    r2, p2 = _modp_core.rref(low_rank, P)
    assert p1 == p2 and len(p1) == 4
    assert np.array_equal(r1, r2)
    zero = np.zeros((6, 6), dtype=np.int64)
    assert _modp_core.rref(zero, P)[1] == ()


def test_rref_mod_is_reduced():
    rng = np.random.default_rng(2)
    a = rng.integers(0, P, size=(12, 20), dtype=np.int64)
    r, piv = rref_mod(a, P)
    for i, c in enumerate(piv):
        assert r[i, c] == 1
        col = r[:, c].copy()
        col[i] = 0
        assert not col.any()


def test_matmul_mod_exact_vs_python():
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, size=(7, 9), dtype=np.int64)
    b = rng.integers(0, P, size=(9, 5), dtype=np.int64)
    want = np.array(
        [[sum(int(a[i, k]) * int(b[k, j]) for k in range(9)) % P for j in range(5)] for i in range(7)],
        dtype=np.int64,
    )
    assert np.array_equal(matmul_mod(a, b, P), want)


def test_matmul_mod_batched():
    rng = np.random.default_rng(4)
    a = rng.integers(0, P, size=(3, 6, 6), dtype=np.int64)
    b = rng.integers(0, P, size=(6, 6), dtype=np.int64)
    out = matmul_mod(a, b, P)
    for k in range(3):
        assert np.array_equal(out[k], matmul_mod(a[k], b, P))


def test_matmul_mod_near_float_boundary():
    # worst-case entries at p-1 must still be exact through the float path
    p = 999983
    d = 64
    a = np.full((d, d), p - 1, dtype=np.int64)
    out = matmul_mod(a, a, p)
    expect = (d * (p - 1) * (p - 1)) % p
    assert (out == expect).all()


@pytest.mark.parametrize("inner", [1, 2, 3, 8, 91])
def test_matmul_mod_largest_prime(inner):
    # (p-1)**2 is just under 2**62: the int64 path sums at most two products per chunk
    p = 2_147_483_647
    rng = np.random.default_rng(inner)
    a = rng.integers(0, p, size=(2, 3, inner), dtype=np.int64)
    a[0, 0] = p - 1
    b = rng.integers(0, p, size=(inner, 4), dtype=np.int64)
    b[:, 0] = p - 1
    want = [
        [[sum(int(a[t, i, k]) * int(b[k, j]) for k in range(inner)) % p for j in range(4)] for i in range(3)]
        for t in range(2)
    ]
    assert matmul_mod(a, b, p).tolist() == want
