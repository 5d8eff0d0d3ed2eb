import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spincert import kernels
from spincert.kernels import _rref_numpy, backend, matmul_mod, rref_mod, rref_stack

try:
    from spincert import _modp_core
except ImportError:
    _modp_core = None

P = 1_000_003
ROOT = Path(__file__).resolve().parents[1]


def numpy_leaf(a, p):
    """The NumPy kernel on a stack of one: the leaf ``rref_mod`` is without the compiled one."""
    red, pivots = _rref_numpy(np.asarray(a)[None], p)
    return red[0], pivots[0]


def oracle_rref(a, p):
    """The 2-D NumPy leaf as it was before the stack kernel: Gauss-Jordan with
    first-nonzero pivoting, full row swaps and a reduction mod p at every step."""
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
        if piv != 1:
            m[r, c:] = m[r, c:] * pow(piv, -1, p) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def _mixed_stack(rng, k, rows, cols, p):
    """k matrices of one shape, each of a different kind: random, low rank,
    zero, sparse (pivots found by row swaps, updates over scattered rows),
    entries p - 1 or 0, and negative or unreduced integers."""
    out = []
    for i in range(k):
        kind = i % 6
        if kind == 0:
            a = rng.integers(0, p, size=(rows, cols))
        elif kind == 1:
            rank = int(rng.integers(0, min(rows, cols) + 1))
            left = rng.integers(0, min(p, 1000), size=(rows, rank))
            a = left @ rng.integers(0, min(p, 1000), size=(rank, cols)) % p
        elif kind == 2:
            a = np.zeros((rows, cols), dtype=np.int64)
        elif kind == 3:
            a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.15)
        elif kind == 4:
            a = np.where(rng.random((rows, cols)) < 0.5, p - 1, 0)
        else:
            a = rng.integers(-3 * p, 3 * p, size=(rows, cols))
        out.append(np.asarray(a, dtype=np.int64))
    return np.stack(out)


@pytest.mark.parametrize("p", [3, P, 1_000_000_007, 2_147_483_647])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 5), (7, 4), (12, 12), (40, 25), (25, 60), (90, 30)])
def test_stack_kernel_matches_oracle(p, k, rows, cols):
    # 10**9+7 reduces the trailing block every 8 updates, 2**31-1 at every update
    rng = np.random.default_rng(rows * cols + k + p % 1000)
    for shift in range(3 if k == 1 else 1):  # at k = 1, every kind of matrix alone
        stack = _mixed_stack(rng, k + shift, rows, cols, p)[shift:]
        red, pivots = _rref_numpy(stack, p)
        assert red.shape == stack.shape and red.dtype == np.int64 and len(pivots) == k
        for i in range(k):
            want, want_piv = oracle_rref(stack[i], p)
            assert pivots[i] == want_piv
            assert np.array_equal(red[i], want)


def test_stack_kernel_entries_p_minus_1_at_largest_prime():
    # every product of residues is (p-1)^2, just under 2**62: the cadence is 1
    p = 2_147_483_647
    rng = np.random.default_rng(12)
    stack = np.where(rng.random((8, 30, 30)) < 0.7, p - 1, 0)
    stack[3] = p - 1  # rank 1
    red, pivots = _rref_numpy(stack, p)
    for i in range(8):
        want, want_piv = oracle_rref(stack[i], p)
        assert pivots[i] == want_piv and np.array_equal(red[i], want)


def test_stack_kernel_rejects_primes_beyond_int64():
    with pytest.raises(OverflowError):
        _rref_numpy(np.ones((1, 2, 2), dtype=np.int64), 2**32 + 15)


def test_leaf_is_a_stack_of_one(monkeypatch):
    # rref_stack hands a stack of one to rref_mod through the module global, where
    # a wrapper such as the benchmark's tracer sees it, and a larger stack to the
    # NumPy kernel
    seen = []
    monkeypatch.setattr(kernels, "rref_mod", lambda a, p: seen.append(a.shape) or rref_mod(a, p))
    rng = np.random.default_rng(13)
    stack = _mixed_stack(rng, 6, 9, 7, P)
    for a in stack:
        want, want_piv = oracle_rref(a, P)
        for got, piv in (numpy_leaf(a, P), rref_mod(a, P)):
            assert piv == want_piv and got.shape == a.shape and np.array_equal(got, want)
        red, pivots = rref_stack(a[None], P)
        assert pivots == [want_piv] and red.shape == (1,) + a.shape and np.array_equal(red[0], want)
    assert seen == [(9, 7)] * 6
    rref_stack(stack, P)
    assert len(seen) == 6


@pytest.mark.parametrize("rows, cols", [(12, 9), (600, 120), (0, 4), (4, 0)])
def test_rref_stack_matches_rref_mod(rows, cols):
    # rref_mod takes each matrix alone, rref_stack the whole stack
    stack = _mixed_stack(np.random.default_rng(rows), 4, rows, cols, P)
    red, pivots = rref_stack(stack, P)
    assert red.shape == stack.shape and red.dtype == np.int64
    for i in range(4):
        want, want_piv = rref_mod(stack[i], P)
        assert pivots[i] == want_piv and np.array_equal(red[i], want)


def test_rref_stack_ignores_operand_layout():
    # a stack whose matrices are transposed views: the elimination must
    # update the same buffer it reads its columns from
    rng = np.random.default_rng(7)
    b = rng.integers(0, P, size=(3, 4, 7))
    s = np.ascontiguousarray(b.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert not s.flags.c_contiguous
    red, pivots = rref_stack(s, P)
    red_c, pivots_c = rref_stack(b, P)
    assert np.array_equal(red, red_c) and pivots == pivots_c
    assert all(np.array_equal(oracle_rref(m, P)[0], r) for m, r in zip(b, red))


def test_matmul_mod_ignores_operand_layout():
    rng = np.random.default_rng(8)
    a, b = rng.integers(0, P, size=(2, 5, 6)), rng.integers(0, P, size=(2, 6, 3))
    fortran_a, transposed_b = np.asfortranarray(a), np.ascontiguousarray(b.transpose(0, 2, 1)).transpose(0, 2, 1)
    for p in (P, 2_147_483_647):
        assert np.array_equal(matmul_mod(fortran_a, transposed_b, p), matmul_mod(a, b, p))


def test_backend_name():
    assert backend() in ("cython", "python")


@pytest.mark.skipif(_modp_core is None, reason="compiled kernel not built")
def test_backend_parity_random():
    rng = np.random.default_rng(0)
    for rows, cols in [(1, 1), (5, 8), (8, 5), (40, 40), (30, 90), (90, 30)]:
        for _ in range(5):
            a = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
            r1, p1 = numpy_leaf(a, P)
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
    r1, p1 = numpy_leaf(low_rank, P)
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


def _tall_cases():
    rng = np.random.default_rng(5)
    q = 2_147_483_647
    saturated = np.full((700, 100), q - 1, dtype=np.int64)
    saturated[::7] = rng.integers(0, q, size=(100, 100), dtype=np.int64)
    def thin(rows, cols, k):
        return rng.integers(0, P, size=(rows, k), dtype=np.int64) @ rng.integers(0, P, size=(k, cols)) % P

    return [
        pytest.param(saturated, q, id="largest-prime-entries-p-minus-1"),
        pytest.param(thin(1024, 64, 4), P, id="rank-4-1024x64"),
        pytest.param(thin(1000, 100, 5), P, id="low-rank"),
        pytest.param(rng.integers(0, P, size=(2048, 32), dtype=np.int64), P, id="full-rank-2048x32"),
        pytest.param(rng.integers(0, P, size=(364, 182), dtype=np.int64), P, id="rows-2cols"),
        pytest.param(np.zeros((1024, 64), dtype=np.int64), P, id="zero-1024x64"),
    ]


@pytest.mark.parametrize("a, p", _tall_cases())
def test_leaf_matches_oracle_on_tall_inputs(a, p):
    # rref_mod hands a tall input to the leaf whole
    want, want_piv = oracle_rref(a, p)
    for leaf in (rref_mod, numpy_leaf):
        got, got_piv = leaf(a, p)
        assert got_piv == want_piv
        assert got.dtype == np.int64 and np.array_equal(got, want)


LEAVES = {"rref_mod", "_rref_numpy", "_modp_core"}


def test_only_kernels_names_a_leaf():
    # kernels picks the leaf for every stack: no other module imports, calls or
    # names one, so the choice cannot drift back out of it
    named = {}
    for path in sorted((ROOT / "src" / "spincert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [*node.name.split("."), node.asname]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
            else:
                continue
            named.setdefault(path.stem, set()).update(LEAVES.intersection(names))
    assert named["kernels"] == LEAVES
    assert {stem: leaves for stem, leaves in named.items() if leaves and stem != "kernels"} == {}


# the start of every row the timing script prints, its runs of spaces as one,
# section by section: leaf shapes, the free-14 stack, the Q kernels, the
# batched layers, the Hom spaces (unknowns and dimension) and the det stacks
TIMING_ROWS = [
    "stacked action map 106x91",
    "square dense 300x300",
    "tall kernel 1624x196",
    "tall kernel 813x196",
    "wide kernel 200x1200",
    "free-14 action stack 8 x 106x91",
    "QQ.matmul (50,5,5)@(50,5,4)",
    "linalg._rref_qq 5x10",
    "linalg._rref_qq 41x25",
    "linalg._rref_qq 16x40",
    "spinreps._spin_x4(14)",
    "subalgebra structure, spin14 k=28 d=14",
    "invariant_quartic_dim, spin(11)",
    "invariant_bilinear_space, spin(13)",
    "V_11 -> spin, h=24 352 4",
    "End(spin(11)), h=24 1024 8",
    "V_12 -> odd, h=35 384 2",
    "V_13 -> spin, h=16 832 12",
    "V_14 -> odd, h=28 896 2",
    "SL_5 samples over QQ 50 x 5x5",
    "SL_8 samples over GF(1000003) 50 x 8x8",
]


def test_kernel_timing_script_runs():
    # the script reaches the leaves and layers it times by name, so one renamed
    # under it fails here; one repeat keeps every check and costs about a second
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeats", "1"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [" ".join(line.split()) for line in proc.stdout.splitlines()]
    missing = [row for row in TIMING_ROWS if not any(x.startswith(row + " ") and "ms" in x[len(row) :] for x in lines)]
    assert missing == [], proc.stdout
