"""Benchmark: the elimination leaves, ``kernels.rref_mod`` and the Q kernels.

Times reduced-row-echelon elimination over F_p on a few shapes that mirror
the package's real workloads (stacked action maps, Sylvester systems,
bilinear-form constraints, the spin(14) closure stacks) with the NumPy leaf,
the compiled leaf when it is built, and ``kernels.rref_mod``, which runs the
row-blocked driver on tall, large inputs.  Every result is checked against
the NumPy leaf.  Then it times the two Q kernels at the shapes of the
``sln_quotient`` suite, the integer product ``QQ.matmul`` and the
fraction-free elimination ``linalg._rref_qq``, against elementwise
``Fraction`` arithmetic, and checks each result against that reference.
Run after `pip install -e . --no-build-isolation`:

    python benchmarks/bench_kernels.py
"""

import argparse
import time
from fractions import Fraction

import numpy as np

from spincert import _modp_fallback, kernels
from spincert.fields import QQ
from spincert.linalg import _rref_qq

try:
    from spincert import _modp_core
except ImportError:
    _modp_core = None

P = 1_000_003

SHAPES = [
    ("stacked action map", 106, 91),
    ("square dense", 300, 300),
    ("sylvester stack", 2560, 256),
    ("spin14 closure", 1624, 196),
    ("spin14 closure", 813, 196),
    ("wide kernel", 200, 1200),
]


# the invariance stack of n = 5, then the Q eliminations of the suite at n = 5:
# an inverse [A | I], the tangent-stabilizer system and the Jacobian of pi
QQ_PRODUCT = ((50, 5, 5), (50, 5, 4))
QQ_ELIMINATIONS = [(5, 10), (41, 25), (16, 40)]


def bench(fn, a, repeats, *args):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(a, *args)
        best = min(best, time.perf_counter() - t0)
    return best


def fraction_rref(a):
    """Gauss-Jordan in elementwise Fraction arithmetic: the reference."""
    m = [list(row) for row in a]
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return np.array(m, dtype=object).reshape(a.shape), tuple(pivots)


def bench_qq(rng, repeats):
    def rational(shape):
        num = rng.integers(-99, 100, size=shape).tolist()
        den = rng.integers(1, 4, size=shape).tolist()
        return np.frompyfunc(Fraction, 2, 1)(np.array(num, dtype=object), np.array(den, dtype=object))

    print(f"{'Q kernel':<22} {'shape':<18} {'Fraction':>10} {'integer':>10}")
    a, b = rational(QQ_PRODUCT[0]), rational(QQ_PRODUCT[1])
    assert np.array_equal(QQ.matmul(a, b), np.matmul(a, b)), "QQ.matmul disagrees with Fraction arithmetic"
    ref, fast = bench(lambda x: np.matmul(x, b), a, repeats), bench(lambda x: QQ.matmul(x, b), a, repeats)
    print(f"{'QQ.matmul':<22} {'(50,5,5)@(50,5,4)':<18} {ref*1e3:>8.2f}ms {fast*1e3:>8.2f}ms")
    for rows, cols in QQ_ELIMINATIONS:
        m = rational((rows, cols))
        want, got = fraction_rref(m), _rref_qq(m)
        assert got[1] == want[1] and np.array_equal(got[0], want[0]), "_rref_qq disagrees with Fraction arithmetic"
        ref, fast = bench(fraction_rref, m, repeats), bench(_rref_qq, m, repeats)
        print(f"{'linalg._rref_qq':<22} {f'{rows}x{cols}':<18} {ref*1e3:>8.2f}ms {fast*1e3:>8.2f}ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'shape':<22} {'rows x cols':<12} {'numpy':>10} {'cython':>10} {'rref_mod':>10}")
    for name, rows, cols in SHAPES:
        a = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
        want = _modp_fallback.rref(a, P)
        timings = [bench(_modp_fallback.rref, a, args.repeats, P)]
        for fn in (_modp_core.rref if _modp_core else None, kernels.rref_mod):
            if fn is None:
                timings.append(None)
                continue
            got = fn(a, P)
            same = got[1] == want[1] and np.array_equal(got[0], want[0])
            assert same, f"{fn.__module__}.{fn.__name__} disagrees with the NumPy leaf"
            timings.append(bench(fn, a, args.repeats, P))
        cells = " ".join(f"{'absent':>10}" if t is None else f"{t*1e3:>8.1f}ms" for t in timings)
        print(f"{name:<22} {f'{rows}x{cols}':<12} {cells}")
    if _modp_core is None:
        print("compiled kernel not built; install with `pip install -e . --no-build-isolation`")
    bench_qq(rng, args.repeats)


if __name__ == "__main__":
    main()
