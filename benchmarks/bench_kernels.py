"""Benchmark: the elimination leaves and ``kernels.rref_mod``.

Times reduced-row-echelon elimination over F_p on a few shapes that mirror
the package's real workloads (stacked action maps, Sylvester systems,
bilinear-form constraints, the spin(14) closure stacks) with the NumPy leaf,
the compiled leaf when it is built, and ``kernels.rref_mod``, which runs the
row-blocked driver on tall, large inputs.  Every result is checked against
the NumPy leaf.  Run after `pip install -e . --no-build-isolation`:

    python benchmarks/bench_kernels.py
"""

import argparse
import time

import numpy as np

from spincert import _modp_fallback, kernels

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


def bench(fn, a, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(a, P)
        best = min(best, time.perf_counter() - t0)
    return best


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
        timings = [bench(_modp_fallback.rref, a, args.repeats)]
        for fn in (_modp_core.rref if _modp_core else None, kernels.rref_mod):
            if fn is None:
                timings.append(None)
                continue
            got = fn(a, P)
            same = got[1] == want[1] and np.array_equal(got[0], want[0])
            assert same, f"{fn.__module__}.{fn.__name__} disagrees with the NumPy leaf"
            timings.append(bench(fn, a, args.repeats))
        cells = " ".join(f"{'absent':>10}" if t is None else f"{t*1e3:>8.1f}ms" for t in timings)
        print(f"{name:<22} {f'{rows}x{cols}':<12} {cells}")
    if _modp_core is None:
        print("compiled kernel not built; install with `pip install -e . --no-build-isolation`")


if __name__ == "__main__":
    main()
