"""Benchmark: the elimination leaves, the Q kernels and the batched layers.

Six sections, each printing one row per input:

1. Reduced-row-echelon elimination over F_p with the two leaves of
   ``spincert.kernels``, the NumPy kernel on a stack of one and the compiled
   leaf when it is built, on shapes that mirror the package's workloads:
   a stacked action map, a square and a wide kernel, and two tall kernels
   of 196 columns, which the spin(14) closure produced before it spun a
   pair of generators.  Each NumPy result is checked on its own: the kernel
   read off its RREF must annihilate the matrix, and its pivots plus that
   kernel's dimension must number the columns.  The compiled result must
   equal the NumPy one.
2. The NumPy kernel on a trial protocol's stack, the action matrices of the
   free-14 module (three natural copies plus a half-spin module of so(14))
   at 8 trial points, once per matrix and once as one stack, the two
   choices ``kernels.rref_stack`` has; the two results must agree.
3. The Q kernels at the shapes of the ``sln_quotient`` suite: the integer
   product ``QQ.matmul`` and the fraction-free elimination
   ``linalg._rref_qq``.
4. Four batched layers: ``spinreps._spin_x4(14)``,
   ``orbits.subalgebra_structure_from_matrices`` on a spin(14) stabilizer
   (k = 28, d = 14), ``orbits.invariant_quartic_dim`` on spin(11) and
   ``orbits.invariant_bilinear_space`` on spin(13).
5. ``linalg.hom_space`` on the five largest Hom_H spaces of the generic
   stabilizer H at one seed-0 point: V_11 into spin(11) (352 unknowns of a
   dense system), End(spin(11)) (1,024), V_12 into the odd half-spin
   module of a point of the even one (384), V_13 into spin(13) (832) and
   V_14 into the odd half-spin module (896).  Every basis map is checked
   by product, and the basis for independence.
6. ``linalg.det`` on the stacks of SL_n samples that a default
   ``sln_quotient`` run acts with, 50 at n = 5 over Q and 50 at n = 8 over
   GF(1000003).

Sections 3, 4 and 6 only time: the test suite checks each of those layers
against a slow reference implementation.  Run after
`pip install -e . --no-build-isolation`:

    python benchmarks/bench_kernels.py
"""

import argparse
import time
from fractions import Fraction

# spincert before NumPy: the package caps OpenBLAS at one thread, as in a
# program run, and the cap only holds if it is set before NumPy loads.
import spincert  # noqa: F401
import numpy as np

from spincert import spinreps
from spincert.clifford import QuadraticSpace
from spincert.fields import GF, QQ, RandomSource
from spincert.kernels import _rref_numpy, matmul_mod
from spincert.linalg import _rref_qq, det, hom_space, rank
from spincert.orbits import (
    action_matrix,
    invariant_bilinear_space,
    invariant_quartic_dim,
    kernel_action_matrices,
    stabilizer,
    subalgebra_structure_from_matrices,
)
from spincert.slnpair import random_samples

try:
    from spincert import _modp_core
except ImportError:
    _modp_core = None

P = 1_000_003

SHAPES = [
    ("stacked action map", 106, 91),
    ("square dense", 300, 300),
    ("tall kernel", 1624, 196),
    ("tall kernel", 813, 196),
    ("wide kernel", 200, 1200),
]


# the invariance stack of n = 5, then Q eliminations of the suite's shapes at n = 5:
# an inverse [A | I], the full tangent-stabilizer system (the suite now solves a
# 5 x 5 second stage instead) and the Jacobian of pi
QQ_PRODUCT = ((50, 5, 5), (50, 5, 4))
QQ_ELIMINATIONS = [(5, 10), (41, 25), (16, 40)]


def bench(fn, a, repeats, *args):
    """(best seconds over ``repeats`` calls of ``fn(a, *args)``, the last result)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(a, *args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def check_rref(a, red, pivots):
    """The kernel read off the RREF annihilates ``a``, and rank plus nullity is the column count."""
    cols = a.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    assert len(pivots) + len(free) == cols, "pivots are not distinct columns"
    # the kernel vector of free column f: 1 at f, -R[i, f] at the i-th pivot
    z = np.zeros((len(free), cols), dtype=np.int64)
    z[np.arange(len(free)), free] = 1
    z[:, list(pivots)] = -red[: len(pivots), free].T % P
    assert not np.count_nonzero(matmul_mod(a, z.T, P)), "the kernel read off the RREF misses the matrix"


def numpy_rref(a, p):
    """The NumPy kernel on a stack of one: the leaf ``rref_mod`` is without the compiled one."""
    red, pivots = _rref_numpy(a[None], p)
    return red[0], pivots[0]


def bench_leaves(rng, repeats):
    print(f"{'shape':<22} {'rows x cols':<12} {'numpy':>10} {'cython':>10}")
    for name, rows, cols in SHAPES:
        a = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
        numpy_s, want = bench(numpy_rref, a, repeats, P)
        check_rref(a, *want)
        compiled = f"{'absent':>10}"
        if _modp_core:
            compiled_s, got = bench(_modp_core.rref, a, repeats, P)
            assert got[1] == want[1] and np.array_equal(got[0], want[0]), "the compiled leaf disagrees with the NumPy leaf"
            compiled = f"{compiled_s*1e3:>8.1f}ms"
        print(f"{name:<22} {f'{rows}x{cols}':<12} {numpy_s*1e3:>8.1f}ms {compiled}")
    if _modp_core is None:
        print("compiled kernel not built; install with `pip install -e . --no-build-isolation`")


def free14_stack():
    """The action matrices of the free-14 module at 8 trial points, over GF(P)."""
    field = GF(P)
    space = QuadraticSpace(14)
    rep = spinreps.direct_sum([spinreps.vector_rep(space, field)] * 3 + [spinreps.half_spin_reps(space, field)[0]])
    return action_matrix(rep, np.stack([RandomSource(0).child(t).scalars(field, rep.dim) for t in range(8)]))


def bench_stack(repeats):
    print(f"{'stack':<22} {'k x rows x cols':<16} {'per matrix':>10} {'stacked':>10}")
    stack = free14_stack()
    loop, alone = bench(lambda s: [numpy_rref(a, P) for a in s], stack, repeats)
    fast, (red, pivots) = bench(_rref_numpy, stack, repeats, P)
    for i, (want, want_piv) in enumerate(alone):
        assert pivots[i] == want_piv and np.array_equal(red[i], want), f"stack and matrix {i} disagree"
    k, rows, cols = stack.shape
    print(f"{'free-14 action stack':<22} {f'{k} x {rows}x{cols}':<16} {loop*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")


def bench_qq(rng, repeats):
    def rational(shape):
        num = rng.integers(-99, 100, size=shape).tolist()
        den = rng.integers(1, 4, size=shape).tolist()
        return np.frompyfunc(Fraction, 2, 1)(np.array(num, dtype=object), np.array(den, dtype=object))

    print(f"{'Q kernel':<22} {'shape':<18} {'time':>10}")
    a, b = rational(QQ_PRODUCT[0]), rational(QQ_PRODUCT[1])
    fast, _ = bench(lambda x: QQ.matmul(x, b), a, repeats)
    print(f"{'QQ.matmul':<22} {'(50,5,5)@(50,5,4)':<18} {fast*1e3:>8.2f}ms")
    for rows, cols in QQ_ELIMINATIONS:
        fast, _ = bench(_rref_qq, rational((rows, cols)), repeats)
        print(f"{'linalg._rref_qq':<22} {f'{rows}x{cols}':<18} {fast*1e3:>8.2f}ms")


def bench_batched(repeats):
    field = GF(P)
    print(f"{'batched layer':<42} {'time':>10}")
    # the uncached function, so that every repeat builds the entries
    fast, _ = bench(spinreps._spin_x4.__wrapped__, 14, repeats)
    print(f"{'spinreps._spin_x4(14)':<42} {fast*1e3:>8.1f}ms")

    space = QuadraticSpace(14)
    half = spinreps.half_spin_reps(space, field)[0]
    stab = stabilizer(half, RandomSource(0).child(0).scalars(field, half.dim)).kernel
    mats = kernel_action_matrices(stab, spinreps.vector_rep(space, field))
    fast, _ = bench(subalgebra_structure_from_matrices, field, repeats, mats)
    print(f"{f'subalgebra structure, spin14 k={len(mats)} d=14':<42} {fast*1e3:>8.1f}ms")

    fast, _ = bench(invariant_quartic_dim, spinreps.spin_rep(QuadraticSpace(11), field), repeats)
    print(f"{'invariant_quartic_dim, spin(11)':<42} {fast*1e3:>8.1f}ms")

    fast, _ = bench(invariant_bilinear_space, spinreps.spin_rep(QuadraticSpace(13), field), repeats)
    print(f"{'invariant_bilinear_space, spin(13)':<42} {fast*1e3:>8.1f}ms")


def bench_hom(repeats):
    field = GF(P)
    print(f"{'Hom_H(A, W)':<42} {'unknowns':>8} {'dim':>4} {'hom_space':>10}")
    for n, source in ((11, "V"), (11, "W"), (12, "V"), (13, "V"), (14, "V")):
        space = QuadraticSpace(n)
        if n % 2:
            point_rep = w = spinreps.spin_rep(space, field)
        else:
            point_rep, w = spinreps.half_spin_reps(space, field)
        stab = stabilizer(point_rep, RandomSource(0).child(0).scalars(field, point_rep.dim)).kernel
        a = kernel_action_matrices(stab, w)
        b = a if source == "W" else kernel_action_matrices(stab, spinreps.vector_rep(space, field))
        fast, basis = bench(lambda _: hom_space(field, a, b), None, repeats)
        xs = basis.reshape(-1, 1, w.dim, b.shape[1])
        assert not np.count_nonzero(field.reduce(field.matmul(a, xs) - field.matmul(xs, b))), "a basis map fails"
        assert rank(field, basis[None]) == [len(basis)], "the basis maps are dependent"
        module = "spin" if n % 2 else "odd"
        label = f"End({module}({n}))" if source == "W" else f"V_{n} -> {module}"
        print(f"{f'{label}, h={len(a)}':<42} {w.dim * b.shape[1]:>8} {len(basis):>4} {fast*1e3:>8.1f}ms")


def bench_det(repeats):
    print(f"{'det stack':<42} {'k x n x n':>10} {'det':>10}")
    for field, n in ((QQ, 5), (GF(P), 8)):
        _, _, a, _ = random_samples(field, n, RandomSource(0), 50)
        fast, _ = bench(lambda s: det(field, s), a, repeats)
        print(f"{f'SL_{n} samples over {field}':<42} {f'50 x {n}x{n}':>10} {fast*1e3:>8.2f}ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    bench_leaves(rng, args.repeats)
    bench_stack(args.repeats)
    bench_qq(rng, args.repeats)
    bench_batched(args.repeats)
    bench_hom(args.repeats)
    bench_det(args.repeats)


if __name__ == "__main__":
    main()
