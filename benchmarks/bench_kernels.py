"""Benchmark: the elimination leaves, ``kernels.rref_mod`` and the Q kernels.

Times reduced-row-echelon elimination over F_p on a few shapes that mirror
the package's real workloads (stacked action maps, Sylvester systems,
bilinear-form constraints, the spin(14) closure stacks) with the NumPy leaf,
the compiled leaf when it is built, and ``kernels.rref_mod``, which runs the
row-blocked driver on tall, large inputs.  Every result is checked against
the NumPy leaf.  Then it times the NumPy kernel on the stacks of two trial
protocols, once per matrix and once as one stack, and checks the two agree:
the action matrices of the free-14 module (three natural copies plus a
half-spin module of so(14)) at 8 trial points, and the 8 tangent-stabilizer
systems of ``sln_quotient`` at n = 8.  Then it times the two Q kernels at the shapes of the
``sln_quotient`` suite, the integer product ``QQ.matmul`` and the
fraction-free elimination ``linalg._rref_qq``, against elementwise
``Fraction`` arithmetic, and checks each result against that reference.
Last it times three batched layers against the per-pair loops they
replace, and checks each result against its loop: ``spinreps._spin_x4(14)``,
``orbits.subalgebra_structure_from_matrices`` on a spin(14) stabilizer
(k = 28, d = 14) and ``orbits.invariant_quartic_dim`` on spin(11).
Run after `pip install -e . --no-build-isolation`:

    python benchmarks/bench_kernels.py
"""

import argparse
import time
from fractions import Fraction

# spincert before NumPy: the package caps OpenBLAS at one thread, as in a
# program run, and the cap only holds if it is set before NumPy loads.
import spincert  # noqa: F401
import numpy as np

from spincert import _modp_fallback, kernels, spinreps
from spincert.clifford import QuadraticSpace, so_pairs
from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import _rref_qq, coordinates_in_span, kernel
from spincert.orbits import (
    _diagonal_members,
    action_matrix,
    invariant_quartic_dim,
    kernel_action_matrices,
    stabilizer,
    subalgebra_structure_from_matrices,
)
from spincert.slnpair import _stabilizer_systems, random_pairs

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


def trial_stacks():
    """(name, stack) for the two trial protocols, 8 trials each, over GF(P)."""
    field = GF(P)
    space = QuadraticSpace(14)
    rep = spinreps.direct_sum([spinreps.vector_rep(space, field)] * 3 + [spinreps.half_spin_reps(space, field)[0]])
    free14 = action_matrix(rep, np.stack([RandomSource(0).child(t).scalars(field, rep.dim) for t in range(8)]))
    sln8 = _stabilizer_systems(field, *random_pairs(field, 8, RandomSource(0), 8))
    return [("free-14 action stack", free14), ("sln n=8 stabilizer", sln8)]


def bench_stacks(repeats):
    print(f"{'stack':<22} {'k x rows x cols':<16} {'per matrix':>10} {'stacked':>10}")
    for name, stack in trial_stacks():
        red, pivots = _modp_fallback.rref_stack(stack, P)
        for i, a in enumerate(stack):
            want, want_piv = _modp_fallback.rref(a, P)
            assert pivots[i] == want_piv and np.array_equal(red[i], want), f"{name}: stack and matrix {i} disagree"
        loop = bench(lambda s: [_modp_fallback.rref(a, P) for a in s], stack, repeats)
        fast = bench(_modp_fallback.rref_stack, stack, repeats, P)
        k, rows, cols = stack.shape
        print(f"{name:<22} {f'{k} x {rows}x{cols}':<16} {loop*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")


def spin_x4_by_pairs(n):
    """One dense product per so(n) pair: the reference for ``_spin_x4``."""
    space = QuadraticSpace(n)
    gens = spinreps.fock_generator_matrices(n)
    eye = np.eye(gens[0].shape[0], dtype=np.int64)
    return np.stack([2 * (gens[a] @ gens[b]) - space.two_b_int(a, b) * eye for a, b in so_pairs(space)])


def structure_by_pairs(field, mats):
    """Brackets and Killing entries pair by pair: (structure constants, Killing matrix)."""
    k = len(mats)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    flats = np.stack([m.ravel() for m in mats], axis=1)
    brackets = [field.reduce(field.matmul(mats[i], mats[j]) - field.matmul(mats[j], mats[i])) for i, j in pairs]
    coords = coordinates_in_span(field, flats, np.stack([b.ravel() for b in brackets], axis=1))
    c = field.zeros((k, k, k))
    for idx, (i, j) in enumerate(pairs):
        c[i, j], c[j, i] = coords[:, idx], field.reduce(-coords[:, idx])
    killing = field.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            killing[i, j] = killing[j, i] = field.reduce(np.trace(field.matmul(c[i].T, c[j].T)))
    return c, killing


def quartic_by_dicts(rep):
    """Derivation images in dicts, one candidate monomial at a time: the reference
    for ``invariant_quartic_dim`` (default budgets)."""
    field, d, p = rep.field, rep.dim, rep.field.p
    diags = _diagonal_members(rep)
    weights = [np.diagonal(rep.tensor[kk]) for kk in diags]
    candidates = [
        (i, j, k, l)
        for i in range(d)
        for j in range(i, d)
        for k in range(j, d)
        for l in range(k, d)
        if not any((int(w[i]) + int(w[j]) + int(w[k]) + int(w[l])) % p for w in weights)
    ]
    K = field.eye(len(candidates))
    for kk in (kk for kk in range(rep.g) if kk not in diags):
        M = rep.tensor[kk]
        rows_index, entries = {}, []
        for j, mono in enumerate(candidates):
            acc = {}
            for pos in range(4):
                for b in np.flatnonzero(M[mono[pos]]):
                    key = tuple(sorted(mono[:pos] + (int(b),) + mono[pos + 1 :]))
                    acc[key] = (acc.get(key, 0) + int(M[mono[pos], b])) % p
            entries += [(rows_index.setdefault(key, len(rows_index)), j, v) for key, v in acc.items() if v]
        img = np.zeros((len(rows_index), len(candidates)), dtype=np.int64)
        for r, j, v in entries:
            img[r, j] = v
        (null,) = kernel(field, field.matmul(img, K)[None])
        if not len(null):
            return 0
        K = field.matmul(K, null.T)
    return K.shape[1]


def bench_batched(repeats):
    field = GF(P)
    print(f"{'batched layer':<42} {'loop':>10} {'batched':>10}")

    def spin_x4(n):
        return spinreps._spin_x4.__wrapped__(n)  # time the construction, not the cache

    assert np.array_equal(spin_x4(14), spin_x4_by_pairs(14)), "_spin_x4 disagrees with the dense products"
    ref, fast = bench(spin_x4_by_pairs, 14, repeats), bench(spin_x4, 14, repeats)
    print(f"{'spinreps._spin_x4(14)':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")

    space = QuadraticSpace(14)
    half = spinreps.half_spin_reps(space, field)[0]
    stab = stabilizer(half, RandomSource(0).child(0).scalars(field, half.dim)).kernel
    mats = kernel_action_matrices(stab, spinreps.vector_rep(space, field))
    c, killing = structure_by_pairs(field, mats)
    got = subalgebra_structure_from_matrices(field, mats)
    same = np.array_equal(got.structure_constants, c) and np.array_equal(got.killing, killing)
    assert same, "subalgebra_structure_from_matrices disagrees with the pairwise loop"
    ref = bench(structure_by_pairs, field, repeats, mats)
    fast = bench(subalgebra_structure_from_matrices, field, repeats, mats)
    print(f"{f'subalgebra structure, spin14 k={len(mats)} d=14':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")

    spin11 = spinreps.spin_rep(QuadraticSpace(11), field)
    same = invariant_quartic_dim(spin11) == quartic_by_dicts(spin11)
    assert same, "invariant_quartic_dim disagrees with the dict loop"
    ref, fast = bench(quartic_by_dicts, spin11, repeats), bench(invariant_quartic_dim, spin11, repeats)
    print(f"{'invariant_quartic_dim, spin(11)':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")


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
    bench_stacks(args.repeats)
    bench_qq(rng, args.repeats)
    bench_batched(args.repeats)


if __name__ == "__main__":
    main()
