"""Benchmark: the elimination leaves and the Q kernels.

Times reduced-row-echelon elimination over F_p on a few shapes that mirror
the package's real workloads (stacked action maps, square and wide kernels)
and on two tall kernel shapes of 196 columns, which the spin(14) closure
produced before it spun a pair of generators, with the two leaves of
``spincert.kernels``: the NumPy kernel on a stack of one, and the compiled
leaf when it is built.  Each NumPy result is checked on its own: the
kernel read off its RREF must annihilate the matrix, and its pivots plus
that kernel's dimension must number the columns; the compiled result is
checked against the NumPy leaf.  Then it times the NumPy kernel on a
trial protocol's stack, once per matrix and once as one stack, and checks
the two agree: the action matrices of the free-14 module (three natural
copies plus a half-spin module of so(14)) at 8 trial points.
Then it times the two Q kernels at the shapes of the ``sln_quotient``
suite, the integer product ``QQ.matmul`` and the fraction-free elimination
``linalg._rref_qq``, against elementwise ``Fraction`` arithmetic, and
checks each result against that reference.
Then it times four batched layers against the per-pair or per-generator
loops they replace, and checks each result against its loop:
``spinreps._spin_x4(14)`` (its entry list, scattered into a dense tensor),
``orbits.subalgebra_structure_from_matrices`` on a
spin(14) stabilizer (k = 28, d = 14), ``orbits.invariant_quartic_dim`` on
spin(11), and ``orbits.invariant_bilinear_space`` on spin(13) against a
dense (d^2, c) image of the c candidate forms per generator.
Then it times ``linalg.hom_space``, which spins seed vectors of the source
module, on the five largest Hom_H spaces of the generic stabilizer H at
one seed-0 point: V_11 into spin(11) (352 unknowns of a dense system),
End(spin(11)) (1,024), V_12 into the odd half-spin module of a point of
the even one (384), V_13 into spin(13) (832) and V_14 into the odd
half-spin module (896), and checks every basis map by product.
Last it times ``linalg.det`` on the stacks of SL_n samples that a default
``sln_quotient`` run acts with, 50 at n = 5 over Q and 50 at n = 8 over
GF(1000003), and checks each determinant against a Laplace expansion.
Run after `pip install -e . --no-build-isolation`:

    python benchmarks/bench_kernels.py
"""

import argparse
import time
from fractions import Fraction
from functools import cache

# spincert before NumPy: the package caps OpenBLAS at one thread, as in a
# program run, and the cap only holds if it is set before NumPy loads.
import spincert  # noqa: F401
import numpy as np

from spincert import spinreps
from spincert.clifford import QuadraticSpace, so_pairs
from spincert.fields import GF, QQ, RandomSource
from spincert.kernels import _rref_numpy, matmul_mod
from spincert.linalg import _rref_qq, det, hom_space, kernel, rank, solve
from spincert.orbits import (
    _diagonal_members,
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
    ref, want = bench(lambda x: np.matmul(x, b), a, repeats)
    fast, got = bench(lambda x: QQ.matmul(x, b), a, repeats)
    assert np.array_equal(got, want), "QQ.matmul disagrees with Fraction arithmetic"
    print(f"{'QQ.matmul':<22} {'(50,5,5)@(50,5,4)':<18} {ref*1e3:>8.2f}ms {fast*1e3:>8.2f}ms")
    for rows, cols in QQ_ELIMINATIONS:
        m = rational((rows, cols))
        (ref, want), (fast, got) = bench(fraction_rref, m, repeats), bench(_rref_qq, m, repeats)
        assert got[1] == want[1] and np.array_equal(got[0], want[0]), "_rref_qq disagrees with Fraction arithmetic"
        print(f"{'linalg._rref_qq':<22} {f'{rows}x{cols}':<18} {ref*1e3:>8.2f}ms {fast*1e3:>8.2f}ms")


def free14_stack():
    """The action matrices of the free-14 module at 8 trial points, over GF(P)."""
    field = GF(P)
    space = QuadraticSpace(14)
    rep = spinreps.direct_sum([spinreps.vector_rep(space, field)] * 3 + [spinreps.half_spin_reps(space, field)[0]])
    return action_matrix(rep, np.stack([RandomSource(0).child(t).scalars(field, rep.dim) for t in range(8)]))


def numpy_rref(a, p):
    """The NumPy kernel on a stack of one: the leaf ``rref_mod`` is without the compiled one."""
    red, pivots = _rref_numpy(a[None], p)
    return red[0], pivots[0]


def bench_stack(repeats):
    print(f"{'stack':<22} {'k x rows x cols':<16} {'per matrix':>10} {'stacked':>10}")
    stack = free14_stack()
    loop, alone = bench(lambda s: [numpy_rref(a, P) for a in s], stack, repeats)
    fast, (red, pivots) = bench(_rref_numpy, stack, repeats, P)
    for i, (want, want_piv) in enumerate(alone):
        assert pivots[i] == want_piv and np.array_equal(red[i], want), f"stack and matrix {i} disagree"
    k, rows, cols = stack.shape
    print(f"{'free-14 action stack':<22} {f'{k} x {rows}x{cols}':<16} {loop*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")


def spin_x4_by_pairs(n):
    """One dense product per so(n) pair: the reference for ``_spin_x4``."""
    space = QuadraticSpace(n)
    gens, two_b = spinreps.fock_generator_matrices(n), space.two_b_matrix()
    eye = np.eye(gens[0].shape[0], dtype=np.int64)
    return np.stack([2 * (gens[a] @ gens[b]) - two_b[a, b] * eye for a, b in so_pairs(space)])


def structure_by_pairs(field, mats):
    """Brackets and Killing entries pair by pair: (structure constants, Killing matrix)."""
    k = len(mats)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    flats = np.stack([m.ravel() for m in mats], axis=1)
    brackets = [field.reduce(field.matmul(mats[i], mats[j]) - field.matmul(mats[j], mats[i])) for i, j in pairs]
    (coords,) = solve(field, flats[None], np.stack([b.ravel() for b in brackets], axis=1)[None])
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


def forms_by_dense_images(rep):
    """Invariant forms from a dense (d^2, c) image of the c weight-zero units E_ab
    per generator, diagonal ones included, its nonzero rows eliminated: the
    reference for ``invariant_bilinear_space``.  Returns (symmetric dim,
    alternating dim, sample, sample rank)."""
    field, d = rep.field, rep.dim
    keep = np.ones((d, d), dtype=bool)
    for kk in _diagonal_members(rep):
        w = np.diagonal(rep.tensor[kk])
        keep &= field.reduce(w[:, None] + w[None, :]) == 0
    a, b = np.nonzero(keep)
    K = field.eye(len(a))
    x, j = np.arange(d)[:, None], np.arange(len(a))
    for M in rep.tensor:
        # (M^T E_ab + E_ab M)[x, y] = M[a, x] [y == b] + [x == a] M[b, y]
        img = field.zeros((d * d, len(a)))
        img[x * d + b, j] = M[a].T
        img[a * d + x, j] += M[b].T
        # reduce the rows some candidate reaches, then drop those that cancel mod p
        img = field.reduce(img[np.count_nonzero(img, axis=1) > 0])
        (null,) = kernel(field, field.matmul(img[np.count_nonzero(img, axis=1) > 0], K)[None])
        K = field.matmul(K, null.T)
    forms = field.zeros((K.shape[1], d, d))
    forms[:, a, b] = K.T
    sym, alt = (field.reduce(forms + sign * forms.transpose(0, 2, 1)).reshape(len(forms), -1) for sign in (1, -1))
    parts = np.concatenate([sym, alt])
    sample = parts[np.count_nonzero(parts, axis=1) > 0][0].reshape(d, d)
    return rank(field, sym[None])[0], rank(field, alt[None])[0], sample, rank(field, sample[None])[0]


def bench_batched(repeats):
    field = GF(P)
    print(f"{'batched layer':<42} {'loop':>10} {'batched':>10}")

    def spin_x4(n):
        return spinreps._spin_x4.__wrapped__(n)  # time the construction, not the cache

    (ref, want), (fast, (k, r, c, v)) = bench(spin_x4_by_pairs, 14, repeats), bench(spin_x4, 14, repeats)
    got = np.zeros_like(want)
    got[k, r, c] = v
    assert np.array_equal(got, want), "_spin_x4 disagrees with the dense products"
    in_c_order = np.array_equal(np.ravel_multi_index((k, r, c), want.shape), np.flatnonzero(want))
    assert in_c_order, "_spin_x4 entries are not the nonzeros once each in C order"
    print(f"{'spinreps._spin_x4(14)':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")

    space = QuadraticSpace(14)
    half = spinreps.half_spin_reps(space, field)[0]
    stab = stabilizer(half, RandomSource(0).child(0).scalars(field, half.dim)).kernel
    mats = kernel_action_matrices(stab, spinreps.vector_rep(space, field))
    ref, (c, killing) = bench(structure_by_pairs, field, repeats, mats)
    fast, got = bench(subalgebra_structure_from_matrices, field, repeats, mats)
    same = np.array_equal(got.structure_constants, c) and np.array_equal(got.killing, killing)
    assert same, "subalgebra_structure_from_matrices disagrees with the pairwise loop"
    print(f"{f'subalgebra structure, spin14 k={len(mats)} d=14':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")

    spin11 = spinreps.spin_rep(QuadraticSpace(11), field)
    (ref, want), (fast, got) = bench(quartic_by_dicts, spin11, repeats), bench(invariant_quartic_dim, spin11, repeats)
    assert got == want, "invariant_quartic_dim disagrees with the dict loop"
    print(f"{'invariant_quartic_dim, spin(11)':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")

    spin13 = spinreps.spin_rep(QuadraticSpace(13), field)
    ref, (sym, alt, sample, sample_rank) = bench(forms_by_dense_images, spin13, repeats)
    fast, inv = bench(invariant_bilinear_space, spin13, repeats)
    same = (inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank) == (sym, alt, sample_rank)
    assert same and np.array_equal(inv.sample, sample), "invariant_bilinear_space disagrees with the dense images"
    print(f"{'invariant_bilinear_space, spin(13)':<42} {ref*1e3:>8.1f}ms {fast*1e3:>8.1f}ms")


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


def det_by_cofactors(field, m):
    """Laplace expansion along the rows, memoised on the columns left: the reference for ``det``."""
    n = len(m)

    @cache
    def minor(cols):
        row = n - len(cols)
        terms = (m[row, c] * minor(cols[:i] + cols[i + 1 :]) * (-1) ** i for i, c in enumerate(cols))
        return field.reduce(sum(terms, field.scalar(0))) if cols else field.scalar(1)

    return minor(tuple(range(n)))


def bench_det(repeats):
    print(f"{'det stack':<42} {'k x n x n':>10} {'det':>10}")
    for field, n in ((QQ, 5), (GF(P), 8)):
        _, _, a, _ = random_samples(field, n, RandomSource(0), 50)
        fast, got = bench(lambda s: det(field, s), a, repeats)
        assert got == [det_by_cofactors(field, m) for m in a], f"det disagrees with cofactors over {field}"
        print(f"{f'SL_{n} samples over {field}':<42} {f'50 x {n}x{n}':>10} {fast*1e3:>8.2f}ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'shape':<22} {'rows x cols':<12} {'numpy':>10} {'cython':>10}")
    for name, rows, cols in SHAPES:
        a = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
        numpy_s, want = bench(numpy_rref, a, args.repeats, P)
        check_rref(a, *want)
        compiled = f"{'absent':>10}"
        if _modp_core:
            compiled_s, got = bench(_modp_core.rref, a, args.repeats, P)
            assert got[1] == want[1] and np.array_equal(got[0], want[0]), "the compiled leaf disagrees with the NumPy leaf"
            compiled = f"{compiled_s*1e3:>8.1f}ms"
        print(f"{name:<22} {f'{rows}x{cols}':<12} {numpy_s*1e3:>8.1f}ms {compiled}")
    if _modp_core is None:
        print("compiled kernel not built; install with `pip install -e . --no-build-isolation`")
    bench_stack(args.repeats)
    bench_qq(rng, args.repeats)
    bench_batched(args.repeats)
    bench_hom(args.repeats)
    bench_det(args.repeats)


if __name__ == "__main__":
    main()
