import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

import spincert.linalg as linalg_mod
import spincert.orbits as orbits_mod
import spincert.suites as suites_mod
from spincert.clifford import QuadraticSpace
from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import (
    SpanBuilder,
    associative_closure,
    commutant_dimension,
    det,
    hom_space,
    kernel,
    rank,
    rref,
    solve,
)
from spincert.spinreps import half_spin_reps, spin_rep, vector_rep
from spincert.suites import RunConfig, run_selected

F = GF(1_000_003)
F2 = GF(999_983)


def random_matrix(field, rows, cols, rng: RandomSource):
    return rng.scalars(field, rows * cols).reshape(rows, cols)


def rank1(field, m) -> int:
    """Rank of one matrix: a stack of one."""
    return rank(field, field.array(m)[None])[0]


def kernel1(field, m):
    return kernel(field, field.array(m)[None])[0]


# -- independent oracles -------------------------------------------------------


def inverse(field, m):
    """Reference inverse of a regular matrix, read off the rref of [A | I]."""
    n = len(m)
    ((red, _),) = rref(field, np.hstack([m, field.eye(n)])[None])
    return red[:, n:]


def det_by_permutations(f, m):
    """Leibniz expansion; the slow but unarguable determinant."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = f.reduce(term * m[i, perm[i]])
        total = f.reduce(total + term)
    return total


def rank_by_minors(field, m) -> int:
    """Largest size of a nonzero minor, enumerated exhaustively."""
    best = 0
    nrows, ncols = m.shape
    for k in range(1, min(nrows, ncols) + 1):
        found = False
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                if det_by_permutations(field, m[np.ix_(rows, cols)]) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def rref_by_fractions(m):
    """Naive Gauss-Jordan with Fraction arithmetic: the oracle for the
    fraction-free elimination path."""
    rows = [[Fraction(x) for x in r] for r in m]
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)




# -- spec examples -------------------------------------------------------------


@pytest.mark.parametrize("field", [F, QQ])
def test_rank_examples(field):
    assert rank1(field, field.eye(3)) == 3
    assert rank1(field, field.zeros((2, 2))) == 0
    assert rank1(field, [[1, 2], [2, 4]]) == 1


@pytest.mark.parametrize("field", [F, QQ])
def test_kernel_examples(field):
    assert kernel1(field, field.eye(3)).shape == (0, 3)
    (v,) = kernel1(field, [[1, -1]])
    assert v[0] == v[1] and v[0] != 0
    (w,) = kernel1(field, [[1, 2], [2, 4]])
    # proportional to (2, -1): 1*w0 + 2*w1 = 0
    assert field.reduce(w[0] + 2 * w[1]) == 0


def test_kernel_vectors_annihilate():
    rng = RandomSource(1)
    for field in (F, QQ):
        m = random_matrix(field, 4, 7, rng)
        for v in kernel1(field, m):
            assert not np.count_nonzero(field.matmul(m, v[:, None]))


def test_solve_examples():
    def solve1(field, a, b):
        return solve(field, field.array(a)[None], field.array(b)[None])[0]

    x = solve1(QQ, QQ.eye(3), [[2], [5], [9]])
    assert x.tolist() == [[Fraction(2)], [Fraction(5)], [Fraction(9)]]
    assert solve1(QQ, [[3]], [[5]]).tolist() == [[Fraction(5, 3)]]
    assert solve1(QQ, [[1, 1]], [[1]]) is None  # more than one solution
    assert solve1(QQ, [[1], [1]], [[1], [2]]) is None  # no solution
    assert solve1(F, [[1, 1]], [[1]]) is None
    with pytest.raises(ValueError):
        solve1(F, [[1, 1]], [[1], [2], [3]])
    with pytest.raises(ValueError):  # right-hand sides are a (k, rows, t) stack
        solve1(F, [[1, 1]], [1])


def test_solve_replay_random():
    rng = RandomSource(2)
    for field in (F, QQ):
        m = random_matrix(field, 5, 5, rng)
        if rank1(field, m) < 5:
            continue
        b = rng.scalars(field, 5).reshape(5, 1)
        (x,) = solve(field, m[None], b[None])
        assert field.matmul(m, x).tolist() == b.tolist()


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_solve_tall_stack_many_columns(field):
    # a unique solution; a matrix with dependent columns; and a column that agrees
    # with a0 @ x on the two rows the elimination of a0^T names (0 and 1) but not on row 4
    a0 = [[1, 0], [0, 1], [1, 1], [2, 1], [1, 3]]
    a = field.array([a0, [[1, 2], [2, 4], [3, 6], [0, 0], [1, 2]], a0])
    x = field.array([[1, 2], [3, 4]])
    b = field.matmul(a, x)
    b[2, 4, 1] += 1
    out = solve(field, a, b)
    assert out[0].tolist() == x.tolist() and out[1:] == [None, None]


def test_kernel_of_a_transposed_view_stack_annihilates():
    # a non-C-order stack used to be eliminated through a copy its updates never reached
    F = GF(1_000_003)
    b = random_matrix(F, 12, 7, RandomSource(14)).reshape(3, 4, 7)
    s = np.ascontiguousarray(b.transpose(0, 2, 1)).transpose(0, 2, 1)
    for z, m in zip(kernel(F, s), s):
        assert len(z) == 3 and not np.count_nonzero(F.matmul(m, z.T))


def test_rank_nullity_always():
    rng = RandomSource(3)
    for field in (F, QQ):
        for rows, cols in [(3, 5), (5, 3), (4, 4), (1, 6)]:
            m = random_matrix(field, rows, cols, rng)
            assert rank1(field, m) + len(kernel1(field, m)) == cols


def test_rank_against_minor_oracle():
    rng = RandomSource(4)
    for field in (F, QQ):
        for _ in range(4):
            m = random_matrix(field, 3, 4, rng)
            assert rank1(field, m) == rank_by_minors(field, m)
    # engineered low rank
    a = random_matrix(QQ, 3, 1, rng)
    b = random_matrix(QQ, 1, 4, rng)
    m = QQ.matmul(a, b)
    assert rank1(QQ, m) == rank_by_minors(QQ, m) == 1


def test_det_against_permutation_oracle():
    rng = RandomSource(5)
    for n in (1, 2, 3, 4):
        m = random_matrix(QQ, n, n, rng)
        assert det(QQ, m[None]) == [det_by_permutations(QQ, m)]
    # over either field a whole stack is one elimination; at 2^31 - 1 the
    # pivot products come close to 2^62
    for field in (GF(7), F, GF(2**31 - 1), QQ):
        assert det(field, field.zeros((0, 3, 3))) == []
        for n in range(7):
            stack = rng.scalars(field, 8 * n * n).reshape(8, n, n)
            if n:
                stack[2] = field.zeros((n, n))
                stack[3] = field.eye(n)[::-1]  # antidiagonal: det ±1 after row swaps
                stack[4, 0, 0] = field.scalar(0)  # a swap in the first column
                stack[4, n - 1, 0] = field.scalar(1)
                stack[5] = field.array(np.triu(stack[5], 1) + np.diag(np.arange(1, n + 1)))  # invertible
                stack[5, [0, n - 1]] = stack[5, [n - 1, 0]]  # top-left 0 for n > 1
            if n > 1:
                stack[1, n - 1] = stack[1, 0]  # a repeated row
            if field is QQ and n:
                stack[6] = stack[6] / field.array(np.arange(2, n * n + 2).reshape(n, n))  # one lcm for the stack
            got = det(field, stack)
            assert got == [det_by_permutations(field, m) for m in stack]
            assert n == 0 or (got[2] == 0 and got[5] != 0 and field.reduce(got[3] ** 2) == 1)
            if n > 1:
                assert got[1] == 0
            if field is QQ:
                assert all(type(d) is Fraction for d in got)


def test_det_over_q_reduces_to_det_over_f_p():
    rng = random.Random(35)
    for n in range(1, 6):
        ints = np.array([rng.randint(-(10**6), 10**6) for _ in range(10 * n * n)], dtype=np.int64).reshape(10, n, n)
        ints[0, -1] = 3 * ints[0, 0] if n > 1 else 0  # one singular matrix
        over_q = det(QQ, QQ.array(ints))
        for p in (7, 1_000_003, 2**31 - 1):
            assert [GF(p).scalar(d) for d in over_q] == det(GF(p), GF(p).array(ints))


def _qq_rref_cases():
    """About 200 seeded inputs: random, rank-deficient, with zero rows and
    columns, with denominators, and empty shapes; then two dense ones with
    denominators 1-3 at the sln_quotient suite's Q shapes for n = 5, the full
    tangent-stabilizer system (41 x 25) and the Jacobian of pi (16 x 40)."""
    rng = random.Random(6)
    cases = [np.zeros((0, 4), dtype=object), np.zeros((3, 0), dtype=object), np.zeros((0, 0), dtype=object)]
    cases.append(np.array([[Fraction(1, 2), Fraction(2, 3)], [Fraction(1, 5), 7]], dtype=object))
    for k in range(196):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        den = 1 if k % 2 else rng.randint(2, 30)
        if k % 7 == 0:  # dense, usually of full rank
            entries = [[Fraction(rng.randint(-99, 99), rng.randint(1, den)) for _ in range(cols)] for _ in range(rows)]
        else:  # a product of rows x rank and rank x cols factors
            rank = rng.randint(0, min(rows, cols))
            left = [[Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(rank)] for _ in range(rows)]
            right = [[Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(cols)] for _ in range(rank)]
            entries = [[sum((left[i][t] * right[t][j] for t in range(rank)), Fraction(0)) for j in range(cols)] for i in range(rows)]
        m = np.array(entries, dtype=object).reshape(rows, cols)
        if k % 3 == 0:
            m[rng.randint(0, rows - 1)] = Fraction(0)
        if k % 5 == 0:
            m[:, rng.randint(0, cols - 1)] = Fraction(0)
        cases.append(m)
    for rows, cols in ((41, 25), (16, 40)):
        entries = [[Fraction(rng.randint(-99, 99), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        cases.append(np.array(entries, dtype=object))
    return cases


def test_qq_rref_matches_fraction_oracle():
    ranks = set()
    for arr in _qq_rref_cases():
        m = QQ.array(arr).reshape(arr.shape)
        ((got, piv),) = rref(QQ, m[None])
        want, piv2 = rref_by_fractions(m)
        assert piv == piv2
        assert got.shape == m.shape and all(type(x) is Fraction for x in got.ravel())
        assert all(got[i, j] == want[i][j] for i in range(m.shape[0]) for j in range(m.shape[1]))
        ranks.add((len(piv), min(m.shape)))
    assert any(r < k for r, k in ranks) and any(r == k > 0 for r, k in ranks)


@pytest.mark.parametrize("field", [F, GF(7), QQ], ids=["GF", "GF7", "QQ"])
def test_stacked_rref_matches_per_matrix(field):
    # members of one shape and mixed rank: full, deficient, zero, repeated rows
    rng = RandomSource(13)
    members = [random_matrix(field, 4, 6, rng) for _ in range(3)]
    low = field.matmul(random_matrix(field, 4, 2, rng), random_matrix(field, 2, 6, rng))
    dup = members[0].copy()
    dup[2:] = dup[:2]
    members += [low, field.zeros((4, 6)), dup, field.eye(6)[:4]]
    stack = np.stack(members)
    stacked = rref(field, stack)
    assert len(stacked) == len(members)
    for m, (red, pivots) in zip(members, stacked):
        ((want, want_pivots),) = rref(field, m[None])
        assert pivots == want_pivots and np.array_equal(red, want)
    assert sorted({len(p) for _, p in stacked}) == [0, 2, 4]
    assert rank(field, stack) == [len(p) for _, p in stacked]
    assert all(np.array_equal(a, b) for a, b in zip(kernel(field, stack), (kernel1(field, m) for m in members)))


def test_field_agreement_qq_vs_two_primes():
    # integer matrices: rank over Q equals rank over both large primes
    rng = random.Random(7)
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        r_qq = rank1(QQ, rows)
        assert r_qq == rank1(F, rows) == rank1(F2, rows)


def test_full_rank_probability_sanity():
    # random square matrices over a large prime are essentially always regular
    rng = RandomSource(8)
    assert all(rank1(F, random_matrix(F, 6, 6, rng)) == 6 for _ in range(20))


def test_inverse_roundtrip():
    rng = RandomSource(9)
    for field in (F, QQ):
        m = random_matrix(field, 5, 5, rng)
        assert np.array_equal(field.matmul(m, inverse(field, m)), field.eye(5))


def test_associative_closure_examples():
    assert associative_closure(F, F.eye(2)[None]) == 1
    e12 = [[0, 1], [0, 0]]
    e21 = [[0, 0], [1, 0]]
    assert associative_closure(QQ, QQ.array([e12, e21])) == 4


def test_associative_closure_monotone_and_bounded():
    rng = RandomSource(10)
    gens = np.stack([random_matrix(F, 3, 3, rng) for _ in range(3)])
    dims = [associative_closure(F, gens[: k + 1]) for k in range(3)]
    assert dims == sorted(dims)
    assert dims[-1] <= 9


def test_commutant_examples():
    units = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    assert commutant_dimension(F, F.array(units)) == 1
    # over Q as well
    assert commutant_dimension(QQ, QQ.array(units)) == 1
    # no generators: a stack still knows d, so everything commutes and only I is generated
    assert commutant_dimension(F, F.zeros((0, 3, 3))) == 9
    assert associative_closure(F, F.zeros((0, 3, 3))) == 1


def test_commutant_against_definition():
    rng = RandomSource(11)
    g = random_matrix(F, 3, 3, rng)
    dim = commutant_dimension(F, g[None])
    # brute check: count independent E_ab images under X -> Xg - gX
    rows = []
    for a in range(3):
        for b in range(3):
            x = np.zeros((3, 3), dtype=np.int64)
            x[a, b] = 1
            rows.append(F.reduce(F.matmul(x, g) - F.matmul(g, x)).ravel())
    assert dim == 9 - rank1(F, np.stack(rows))


def closure_by_words(field, gens):
    """Span of the words in the generators, one word length at a time.

    Level L+1 adds g @ w for every generator g and every basis matrix w of
    level L.  The levels are stationary from the first one that adds nothing,
    and at the latest from length d^2.
    """
    d = gens.shape[1]
    sb = SpanBuilder(field)
    sb.add(field.eye(d).ravel())
    for _ in range(d * d):
        grew = False
        for row in list(sb.rows):
            w = row.reshape(d, d)
            for g in gens:
                grew |= sb.add(field.matmul(g, w).ravel())
        if not grew:
            break
    return sb.dim


def hom_by_stacked_system(field, a, b):
    """da db minus the rank of X -> (a_i X - X b_i for every i), one row per unit E_rs."""
    da, db = a.shape[1], b.shape[1]
    rows = []
    for r in range(da):
        for s in range(db):
            x = field.zeros((da, db))
            x[r, s] = field.scalar(1)
            rows.append(field.reduce(field.matmul(a, x) - field.matmul(x, b)).ravel())
    return da * db - rank1(field, np.stack(rows))


def check_hom_basis(field, a, b, basis):
    """The rows are independent maps X with a_i X = X b_i; returns their number."""
    xs = basis.reshape(-1, 1, a.shape[1], b.shape[1])
    assert not np.count_nonzero(field.reduce(field.matmul(a, xs) - field.matmul(xs, b)))
    assert rank1(field, basis) == len(basis)
    return len(basis)


def _closure_cases(field, rng):
    cases = []
    for d in range(2, 6):
        for k in range(1, 4):
            cases.append(np.stack([random_matrix(field, d, d, rng) for _ in range(k)]))
    # strictly upper triangular: a nilpotent algebra plus the identity
    for d in (3, 4):
        nil = []
        for _ in range(2):
            m = random_matrix(field, d, d, rng)
            m[np.tril_indices(d)] = field.scalar(0)
            nil.append(m)
        cases.append(np.stack(nil))
    # diag(A, P A P^-1): a proper subalgebra whose commutant holds the 2x2 matrices
    for d, k in ((2, 2), (3, 1), (3, 2)):
        p = random_matrix(field, d, d, rng)
        p_inv = inverse(field, p)
        block = []
        for _ in range(k):
            a = random_matrix(field, d, d, rng)
            twin = field.matmul(field.matmul(p, a), p_inv)
            m = field.zeros((2 * d, 2 * d))
            m[:d, :d], m[d:, d:] = a, twin
            block.append(m)
        cases.append(np.stack(block))
    # an idempotent and a shift: after the first round the frontier has two rows
    # whose products differ, so spinning on from only one of them stops short
    idempotent = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    shift = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    cases.append(field.array([idempotent, shift]))
    return cases


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_closure_and_commutant_against_oracles(field):
    seen = set()
    for gens in _closure_cases(field, RandomSource(12)):
        closure = associative_closure(field, gens)
        commutant = commutant_dimension(field, gens)
        assert closure == closure_by_words(field, gens)
        assert commutant == hom_by_stacked_system(field, gens, gens)
        seen.add((gens.shape[1], closure, commutant))
    # full matrix algebra, one generator (commutative), nilpotent, conjugate blocks,
    # idempotent and shift
    assert {(5, 25, 1), (5, 5, 5), (3, 4, 2), (4, 4, 4), (6, 9, 4), (3, 5, 1)} <= seen


def test_closure_and_commutant_fall_back_when_the_pair_vanishes():
    # index 4 weighs 5 and 25 in the pair, both zero mod 5: the pair is zero,
    # so only the membership and commutation checks can see the generator
    f5 = GF(5)
    a = f5.array([[1, 2, 0], [0, 1, 3], [4, 0, 2]])
    gens = f5.zeros((5, 3, 3))
    gens[4] = a
    assert not np.count_nonzero(linalg_mod._pair(f5, gens))
    closure, commutant = associative_closure(f5, gens), commutant_dimension(f5, gens)
    assert closure == closure_by_words(f5, gens) == 3
    assert commutant == hom_by_stacked_system(f5, gens, gens) == 3
    assert check_hom_basis(f5, gens, gens, hom_space(f5, gens, gens)) == 3
    # into the trivial line the pair is zero too: only the defect pass cuts the identity to a's kernel
    zero = f5.zeros((5, 1, 1))
    assert check_hom_basis(f5, gens, zero, hom_space(f5, gens, zero)) == hom_by_stacked_system(f5, gens, zero) == 0


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_closure_and_commutant_when_generators_escape_the_pair(field):
    gens = escaping_generators(field, RandomSource(14))
    pair = linalg_mod._pair(field, gens)
    assert not np.count_nonzero(pair[:, [0, 1, 0], [1, 2, 2]])
    closure, commutant = associative_closure(field, gens), commutant_dimension(field, gens)
    assert closure == closure_by_words(field, gens) > associative_closure(field, pair)
    assert commutant == hom_by_stacked_system(field, gens, gens) < commutant_dimension(field, pair)


def conjugate(field, p, stack):
    """P m P^-1 for every matrix m of a stack."""
    return field.matmul(field.matmul(p, stack), inverse(field, p))


def escaping_generators(field, rng):
    """Three upper triangular 3 x 3 generators whose shift parts cancel in the pair.

    The shift's weights 1, -1, 1/3 cancel in 1 - 2 + 3/3 and 1 - 4 + 9/3, so the
    pair is diagonal while every generator carries the shift.
    """
    shift = field.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    gens = field.zeros((3, 3, 3))
    gens[:, range(3), range(3)] = rng.scalars(field, 9).reshape(3, 3)
    weights = field.array(np.array([Fraction(1), Fraction(-1), Fraction(1, 3)], dtype=object))
    return field.reduce(gens + weights[:, None, None] * shift)


def _hom_cases(field, rng):
    """(a, b) stacks of every length from 0 to 4, with da != db and Hom spaces of 0, 1 and 2,
    sources that need more than one seed, the 1-dim zero source of a fixed space, and
    last two conjugate stacks whose generators escape the pair."""
    cases = [(field.zeros((0, 2, 2)), field.zeros((0, 3, 3)))]
    for k in range(1, 5):
        a = np.stack([random_matrix(field, 2, 2, rng) for _ in range(k)])
        c = np.stack([random_matrix(field, 3, 3, rng) for _ in range(k)])
        cases.append((a, c))  # no common eigenvalue nor submodule: Hom 0
        # b_i = P diag(a_i, c_i) P^-1: a's module is a summand of b's, once
        b = field.zeros((k, 5, 5))
        b[:, :2, :2], b[:, 2:, 2:] = a, c
        b = conjugate(field, random_matrix(field, 5, 5, rng), b)
        cases += [(a, b), (b, a)]
        # three conjugated copies of a's module: one vector spins at most 4 dimensions
        # under M_2 and 2 under one matrix, so the source needs two or three seeds
        thrice = field.zeros((k, 6, 6))
        thrice[:, :2, :2] = thrice[:, 2:4, 2:4] = thrice[:, 4:, 4:] = a
        thrice = conjugate(field, random_matrix(field, 6, 6, rng), thrice)
        cases += [(a, thrice), (thrice, thrice)]
        # maps from the zero 1 x 1 module are the common fixed vectors: a line, then none
        line = field.zeros((k, 3, 3))
        line[:, :2, :2] = a
        zero = field.zeros((k, 1, 1))
        cases += [(conjugate(field, random_matrix(field, 3, 3, rng), line), zero), (a, zero)]
    gens = escaping_generators(field, rng)
    cases.append((conjugate(field, random_matrix(field, 3, 3, rng), gens), gens))
    return cases


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_hom_space_against_the_stacked_system(field):
    seen = set()
    cases = _hom_cases(field, RandomSource(15))
    for a, b in cases:
        basis = hom_space(field, a, b)
        dim = check_hom_basis(field, a, b, basis)
        assert dim == hom_by_stacked_system(field, a, b)
        seen.add((len(a), a.shape[1], b.shape[1], dim))
    # no generators: every X; one generic matrix shares both of its eigenvalues with
    # diag(a, c); two or more generate M_2, and the summand is met once
    assert np.array_equal(hom_space(field, field.zeros((0, 2, 2)), field.zeros((0, 3, 3))), field.eye(6))
    assert {(0, 2, 3, 6), (1, 2, 5, 2), (1, 5, 2, 2), (1, 2, 3, 0)} <= seen
    assert {(k, 2, 3, 0) for k in (2, 3, 4)} | {(k, 2, 5, 1) for k in (2, 3, 4)} | {(k, 5, 2, 1) for k in (2, 3, 4)} <= seen
    # three copies: the polynomials in one generic matrix, then M_2's scalars, per copy
    assert {(1, 2, 6, 6), (1, 6, 6, 18)} | {(k, 2, 6, 3) for k in (2, 3, 4)} | {(k, 6, 6, 9) for k in (2, 3, 4)} <= seen
    assert {(k, 3, 1, 1) for k in range(1, 5)} | {(k, 2, 1, 0) for k in range(1, 5)} <= seen
    # the escaping generators: the pair's maps fail them, and only the defect cut brings the space down
    a, b = cases[-1]
    pa, pb = linalg_mod._pair(field, a), linalg_mod._pair(field, b)
    assert hom_by_stacked_system(field, pa, pb) > hom_by_stacked_system(field, a, b) > 0


def test_hom_space_refuses_stacks_of_different_lengths():
    with pytest.raises(ValueError):
        hom_space(F, F.zeros((3, 2, 2)), F.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        hom_space(QQ, QQ.zeros((0, 2, 2)), QQ.zeros((1, 1, 1)))


def test_default_fingerprints_never_fall_back(monkeypatch):
    # the gain rests on the pair settling every fingerprint of the default run: one
    # spin of the pair per closure, and per commutant spins of the pair only and one
    # left kernel (its conditions'), so no generator's defects cut the basis
    spins, kernels, log = [], [], []
    real_spin, real_left_kernel = linalg_mod._spin, linalg_mod._left_kernel
    monkeypatch.setattr(linalg_mod, "_spin", lambda field, a, *rest: spins.append(len(a)) or real_spin(field, a, *rest))
    monkeypatch.setattr(linalg_mod, "_left_kernel", lambda field, m: kernels.append(1) or real_left_kernel(field, m))

    def spy(fn):
        def wrapped(field, gens):
            spins.clear()
            kernels.clear()
            out = fn(field, gens)
            log.append((fn.__name__, len(gens), list(spins), len(kernels)))
            return out

        return wrapped

    for name in ("associative_closure", "commutant_dimension"):
        monkeypatch.setattr(suites_mod, name, spy(getattr(linalg_mod, name)))
    run_selected(RunConfig(suites=["spin11", "spin14", "branching"]))
    closures = [entry for entry in log if entry[0] == "associative_closure"]
    commutants = [entry for entry in log if entry[0] == "commutant_dimension"]
    # at each of the two default primes: commutants of spin11, spin14 and branching,
    # closures of spin14 and branching only (spin11 records no closure)
    assert (len(closures), len(commutants)) == (4, 6)
    assert all(k > 2 and spun == [2] for _, k, spun, _ in closures)
    assert all(k > 2 and spun and set(spun) == {2} and cuts == 1 for _, k, spun, cuts in commutants)


def _generic_action(n):
    """At a seed-0 point of spin(n) (n odd) or the even half-spin module, the stabilizer's
    action on that module W and on V_n, over GF(1000003)."""
    space = QuadraticSpace(n)
    point_rep, w = (spin_rep(space, F),) * 2 if n % 2 else half_spin_reps(space, F)
    stab = orbits_mod.stabilizer(point_rep, RandomSource(0).child(0).scalars(F, point_rep.dim)).kernel
    return (orbits_mod.kernel_action_matrices(stab, rep) for rep in (w, vector_rep(space, F)))


def test_large_hom_spaces_skip_the_dense_system(monkeypatch):
    # V_14 -> S^- and End(spin(11)) have 896 and 1,024 unknowns: no elimination may
    # take the square system of that size, nor a tall input (as in the test below)
    shapes = []
    real = linalg_mod.rref
    monkeypatch.setattr(linalg_mod, "rref", lambda field, stack: shapes.append(np.shape(stack)[1:]) or real(field, stack))
    w14, v14 = _generic_action(14)
    w11, _ = _generic_action(11)
    for a, b, dim in ((w14, v14, 2), (w11, w11, 8)):
        shapes.clear()
        assert check_hom_basis(F, a, b, hom_space(F, a, b)) == dim
        unknowns = a.shape[1] * b.shape[1]
        assert shapes and all(rows * cols < unknowns**2 for rows, cols in shapes)
        assert [(rows, cols) for rows, cols in shapes if rows >= 2 * cols and rows * cols >= 2**16] == []


def test_no_elimination_input_is_tall(monkeypatch):
    # rref_stack hands every matrix to a leaf whole, which pays rows x cols per
    # pivot: no input of the default run, nor the invariant-form systems of the
    # larger spinor modules still to be certified, may be tall and large
    shapes, stacks = [], []
    real_stack = linalg_mod.rref_stack

    def spy(arr, p):
        stacks.append(len(arr))
        shapes.extend([np.shape(arr)[1:]] * len(arr))
        return real_stack(arr, p)

    monkeypatch.setattr(linalg_mod, "rref_stack", spy)
    run_selected(RunConfig())
    orbits_mod.invariant_bilinear_space(half_spin_reps(QuadraticSpace(12), F)[0])
    orbits_mod.invariant_bilinear_space(spin_rep(QuadraticSpace(13), F))
    # the spy sees the run and its stacked trials
    assert len(shapes) > 100 and sum(k > 1 for k in stacks) > 10
    assert [(rows, cols) for rows, cols in shapes if rows >= 2 * cols and rows * cols >= 2**16] == []


def test_span_builder():
    sb = SpanBuilder(QQ)
    assert sb.add([1, 2, 3])
    assert not sb.add([2, 4, 6])
    assert sb.add([0, 1, 1])
    assert sb.dim == 2
    # membership as rank: a vector in the span leaves the rank of the stacked rows at 2
    assert rank1(QQ, np.vstack(sb.rows + [QQ.array([1, 3, 4])])) == 2
    assert rank1(QQ, np.vstack(sb.rows + [QQ.array([0, 0, 1])])) == 3


def test_solve_tall_coordinates():
    basis = QQ.array([[1, 0], [0, 1], [1, 1]])
    (coords,) = solve(QQ, basis[None], QQ.array([[[3], [4], [7]]]))
    assert coords.tolist() == [[Fraction(3)], [Fraction(4)]]
    assert solve(QQ, basis[None], QQ.array([[[1], [0], [0]]]))[0] is None


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_solve_tall_checks_rows_past_the_pivots(field):
    # rows 0 and 1 are the independent ones; column 1 agrees with 3*b0 + 4*b1 there
    # and only row 2 (8, not 7) puts it outside the span
    basis = field.array([[1, 0], [0, 1], [1, 1]])
    targets = field.array([[3, 3], [4, 4], [7, 8]])
    assert solve(field, basis[None], targets[None])[0] is None
    assert solve(field, field.array([[[1, 2], [2, 4], [3, 6]]]), targets[None])[0] is None
    (coords,) = solve(field, basis[None], targets[None, :, :1])
    assert coords.tolist() == [[3], [4]]


def test_matrix_shape_and_field_guards():
    with pytest.raises(ValueError):
        F.matmul(F.array([[1, 2], [3, 4]]), F.array([[1, 2], [3, 4], [5, 6]]))
    # elimination takes a stack; a single matrix is a stack of one
    with pytest.raises(ValueError):
        rank(F, F.eye(2))
    with pytest.raises(ValueError):
        det(F, F.array([[[1, 2]]]))
