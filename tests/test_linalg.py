import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import (
    NON_UNIQUE,
    NO_SOLUTION,
    SpanBuilder,
    associative_closure,
    commutant_dimension,
    coordinates_in_span,
    det,
    kernel,
    rank,
    rref,
    solve,
)

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

    x = solve1(QQ, QQ.eye(3), [2, 5, 9])
    assert list(x) == [Fraction(2), Fraction(5), Fraction(9)]
    assert list(solve1(QQ, [[3]], [5])) == [Fraction(5, 3)]
    assert solve1(QQ, [[1, 1]], [1]) is NON_UNIQUE
    assert solve1(QQ, [[1], [1]], [1, 2]) is NO_SOLUTION
    assert solve1(F, [[1, 1]], [1]) is NON_UNIQUE
    with pytest.raises(ValueError):
        solve1(F, [[1, 1]], [1, 2, 3])


def test_solve_replay_random():
    rng = RandomSource(2)
    for field in (F, QQ):
        m = random_matrix(field, 5, 5, rng)
        if rank1(field, m) < 5:
            continue
        b = rng.scalars(field, 5)
        (x,) = solve(field, m[None], b[None])
        assert all(p == q for p, q in zip(field.matmul(m, x[:, None])[:, 0], b))


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
    # over F_p a whole stack is one elimination; at 2^31 - 1 the pivot
    # products come close to 2^62
    for field in (GF(7), F, GF(2**31 - 1)):
        assert det(field, field.zeros((0, 3, 3))) == []
        for n in range(7):
            stack = rng.scalars(field, 8 * n * n).reshape(8, n, n)
            if n:
                stack[2] = 0
                stack[3] = field.eye(n)[::-1]  # antidiagonal: det ±1 after row swaps
                stack[4, 0, 0] = 0  # a swap in the first column
                stack[4, n - 1, 0] = 1
                stack[5] = np.triu(stack[5], 1) + np.diag(np.arange(1, n + 1))  # invertible
                stack[5, [0, n - 1]] = stack[5, [n - 1, 0]]  # top-left 0 for n > 1
            if n > 1:
                stack[1, n - 1] = stack[1, 0]  # a repeated row
            got = det(field, stack)
            assert got == [det_by_permutations(field, m) for m in stack]
            assert n == 0 or (got[2] == 0 and got[5] != 0 and got[3] in (1, field.p - 1))
            if n > 1:
                assert got[1] == 0


def _qq_rref_cases():
    """About 200 seeded inputs: random, rank-deficient, with zero rows and
    columns, with denominators, and empty shapes."""
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
    sb = SpanBuilder(field, d * d)
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


def commutant_by_stacked_system(field, gens):
    """d^2 minus the rank of X -> (Xg - gX for every g), one row per unit E_ab."""
    d = gens.shape[1]
    rows = []
    for a in range(d):
        for b in range(d):
            x = field.zeros((d, d))
            x[a, b] = field.scalar(1)
            rows.append(np.concatenate([field.reduce(field.matmul(x, g) - field.matmul(g, x)).ravel() for g in gens]))
    return d * d - rank1(field, np.stack(rows))


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
        assert commutant == commutant_by_stacked_system(field, gens)
        seen.add((gens.shape[1], closure, commutant))
    # full matrix algebra, one generator (commutative), nilpotent, conjugate blocks,
    # idempotent and shift
    assert {(5, 25, 1), (5, 5, 5), (3, 4, 2), (4, 4, 4), (6, 9, 4), (3, 5, 1)} <= seen


def test_span_builder():
    sb = SpanBuilder(QQ, 3)
    assert sb.add([1, 2, 3])
    assert not sb.add([2, 4, 6])
    assert sb.add([0, 1, 1])
    assert sb.dim == 2
    # membership as rank: a vector in the span leaves the rank of the stacked rows at 2
    assert rank1(QQ, np.vstack(sb.rows + [QQ.array([1, 3, 4])])) == 2
    assert rank1(QQ, np.vstack(sb.rows + [QQ.array([0, 0, 1])])) == 3


def test_coordinates_in_span():
    basis = QQ.array([[1, 0], [0, 1], [1, 1]])
    targets = QQ.array([[3], [4], [7]])
    coords = coordinates_in_span(QQ, basis, targets)
    assert coords.tolist() == [[Fraction(3)], [Fraction(4)]]
    with pytest.raises(ValueError):
        coordinates_in_span(QQ, basis, QQ.array([[1], [0], [0]]))


def test_matrix_shape_and_field_guards():
    with pytest.raises(ValueError):
        F.matmul(F.array([[1, 2], [3, 4]]), F.array([[1, 2], [3, 4], [5, 6]]))
    # elimination takes a stack; a single matrix is a stack of one
    with pytest.raises(ValueError):
        rank(F, F.eye(2))
    with pytest.raises(ValueError):
        det(F, F.array([[[1, 2]]]))
