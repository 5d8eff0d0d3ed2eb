import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import (
    NON_UNIQUE,
    NO_SOLUTION,
    Matrix,
    SpanBuilder,
    associative_closure,
    commutant_dimension,
    coordinates_in_span,
    random_matrix,
    random_vector,
)

F = GF(1_000_003)
F2 = GF(999_983)


# -- independent oracles -------------------------------------------------------


def inverse(m: Matrix) -> Matrix:
    """Reference inverse of a regular matrix, read off the rref of [A | I]."""
    red, _ = Matrix.hstack([m, Matrix.identity(m.field, m.rows)]).rref()
    return Matrix(m.field, red.data[:, m.rows :])


def det_by_permutations(m: Matrix):
    """Leibniz expansion; the slow but unarguable determinant."""
    n = m.rows
    f = m.field
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = f.reduce(term * m.data[i, perm[i]])
        total = f.reduce(total + term)
    return total


def rank_by_minors(m: Matrix) -> int:
    """Largest size of a nonzero minor, enumerated exhaustively."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                if det_by_permutations(Matrix(m.field, m.data[np.ix_(rows, cols)])) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def rref_by_fractions(m: Matrix):
    """Naive Gauss-Jordan with Fraction arithmetic: the oracle for the
    fraction-free elimination path."""
    rows = [[Fraction(x) for x in r] for r in m.data]
    nrows, ncols = m.rows, m.cols
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
    assert Matrix.identity(field, 3).rank() == 3
    assert Matrix.zeros(field, 2, 2).rank() == 0
    assert Matrix(field, [[1, 2], [2, 4]]).rank() == 1


@pytest.mark.parametrize("field", [F, QQ])
def test_kernel_examples(field):
    assert Matrix.identity(field, 3).kernel_basis() == []
    (v,) = Matrix(field, [[1, -1]]).kernel_basis()
    assert v[0] == v[1] and v[0] != 0
    (w,) = Matrix(field, [[1, 2], [2, 4]]).kernel_basis()
    # proportional to (2, -1): 1*w0 + 2*w1 = 0
    assert field.reduce(w[0] + 2 * w[1]) == 0


def test_kernel_vectors_annihilate():
    rng = RandomSource(1)
    for field in (F, QQ):
        m = random_matrix(field, 4, 7, rng)
        for v in m.kernel_basis():
            assert not np.count_nonzero(field.matmul(m.data, v[:, None]))


def test_solve_examples():
    b = [2, 5, 9]
    x = Matrix.identity(QQ, 3).solve(b)
    assert list(x) == [Fraction(2), Fraction(5), Fraction(9)]
    assert list(Matrix(QQ, [[3]]).solve([5])) == [Fraction(5, 3)]
    assert Matrix(QQ, [[1, 1]]).solve([1]) is NON_UNIQUE
    assert Matrix(QQ, [[1], [1]]).solve([1, 2]) is NO_SOLUTION
    assert Matrix(F, [[1, 1]]).solve([1]) is NON_UNIQUE
    with pytest.raises(ValueError):
        Matrix(F, [[1, 1]]).solve([1, 2, 3])


def test_solve_replay_random():
    rng = RandomSource(2)
    for field in (F, QQ):
        m = random_matrix(field, 5, 5, rng)
        if m.rank() < 5:
            continue
        b = random_vector(field, 5, rng)
        x = m.solve(b)
        assert all(p == q for p, q in zip(field.matmul(m.data, x[:, None])[:, 0], b))


def test_rank_nullity_always():
    rng = RandomSource(3)
    for field in (F, QQ):
        for rows, cols in [(3, 5), (5, 3), (4, 4), (1, 6)]:
            m = random_matrix(field, rows, cols, rng)
            assert m.rank() + len(m.kernel_basis()) == cols


def test_rank_against_minor_oracle():
    rng = RandomSource(4)
    for field in (F, QQ):
        for _ in range(4):
            m = random_matrix(field, 3, 4, rng)
            assert m.rank() == rank_by_minors(m)
    # engineered low rank
    a = random_matrix(QQ, 3, 1, rng)
    b = random_matrix(QQ, 1, 4, rng)
    m = a @ b
    assert m.rank() == rank_by_minors(m) == 1


def test_det_against_permutation_oracle():
    rng = RandomSource(5)
    for field in (F, QQ):
        for n in (1, 2, 3, 4):
            m = random_matrix(field, n, n, rng)
            assert m.det() == det_by_permutations(m)


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
        m = Matrix(QQ, arr)
        got, piv = m.rref()
        want, piv2 = rref_by_fractions(m)
        assert piv == piv2
        assert got.shape == m.shape and all(type(x) is Fraction for x in got.data.ravel())
        assert all(got.data[i, j] == want[i][j] for i in range(m.rows) for j in range(m.cols))
        ranks.add((len(piv), min(m.shape)))
    assert any(r < k for r, k in ranks) and any(r == k > 0 for r, k in ranks)


def test_field_agreement_qq_vs_two_primes():
    # integer matrices: rank over Q equals rank over both large primes
    rng = random.Random(7)
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        r_qq = Matrix(QQ, rows).rank()
        assert r_qq == Matrix(F, rows).rank() == Matrix(F2, rows).rank()


def test_full_rank_probability_sanity():
    # random square matrices over a large prime are essentially always regular
    rng = RandomSource(8)
    assert all(random_matrix(F, 6, 6, rng).rank() == 6 for _ in range(20))


def test_inverse_roundtrip():
    rng = RandomSource(9)
    for field in (F, QQ):
        m = random_matrix(field, 5, 5, rng)
        assert (m @ inverse(m)) == Matrix.identity(field, 5)


def test_associative_closure_examples():
    assert associative_closure([Matrix.identity(F, 2)]) == 1
    e12 = Matrix(QQ, [[0, 1], [0, 0]])
    e21 = Matrix(QQ, [[0, 0], [1, 0]])
    assert associative_closure([e12, e21]) == 4


def test_associative_closure_monotone_and_bounded():
    rng = RandomSource(10)
    gens = [random_matrix(F, 3, 3, rng) for _ in range(3)]
    dims = [associative_closure(gens[: k + 1]) for k in range(3)]
    assert dims == sorted(dims)
    assert dims[-1] <= 9


def test_commutant_examples():
    units = [Matrix(F, m) for m in ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]])]
    assert commutant_dimension(units) == 1
    # over Q as well
    units_q = [Matrix(QQ, m.data.tolist()) for m in units]
    assert commutant_dimension(units_q) == 1


def test_commutant_against_definition():
    rng = RandomSource(11)
    g = random_matrix(F, 3, 3, rng)
    dim = commutant_dimension([g])
    # brute check: count independent E_ab images under X -> Xg - gX
    rows = []
    for a in range(3):
        for b in range(3):
            x = np.zeros((3, 3), dtype=np.int64)
            x[a, b] = 1
            xm = Matrix(F, x)
            rows.append((xm @ g - g @ xm).flatten())
    assert dim == 9 - Matrix(F, np.stack(rows)).rank()


def closure_by_words(gens):
    """Span of the words in the generators, one word length at a time.

    Level L+1 adds g @ w for every generator g and every basis matrix w of
    level L.  The levels are stationary from the first one that adds nothing,
    and at the latest from length d^2.
    """
    field, d = gens[0].field, gens[0].rows
    sb = SpanBuilder(field, d * d)
    sb.add(Matrix.identity(field, d).flatten())
    for _ in range(d * d):
        grew = False
        for row in list(sb.rows):
            w = Matrix(field, row.reshape(d, d))
            for g in gens:
                grew |= sb.add((g @ w).flatten())
        if not grew:
            break
    return sb.dim


def commutant_by_stacked_system(gens):
    """d^2 minus the rank of X -> (Xg - gX for every g), one row per unit E_ab."""
    field, d = gens[0].field, gens[0].rows
    rows = []
    for a in range(d):
        for b in range(d):
            e = Matrix.zeros(field, d, d).data.copy()
            e[a, b] = field.scalar(1)
            x = Matrix(field, e)
            rows.append(np.concatenate([(x @ g - g @ x).flatten() for g in gens]))
    return d * d - Matrix(field, np.stack(rows)).rank()


def _closure_cases(field, rng):
    cases = []
    for d in range(2, 6):
        for k in range(1, 4):
            cases.append([random_matrix(field, d, d, rng) for _ in range(k)])
    # strictly upper triangular: a nilpotent algebra plus the identity
    for d in (3, 4):
        nil = []
        for _ in range(2):
            m = random_matrix(field, d, d, rng).data.copy()
            m[np.tril_indices(d)] = field.scalar(0)
            nil.append(Matrix(field, m))
        cases.append(nil)
    # diag(A, P A P^-1): a proper subalgebra whose commutant holds the 2x2 matrices
    for d, k in ((2, 2), (3, 1), (3, 2)):
        p = random_matrix(field, d, d, rng)
        p_inv = inverse(p)
        zero = Matrix.zeros(field, d, d)
        block = []
        for _ in range(k):
            a = random_matrix(field, d, d, rng)
            twin = p @ a @ p_inv
            block.append(Matrix.vstack([Matrix.hstack([a, zero]), Matrix.hstack([zero, twin])]))
        cases.append(block)
    # an idempotent and a shift: after the first round the frontier has two rows
    # whose products differ, so spinning on from only one of them stops short
    idempotent = Matrix(field, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    shift = Matrix(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    cases.append([idempotent, shift])
    return cases


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_closure_and_commutant_against_oracles(field):
    seen = set()
    for gens in _closure_cases(field, RandomSource(12)):
        closure = associative_closure(gens)
        commutant = commutant_dimension(gens)
        assert closure == closure_by_words(gens)
        assert commutant == commutant_by_stacked_system(gens)
        seen.add((gens[0].rows, closure, commutant))
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
    assert Matrix(QQ, np.vstack(sb.rows + [QQ.array([1, 3, 4])])).rank() == 2
    assert Matrix(QQ, np.vstack(sb.rows + [QQ.array([0, 0, 1])])).rank() == 3


def test_coordinates_in_span():
    basis = Matrix(QQ, [[1, 0], [0, 1], [1, 1]])
    targets = Matrix(QQ, [[3], [4], [7]])
    coords = coordinates_in_span(basis, targets)
    assert coords.data.tolist() == [[Fraction(3)], [Fraction(4)]]
    with pytest.raises(ValueError):
        coordinates_in_span(basis, Matrix(QQ, [[1], [0], [0]]))


def test_matrix_shape_and_field_guards():
    with pytest.raises(ValueError):
        Matrix(F, [[1, 2], [3, 4]]) @ Matrix(F, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        Matrix(F, [[1]]) + Matrix(QQ, [[1]])
    with pytest.raises(ValueError):
        Matrix(F, [[1, 2]]).det()
