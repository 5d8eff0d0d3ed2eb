from fractions import Fraction

import numpy as np
import pytest

from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import Matrix, random_matrix
from spincert.slnpair import (
    DegeneratePair,
    MatrixPair,
    NotInSLn,
    NotSameFiber,
    SingularFiber,
    act,
    canonical_j,
    fiber_transporter,
    jacobian_rank_pi,
    jacobian_ranks_pi,
    normalizations_to_j,
    normalize_to_j,
    pi,
    random_fiber_partner,
    random_pair,
    random_pairs,
    random_samples,
    random_sl,
    stabilizer_lie_dim,
    stabilizer_lie_dims,
    tau,
)

F = GF(1_000_003)


def inverse(m: Matrix) -> Matrix:
    """Reference inverse of a regular matrix, read off the rref of [A | I]."""
    red, _ = Matrix.hstack([m, Matrix.identity(m.field, m.rows)]).rref()
    return Matrix(m.field, red.data[:, m.rows :])


def act_on(a, a_inv, p):
    """act on one MatrixPair, with Matrix arguments."""
    x, y = act(p.field, a.data, a_inv.data, p.X.data, p.Y.data)
    return MatrixPair(Matrix(p.field, None, _raw=x), Matrix(p.field, None, _raw=y))


def test_pair_shape_validation():
    with pytest.raises(ValueError):
        MatrixPair(Matrix(F, [[1, 2], [3, 4]]), Matrix(F, [[1, 2]]))
    with pytest.raises(ValueError):
        MatrixPair(Matrix(F, [[1], [0]]), Matrix(QQ, [[1, 2]]))


def test_act_identity_and_hand_case():
    p = MatrixPair(Matrix(QQ, [[1], [0]]), Matrix(QQ, [[3, 5]]))
    moved = act_on(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2), p)
    assert moved == p
    a = Matrix(QQ, [[1, 1], [0, 1]])
    moved = act_on(a, Matrix(QQ, [[1, -1], [0, 1]]), p)
    assert moved.X.data.tolist() == [[Fraction(1)], [Fraction(0)]]
    assert moved.Y.data.tolist() == [[Fraction(3), Fraction(2)]]


def test_act_rejects_non_sl():
    p = MatrixPair(Matrix(QQ, [[1], [0]]), Matrix(QQ, [[3, 5]]))
    with pytest.raises(NotInSLn):
        act_on(Matrix(QQ, [[2, 0], [0, 1]]), Matrix(QQ, [[Fraction(1, 2), 0], [0, 1]]), p)


@pytest.mark.parametrize("field", [F, QQ])
def test_act_refuses_a_bad_stack(field):
    x, y, a, a_inv = random_samples(field, 3, RandomSource(9), 4)
    ax, ya = act(field, a, a_inv, x, y)
    assert ax.shape == (4, 3, 2) and ya.shape == (4, 2, 3)
    # one element of determinant 2, given with its true inverse
    bad, bad_inv = a.copy(), a_inv.copy()
    bad[2] = field.array([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    bad_inv[2] = field.array([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInSLn):
        act(field, bad, bad_inv, x, y)
    # a determinant-one stack with one wrong inverse is refused, but not as NotInSLn
    wrong = a_inv.copy()
    wrong[1] = a_inv[0]
    with pytest.raises(ValueError, match="inverse") as exc:
        act(field, a, wrong, x, y)
    assert not isinstance(exc.value, NotInSLn)


def test_pi_invariance_50_random():
    rng = RandomSource(0)
    for n in (2, 3, 4):
        for _ in range(50):
            p = random_pair(F, n, rng)
            a, a_inv = random_sl(F, n, rng)
            assert pi(act_on(a, a_inv, p)) == pi(p)


def test_pi_examples():
    p = MatrixPair(Matrix(QQ, [[1], [0]]), Matrix(QQ, [[3, 5]]))
    assert pi(p).data.tolist() == [[Fraction(3)]]
    z = MatrixPair(Matrix.zeros(QQ, 3, 2), Matrix(QQ, [[1, 2, 3], [4, 5, 6]]))
    assert pi(z).is_zero()
    # pi(J, Y) is the left (n-1)-square block of Y
    rng = RandomSource(1)
    for n in (3, 5):
        y = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)])
        jy = MatrixPair(canonical_j(QQ, n), y)
        assert pi(jy) == Matrix(y.field, y.data[: n - 1, : n - 1])


def test_tau_involution_and_identities():
    rng = RandomSource(2)
    for n in (2, 3, 5):
        p = random_pair(F, n, rng)
        assert tau(tau(p)) == p
        assert pi(tau(p)) == pi(p).T
        a, a_inv = random_sl(F, n, rng)
        assert a_inv == inverse(a)
        assert tau(act_on(a, a_inv, p)) == act_on(a_inv.T, a.T, tau(p))


def test_normalize_examples():
    j = canonical_j(QQ, 3)
    p = MatrixPair(j, Matrix(QQ, [[1, 2, 3], [4, 5, 6]]))
    a, a_inv = normalize_to_j(p)
    assert a == Matrix.identity(QQ, 3) == a_inv

    p2 = MatrixPair(Matrix(QQ, [[2], [0]]), Matrix(QQ, [[3, 5]]))
    a2, a2_inv = normalize_to_j(p2)
    assert a2.data.tolist() == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert a2_inv.data.tolist() == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    # e_0 lies in the span of X, so the completion is e_1
    p3 = MatrixPair(Matrix(QQ, [[1, 0], [0, 0], [0, 1]]), Matrix(QQ, [[1, 2, 3], [4, 5, 6]]))
    a3, a3_inv = normalize_to_j(p3)
    assert a3_inv.data.tolist() == [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    assert act_on(a3, a3_inv, p3).X == canonical_j(QQ, 3)

    rng = RandomSource(3)
    for n in (2, 3, 4, 5):
        pr = random_pair(F, n, rng)
        if pr.X.rank() < n - 1:
            continue
        a3, a3_inv = normalize_to_j(pr)
        assert a3.det() == 1 and a3_inv == inverse(a3)
        moved = act_on(a3, a3_inv, pr)
        assert moved.X == canonical_j(F, n) and moved.Y == pr.Y @ a3_inv


def test_normalize_rejects_degenerate():
    with pytest.raises(DegeneratePair):
        normalize_to_j(MatrixPair(Matrix.zeros(QQ, 3, 2), Matrix(QQ, [[1, 2, 3], [4, 5, 6]])))


def test_transporter_hand_case():
    x = Matrix(QQ, [[1], [0]])
    a = fiber_transporter(
        MatrixPair(x, Matrix(QQ, [[3, 5]])), MatrixPair(x, Matrix(QQ, [[3, 7]]))
    )
    assert a.data[0, 1] == Fraction(-2, 3)
    assert a.data[1, 1] == 1 and a.data[1, 0] == 0


def test_transporter_trivial_stabilizer():
    x = Matrix(QQ, [[1], [0]])
    y = Matrix(QQ, [[3, 5]])
    a = fiber_transporter(MatrixPair(x, y), MatrixPair(x, y))
    assert a == Matrix.identity(QQ, 2)


def test_transporter_errors():
    x = Matrix(QQ, [[1], [0]])
    with pytest.raises(NotSameFiber):
        fiber_transporter(MatrixPair(x, Matrix(QQ, [[3, 5]])), MatrixPair(x, Matrix(QQ, [[4, 5]])))
    # zero leading block makes the product singular
    j3 = canonical_j(QQ, 3)
    y_sing = Matrix(QQ, [[0, 0, 1], [0, 0, 2]])
    with pytest.raises(SingularFiber):
        fiber_transporter(MatrixPair(j3, y_sing), MatrixPair(j3, y_sing))
    with pytest.raises(ValueError):
        fiber_transporter(
            MatrixPair(Matrix(QQ, [[2], [0]]), Matrix(QQ, [[3, 5]])),
            MatrixPair(Matrix(QQ, [[2], [0]]), Matrix(QQ, [[3, 5]])),
        )


def test_fiber_sampling_same_orbit_decision():
    # same pi <=> normalize + transporter succeeds; the full decision procedure
    rng = RandomSource(4)
    for n in (2, 3, 4):
        pr = random_pair(F, n, rng)
        if pi(pr).rank() != n - 1:
            continue
        _, basis = normalize_to_j(pr)
        jy = MatrixPair(canonical_j(F, n), pr.Y @ basis)
        jz = random_fiber_partner(jy, rng)
        assert pi(jz) == pi(jy)
        t = fiber_transporter(jy, jz)
        eye = Matrix.identity(F, n)
        assert act_on(t, eye - (t - eye), jy) == jz


def test_stabilizer_lie_dims():
    rng = RandomSource(5)
    for n in (2, 3, 4, 5):
        p = random_pair(F, n, rng)
        assert stabilizer_lie_dim(p) == 0
    zero2 = MatrixPair(Matrix.zeros(F, 2, 1), Matrix.zeros(F, 1, 2))
    assert stabilizer_lie_dim(zero2) == 3  # all of sl_2
    j0 = MatrixPair(canonical_j(F, 2), Matrix.zeros(F, 1, 2))
    assert stabilizer_lie_dim(j0) == 1  # degenerate-input regression case


def test_jacobian_ranks():
    rng = RandomSource(6)
    for n in (2, 3, 4, 5):
        p = random_pair(F, n, rng)
        assert jacobian_rank_pi(p) == (n - 1) ** 2
    zero3 = MatrixPair(Matrix.zeros(F, 3, 2), Matrix.zeros(F, 2, 3))
    assert jacobian_rank_pi(zero3) == 0
    # X = J with generic Y realizes the restriction argument
    y = Matrix(F, [[rng.randrange(F.p) for _ in range(4)] for _ in range(3)])
    assert jacobian_rank_pi(MatrixPair(canonical_j(F, 4), y)) == 9


def test_random_sl_has_det_one():
    rng = RandomSource(7)
    for n in (2, 5, 8):
        for field in (F, QQ):
            a, a_inv = random_sl(field, n, rng)
            assert a.det() == 1
            assert a @ a_inv == Matrix.identity(field, n) == a_inv @ a


@pytest.mark.parametrize("field", [F, QQ])
def test_random_samples_match_sequential_draws(field):
    for n in (2, 3, 5, 8):
        batched, sequential = RandomSource(11), RandomSource(11)
        x, y, a, a_inv = random_samples(field, n, batched, 6)
        assert x.shape == (6, n, n - 1) and y.shape == (6, n - 1, n) and a.shape == a_inv.shape == (6, n, n)
        for k in range(6):
            pr = random_pair(field, n, sequential)
            g, g_inv = random_sl(field, n, sequential)
            for got, want in ((x[k], pr.X), (y[k], pr.Y), (a[k], g), (a_inv[k], g_inv)):
                assert np.array_equal(got, want.data)
        # the stream is left at the same position
        assert batched.scalars(field, 3) == sequential.scalars(field, 3)
    if field is QQ:
        assert all(type(v) is Fraction for arr in (x, y, a, a_inv) for v in arr.ravel())


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_random_pairs_match_sequential_draws(field):
    batched, sequential = RandomSource(3), RandomSource(3)
    x, y = random_pairs(field, 4, batched, 5)
    assert x.shape == (5, 4, 3) and y.shape == (5, 3, 4)
    for k in range(5):
        assert np.array_equal(x[k], random_matrix(field, 4, 3, sequential).data)
        assert np.array_equal(y[k], random_matrix(field, 3, 4, sequential).data)
    assert batched.scalars(field, 3) == sequential.scalars(field, 3)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_stacked_trials_match_pair_by_pair(field):
    for n in (2, 3, 5):
        x, y = random_pairs(field, n, RandomSource(n), 5)
        # degenerate members make the stack uneven: a zero pair, a J block with zero Y, a rank-deficient X
        x[1], y[1] = field.zeros((n, n - 1)), field.zeros((n - 1, n))
        x[2], y[2] = canonical_j(field, n).data, field.zeros((n - 1, n))
        x[3, :, 0] = field.zeros(n)
        pairs = [MatrixPair(Matrix(field, x[k]), Matrix(field, y[k])) for k in range(5)]
        assert stabilizer_lie_dims(field, x, y) == [stabilizer_lie_dim(pr) for pr in pairs]
        assert jacobian_ranks_pi(field, x, y) == [jacobian_rank_pi(pr) for pr in pairs]
        found = normalizations_to_j(field, x)
        assert found[1] is None and found[3] is None and found[2] is not None
        for got, pr in zip(found, pairs):
            if got is None:
                with pytest.raises(DegeneratePair):
                    normalize_to_j(pr)
                continue
            a, a_inv = normalize_to_j(pr)
            assert np.array_equal(got[0], a.data) and np.array_equal(got[1], a_inv.data)
