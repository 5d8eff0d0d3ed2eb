import random
from fractions import Fraction

import numpy as np
import pytest

from spincert.fields import GF, QQ, RandomSource
from spincert.linalg import det, rank, rref
from spincert.slnpair import (
    NotInSLn,
    NotSameFiber,
    SingularFiber,
    act,
    canonical_j,
    fiber_transporter,
    jacobian_ranks_pi,
    normalizations_to_j,
    pi,
    random_pairs,
    random_samples,
    stabilizer_lie_dims,
    tau,
)

F = GF(1_000_003)


def inverse(field, a):
    """Reference inverse of a regular matrix, read off the rref of [A | I]."""
    n = len(a)
    ((red, _),) = rref(field, np.hstack([a, field.eye(n)])[None])
    return red[:, n:]


def same(got, want):
    """Two tuples of field arrays agree entry for entry."""
    return len(got) == len(want) and all(np.array_equal(u, v) for u, v in zip(got, want))


def test_act_identity_and_hand_case():
    x, y = QQ.array([[[1], [0]]]), QQ.array([[[3, 5]]])
    eye = QQ.eye(2)[None]
    assert same(act(QQ, eye, eye, x, y), (x, y))
    moved_x, moved_y = act(QQ, QQ.array([[[1, 1], [0, 1]]]), QQ.array([[[1, -1], [0, 1]]]), x, y)
    assert moved_x.tolist() == [[[Fraction(1)], [Fraction(0)]]]
    assert moved_y.tolist() == [[[Fraction(3), Fraction(2)]]]
    # act takes stacks only: an unstacked pair is refused
    with pytest.raises(ValueError):
        act(QQ, QQ.eye(2), QQ.eye(2), x[0], y[0])


def test_act_rejects_non_sl():
    x, y = QQ.array([[[1], [0]]]), QQ.array([[[3, 5]]])
    with pytest.raises(NotInSLn):
        act(QQ, QQ.array([[[2, 0], [0, 1]]]), QQ.array([[[Fraction(1, 2), 0], [0, 1]]]), x, y)


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
        x, y, a, a_inv = random_samples(F, n, rng, 50)
        assert np.array_equal(pi(F, *act(F, a, a_inv, x, y)), pi(F, x, y))


def test_pi_examples():
    assert pi(QQ, QQ.array([[1], [0]]), QQ.array([[3, 5]])).tolist() == [[Fraction(3)]]
    assert not np.count_nonzero(pi(QQ, QQ.zeros((3, 2)), QQ.array([[1, 2, 3], [4, 5, 6]])))
    # pi(J, Y) is the left (n-1)-square block of Y
    rng = random.Random(1)
    for n in (3, 5):
        y = QQ.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)])
        assert np.array_equal(pi(QQ, canonical_j(QQ, n), y), y[:, : n - 1])


def test_tau_involution_and_identities():
    rng = RandomSource(2)
    for n in (2, 3, 5):
        x, y, a, a_inv = random_samples(F, n, rng, 3)
        tx, ty = tau(x, y)
        assert same(tau(tx, ty), (x, y))
        assert np.array_equal(pi(F, tx, ty), np.swapaxes(pi(F, x, y), 1, 2))
        assert all(np.array_equal(g_inv, inverse(F, g)) for g, g_inv in zip(a, a_inv))
        # tau(A . p) = A^{-T} . tau(p)
        a_t, a_inv_t = np.swapaxes(a, 1, 2), np.swapaxes(a_inv, 1, 2)
        assert same(tau(*act(F, a, a_inv, x, y)), act(F, a_inv_t, a_t, tx, ty))


def test_normalize_examples():
    j = canonical_j(QQ, 3)
    full, a, a_inv = normalizations_to_j(QQ, j[None])
    assert full.tolist() == [True]
    assert np.array_equal(a, QQ.eye(3)[None]) and np.array_equal(a_inv, QQ.eye(3)[None])

    _, (a2,), (a2_inv,) = normalizations_to_j(QQ, QQ.array([[[2], [0]]]))
    assert a2.tolist() == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert a2_inv.tolist() == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    # e_0 lies in the span of X, so the completion is e_1
    x3 = QQ.array([[[1, 0], [0, 0], [0, 1]]])
    _, a3, a3_inv = normalizations_to_j(QQ, x3)
    assert a3_inv.tolist() == [[[1, 0, 0], [0, 0, -1], [0, 1, 0]]]
    moved_x, _ = act(QQ, a3, a3_inv, x3, QQ.array([[[1, 2, 3], [4, 5, 6]]]))
    assert np.array_equal(moved_x, canonical_j(QQ, 3)[None])

    rng = RandomSource(3)
    for n in (2, 3, 4, 5):
        x, y = random_pairs(F, n, rng, 1)
        full, a, a_inv = normalizations_to_j(F, x)  # a generic X has rank n-1
        assert full.tolist() == [True] and det(F, a) == [1] and np.array_equal(a_inv[0], inverse(F, a[0]))
        assert same(act(F, a, a_inv, x, y), (canonical_j(F, n)[None], F.matmul(y, a_inv)))


def test_normalize_rejects_degenerate():
    full, a, a_inv = normalizations_to_j(QQ, QQ.zeros((1, 3, 2)))
    assert full.tolist() == [False] and a.shape == a_inv.shape == (0, 3, 3)


def test_transporter_hand_case():
    # a stack of one
    (a,) = fiber_transporter(QQ, QQ.array([[[3, 5]]]), QQ.array([[[3, 7]]]))
    assert a[0, 1] == Fraction(-2, 3)
    assert a[1, 1] == 1 and a[1, 0] == 0


def test_transporter_trivial_stabilizer():
    y = QQ.array([[[3, 5]], [[2, 9]]])
    assert np.array_equal(fiber_transporter(QQ, y, y), np.broadcast_to(QQ.eye(2), (2, 2, 2)))


def test_transporter_errors():
    for field in (F, QQ):
        with pytest.raises(NotSameFiber):
            fiber_transporter(field, field.array([[[3, 5]]]), field.array([[[4, 5]]]))
        # one pair of a stack off its fiber is enough
        y = field.array([[[3, 5]], [[2, 9]], [[1, 1]]])
        z = y.copy()
        z[1, 0, 0] = field.scalar(7)
        with pytest.raises(NotSameFiber):
            fiber_transporter(field, y, z)
        # a zero leading block makes the product singular, in any one pair of a stack
        y_sing = field.array([[[0, 0, 1], [0, 0, 2]]])
        with pytest.raises(SingularFiber):
            fiber_transporter(field, y_sing, y_sing)
        y3 = field.array([[[1, 0, 4], [0, 1, 5]], [[0, 0, 1], [0, 0, 2]], [[2, 1, 0], [1, 1, 3]]])
        with pytest.raises(SingularFiber):
            fiber_transporter(field, y3, y3)
        fiber_transporter(field, y3[[0, 2]], y3[[0, 2]])  # without the singular pair the stack passes


def test_fiber_sampling_same_orbit_decision():
    # same pi <=> normalize + transporter succeeds; the full decision procedure
    rng = RandomSource(4)
    for n in (2, 3, 4):
        x, y = random_pairs(F, n, rng, 6)
        keep = [k for k, r in enumerate(rank(F, pi(F, x, y))) if r == n - 1]
        x, y = x[keep], y[keep]
        j = np.broadcast_to(canonical_j(F, n), x.shape)
        full, a, basis = normalizations_to_j(F, x)
        assert full.all()
        jy = F.matmul(y, basis)
        assert same(act(F, a, basis, x, y), (j, jy))
        # a partner in the fiber: the left block of Y, a fresh last column
        jz = jy.copy()
        jz[:, :, n - 1] = rng.scalars(F, len(keep) * (n - 1)).reshape(len(keep), n - 1)
        assert np.array_equal(pi(F, j, jz), pi(F, j, jy))
        t = fiber_transporter(F, jy, jz)
        assert same(act(F, t, F.reduce(2 * F.eye(n) - t), j, jy), (j, jz))


def test_stabilizer_lie_dims():
    rng = RandomSource(5)
    for n in (2, 3, 4, 5):
        assert stabilizer_lie_dims(F, *random_pairs(F, n, rng, 1)) == [0]
    assert stabilizer_lie_dims(F, F.zeros((1, 2, 1)), F.zeros((1, 1, 2))) == [3]  # all of sl_2
    # degenerate-input regression case
    assert stabilizer_lie_dims(F, canonical_j(F, 2)[None], F.zeros((1, 1, 2))) == [1]


def test_jacobian_ranks():
    rng = RandomSource(6)
    for n in (2, 3, 4, 5):
        assert jacobian_ranks_pi(F, *random_pairs(F, n, rng, 1)) == [(n - 1) ** 2]
    assert jacobian_ranks_pi(F, F.zeros((1, 3, 2)), F.zeros((1, 2, 3))) == [0]
    # X = J with generic Y realizes the restriction argument
    _, y = random_pairs(F, 4, rng, 1)
    assert jacobian_ranks_pi(F, canonical_j(F, 4)[None], y) == [9]


def test_random_sl_has_det_one():
    rng = RandomSource(7)
    for n in (2, 5, 8):
        for field in (F, QQ):
            _, _, a, a_inv = random_samples(field, n, rng, 2)
            assert det(field, a) == [1, 1]
            for g, g_inv in zip(a, a_inv):
                assert np.array_equal(field.matmul(g, g_inv), field.eye(n))
                assert np.array_equal(field.matmul(g_inv, g), field.eye(n))


def reference_sample(field, n, rng):
    """One (X, Y, A, A^{-1}) drawn entry by entry: X and Y row by row, then
    for each i and each j < i the entries L[i, j] and U[j, i] of A = LU."""
    x = field.array([rng.scalars(field, n - 1) for _ in range(n)])
    y = field.array([rng.scalars(field, n) for _ in range(n - 1)])
    lo, up = field.eye(n), field.eye(n)
    for i in range(n):
        for j in range(i):
            lo[i, j], up[j, i] = rng.scalars(field, 2)
    a = field.matmul(lo, up)
    return x, y, a, inverse(field, a)


@pytest.mark.parametrize("field", [F, QQ])
def test_random_samples_match_sequential_draws(field):
    for n in (2, 3, 5, 8):
        batched, sequential = RandomSource(11), RandomSource(11)
        x, y, a, a_inv = random_samples(field, n, batched, 6)
        assert x.shape == (6, n, n - 1) and y.shape == (6, n - 1, n) and a.shape == a_inv.shape == (6, n, n)
        for k in range(6):
            assert same((x[k], y[k], a[k], a_inv[k]), reference_sample(field, n, sequential))
        # the stream is left at the same position
        assert np.array_equal(batched.scalars(field, 3), sequential.scalars(field, 3))
    if field is QQ:
        assert all(type(v) is Fraction for arr in (x, y, a, a_inv) for v in arr.ravel())


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_random_pairs_match_sequential_draws(field):
    batched, sequential = RandomSource(3), RandomSource(3)
    x, y = random_pairs(field, 4, batched, 5)
    assert x.shape == (5, 4, 3) and y.shape == (5, 3, 4)
    for k in range(5):
        # row by row, one draw per row
        assert np.array_equal(x[k], field.array([sequential.scalars(field, 3) for _ in range(4)]))
        assert np.array_equal(y[k], field.array([sequential.scalars(field, 4) for _ in range(3)]))
    assert np.array_equal(batched.scalars(field, 3), sequential.scalars(field, 3))


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_stacked_trials_match_pair_by_pair(field):
    # over F_p a stack goes through kernels.rref_stack and a stack of one through rref_mod
    for n in (2, 3, 5):
        x, y = random_pairs(field, n, RandomSource(n), 5)
        # degenerate members make the stack uneven: a zero pair, a J block with zero Y, a rank-deficient X
        x[1], y[1] = field.zeros((n, n - 1)), field.zeros((n - 1, n))
        x[2], y[2] = canonical_j(field, n), field.zeros((n - 1, n))
        x[3, :, 0] = field.zeros(n)
        alone = [(x[k : k + 1], y[k : k + 1]) for k in range(5)]
        assert stabilizer_lie_dims(field, x, y) == [stabilizer_lie_dims(field, *p)[0] for p in alone]
        assert jacobian_ranks_pi(field, x, y) == [jacobian_ranks_pi(field, *p)[0] for p in alone]
        full, a, a_inv = normalizations_to_j(field, x)
        assert full.tolist() == [True, False, True, False, True]
        want = [normalizations_to_j(field, x_k) for x_k, _ in alone]
        assert full.tolist() == [bool(w[0][0]) for w in want]
        assert same((a, a_inv), tuple(np.concatenate([w[i] for w in want]) for i in (1, 2)))
