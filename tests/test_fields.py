from fractions import Fraction

import pytest

from spincert.fields import GF, QQ, FieldError, PrimeField, RandomSource, is_prime


def test_prime_validation():
    for bad in (4, 9, 1, 0, -7, 1000001):  # 1000001 = 101 * 9901
        with pytest.raises(FieldError):
            PrimeField(bad)
    # int64 elimination is exact only below 2**31
    with pytest.raises(FieldError):
        PrimeField(4294967311)
    assert PrimeField(2147483647).p == 2**31 - 1
    for small in (2, 3):
        with pytest.raises(FieldError):
            PrimeField(small)
    assert GF(5).p == 5
    assert GF(1000003).p == 1000003


def test_is_prime():
    assert is_prime(999983) and is_prime(1000003)
    assert not is_prime(999981) and not is_prime(1)


def test_gf_cached_and_hashable():
    assert GF(7) is GF(7)
    assert GF(7) == PrimeField(7)
    assert len({GF(7), GF(7), GF(11)}) == 2


def test_scalar_coercion():
    f = GF(7)
    assert f.scalar(-1) == 6
    assert f.scalar(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert QQ.scalar(3) == Fraction(3)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(14)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_exactness_spot():
    f = GF(999983)
    a = f.scalar(Fraction(355, 113))
    assert f.mul(a, f.scalar(113)) == f.scalar(355)


def test_random_source_reproducible():
    f = GF(1000003)
    a = RandomSource(42).scalars(f, 20)
    b = RandomSource(42).scalars(f, 20)
    assert a == b
    assert RandomSource(43).scalars(f, 20) != a
    assert all(0 <= x < f.p for x in a)


def test_random_source_rational_range():
    vals = RandomSource(0).scalars(QQ, 200)
    assert all(Fraction(-99) <= v <= Fraction(99) for v in vals)
    assert all(v.denominator == 1 for v in vals)


def test_child_streams():
    base = RandomSource(5)
    assert base.child(3).scalars(QQ, 4) == RandomSource(8).scalars(QQ, 4)
