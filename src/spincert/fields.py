"""Exact scalars over the rationals and over odd prime fields, and their arrays.

Scalars are plain Python values: ``int`` residues in ``[0, p)`` for a prime
field, ``fractions.Fraction`` for the rationals.  A field object holds what
raw ``int`` and ``Fraction`` operations cannot express: coercion
(``scalar``), inverses (``inv``), random draws (``random_scalars``) and the
array methods below.  Scalar sums and products are written with ``+`` and
``*`` and mapped back with ``reduce``; zero tests are ``x == 0``.

Arrays of field entries are NumPy arrays, and this module is the one place
that knows their format: int64 residues in ``[0, p)`` over F_p, ``object``
arrays holding ``Fraction`` entries over Q.  Both fields offer the same
array methods, so every other module has one code path for both:

- ``zeros(shape)``, ``eye(n)`` and ``array(data)`` build arrays (over Q every
  entry is a ``Fraction``, never an ``int`` that could later divide to a
  float);
- ``reduce(arr)`` maps the result of ``+``, ``-`` or ``*`` by a scalar back
  into the field (``% p`` over F_p, nothing over Q);
- ``matmul(a, b)`` is the exact product, batched and broadcast shapes
  included, and a new array of the answer's shape (``kernels.matmul_mod``
  over F_p, which takes operands in (-p, p) and returns residues; over Q
  each operand is scaled by the lcm of its denominators, the Python-int
  object arrays are multiplied with ``np.matmul`` and every output entry is
  divided once into a ``Fraction``);
- ``cleared(arr)`` gives (integer array, d) with arr = integers / d: the
  residues themselves and 1 over F_p, Python ints over the lcm d of the
  denominators over Q, so integer code can run on either.

Everything is exact; the only floating point is inside ``matmul_mod``,
where the float64 sums of products are provably exact integers, cast to
int64 and reduced there.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .kernels import matmul_mod

__all__ = [
    "FieldError",
    "PrimeField",
    "RationalField",
    "QQ",
    "GF",
    "RandomSource",
    "is_prime",
]


class FieldError(ValueError):
    """Raised for invalid field parameters (composite, too small or too large primes)."""


# Elimination forms products of two residues in int64; below 2**31 they stay
# under 2**62, so a difference of two of them cannot overflow.
PRIME_LIMIT = 2**31


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, fine for n up to ~10^12."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p for an odd prime 5 <= p < 2**31.

    Characteristic 2 is excluded throughout (halves and quarters appear in
    the bivector normalization), and 3 is excluded because octonion
    derivation dimensions degenerate there.
    """

    p: int

    def __post_init__(self):
        if self.p >= PRIME_LIMIT:
            raise FieldError(f"prime must be < 2**31 for exact int64 elimination, got {self.p}")
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if self.p < 5:
            raise FieldError(f"prime must be >= 5, got {self.p}")

    def scalar(self, x):
        """Coerce an int or Fraction to a residue in [0, p)."""
        if isinstance(x, Fraction):
            return x.numerator % self.p * self.inv(x.denominator % self.p) % self.p
        return int(x) % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def random_scalars(self, rng: "RandomSource", count: int) -> np.ndarray:
        return self.array(rng.below(self.p, count))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def array(self, data) -> np.ndarray:
        arr = np.asarray(data)
        exact = np.frompyfunc(self.scalar, 1, 1)(arr) if arr.dtype == object else arr
        return np.asarray(exact, dtype=np.int64) % self.p

    def reduce(self, arr):
        return arr % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return matmul_mod(a, b, self.p)

    def cleared(self, arr: np.ndarray):
        return arr, 1

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers, with exact Fraction arithmetic."""

    def scalar(self, x):
        return Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def random_scalars(self, rng: "RandomSource", count: int) -> np.ndarray:
        # Small integers in [-99, 99] keep rational arithmetic cheap and are
        # generic with high probability; random.Random's randint(-99, 99) is
        # -99 + randrange(199).
        return self.array([x - 99 for x in rng.below(199, count)])

    def zeros(self, shape) -> np.ndarray:
        return np.full(shape, Fraction(0), dtype=object)

    def eye(self, n: int) -> np.ndarray:
        return self.array(np.eye(n, dtype=np.int64))

    def array(self, data) -> np.ndarray:
        # object input keeps its Python ints, so no Fraction wraps an int64
        return np.asarray(_fraction(np.asarray(data, dtype=object)), dtype=object)

    def reduce(self, arr):
        return arr

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        (ints_a, den_a), (ints_b, den_b) = _cleared(a), _cleared(b)
        den = den_a * den_b
        # an empty inner dimension gives int 0 entries, which become Fraction(0) here too
        divide = _fraction if den == 1 else np.frompyfunc(lambda x: Fraction(x, den), 1, 1)
        return divide(np.matmul(ints_a, ints_b))

    def cleared(self, arr: np.ndarray):
        return _cleared(arr)

    def __repr__(self):
        return "QQ"


QQ = RationalField()

_fraction = np.frompyfunc(Fraction, 1, 1)
_numerator = np.frompyfunc(operator.attrgetter("numerator"), 1, 1)
_denominator = np.frompyfunc(operator.attrgetter("denominator"), 1, 1)


def _cleared(arr: np.ndarray):
    """(Python-int object array, d) with arr = ints / d, d the lcm of the denominators."""
    den = math.lcm(*_denominator(arr).ravel().tolist())
    if den == 1:
        return _numerator(arr), 1
    return np.frompyfunc(lambda x: x.numerator * (den // x.denominator), 1, 1)(arr), den


@cache
def GF(p: int) -> PrimeField:
    """Return the (cached) prime field F_p; an invalid p raises on every call."""
    return PrimeField(p)


class RandomSource:
    """Deterministic scalar stream.

    Identical seed and field give the identical sequence of scalars; this is
    the reproducibility contract every suite relies on.  Each trial of a
    genericity protocol gets its own stream via :meth:`child`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:  # random.Random seeds by |seed|: -s would alias s
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._rng = random.Random(self.seed)

    def child(self, index: int) -> "RandomSource":
        """Stream for trial ``index``, derived as seed + index."""
        return RandomSource(self.seed + index)

    def below(self, n: int, count: int) -> list:
        """``count`` values of ``random.Random.randrange(n)``, drawn in bulk from
        the same stream.

        For n < 2**32, ``randrange(n)`` keeps the top n.bit_length() bits of
        one 32-bit output and draws again while the value is at least n.
        ``getrandbits(32 * need)`` holds the next ``need`` outputs as
        little-endian words, so shifting the words and keeping those below n
        gives the same values, and asking only for as many words as values
        are still missing never draws ahead of the stream.
        """
        if not 0 < n < 2**32:
            raise ValueError(f"bulk draws need 0 < n < 2**32, got {n}")
        shift = 32 - n.bit_length()
        out: list = []
        while len(out) < count:
            need = count - len(out)
            words = np.frombuffer(self._rng.getrandbits(32 * need).to_bytes(4 * need, "little"), dtype="<u4")
            words = words >> shift
            out += words[words < n].tolist()
        return out

    def scalars(self, field, count: int) -> np.ndarray:
        """``count`` random field entries, as a field array."""
        return field.random_scalars(self, count)
