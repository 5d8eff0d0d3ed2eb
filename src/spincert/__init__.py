"""Exact-arithmetic certificates for spin representations, split octonions
and the SL_n matrix-pair quotient.

Everything is computed over Q or over large prime fields, exactly;
genericity statements use a fixed trials-and-two-primes protocol.  The CLI
(``spincert run``) prints the whole certificate table.
"""

from .fields import GF, QQ, PrimeField, RandomSource, RationalField
from .linalg import associative_closure, commutant_dimension

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "PrimeField",
    "RationalField",
    "RandomSource",
    "associative_closure",
    "commutant_dimension",
    "__version__",
]
