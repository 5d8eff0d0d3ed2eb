"""Exact-arithmetic certificates for spin representations, split octonions
and the SL_n matrix-pair quotient.

Everything is computed over Q or over large prime fields, exactly;
genericity statements use a fixed trials-and-two-primes protocol.  The CLI
(``spincert run``) prints the whole certificate table.
"""

import os

# One OpenBLAS thread unless the environment says otherwise; it must be set
# before NumPy loads.  On 2 CPUs a second thread bought no wall time on any
# workload, and its spinning raised the CPU time of the generic_sweep
# benchmark by 30% or more (3.3 s against 2.25-2.5 s with one thread).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

__all__ = ["__version__"]
