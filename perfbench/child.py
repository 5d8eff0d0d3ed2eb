"""Run one spincert benchmark workload in this fresh interpreter.

``run.py`` starts this script once per measured iteration, and once per
set-up probe with ``--setup-only``.  It prints one JSON line: the monotonic
time at which set-up ended, the program's outputs for ``run.py`` to check,
and with ``--trace`` the per-layer totals of ``layertrace.Tracer``.

Set-up ends when every spincert module the workloads call is imported and
the elimination backend is chosen, so those imports come first.
"""

import time

import spincert.cli
from spincert import clifford, kernels, orbits, spinreps, suites
from spincert.fields import GF

BACKEND = kernels.backend()
SETUP_DONE = time.monotonic()

# The benchmark's own imports come after the set-up mark on purpose.
import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
PRIMES = tuple(REFERENCE["primes"])
GENERIC_TRIALS = 8
# RandomSource.child(t) is seed + t, so seeds closer than the trial count would
# re-sample the same points; 1000 apart keeps the three sweeps disjoint.
GENERIC_SEED_STRIDE = 1000


def sweep_seeds(seed: int) -> list:
    """Program seeds of generic_sweep; runs with different --seed never share one."""
    base = 3 * GENERIC_SEED_STRIDE * seed
    return [base + k * GENERIC_SEED_STRIDE for k in range(3)]


def full_table(seed: int) -> dict:
    """The work of ``spincert run --seed <seed>``: all 8 suites, default primes and trials."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spincert.cli.main(["run", "--format", "json", "--seed", str(seed)])
    return {"exit_code": code, "runs": [json.loads(out.getvalue())]}


def generic_sweep(seed: int) -> dict:
    """The suites that barely use associative_closure, over three spaced seeds, then the spin(11) quartic."""
    runs = []
    for s in sweep_seeds(seed):
        cfg = suites.RunConfig(suites=list(REFERENCE["generic_sweep_suites"]), seed=s, trials=GENERIC_TRIALS)
        cfg.validate()
        reports = suites.run_selected(cfg)
        runs.append({"seed": s, "suites": [suites.report_to_dict(r) for r in reports]})
    space = clifford.QuadraticSpace(11)
    quartic = {str(p): orbits.invariant_quartic_dim(spinreps.spin_rep(space, GF(p))) for p in PRIMES}
    return {"runs": runs, "quartic": quartic}


def construct_verify(seed: int) -> dict:
    """Build every representation of criterion 01 and verify it against so(n)."""
    verified = []
    for p in PRIMES:
        field = GF(p)
        for n in REFERENCE["construct_verify_ns"]:
            space = clifford.QuadraticSpace(n)
            struct = clifford.so_structure_constants(space, field)
            reps = [spinreps.vector_rep(space, field), spinreps.spin_rep(space, field)]
            if n % 2 == 0:
                reps += list(spinreps.half_spin_reps(space, field))
            for rep in reps:
                verified.append([p, rep.name, bool(spinreps.verify_lie_homomorphism(rep, struct))])
    return {"verified": verified}


WORKLOADS = {
    "full_table": full_table,
    "generic_sweep": generic_sweep,
    "construct_verify": construct_verify,
}


def blas_threads():
    """Thread count OpenBLAS reports, or None when no OpenBLAS is loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = {"setup_done": SETUP_DONE}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["outputs"] = WORKLOADS[args.workload](args.seed)
        result["work_s"] = time.perf_counter() - start
        result["trace"] = tracer.totals() if tracer else None
        result["provenance"] = {
            "backend": BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": blas_threads(),
        }
        if args.workload == "generic_sweep":
            result["provenance"]["generic_sweep_seeds"] = sweep_seeds(args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
