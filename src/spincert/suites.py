"""Verification suites: constructions bound to expected certificates.

Every suite is a per-field function, which computes the suite's values over
one field keyed by check id, and a table of check specs (id, description,
expected, provenance, anchor) in report order.  One genericity protocol,
``_Recorder.two_prime``, runs the per-field function once for each
configured prime and records, per spec, the agreed value, or "a / b (primes
disagree)" as a failing check.  ``sln_quotient`` instead records every field
on its own, Q for n = 2..5 and each prime for n = 2..8, with the field's
label and n in the check ids.

Provenance is "literature" for values anchored in published stabilizer
classifications, "derived" for values the package computes independently,
and "plumbing" for pure bookkeeping.

A suite failure never aborts a run; the CLI aggregates pass flags into its
exit code.  Reports are deterministic for a fixed (seed, primes, trials):
re-running produces identical JSON apart from the elapsed time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .fields import GF, QQ, PrimeField, RandomSource
from .linalg import kernel, rank
from .clifford import QuadraticSpace
from .octonion import (
    anisotropic,
    derivation_algebra,
    split_generating_triple,
    subalgebra_generated,
    trace_zero_rep,
)
from .orbits import (
    fixed_subspace,
    invariant_bilinear_space,
    invariant_quartic_dim,
    isotypic_fingerprint,
    kernel_action_matrices,
    min_trial_stabilizer,
    stabilizer,
    subalgebra_structure,
    subalgebra_structure_from_matrices,
)
from .slnpair import (
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
from .spinreps import (
    LieRepresentation,
    center_acts_minus_one,
    direct_sum,
    embed_subalgebra,
    half_spin_reps,
    parity_indices,
    restrict,
    spin_rep,
    vector_rep,
)

__all__ = [
    "RunConfig",
    "Check",
    "SuiteReport",
    "SUITES",
    "suite_names",
    "run_suite",
    "run_selected",
    "report_to_dict",
]


@dataclass
class RunConfig:
    """One run's knobs; defaults reproduce the full certificate table."""

    suites: list = dc_field(default_factory=lambda: ["all"])
    prime: int = 1_000_003
    confirm_prime: int = 999_983
    seed: int = 0
    trials: int = 3
    fmt: str = "text"
    stretch: bool = False
    dump: str | None = None

    def validate(self):
        for p in (self.prime, self.confirm_prime):
            PrimeField(p)  # FieldError is a ValueError: not prime, < 5 or >= 2**31
        if self.prime == self.confirm_prime:
            raise ValueError("prime and confirm-prime must differ")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        for name in self.resolved_suites():
            if name not in SUITES:
                raise ValueError(f"unknown suite {name!r}")

    def resolved_suites(self) -> list:
        if self.suites == ["all"]:
            return list(SUITES)
        return list(self.suites)

    @property
    def primes(self):
        return (self.prime, self.confirm_prime)


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    expected: object
    observed: object
    provenance: str
    anchor: str
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    checks: list
    seed: int
    primes: tuple
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def report_to_dict(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "checks": [
            {
                "id": c.id,
                "description": c.description,
                "expected": c.expected,
                "observed": c.observed,
                "provenance": c.provenance,
                "anchor": c.anchor,
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "seed": report.seed,
        "primes": list(report.primes),
        "elapsed_ms": report.elapsed_ms,
        "pass": report.passed,
    }


class _Recorder:
    def __init__(self):
        self.checks: list[Check] = []

    def add(self, id, description, expected, observed, provenance, anchor):
        self.checks.append(
            Check(id, description, expected, observed, provenance, anchor, expected == observed)
        )

    def two_prime(self, cfg, per_field, specs):
        """Run per_field(cfg, field) once per prime; record each spec's agreed value or the split."""
        a, b = (per_field(cfg, GF(p)) for p in cfg.primes)
        for id, description, expected, provenance, anchor in specs:
            observed = a[id] if a[id] == b[id] else f"{a[id]} / {b[id]} (primes disagree)"
            self.add(id, description, expected, observed, provenance, anchor)


def _timed(name, body):
    def runner(cfg: RunConfig) -> SuiteReport:
        start = time.perf_counter()
        rec = _Recorder()
        try:
            body(cfg, rec)
        except Exception as exc:  # a suite failure must not abort the run
            rec.add(
                "suite-error",
                f"suite aborted: {type(exc).__name__}",
                "no error",
                str(exc),
                "plumbing",
                "suite execution",
            )
        elapsed = int((time.perf_counter() - start) * 1000)
        return SuiteReport(name, rec.checks, cfg.seed, cfg.primes, elapsed)

    return runner


def _two_prime(per_field, specs):
    return lambda cfg, rec: rec.two_prime(cfg, per_field, specs)


# -- suites ---------------------------------------------------------------
#
# Check tables hold data only: the per-field functions look library callables
# up as module globals at call time, so rebinding such a name (a test's
# monkeypatch, a tracer) reaches them.


def _g2_octonion(cfg: RunConfig, f) -> dict:
    derivations = derivation_algebra(f)
    g2 = trace_zero_rep(derivations)
    triple, _ = min_trial_stabilizer(direct_sum([g2] * 3), cfg.trials, cfg.seed)
    vector, v = min_trial_stabilizer(g2, cfg.trials, cfg.seed, witness=lambda x: anisotropic(f, x))
    # cross-module consistency against the spinor route
    deriv = subalgebra_structure_from_matrices(f, derivations.matrices)
    rpt, _ = min_trial_stabilizer(spin_rep(QuadraticSpace(7), f), cfg.trials, cfg.seed)
    spinor = subalgebra_structure(rpt.kernel, vector_rep(QuadraticSpace(7), f))
    return {
        "derivation-dim": derivations.dimension,
        "triple-closure": subalgebra_generated(f, split_generating_triple(f)),
        "kernel-triple": triple.dimension,
        "kernel-vector": vector.dimension,
        "kernel-scaled": stabilizer(g2.with_scaling(), v).dimension,
        "cross-spinor": [[deriv.dimension, deriv.killing_rank], [rpt.dimension, spinor.killing_rank]],
    }


_G2_OCTONION_CHECKS = (
    (
        "derivation-dim",
        "octonion derivation algebra dimension",
        14,
        "derived",
        "derivations of split octonions form the 14-dim exceptional algebra g2",
    ),
    (
        "triple-closure",
        "split generating triple closes to the full algebra",
        8,
        "derived",
        "an explicit trace-zero triple generates the octonions",
    ),
    (
        "kernel-triple",
        "derivation kernel on three trace-zero copies",
        0,
        "derived",
        "g2 acts generically freely on three octonion copies",
    ),
    (
        "kernel-vector",
        "derivation kernel at an anisotropic trace-zero octonion",
        8,
        "literature",
        "stabilizer in general position has dimension 8, the sl3 fingerprint",
    ),
    (
        "kernel-scaled",
        "kernel with the scaling generator appended",
        8,
        "literature",
        "the scaled action has an open orbit, radial directions join the image",
    ),
    (
        "cross-spinor",
        "derivation (dim, killing rank) equals spinor-stabilizer (dim, killing rank)",
        [[14, 14], [14, 14]],
        "derived",
        "both roads must land on the same 14-dim simple algebra",
    ),
)


def _spin7(cfg: RunConfig, f) -> dict:
    space = QuadraticSpace(7)
    rep = spin_rep(space, f)
    inv = invariant_bilinear_space(rep)
    rpt, v = min_trial_stabilizer(rep, cfg.trials, cfg.seed)
    struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
    fixed_dim, fixed = fixed_subspace(f, kernel_action_matrices(rpt.kernel, rep))
    contains_point = fixed_dim == 1 and rank(f, np.stack([fixed[0], v])[None]) == [1]
    scaled = f.reduce(v * 2)  # a unit of every accepted field, p >= 5
    return {
        "invariant-forms": [inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank],
        "stabilizer-dim": rpt.dimension,
        "killing-rank": struct.killing_rank,
        "fixed-subspace": fixed_dim,
        "fixed-contains-point": contains_point,
        "orbit-dim": rpt.orbit_dimension,
        "center-negates": center_acts_minus_one(space, rep),
        "scale-invariance": stabilizer(rep, scaled).dimension == rpt.dimension,
    }


_SPIN7_CHECKS = (
    (
        "invariant-forms",
        "[symmetric dim, antisymmetric dim, sample rank] on the 8-dim spin module",
        [1, 0, 8],
        "literature",
        "an invariant quadratic form whose fibers are exactly the orbits",
    ),
    (
        "stabilizer-dim",
        "generic spinor stabilizer dimension",
        14,
        "literature",
        "the stabilizer of an anisotropic spinor is of type G2",
    ),
    (
        "killing-rank",
        "Killing rank of the stabilizer subalgebra",
        14,
        "derived",
        "nondegenerate Killing form certifies a semisimple stabilizer",
    ),
    (
        "fixed-subspace",
        "fixed subspace of the studied point's stabilizer inside the spin module",
        1,
        "literature",
        "the spin module splits as trivial line plus 7-dim over the stabilizer",
    ),
    (
        "fixed-contains-point",
        "the fixed line is spanned by the stabilized point",
        True,
        "derived",
        "the point itself is annihilated by its stabilizer",
    ),
    (
        "orbit-dim",
        "orbit dimension 21 - 14 equals the quadric fiber dimension",
        7,
        "derived",
        "orbits fill the fibers of the invariant quadratic form",
    ),
    (
        "center-negates",
        "h1 = 2 m_{p1 q1} acts on the spin module diagonally with every entry +-1/2",
        True,
        "literature",
        "so exp(2 pi i h1), the kernel of Spin_n -> SO_n, acts as -Id",
    ),
    (
        "scale-invariance",
        "rescaling the point leaves the stabilizer kernel unchanged",
        True,
        "plumbing",
        "kernels are invariant under nonzero scaling of the point",
    ),
)


def _spin10(cfg: RunConfig, f) -> dict:
    space = QuadraticSpace(10)
    out = {}
    for check_id, rep in zip(("stabilizer-certificate", "parity-twin"), half_spin_reps(space, f)):
        rpt, _ = min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
        out[check_id] = [rpt.dimension, struct.killing_rank, struct.killing_nullity]
    inv = invariant_bilinear_space(half_spin_reps(space, f)[0])
    out["invariant-forms"] = [inv.symmetric_dim, inv.antisymmetric_dim]
    return out


_SPIN10_CHECKS = (
    (
        "stabilizer-certificate",
        "[stabilizer dim, Killing rank, Killing nullity] on the 16-dim half-spin module",
        [29, 21, 8],
        "literature",
        "open-orbit stabilizer is an 8-dim vector group extended by the 21-dim spin(7)",
    ),
    (
        "parity-twin",
        "the other half-spin module yields identical certificates",
        [29, 21, 8],
        "derived",
        "the two half-spin modules are parity twins",
    ),
    (
        "invariant-forms",
        "[symmetric dim, antisymmetric dim] of invariant bilinear forms",
        [0, 0],
        "derived",
        "no invariant quadratic exists; the open-orbit geometry is not a quadric",
    ),
)


def _spin11(cfg: RunConfig, f) -> dict:
    space = QuadraticSpace(11)
    rep = spin_rep(space, f)
    rpt, _ = min_trial_stabilizer(rep, cfg.trials, cfg.seed)
    struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
    _, commutant = isotypic_fingerprint(f, kernel_action_matrices(rpt.kernel, vector_rep(space, f)))
    out = {
        "stabilizer-dim": rpt.dimension,
        "killing-rank": struct.killing_rank,
        "commutant-on-v11": commutant,
        "orbit-dim": rpt.orbit_dimension,
        "center-negates": center_acts_minus_one(space, rep),
    }
    if cfg.stretch:
        out["quartic-invariants"] = invariant_quartic_dim(rep)
    return out


_SPIN11_CHECKS = (
    (
        "stabilizer-dim",
        "generic stabilizer dimension on the 32-dim spin module",
        24,
        "literature",
        "stabilizer SL_5: the generic spinor stabilizer is the 24-dim special linear algebra",
    ),
    (
        "killing-rank",
        "Killing rank of the stabilizer subalgebra",
        24,
        "derived",
        "nondegenerate Killing form, the sl5 semisimplicity fingerprint",
    ),
    (
        "commutant-on-v11",
        "commutant dimension of the stabilizer acting on the natural 11-dim module",
        3,
        "derived",
        "sl5 in so10 in so11 splits the natural module as 5 + dual(5) + 1, three inequivalent simples: three scalars",
    ),
    (
        "orbit-dim",
        "orbit dimension 55 - 24 matches the invariant-quartic level hypersurfaces",
        31,
        "derived",
        "nonzero level sets of the degree-4 invariant are single orbits",
    ),
    (
        "center-negates",
        "h1 = 2 m_{p1 q1} acts on the spin module diagonally with every entry +-1/2",
        True,
        "literature",
        "so exp(2 pi i h1), the kernel of Spin_n -> SO_n, acts as -Id",
    ),
)

_SPIN11_STRETCH_CHECKS = (
    (
        "quartic-invariants",
        "dimension of degree-4 invariant polynomials on the spin module",
        1,
        "literature",
        "a single degree-4 invariant cuts out the orbit stratification",
    ),
)


def _suite_spin11(cfg: RunConfig, rec: _Recorder):
    rec.two_prime(cfg, _spin11, _SPIN11_CHECKS + (_SPIN11_STRETCH_CHECKS if cfg.stretch else ()))


def _spin14(cfg: RunConfig, f) -> dict:
    space = QuadraticSpace(14)
    rep = half_spin_reps(space, f)[0]
    rpt, v = min_trial_stabilizer(rep, cfg.trials, cfg.seed)
    struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
    closure, commutant = isotypic_fingerprint(f, kernel_action_matrices(rpt.kernel, vector_rep(space, f)))
    inv = invariant_bilinear_space(rep)
    return {
        "stabilizer-dim": rpt.dimension,
        "killing-rank": struct.killing_rank,
        "scaled-stabilizer": stabilizer(rep.with_scaling(), v).dimension,
        "isotypic-fingerprint": [closure, commutant],
        "invariant-forms": [inv.symmetric_dim, inv.antisymmetric_dim],
    }


_SPIN14_CHECKS = (
    (
        "stabilizer-dim",
        "generic stabilizer dimension on the 64-dim half-spin module",
        28,
        "literature",
        "stabilizer pinched between g2 x g2 and its normalizer; dimension 91 + 1 - 64",
    ),
    (
        "killing-rank",
        "Killing rank of the stabilizer subalgebra",
        28,
        "derived",
        "nondegenerate Killing form matches the g2 + g2 sum",
    ),
    (
        "scaled-stabilizer",
        "appending the scaling generator keeps the stabilizer dimension",
        28,
        "literature",
        "the projective orbit of the point is open, so the cone orbit is dense",
    ),
    (
        "isotypic-fingerprint",
        "[closure dim, commutant dim] of the stabilizer acting on the natural 14-dim module",
        [98, 2],
        "literature",
        "the natural module splits into two 7-dim octonion halves, one per g2 factor",
    ),
    (
        "invariant-forms",
        "[symmetric dim, antisymmetric dim] of invariant bilinear forms",
        [0, 0],
        "derived",
        "half-spin self-pairings vanish here",
    ),
)

# (check id, (n, natural copies, spinor summand, spinor copies), what); the
# vector chains carry their expected dimension before what.
_FREENESS = (
    ("free-7", (7, 3, "spin", 1), "three natural copies plus the spin module"),
    ("free-10", (10, 5, "half", 1), "five natural copies plus one half-spin module"),
    ("free-11", (11, 4, "spin", 1), "four natural copies plus the spin module"),
    ("free-14", (14, 3, "half", 1), "three natural copies plus one half-spin module"),
)
_CHAINS = (
    ("chain-10", (10, 5, None, 0), 10, "five generic vectors leave the so(5) of the complement"),
    ("chain-11", (11, 4, None, 0), 21, "four generic vectors leave so(7)"),
    ("chain-14", (14, 3, None, 0), 55, "three generic vectors leave so(11)"),
)


def _coregular_free(cfg: RunConfig, f) -> dict:
    out = {}
    for check_id, (n, copies_v, spin_kind, copies_w), *_ in _FREENESS + _CHAINS:
        sp = QuadraticSpace(n)
        parts = [vector_rep(sp, f)] * copies_v
        if spin_kind == "spin":
            parts += [spin_rep(sp, f)] * copies_w
        elif spin_kind == "half":
            parts += [half_spin_reps(sp, f)[0]] * copies_w
        rpt, _ = min_trial_stabilizer(direct_sum(parts), cfg.trials, cfg.seed)
        out[check_id] = rpt.dimension
    return out


_COREGULAR_FREE_CHECKS = tuple(
    (
        check_id,
        f"generic stabilizer of {what}",
        0,
        "literature",
        "the listed coregular representation is generically free",
    )
    for check_id, _, what in _FREENESS
) + tuple(
    (
        check_id,
        what,
        expected,
        "derived",
        "each generic vector cuts the stabilizer down one orthogonal rank",
    )
    for check_id, _, expected, what in _CHAINS
)


def _sp4_left_multiplication(cfg: RunConfig, f, omega):
    """Generic stabilizer dimension of a 4x4 matrix under left multiplication by sp4 = sp(omega)."""
    # row 4x + y is entry (x, y) of z^T omega + omega z; unknown z[k, c] at column 4k + c
    eye = f.eye(4)
    system = np.einsum("cx,ky->xykc", eye, omega) + np.einsum("cy,xk->xykc", eye, omega)
    (sp4,) = kernel(f, f.reduce(system.reshape(1, 16, 16)))
    if len(sp4) != 10:
        return f"sp4 dimension {len(sp4)}"
    # z x on row-major 4x4 matrices x is kron(z, I4)
    tensor = np.stack([np.kron(z, eye) for z in sp4.reshape(-1, 4, 4)])
    rep = LieRepresentation(4, f, "sp4 on 4x4 matrices", tuple(("sp4", k) for k in range(10)), tensor)
    return min_trial_stabilizer(rep, cfg.trials, cfg.seed)[0].dimension


def _branching(cfg: RunConfig, f) -> dict:
    space11 = QuadraticSpace(11)
    res = restrict(spin_rep(space11, f), embed_subalgebra(space11, 10))
    even, odd = parity_indices(11)
    mixed = any(
        res.tensor[k][np.ix_(even, odd)].any() or res.tensor[k][np.ix_(odd, even)].any() for k in range(res.g)
    )
    space10 = QuadraticSpace(10)
    res10 = restrict(half_spin_reps(space10, f)[0], embed_subalgebra(space10, 5))
    inv = invariant_bilinear_space(spin_rep(QuadraticSpace(5), f))
    return {
        "restriction-blocks": [0, 0, False] if mixed else [len(even), len(odd), True],
        "half10-so5-fingerprint": list(isotypic_fingerprint(f, res10.tensor)),
        "spin5-symplectic": [inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank],
        "sp4-left-multiplication": _sp4_left_multiplication(cfg, f, inv.sample),
    }


_BRANCHING_CHECKS = (
    (
        "restriction-blocks",
        "[even block, odd block, all 45 matrices block-diagonal] for spin(11) restricted to so(10)",
        [16, 16, True],
        "literature",
        "a spin module restricts to the sum of the two half-spin modules",
    ),
    (
        "half10-so5-fingerprint",
        "[closure dim, commutant dim] of half-spin(10) restricted to so(5)",
        [16, 16],
        "literature",
        "the restriction is four copies of the 4-dim spin module of so(5)",
    ),
    (
        "spin5-symplectic",
        "[symmetric dim, antisymmetric dim, rank] of invariant forms on the 4-dim spin module",
        [0, 1, 4],
        "literature",
        "the accidental isomorphism with sp4 equips the spin module with a symplectic form",
    ),
    (
        "sp4-left-multiplication",
        "stabilizer of a generic invertible 4x4 matrix under sp4 left multiplication",
        0,
        "derived",
        "left multiplication on full matrices is generically free",
    ),
)


def _sln_quotient(cfg: RunConfig, f, n: int) -> dict:
    rng = RandomSource(cfg.seed)
    x, y, a, a_inv = random_samples(f, n, rng, 50)
    ax, ya = act(f, a, a_inv, x, y)
    invariant = np.array_equal(f.matmul(ya, ax), f.matmul(y, x))

    xs, ys = random_pairs(f, n, rng, 5)
    tau_ok = np.array_equal(pi(f, *tau(xs, ys)), np.swapaxes(pi(f, xs, ys), 1, 2))
    full, g, g_inv = normalizations_to_j(f, xs)  # an X of rank below n-1 has none
    moved, _ = act(f, g, g_inv, xs[full], ys[full])
    norm_ok = np.array_equal(moved, np.broadcast_to(canonical_j(f, n), moved.shape))

    # only the rank test of pi interleaves with the draws: a pair that passes
    # draws the last column of its fiber partner (J, Z) next
    found, columns = [], []
    attempts = 0
    while len(found) < 10 and attempts < 40:
        attempts += 1
        pair = random_pairs(f, n, rng, 1)
        if rank(f, pi(f, *pair)) == [n - 1]:
            found.append(pair)
            columns.append(rng.scalars(f, n - 1))
    x, y = (np.concatenate(part) for part in zip(*found))
    _, _, basis = normalizations_to_j(f, x)  # YX nonsingular: every X has rank n-1
    jy = f.matmul(y, basis)
    jz = jy.copy()
    jz[:, :, n - 1] = np.stack(columns)
    fiber_transporter(f, jy, jz)  # replays every move and checks det 1

    stabilizer = min(stabilizer_lie_dims(f, *random_pairs(f, n, rng, cfg.trials)))
    jacobian = max(jacobian_ranks_pi(f, *random_pairs(f, n, rng, cfg.trials)))
    return {
        "pi-invariant": invariant,
        "tau-quotient": tau_ok,
        "normalize": norm_ok,
        "transporter": len(found),
        "stabilizer": stabilizer,
        "jacobian": jacobian,
    }


# (kind, description, expected, provenance, anchor); the id is "{kind}-{label}-n{n}"
# and a callable expected value is applied to n
_SLN_QUOTIENT_CHECKS = (
    (
        "pi-invariant",
        "pi(A.(X,Y)) = pi(X,Y) over 50 samples, n={n}, {label}",
        True,
        "derived",
        "the product YX is constant on orbits",
    ),
    (
        "tau-quotient",
        "pi(tau(p)) = pi(p)^T over samples, n={n}, {label}",
        True,
        "derived",
        "the involution descends to transposition on the quotient",
    ),
    (
        "normalize",
        "normalization to the J block replays exactly, n={n}, {label}",
        True,
        "derived",
        "the group moves any full-rank X to the canonical block",
    ),
    (
        "transporter",
        "unique fiber transporter found and replayed on 10 sampled fibers, n={n}, {label}",
        10,
        "derived",
        "the fiber through a nonsingular-product pair is one orbit with trivial stabilizer",
    ),
    (
        "stabilizer",
        "tangent stabilizer dimension at a generic pair, n={n}, {label}",
        0,
        "derived",
        "the tangent-level stabilizer vanishes where YX is nonsingular",
    ),
    (
        "jacobian",
        "rank of the differential of pi at a generic pair, n={n}, {label}",
        lambda n: (n - 1) ** 2,
        "derived",
        "the differential is onto, so the quotient map is generically smooth",
    ),
)


def _suite_sln_quotient(cfg: RunConfig, rec: _Recorder):
    plans = [("QQ", QQ, range(2, 6))] + [(f"F{p}", GF(p), range(2, 9)) for p in cfg.primes]
    for label, f, ns in plans:
        for n in ns:
            values = _sln_quotient(cfg, f, n)
            for kind, description, expected, provenance, anchor in _SLN_QUOTIENT_CHECKS:
                rec.add(
                    f"{kind}-{label}-n{n}",
                    description.format(n=n, label=label),
                    expected(n) if callable(expected) else expected,
                    values[kind],
                    provenance,
                    anchor,
                )

    # the worked 2x2 case
    a = fiber_transporter(QQ, QQ.array([[[3, 5]]]), QQ.array([[[3, 7]]]))
    rec.add(
        "hand-transporter",
        "the 2x2 worked example solves to t1 = -2/3",
        str(Fraction(-2, 3)),
        str(a[0, 0, 1]),
        "derived",
        "one-equation fiber system",
    )


SUITES = {
    "g2_octonion": (
        _timed("g2_octonion", _two_prime(_g2_octonion, _G2_OCTONION_CHECKS)),
        "derivation algebra dim 14; generating triple; kernels (0, 8, 8); stabilizer SL_3 fingerprint",
    ),
    "spin7": (
        _timed("spin7", _two_prime(_spin7, _SPIN7_CHECKS)),
        "invariant quadratic; stabilizer G_2 (dim 14, Killing 14); fixed line; center -Id",
    ),
    "spin10": (
        _timed("spin10", _two_prime(_spin10, _SPIN10_CHECKS)),
        "half-spin stabilizer dim 29 = 8-dim vector group + spin(7); no invariant forms",
    ),
    "spin11": (
        _timed("spin11", _suite_spin11),
        "stabilizer SL_5 (dim 24, Killing 24); commutant on the natural module; center -Id",
    ),
    "spin14": (
        _timed("spin14", _two_prime(_spin14, _SPIN14_CHECKS)),
        "half-spin stabilizer dim 28 (g2 x g2); natural module splits 7 + 7; projective open orbit",
    ),
    "coregular_free": (
        _timed("coregular_free", _two_prime(_coregular_free, _COREGULAR_FREE_CHECKS)),
        "the four coregular sums are generically free; vector-chain stabilizers 10 / 21 / 55",
    ),
    "branching": (
        _timed("branching", _two_prime(_branching, _BRANCHING_CHECKS)),
        "spin(11) to so(10) parity blocks; half-spin(10) to so(5) is four spin(5) copies; sp4 freeness",
    ),
    "sln_quotient": (
        _timed("sln_quotient", _suite_sln_quotient),
        "pair action invariants; J normalization; fiber transporter; Jacobian surjectivity",
    ),
}


def suite_names() -> list:
    return list(SUITES)


def run_suite(name: str, cfg: RunConfig) -> SuiteReport:
    runner, _ = SUITES[name]
    return runner(cfg)


def run_selected(cfg: RunConfig) -> list:
    return [run_suite(name, cfg) for name in cfg.resolved_suites()]
