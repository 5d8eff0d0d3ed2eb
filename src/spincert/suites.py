"""Verification suites: constructions bound to expected certificates.

Seven suites, g2_octonion, spin7, spin10, spin11, spin14, coregular_free and
branching, are two-prime suites: a context built once per configured prime
and one table of checks (id, value, description, expected, provenance,
anchor) in report order, each value a function of that context.  The spinor
rows read a ``_Point``, the row's generic point on one module; g2_octonion,
coregular_free and branching share a ``_Field``.  Either derives what its
checks read on first read only.  One builder, ``_two_prime``, computes every
value over both primes before it records, per check, the agreed value, or
"a / b (primes disagree)" as a failing check.  ``sln_quotient`` instead
records every field on its own, Q for n = 2..5 and each prime for n = 2..8,
with the field's label and n in the check ids.

Provenance is "literature" for values anchored in published stabilizer
classifications, "derived" for values the package computes independently,
and "plumbing" for pure bookkeeping.

A suite failure never aborts a run; the CLI aggregates pass flags into its
exit code.  Reports are deterministic for a fixed (seed, primes, trials):
re-running produces identical JSON apart from the elapsed time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property, partial

import numpy as np

from .fields import GF, QQ, PrimeField, RandomSource
from .linalg import associative_closure, commutant_dimension, hom_space, kernel, rank
from .clifford import QuadraticSpace
from .octonion import (
    anisotropic,
    derivation_algebra,
    split_generating_triple,
    subalgebra_generated,
)
from .orbits import (
    _first_trial_decides,
    invariant_bilinear_space,
    invariant_quartic_dim,
    kernel_action_matrices,
    min_trial_stabilizer,
    stabilizer,
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
    "run_suite",
    "run_selected",
    "report_to_dict",
]


@dataclass
class RunConfig:
    """One run's knobs; defaults reproduce the full certificate table."""

    suites: list = dc_field(default_factory=lambda: list(SUITES))
    prime: int = 1_000_003
    confirm_prime: int = 999_983
    seed: int = 0
    trials: int = 3
    stretch: bool = False

    def validate(self):
        for p in (self.prime, self.confirm_prime):
            PrimeField(p)  # FieldError is a ValueError: not prime, < 5 or >= 2**31
        if self.prime == self.confirm_prime:
            raise ValueError("prime and confirm-prime must differ")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in self.suites:
            if name not in SUITES:
                raise ValueError(f"unknown suite {name!r}")
            if self.suites.count(name) > 1:
                raise ValueError(f"suite {name!r} is named more than once")

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

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


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
    """The report's fields as JSON-ready data, with a pass flag on every check and on the suite."""
    doc = asdict(report)
    for check, c in zip(doc["checks"], report.checks):
        check["pass"] = c.passed
    return doc | {"primes": list(report.primes), "pass": report.passed}


def _timed(name, body):
    """Runner of a suite whose ``body(cfg, checks)`` appends its Checks to the list."""

    def runner(cfg: RunConfig) -> SuiteReport:
        start = time.perf_counter()
        checks = []
        try:
            body(cfg, checks)
        except Exception as exc:  # a suite failure must not abort the run
            error = f"suite aborted: {type(exc).__name__}"
            checks.append(Check("suite-error", error, "no error", str(exc), "plumbing", "suite execution"))
        elapsed = int((time.perf_counter() - start) * 1000)
        return SuiteReport(name, checks, cfg.seed, cfg.primes, elapsed)

    return runner


def _two_prime(context, checks, stretch=()):
    """Body of a two-prime suite: every check's value at ``context(cfg, field)``, built once per prime.

    Both primes' values are computed before any is recorded; ``--stretch``
    appends the stretch checks.
    """

    def body(cfg: RunConfig, out: list):
        run = checks + (stretch if cfg.stretch else ())

        def values(p):  # one prime's context is released before the next is built
            ctx = context(cfg, GF(p))
            return [value(ctx) for _, value, *_ in run]

        a, b = map(values, cfg.primes)
        for (id, _, description, expected, provenance, anchor), x, y in zip(run, a, b):
            observed = x if x == y else f"{x} / {y} (primes disagree)"
            out.append(Check(id, description, expected, observed, provenance, anchor))

    return body


# -- suites ---------------------------------------------------------------
#
# Check tables hold data only: the value functions look library callables up
# as module globals at call time, so rebinding such a name (a test's
# monkeypatch, a tracer) reaches them.


def _module(space, f, module):
    """The module a spinor row names: "spin", or the "even" or "odd" half-spin module."""
    if module == "spin":
        return spin_rep(space, f)
    return half_spin_reps(space, f)[("even", "odd").index(module)]


class _Point:
    """A row's generic point over one field, drawn once, and what its checks derive from it.

    The point is the first min-trial point of the module.  The derived data,
    each computed on its first read only, are the Killing structure of the
    stabilizer through V_n, the stabilizer's action on V_n, the module's
    invariant bilinear forms and the stabilizer's fixed space in the module.
    """

    def __init__(self, cfg: RunConfig, f, n: int, module: str):
        self.cfg, self.field, self.space = cfg, f, QuadraticSpace(n)
        self.rep = _module(self.space, f, module)
        self.stabilizer, self.v = min_trial_stabilizer(self.rep, cfg.trials, cfg.seed)

    def at(self, module: str) -> _Point:
        """The generic point of the same so(n) on another module."""
        return _Point(self.cfg, self.field, self.space.n, module)

    @cached_property
    def structure(self):
        return subalgebra_structure_from_matrices(self.field, self.on_vector)

    @cached_property
    def on_vector(self):
        return kernel_action_matrices(self.stabilizer.kernel, vector_rep(self.space, self.field))

    @cached_property
    def forms(self):
        return invariant_bilinear_space(self.rep)

    @cached_property
    def fixed(self):
        mats = kernel_action_matrices(self.stabilizer.kernel, self.rep)
        return hom_space(self.field, mats, self.field.zeros((len(mats), 1, 1)))


class _Field:
    """One field's shared data for the g2_octonion, coregular_free and branching tables.

    Each is computed on its first read only: g2 on the trace-zero octonions
    (the octonion derivations), g2's generic anisotropic point and spin(5)'s
    invariant forms.
    """

    def __init__(self, cfg: RunConfig, f):
        self.cfg, self.field = cfg, f

    def generic_stabilizer_dim(self, rep):
        """The min-trial stabilizer dimension of ``rep`` at the run's trials and seed."""
        return min_trial_stabilizer(rep, self.cfg.trials, self.cfg.seed)[0].dimension

    @cached_property
    def g2(self):
        return derivation_algebra(self.field)

    @cached_property
    def g2_point(self):
        """g2's stabilizer at a generic anisotropic trace-zero octonion, and the point."""
        f = self.field
        return min_trial_stabilizer(self.g2, self.cfg.trials, self.cfg.seed, witness=lambda x: anisotropic(f, x))

    @cached_property
    def spin5_forms(self):
        return invariant_bilinear_space(spin_rep(QuadraticSpace(5), self.field))


def _form_dims(forms) -> list:
    return [forms.symmetric_dim, forms.antisymmetric_dim, forms.sample_rank]


def _fingerprint(f, mats) -> list:
    return [associative_closure(f, mats), commutant_dimension(f, mats)]


def _cross_spinor(c: _Field) -> list:
    """(dim, Killing rank) of the derivations and of the stabilizer at the spin7 row's point."""
    deriv = subalgebra_structure_from_matrices(c.field, c.g2.tensor)
    spinor = _Point(c.cfg, c.field, 7, "spin")
    return [[deriv.dimension, deriv.killing_rank], [spinor.stabilizer.dimension, spinor.structure.killing_rank]]


# A two-prime table holds checks (id, value, description, expected, provenance,
# anchor), with value a function of the suite's per-field context.
_G2_OCTONION_CHECKS = (
    (
        "derivation-dim",
        lambda c: c.g2.g,
        "octonion derivation algebra dimension",
        14,
        "derived",
        "derivations of split octonions form the 14-dim exceptional algebra g2",
    ),
    (
        "triple-closure",
        lambda c: subalgebra_generated(c.field, split_generating_triple(c.field)),
        "split generating triple closes to the full algebra",
        8,
        "derived",
        "an explicit trace-zero triple generates the octonions",
    ),
    (
        "kernel-triple",
        lambda c: c.generic_stabilizer_dim(direct_sum([c.g2] * 3)),
        "derivation kernel on three trace-zero copies",
        0,
        "derived",
        "g2 acts generically freely on three octonion copies",
    ),
    (
        "kernel-vector",
        lambda c: c.g2_point[0].dimension,
        "derivation kernel at an anisotropic trace-zero octonion",
        8,
        "literature",
        "stabilizer in general position has dimension 8, the sl3 fingerprint",
    ),
    (
        "kernel-scaled",
        lambda c: stabilizer(c.g2.with_scaling(), c.g2_point[1]).dimension,
        "kernel with the scaling generator appended",
        8,
        "literature",
        "the scaled action has an open orbit, radial directions join the image",
    ),
    (
        "cross-spinor",
        _cross_spinor,
        "derivation (dim, killing rank) equals spinor-stabilizer (dim, killing rank)",
        [[14, 14], [14, 14]],
        "derived",
        "both roads must land on the same 14-dim simple algebra",
    ),
)


# The spinor rows' checks read the row's _Point.
_CENTER_NEGATES = (
    "center-negates",
    lambda pt: center_acts_minus_one(pt.rep),
    "h1 = 2 m_{p1 q1} acts on the spin module diagonally with every entry +-1/2",
    True,
    "literature",
    "so exp(2 pi i h1), the kernel of Spin_n -> SO_n, acts as -Id",
)

_SPIN7_CHECKS = (
    (
        "invariant-forms",
        lambda pt: _form_dims(pt.forms),
        "[symmetric dim, antisymmetric dim, sample rank] on the 8-dim spin module",
        [1, 0, 8],
        "literature",
        "an invariant quadratic form whose fibers are exactly the orbits",
    ),
    (
        "stabilizer-dim",
        lambda pt: pt.stabilizer.dimension,
        "generic spinor stabilizer dimension",
        14,
        "literature",
        "the stabilizer of an anisotropic spinor is of type G2",
    ),
    (
        "killing-rank",
        lambda pt: pt.structure.killing_rank,
        "Killing rank of the stabilizer subalgebra",
        14,
        "derived",
        "nondegenerate Killing form certifies a semisimple stabilizer",
    ),
    (
        "fixed-subspace",
        lambda pt: len(pt.fixed),
        "fixed subspace of the studied point's stabilizer inside the spin module",
        1,
        "literature",
        "the spin module splits as trivial line plus 7-dim over the stabilizer",
    ),
    (
        "fixed-contains-point",
        lambda pt: len(pt.fixed) == 1 and rank(pt.field, np.stack([pt.fixed[0], pt.v])[None]) == [1],
        "the fixed line is spanned by the stabilized point",
        True,
        "derived",
        "the point itself is annihilated by its stabilizer",
    ),
    (
        "orbit-dim",
        lambda pt: pt.stabilizer.orbit_dimension,
        "orbit dimension 21 - 14 equals the quadric fiber dimension",
        7,
        "derived",
        "orbits fill the fibers of the invariant quadratic form",
    ),
    _CENTER_NEGATES,
    (
        "scale-invariance",
        # 2 is a unit of every accepted field, p >= 5
        lambda pt: stabilizer(pt.rep, pt.field.reduce(pt.v * 2)).dimension == pt.stabilizer.dimension,
        "rescaling the point leaves the stabilizer kernel unchanged",
        True,
        "plumbing",
        "kernels are invariant under nonzero scaling of the point",
    ),
)

def _certificate(point) -> list:
    return [point.stabilizer.dimension, point.structure.killing_rank, point.structure.killing_nullity]


_SPIN10_CHECKS = (
    (
        "stabilizer-certificate",
        _certificate,
        "[stabilizer dim, Killing rank, Killing nullity] on the 16-dim half-spin module",
        [29, 21, 8],
        "literature",
        "open-orbit stabilizer is an 8-dim vector group extended by the 21-dim spin(7)",
    ),
    (
        "parity-twin",
        lambda pt: _certificate(pt.at("odd")),
        "the other half-spin module yields identical certificates",
        [29, 21, 8],
        "derived",
        "the two half-spin modules are parity twins",
    ),
    (
        "invariant-forms",
        lambda pt: [pt.forms.symmetric_dim, pt.forms.antisymmetric_dim],
        "[symmetric dim, antisymmetric dim] of invariant bilinear forms",
        [0, 0],
        "derived",
        "no invariant quadratic exists; the open-orbit geometry is not a quadric",
    ),
)

_SPIN11_CHECKS = (
    (
        "stabilizer-dim",
        lambda pt: pt.stabilizer.dimension,
        "generic stabilizer dimension on the 32-dim spin module",
        24,
        "literature",
        "stabilizer SL_5: the generic spinor stabilizer is the 24-dim special linear algebra",
    ),
    (
        "killing-rank",
        lambda pt: pt.structure.killing_rank,
        "Killing rank of the stabilizer subalgebra",
        24,
        "derived",
        "nondegenerate Killing form, the sl5 semisimplicity fingerprint",
    ),
    (
        "commutant-on-v11",
        lambda pt: commutant_dimension(pt.field, pt.on_vector),
        "commutant dimension of the stabilizer acting on the natural 11-dim module",
        3,
        "derived",
        "sl5 in so10 in so11 splits the natural module as 5 + dual(5) + 1, three inequivalent simples: three scalars",
    ),
    (
        "orbit-dim",
        lambda pt: pt.stabilizer.orbit_dimension,
        "orbit dimension 55 - 24 matches the invariant-quartic level hypersurfaces",
        31,
        "derived",
        "nonzero level sets of the degree-4 invariant are single orbits",
    ),
    _CENTER_NEGATES,
)

_SPIN11_STRETCH_CHECKS = (
    (
        "quartic-invariants",
        lambda pt: invariant_quartic_dim(pt.rep),
        "dimension of degree-4 invariant polynomials on the spin module",
        1,
        "literature",
        "a single degree-4 invariant cuts out the orbit stratification",
    ),
)

_SPIN14_CHECKS = (
    (
        "stabilizer-dim",
        lambda pt: pt.stabilizer.dimension,
        "generic stabilizer dimension on the 64-dim half-spin module",
        28,
        "literature",
        "stabilizer pinched between g2 x g2 and its normalizer; dimension 91 + 1 - 64",
    ),
    (
        "killing-rank",
        lambda pt: pt.structure.killing_rank,
        "Killing rank of the stabilizer subalgebra",
        28,
        "derived",
        "nondegenerate Killing form matches the g2 + g2 sum",
    ),
    (
        "scaled-stabilizer",
        lambda pt: stabilizer(pt.rep.with_scaling(), pt.v).dimension,
        "appending the scaling generator keeps the stabilizer dimension",
        28,
        "literature",
        "the projective orbit of the point is open, so the cone orbit is dense",
    ),
    (
        "isotypic-fingerprint",
        lambda pt: _fingerprint(pt.field, pt.on_vector),
        "[closure dim, commutant dim] of the stabilizer acting on the natural 14-dim module",
        [98, 2],
        "literature",
        "the natural module splits into two 7-dim octonion halves, one per g2 factor",
    ),
    (
        "invariant-forms",
        lambda pt: [pt.forms.symmetric_dim, pt.forms.antisymmetric_dim],
        "[symmetric dim, antisymmetric dim] of invariant bilinear forms",
        [0, 0],
        "derived",
        "half-spin self-pairings vanish here",
    ),
)


def _free(n: int, copies: int, module=None):
    """Value function: the generic stabilizer dimension of ``copies`` natural
    modules of so(n), plus one copy of the named spinor module when given."""

    def value(c: _Field):
        space = QuadraticSpace(n)
        parts = [vector_rep(space, c.field)] * copies + ([_module(space, c.field, module)] if module else [])
        return c.generic_stabilizer_dim(direct_sum(parts))

    return value


_FREE = "the listed coregular representation is generically free"
_CHAIN = "each generic vector cuts the stabilizer down one orthogonal rank"
_COREGULAR_FREE_CHECKS = (
    ("free-7", _free(7, 3, "spin"), "generic stabilizer of three natural copies plus the spin module",
     0, "literature", _FREE),
    ("free-10", _free(10, 5, "even"), "generic stabilizer of five natural copies plus one half-spin module",
     0, "literature", _FREE),
    ("free-11", _free(11, 4, "spin"), "generic stabilizer of four natural copies plus the spin module",
     0, "literature", _FREE),
    ("free-14", _free(14, 3, "even"), "generic stabilizer of three natural copies plus one half-spin module",
     0, "literature", _FREE),
    ("chain-10", _free(10, 5), "five generic vectors leave the so(5) of the complement", 10, "derived", _CHAIN),
    ("chain-11", _free(11, 4), "four generic vectors leave so(7)", 21, "derived", _CHAIN),
    ("chain-14", _free(14, 3), "three generic vectors leave so(11)", 55, "derived", _CHAIN),
)


def _restriction_blocks(c: _Field) -> list:
    """[even block, odd block, True] when spin(11) restricted to so(10) is block-diagonal by parity."""
    space = QuadraticSpace(11)
    res = restrict(spin_rep(space, c.field), embed_subalgebra(space, 10))
    even, odd = parity_indices(11)
    mixed = res.tensor[:, even][:, :, odd].any() or res.tensor[:, odd][:, :, even].any()
    return [0, 0, False] if mixed else [len(even), len(odd), True]


def _half10_on_so5(c: _Field):
    space = QuadraticSpace(10)
    return restrict(half_spin_reps(space, c.field)[0], embed_subalgebra(space, 5)).tensor


def _sp4_left_multiplication(c: _Field):
    """Generic stabilizer dimension of a 4x4 matrix under left multiplication by sp4 = sp(omega),
    omega the sample invariant form of spin(5)."""
    f, omega = c.field, c.spin5_forms.sample
    # row 4x + y is entry (x, y) of z^T omega + omega z; unknown z[k, c] at column 4k + c
    eye = f.eye(4)
    system = np.einsum("cx,ky->xykc", eye, omega) + np.einsum("cy,xk->xykc", eye, omega)
    (sp4,) = kernel(f, f.reduce(system.reshape(1, 16, 16)))
    if len(sp4) != 10:
        return f"sp4 dimension {len(sp4)}"
    # z x on row-major 4x4 matrices x is kron(z, I4)
    tensor = np.stack([np.kron(z, eye) for z in sp4.reshape(-1, 4, 4)])
    rep = LieRepresentation(4, f, "sp4 on 4x4 matrices", tuple(("sp4", k) for k in range(10)), tensor)
    return c.generic_stabilizer_dim(rep)


_BRANCHING_CHECKS = (
    (
        "restriction-blocks",
        _restriction_blocks,
        "[even block, odd block, all 45 matrices block-diagonal] for spin(11) restricted to so(10)",
        [16, 16, True],
        "literature",
        "a spin module restricts to the sum of the two half-spin modules",
    ),
    (
        "half10-so5-fingerprint",
        lambda c: _fingerprint(c.field, _half10_on_so5(c)),
        "[closure dim, commutant dim] of half-spin(10) restricted to so(5)",
        [16, 16],
        "literature",
        "the restriction is four copies of the 4-dim spin module of so(5)",
    ),
    (
        "spin5-symplectic",
        lambda c: _form_dims(c.spin5_forms),
        "[symmetric dim, antisymmetric dim, rank] of invariant forms on the 4-dim spin module",
        [0, 1, 4],
        "literature",
        "the accidental isomorphism with sp4 equips the spin module with a symplectic form",
    ),
    (
        "sp4-left-multiplication",
        _sp4_left_multiplication,
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

    # a first trial at its bound decides alone: the stabilizer is at least 0
    # and the Jacobian rank at most its (n-1)^2 rows
    pairs = random_pairs(f, n, rng, cfg.trials)
    stabilizer = min(_first_trial_decides(partial(stabilizer_lie_dims, f), lambda d: d == 0, *pairs))
    pairs = random_pairs(f, n, rng, cfg.trials)
    jacobian = max(_first_trial_decides(partial(jacobian_ranks_pi, f), lambda r: r == (n - 1) ** 2, *pairs))
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


def _suite_sln_quotient(cfg: RunConfig, checks: list):
    plans = [("QQ", QQ, range(2, 6))] + [(f"F{p}", GF(p), range(2, 9)) for p in cfg.primes]
    for label, f, ns in plans:
        for n in ns:
            values = _sln_quotient(cfg, f, n)
            for kind, description, expected, provenance, anchor in _SLN_QUOTIENT_CHECKS:
                checks.append(
                    Check(
                        f"{kind}-{label}-n{n}",
                        description.format(n=n, label=label),
                        expected(n) if callable(expected) else expected,
                        values[kind],
                        provenance,
                        anchor,
                    )
                )

    # the worked 2x2 case
    a = fiber_transporter(QQ, QQ.array([[[3, 5]]]), QQ.array([[[3, 7]]]))
    checks.append(
        Check(
            "hand-transporter",
            "the 2x2 worked example solves to t1 = -2/3",
            "-2/3",
            str(a[0, 0, 1]),
            "derived",
            "one-equation fiber system",
        )
    )


# (name, body, anchor) rows; each runner labels its report with its row's name
SUITES = {
    name: (_timed(name, body), anchor)
    for name, body, anchor in (
        ("g2_octonion", _two_prime(_Field, _G2_OCTONION_CHECKS),
         "derivation algebra dim 14; generating triple; kernels (0, 8, 8); stabilizer SL_3 fingerprint"),
        ("spin7", _two_prime(partial(_Point, n=7, module="spin"), _SPIN7_CHECKS),
         "invariant quadratic; stabilizer G_2 (dim 14, Killing 14); fixed line; center -Id"),
        ("spin10", _two_prime(partial(_Point, n=10, module="even"), _SPIN10_CHECKS),
         "half-spin stabilizer dim 29 = 8-dim vector group + spin(7); no invariant forms"),
        ("spin11", _two_prime(partial(_Point, n=11, module="spin"), _SPIN11_CHECKS, _SPIN11_STRETCH_CHECKS),
         "stabilizer SL_5 (dim 24, Killing 24); commutant on the natural module; center -Id"),
        ("spin14", _two_prime(partial(_Point, n=14, module="even"), _SPIN14_CHECKS),
         "half-spin stabilizer dim 28 (g2 x g2); natural module splits 7 + 7; projective open orbit"),
        ("coregular_free", _two_prime(_Field, _COREGULAR_FREE_CHECKS),
         "the four coregular sums are generically free; vector-chain stabilizers 10 / 21 / 55"),
        ("branching", _two_prime(_Field, _BRANCHING_CHECKS),
         "spin(11) to so(10) parity blocks; half-spin(10) to so(5) is four spin(5) copies; sp4 freeness"),
        ("sln_quotient", _suite_sln_quotient,
         "pair action invariants; J normalization; fiber transporter; Jacobian surjectivity"),
    )
}


def run_suite(name: str, cfg: RunConfig) -> SuiteReport:
    runner, _ = SUITES[name]
    return runner(cfg)


def run_selected(cfg: RunConfig) -> list:
    return [run_suite(name, cfg) for name in cfg.suites]
