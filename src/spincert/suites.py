"""Verification suites: constructions bound to expected certificates.

Each suite runs one closed circle of computations over both configured
primes, records expected versus observed values per check, and never hides
how an expectation was obtained: provenance is "literature" for values
anchored in published stabilizer classifications, "derived" for values the
package computes independently, and "plumbing" for pure bookkeeping.

A suite failure never aborts a run; the CLI aggregates pass flags into its
exit code.  Reports are deterministic for a fixed (seed, primes, trials):
re-running produces identical JSON apart from the elapsed time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import GF, QQ, PrimeField, RandomSource
from .linalg import Matrix, random_vector
from .clifford import QuadraticSpace
from .octonion import (
    derivation_algebra,
    g2_stabilizer_checks,
    split_generating_triple,
    subalgebra_generated,
)
from .orbits import (
    invariant_bilinear_space,
    invariant_quartic_dim,
    isotypic_fingerprint,
    kernel_action_matrices,
    stabilizer,
    subalgebra_structure,
    subalgebra_structure_from_matrices,
)
from .slnpair import (
    MatrixPair,
    act,
    canonical_j,
    fiber_transporter,
    jacobian_rank_pi,
    normalize_to_j,
    pi,
    random_fiber_partner,
    random_pair,
    random_sl,
    stabilizer_lie_dim,
    tau,
)
from .spinreps import (
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
        if self.suites == ["all"] or self.suites == "all":
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

    def both(self, cfg, id, description, expected, fn, provenance, anchor):
        """Evaluate fn over both primes; record the agreed value or the split."""
        vals = [fn(GF(p)) for p in cfg.primes]
        observed = vals[0] if vals[0] == vals[1] else f"{vals[0]} / {vals[1]} (primes disagree)"
        self.add(id, description, expected, observed, provenance, anchor)


def _timed(fn):
    def wrapper(cfg: RunConfig) -> SuiteReport:
        start = time.perf_counter()
        rec = _Recorder()
        try:
            fn(cfg, rec)
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
        return SuiteReport(fn.__name__.removeprefix("_suite_"), rec.checks, cfg.seed, cfg.primes, elapsed)

    return wrapper


def _min_trial_stabilizer(rep, trials, seed):
    """Stabilizer report and point of the best (minimum-dimension) trial."""
    best = None
    for t in range(trials):
        v = random_vector(rep.field, rep.dim, RandomSource(seed).child(t))
        r = stabilizer(rep, v)
        if best is None or r.dimension < best[0].dimension:
            best = (r, v)
    return best


# -- suites ---------------------------------------------------------------


def _suite_g2_octonion(cfg: RunConfig, rec: _Recorder):
    rec.both(
        cfg,
        "derivation-dim",
        "octonion derivation algebra dimension",
        14,
        lambda f: derivation_algebra(f).dimension,
        "derived",
        "derivations of split octonions form the 14-dim exceptional algebra g2",
    )
    rec.both(
        cfg,
        "triple-closure",
        "split generating triple closes to the full algebra",
        8,
        lambda f: subalgebra_generated(*split_generating_triple(f)),
        "derived",
        "an explicit trace-zero triple generates the octonions",
    )
    checks = g2_stabilizer_checks(cfg.primes, cfg.trials, cfg.seed)
    rec.add(
        "kernel-triple",
        "derivation kernel on three trace-zero copies",
        0,
        checks.triple_kernel,
        "derived",
        "g2 acts generically freely on three octonion copies",
    )
    rec.add(
        "kernel-vector",
        "derivation kernel at an anisotropic trace-zero octonion",
        8,
        checks.vector_kernel,
        "literature",
        "stabilizer in general position has dimension 8, the sl3 fingerprint",
    )
    rec.add(
        "kernel-scaled",
        "kernel with the scaling generator appended",
        8,
        checks.scaled_kernel,
        "literature",
        "the scaled action has an open orbit, radial directions join the image",
    )
    # cross-module consistency against the spinor route
    def spin7_side(f):
        rep = spin_rep(QuadraticSpace(7), f)
        rpt, _ = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        struct = subalgebra_structure(rpt.kernel, vector_rep(QuadraticSpace(7), f))
        return (rpt.dimension, struct.killing_rank)

    def deriv_side(f):
        struct = subalgebra_structure_from_matrices(derivation_algebra(f).matrices)
        return (struct.dimension, struct.killing_rank)

    rec.both(
        cfg,
        "cross-spinor",
        "derivation (dim, killing rank) equals spinor-stabilizer (dim, killing rank)",
        [[14, 14], [14, 14]],
        lambda f: [list(deriv_side(f)), list(spin7_side(f))],
        "derived",
        "both roads must land on the same 14-dim simple algebra",
    )


def _suite_spin7(cfg: RunConfig, rec: _Recorder):
    space = QuadraticSpace(7)

    def forms(f):
        inv = invariant_bilinear_space(spin_rep(space, f))
        return [inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank]

    rec.both(
        cfg,
        "invariant-forms",
        "[symmetric dim, antisymmetric dim, sample rank] on the 8-dim spin module",
        [1, 0, 8],
        forms,
        "literature",
        "an invariant quadratic form whose fibers are exactly the orbits",
    )

    def stab_pack(f):
        rep = spin_rep(space, f)
        rpt, v = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
        mats = kernel_action_matrices(rpt.kernel, rep)
        fixed = Matrix.vstack(mats).kernel_basis()
        fixed_dim = len(fixed)
        contains_point = False
        if len(fixed) == 1:
            two = np.stack([fixed[0], np.asarray(v)])
            contains_point = Matrix(f, two).rank() == 1
        return {
            "stab": rpt.dimension,
            "orbit": rpt.orbit_dimension,
            "killing": struct.killing_rank,
            "fixed": fixed_dim,
            "fixed_contains_point": contains_point,
        }

    packs = [stab_pack(GF(p)) for p in cfg.primes]
    agreed = packs[0] if packs[0] == packs[1] else None
    rec.add(
        "stabilizer-dim",
        "generic spinor stabilizer dimension",
        14,
        agreed["stab"] if agreed else f"{packs[0]['stab']} / {packs[1]['stab']}",
        "literature",
        "the stabilizer of an anisotropic spinor is of type G2",
    )
    rec.add(
        "killing-rank",
        "Killing rank of the stabilizer subalgebra",
        14,
        agreed["killing"] if agreed else f"{packs[0]['killing']} / {packs[1]['killing']}",
        "derived",
        "nondegenerate Killing form certifies a semisimple stabilizer",
    )
    rec.add(
        "fixed-subspace",
        "fixed subspace of the studied point's stabilizer inside the spin module",
        1,
        agreed["fixed"] if agreed else f"{packs[0]['fixed']} / {packs[1]['fixed']}",
        "literature",
        "the spin module splits as trivial line plus 7-dim over the stabilizer",
    )
    rec.add(
        "fixed-contains-point",
        "the fixed line is spanned by the stabilized point",
        True,
        agreed["fixed_contains_point"] if agreed else False,
        "derived",
        "the point itself is annihilated by its stabilizer",
    )
    rec.add(
        "orbit-dim",
        "orbit dimension 21 - 14 equals the quadric fiber dimension",
        7,
        agreed["orbit"] if agreed else f"{packs[0]['orbit']} / {packs[1]['orbit']}",
        "derived",
        "orbits fill the fibers of the invariant quadratic form",
    )
    rec.both(
        cfg,
        "center-negates",
        "the central Clifford scalar -1 acts as -Id on the spin module",
        True,
        lambda f: center_acts_minus_one(space, spin_rep(space, f)),
        "literature",
        "the spin center acts by the parity character",
    )
    # kernel is scale invariant
    def rescale_stable(f):
        rep = spin_rep(space, f)
        rpt, v = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        scaled = (np.asarray(v) * 7) % f.p
        return stabilizer(rep, scaled).dimension == rpt.dimension

    rec.both(
        cfg,
        "scale-invariance",
        "rescaling the point leaves the stabilizer kernel unchanged",
        True,
        rescale_stable,
        "plumbing",
        "kernels are invariant under nonzero scaling of the point",
    )


def _suite_spin10(cfg: RunConfig, rec: _Recorder):
    space = QuadraticSpace(10)

    def pack(f, parity):
        rep = half_spin_reps(space, f)[parity]
        rpt, _ = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
        return [rpt.dimension, struct.killing_rank, struct.killing_nullity]

    def forms(f):
        inv = invariant_bilinear_space(half_spin_reps(space, f)[0])
        return [inv.symmetric_dim, inv.antisymmetric_dim]

    rec.both(
        cfg,
        "stabilizer-certificate",
        "[stabilizer dim, Killing rank, Killing nullity] on the 16-dim half-spin module",
        [29, 21, 8],
        lambda f: pack(f, 0),
        "literature",
        "open-orbit stabilizer is an 8-dim vector group extended by the 21-dim spin(7)",
    )
    rec.both(
        cfg,
        "parity-twin",
        "the other half-spin module yields identical certificates",
        [29, 21, 8],
        lambda f: pack(f, 1),
        "derived",
        "the two half-spin modules are parity twins",
    )
    rec.both(
        cfg,
        "invariant-forms",
        "[symmetric dim, antisymmetric dim] of invariant bilinear forms",
        [0, 0],
        forms,
        "derived",
        "no invariant quadratic exists; the open-orbit geometry is not a quadric",
    )


def _suite_spin11(cfg: RunConfig, rec: _Recorder):
    space = QuadraticSpace(11)

    def pack(f):
        rep = spin_rep(space, f)
        rpt, _ = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
        mats = kernel_action_matrices(rpt.kernel, vector_rep(space, f))
        closure, commutant = isotypic_fingerprint(mats)
        return {
            "stab": rpt.dimension,
            "orbit": rpt.orbit_dimension,
            "killing": struct.killing_rank,
            "commutant": commutant,
        }

    packs = [pack(GF(p)) for p in cfg.primes]
    agreed = packs[0] if packs[0] == packs[1] else None

    def val(key):
        return agreed[key] if agreed else f"{packs[0][key]} / {packs[1][key]}"

    rec.add(
        "stabilizer-dim",
        "generic stabilizer dimension on the 32-dim spin module",
        24,
        val("stab"),
        "literature",
        "stabilizer SL_5: the generic spinor stabilizer is the 24-dim special linear algebra",
    )
    rec.add(
        "killing-rank",
        "Killing rank of the stabilizer subalgebra",
        24,
        val("killing"),
        "derived",
        "nondegenerate Killing form, the sl5 semisimplicity fingerprint",
    )
    rec.add(
        "commutant-on-v11",
        "commutant dimension of the stabilizer acting on the natural 11-dim module",
        3,
        val("commutant"),
        "derived",
        "sl5 in so10 in so11 splits the natural module as 5 + dual(5) + 1, three inequivalent simples: three scalars",
    )
    rec.add(
        "orbit-dim",
        "orbit dimension 55 - 24 matches the invariant-quartic level hypersurfaces",
        31,
        val("orbit"),
        "derived",
        "nonzero level sets of the degree-4 invariant are single orbits",
    )
    rec.both(
        cfg,
        "center-negates",
        "the central Clifford scalar -1 acts as -Id on the spin module",
        True,
        lambda f: center_acts_minus_one(space, spin_rep(space, f)),
        "literature",
        "the spin center acts by the parity character",
    )
    if cfg.stretch:
        rec.both(
            cfg,
            "quartic-invariants",
            "dimension of degree-4 invariant polynomials on the spin module",
            1,
            lambda f: invariant_quartic_dim(spin_rep(space, f)),
            "literature",
            "a single degree-4 invariant cuts out the orbit stratification",
        )


def _suite_spin14(cfg: RunConfig, rec: _Recorder):
    space = QuadraticSpace(14)

    def pack(f):
        rep = half_spin_reps(space, f)[0]
        rpt, v = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        struct = subalgebra_structure(rpt.kernel, vector_rep(space, f))
        scaled = stabilizer(rep.with_scaling(), v)
        mats = kernel_action_matrices(rpt.kernel, vector_rep(space, f))
        closure, commutant = isotypic_fingerprint(mats)
        inv = invariant_bilinear_space(rep)
        return {
            "stab": rpt.dimension,
            "killing": struct.killing_rank,
            "scaled": scaled.dimension,
            "fingerprint": [closure, commutant],
            "forms": [inv.symmetric_dim, inv.antisymmetric_dim],
        }

    packs = [pack(GF(p)) for p in cfg.primes]
    agreed = packs[0] if packs[0] == packs[1] else None

    def val(key):
        return agreed[key] if agreed else f"{packs[0][key]} / {packs[1][key]}"

    rec.add(
        "stabilizer-dim",
        "generic stabilizer dimension on the 64-dim half-spin module",
        28,
        val("stab"),
        "literature",
        "stabilizer pinched between g2 x g2 and its normalizer; dimension 91 + 1 - 64",
    )
    rec.add(
        "killing-rank",
        "Killing rank of the stabilizer subalgebra",
        28,
        val("killing"),
        "derived",
        "nondegenerate Killing form matches the g2 + g2 sum",
    )
    rec.add(
        "scaled-stabilizer",
        "appending the scaling generator keeps the stabilizer dimension",
        28,
        val("scaled"),
        "literature",
        "the projective orbit of the point is open, so the cone orbit is dense",
    )
    rec.add(
        "isotypic-fingerprint",
        "[closure dim, commutant dim] of the stabilizer acting on the natural 14-dim module",
        [98, 2],
        val("fingerprint"),
        "literature",
        "the natural module splits into two 7-dim octonion halves, one per g2 factor",
    )
    rec.add(
        "invariant-forms",
        "[symmetric dim, antisymmetric dim] of invariant bilinear forms",
        [0, 0],
        val("forms"),
        "derived",
        "half-spin self-pairings vanish here",
    )


def _suite_coregular_free(cfg: RunConfig, rec: _Recorder):
    def sum_rep(f, n, copies_v, spin_kind, copies_w):
        sp = QuadraticSpace(n)
        parts = [vector_rep(sp, f)] * copies_v
        if spin_kind == "spin":
            parts += [spin_rep(sp, f)] * copies_w
        elif spin_kind == "half":
            parts += [half_spin_reps(sp, f)[0]] * copies_w
        return direct_sum(parts)

    def gen_dim(f, *args):
        rep = sum_rep(f, *args)
        rpt, _ = _min_trial_stabilizer(rep, cfg.trials, cfg.seed)
        return rpt.dimension

    freeness = [
        ("free-7", (7, 3, "spin", 1), "three natural copies plus the spin module"),
        ("free-10", (10, 5, "half", 1), "five natural copies plus one half-spin module"),
        ("free-11", (11, 4, "spin", 1), "four natural copies plus the spin module"),
        ("free-14", (14, 3, "half", 1), "three natural copies plus one half-spin module"),
    ]
    for check_id, args, what in freeness:
        rec.both(
            cfg,
            check_id,
            f"generic stabilizer of {what}",
            0,
            lambda f, a=args: gen_dim(f, *a),
            "literature",
            "the listed coregular representation is generically free",
        )
    chains = [
        ("chain-10", (10, 5, None, 0), 10, "five generic vectors leave the so(5) of the complement"),
        ("chain-11", (11, 4, None, 0), 21, "four generic vectors leave so(7)"),
        ("chain-14", (14, 3, None, 0), 55, "three generic vectors leave so(11)"),
    ]
    for check_id, args, expected, what in chains:
        rec.both(
            cfg,
            check_id,
            what,
            expected,
            lambda f, a=args: gen_dim(f, *a),
            "derived",
            "each generic vector cuts the stabilizer down one orthogonal rank",
        )


def _suite_branching(cfg: RunConfig, rec: _Recorder):
    def blocks(f):
        space = QuadraticSpace(11)
        emb = embed_subalgebra(space, 10)
        res = restrict(spin_rep(space, f), emb)
        even, odd = parity_indices(11)
        for k in range(res.g):
            if res.tensor[k][np.ix_(even, odd)].any() or res.tensor[k][np.ix_(odd, even)].any():
                return [0, 0, False]
        return [len(even), len(odd), True]

    rec.both(
        cfg,
        "restriction-blocks",
        "[even block, odd block, all 45 matrices block-diagonal] for spin(11) restricted to so(10)",
        [16, 16, True],
        blocks,
        "literature",
        "a spin module restricts to the sum of the two half-spin modules",
    )

    def fingerprint(f):
        space = QuadraticSpace(10)
        emb = embed_subalgebra(space, 5)
        res = restrict(half_spin_reps(space, f)[0], emb)
        return list(isotypic_fingerprint(res.matrices))

    rec.both(
        cfg,
        "half10-so5-fingerprint",
        "[closure dim, commutant dim] of half-spin(10) restricted to so(5)",
        [16, 16],
        fingerprint,
        "literature",
        "the restriction is four copies of the 4-dim spin module of so(5)",
    )

    def sp4_forms(f):
        inv = invariant_bilinear_space(spin_rep(QuadraticSpace(5), f))
        return [inv.symmetric_dim, inv.antisymmetric_dim, inv.sample_rank]

    rec.both(
        cfg,
        "spin5-symplectic",
        "[symmetric dim, antisymmetric dim, rank] of invariant forms on the 4-dim spin module",
        [0, 1, 4],
        sp4_forms,
        "literature",
        "the accidental isomorphism with sp4 equips the spin module with a symplectic form",
    )

    def sp4_free(f):
        inv = invariant_bilinear_space(spin_rep(QuadraticSpace(5), f))
        omega = inv.sample
        rows = []
        for x in range(4):
            for y in range(4):
                row = np.zeros(16, dtype=np.int64)
                for k in range(4):
                    row[k * 4 + x] = (row[k * 4 + x] + omega.data[k, y]) % f.p
                    row[k * 4 + y] = (row[k * 4 + y] + omega.data[x, k]) % f.p
                rows.append(row)
        sp4 = Matrix(f, np.stack(rows)).kernel_basis()
        if len(sp4) != 10:
            return f"sp4 dimension {len(sp4)}"
        rng = RandomSource(cfg.seed)
        from .kernels import matmul_mod

        best = None
        for _ in range(cfg.trials):
            x = np.array([[rng.randrange(f.p) for _ in range(4)] for _ in range(4)], dtype=np.int64)
            if Matrix(f, x).rank() != 4:
                continue
            cols = [matmul_mod(z.reshape(4, 4), x, f.p).reshape(-1) for z in sp4]
            dim = len(Matrix(f, np.stack(cols, axis=1)).kernel_basis())
            best = dim if best is None else min(best, dim)
        return best

    rec.both(
        cfg,
        "sp4-left-multiplication",
        "stabilizer of a generic invertible 4x4 matrix under sp4 left multiplication",
        0,
        sp4_free,
        "derived",
        "left multiplication on full matrices is generically free",
    )


def _suite_sln_quotient(cfg: RunConfig, rec: _Recorder):
    plans = [("QQ", QQ, range(2, 6))]
    for p in cfg.primes:
        plans.append((f"F{p}", GF(p), range(2, 9)))

    for label, f, ns in plans:
        for n in ns:
            rng = RandomSource(cfg.seed)
            inv_ok = True
            for _ in range(50):
                pr = random_pair(f, n, rng)
                a = random_sl(f, n, rng)
                if not pi(act(a, pr)) == pi(pr):
                    inv_ok = False
            rec.add(
                f"pi-invariant-{label}-n{n}",
                f"pi(A.(X,Y)) = pi(X,Y) over 50 samples, n={n}, {label}",
                True,
                inv_ok,
                "derived",
                "the product YX is constant on orbits",
            )

            tau_ok = True
            norm_ok = True
            for _ in range(5):
                pr = random_pair(f, n, rng)
                if not pi(tau(pr)) == pi(pr).T:
                    tau_ok = False
                if pr.X.rank() == n - 1:
                    a, y2 = normalize_to_j(pr)
                    moved = act(a, pr)
                    if not (moved.X == canonical_j(f, n) and moved.Y == y2):
                        norm_ok = False
            rec.add(
                f"tau-quotient-{label}-n{n}",
                f"pi(tau(p)) = pi(p)^T over samples, n={n}, {label}",
                True,
                tau_ok,
                "derived",
                "the involution descends to transposition on the quotient",
            )
            rec.add(
                f"normalize-{label}-n{n}",
                f"normalization to the J block replays exactly, n={n}, {label}",
                True,
                norm_ok,
                "derived",
                "the group moves any full-rank X to the canonical block",
            )

            trans_ok = 0
            attempts = 0
            while trans_ok < 10 and attempts < 40:
                attempts += 1
                pr = random_pair(f, n, rng)
                if pi(pr).rank() != n - 1:
                    continue
                aj, y2 = normalize_to_j(pr)
                jy = MatrixPair(canonical_j(f, n), y2)
                jz = random_fiber_partner(jy, rng)
                a = fiber_transporter(jy, jz)
                if a.det() == f.one:
                    trans_ok += 1
            rec.add(
                f"transporter-{label}-n{n}",
                f"unique fiber transporter found and replayed on 10 sampled fibers, n={n}, {label}",
                10,
                trans_ok,
                "derived",
                "the fiber through a nonsingular-product pair is one orbit with trivial stabilizer",
            )

            stab = min(stabilizer_lie_dim(random_pair(f, n, rng)) for _ in range(cfg.trials))
            rec.add(
                f"stabilizer-{label}-n{n}",
                f"tangent stabilizer dimension at a generic pair, n={n}, {label}",
                0,
                stab,
                "derived",
                "the tangent-level stabilizer vanishes where YX is nonsingular",
            )

            jac = max(jacobian_rank_pi(random_pair(f, n, rng)) for _ in range(cfg.trials))
            rec.add(
                f"jacobian-{label}-n{n}",
                f"rank of the differential of pi at a generic pair, n={n}, {label}",
                (n - 1) ** 2,
                jac,
                "derived",
                "the differential is onto, so the quotient map is generically smooth",
            )

    # the worked 2x2 case
    x = Matrix(QQ, [[1], [0]])
    jy = MatrixPair(x, Matrix(QQ, [[3, 5]]))
    jz = MatrixPair(x, Matrix(QQ, [[3, 7]]))
    a = fiber_transporter(jy, jz)
    from fractions import Fraction

    rec.add(
        "hand-transporter",
        "the 2x2 worked example solves to t1 = -2/3",
        str(Fraction(-2, 3)),
        str(a.data[0, 1]),
        "derived",
        "one-equation fiber system",
    )


SUITES = {
    "g2_octonion": (
        _timed(_suite_g2_octonion),
        "derivation algebra dim 14; generating triple; kernels (0, 8, 8); stabilizer SL_3 fingerprint",
    ),
    "spin7": (
        _timed(_suite_spin7),
        "invariant quadratic; stabilizer G_2 (dim 14, Killing 14); fixed line; center -Id",
    ),
    "spin10": (
        _timed(_suite_spin10),
        "half-spin stabilizer dim 29 = 8-dim vector group + spin(7); no invariant forms",
    ),
    "spin11": (
        _timed(_suite_spin11),
        "stabilizer SL_5 (dim 24, Killing 24); commutant on the natural module; center -Id",
    ),
    "spin14": (
        _timed(_suite_spin14),
        "half-spin stabilizer dim 28 (g2 x g2); natural module splits 7 + 7; projective open orbit",
    ),
    "coregular_free": (
        _timed(_suite_coregular_free),
        "the four coregular sums are generically free; vector-chain stabilizers 10 / 21 / 55",
    ),
    "branching": (
        _timed(_suite_branching),
        "spin(11) to so(10) parity blocks; half-spin(10) to so(5) is four spin(5) copies; sp4 freeness",
    ),
    "sln_quotient": (
        _timed(_suite_sln_quotient),
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
