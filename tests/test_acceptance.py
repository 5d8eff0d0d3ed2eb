"""Acceptance criteria, one test per criterion.

Every criterion runs at seed 0 with 3 trials over the two default primes and
asserts exact equality (the arithmetic is exact, there is no tolerance) plus
its stated runtime budget.  Each test prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.

Criterion 5 pins the commutant of the spin(11) generic stabilizer on the
natural 11-dim module at 3.  The stabilizer is sl(5) inside so(10) inside
so(11) (Igusa 1970), under which the module splits as 5 + dual(5) + 1: three
inequivalent simple summands, so the commutant is three scalars.  Reading
the module as 10 + 1 with an irreducible 10 would give 2; the closure (51,
not 101), the fixed line and the one alternating invariant form rule that
reading out (see ``test_orbits.py``).
"""

import time

from spincert.clifford import QuadraticSpace, so_structure_constants
from spincert.fields import GF, QQ, RandomSource
from spincert.orbits import (
    invariant_bilinear_space,
    min_trial_stabilizer,
    stabilizer,
)
from spincert.spinreps import (
    half_spin_reps,
    spin_rep,
    vector_rep,
    verify_lie_homomorphism,
)
from spincert.suites import RunConfig, report_to_dict, run_suite

PRIMES = (1_000_003, 999_983)
CFG = RunConfig(trials=3, seed=0)
CFG_STRETCH = RunConfig(trials=3, seed=0, stretch=True)


def announce(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {num} ({name}): {status} in {elapsed:.1f}s {detail}")


def checks_by_id(report):
    return {c.id: c for c in report.checks}


def test_criterion_01_lie_homomorphism_all_constructions():
    t0 = time.perf_counter()
    ok = True
    for p in PRIMES:
        field = GF(p)
        for n in (5, 7, 10, 11, 14):
            space = QuadraticSpace(n)
            struct = so_structure_constants(space, field)
            ok &= verify_lie_homomorphism(vector_rep(space, field), struct)
            ok &= verify_lie_homomorphism(spin_rep(space, field), struct)
            if n % 2 == 0:
                even, odd = half_spin_reps(space, field)
                ok &= verify_lie_homomorphism(even, struct)
                ok &= verify_lie_homomorphism(odd, struct)
    elapsed = time.perf_counter() - t0
    announce(1, "Clifford/Lie construction", ok and elapsed < 30, elapsed)
    assert ok
    assert elapsed < 30


def test_criterion_02_pair_quotient_suite():
    t0 = time.perf_counter()
    rep = run_suite("sln_quotient", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(2, "matrix-pair quotient", rep.passed and elapsed < 60, elapsed)
    assert elapsed < 60
    for n in range(2, 6):
        assert by_id[f"pi-invariant-QQ-n{n}"].observed is True
        assert by_id[f"transporter-QQ-n{n}"].observed == 10
        assert by_id[f"stabilizer-QQ-n{n}"].observed == 0
        assert by_id[f"jacobian-QQ-n{n}"].observed == (n - 1) ** 2
        assert by_id[f"tau-quotient-QQ-n{n}"].observed is True
    for p in PRIMES:
        for n in range(2, 9):
            assert by_id[f"pi-invariant-F{p}-n{n}"].observed is True
            assert by_id[f"transporter-F{p}-n{n}"].observed == 10
            assert by_id[f"stabilizer-F{p}-n{n}"].observed == 0
            assert by_id[f"jacobian-F{p}-n{n}"].observed == (n - 1) ** 2
            assert by_id[f"tau-quotient-F{p}-n{n}"].observed is True
    assert by_id["hand-transporter"].observed == "-2/3"
    assert rep.passed


def test_criterion_03_spin7_certificates():
    t0 = time.perf_counter()
    rep = run_suite("spin7", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(3, "spin(7)", rep.passed and elapsed < 10, elapsed)
    assert elapsed < 10
    assert by_id["invariant-forms"].observed == [1, 0, 8]
    assert by_id["stabilizer-dim"].observed == 14
    assert by_id["killing-rank"].observed == 14
    assert by_id["fixed-subspace"].observed == 1
    assert by_id["center-negates"].observed is True
    assert rep.passed


def test_criterion_04_spin10_certificates():
    t0 = time.perf_counter()
    rep = run_suite("spin10", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(4, "spin(10)", rep.passed and elapsed < 20, elapsed)
    assert elapsed < 20
    assert by_id["stabilizer-certificate"].observed == [29, 21, 8]
    assert by_id["invariant-forms"].observed == [0, 0]
    assert rep.passed


def test_criterion_05_spin11_certificates():
    t0 = time.perf_counter()
    rep = run_suite("spin11", CFG_STRETCH)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    commutant = by_id["commutant-on-v11"].observed
    core_ok = (
        by_id["stabilizer-dim"].observed == 24
        and by_id["killing-rank"].observed == 24
        and by_id["center-negates"].observed is True
    )
    announce(
        5,
        "spin(11)",
        core_ok and commutant == 3 and elapsed < 30,
        elapsed,
        detail=f"(commutant pinned 3, computed {commutant}; quartic dim "
        f"{by_id['quartic-invariants'].observed}, non-gating)",
    )
    assert elapsed < 30
    assert by_id["stabilizer-dim"].observed == 24
    assert by_id["killing-rank"].observed == 24
    assert by_id["center-negates"].observed is True
    # V11 = 5 + dual(5) + 1 under the sl(5) stabilizer: three inequivalent
    # simple summands, hence three scalars
    assert commutant == 3


def test_criterion_06_spin14_certificates():
    t0 = time.perf_counter()
    rep = run_suite("spin14", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(6, "spin(14)", rep.passed and elapsed < 180, elapsed)
    assert elapsed < 180
    assert by_id["stabilizer-dim"].observed == 28
    assert by_id["killing-rank"].observed == 28
    assert by_id["isotypic-fingerprint"].observed == [98, 2]
    assert by_id["invariant-forms"].observed == [0, 0]
    assert by_id["scaled-stabilizer"].observed == 28
    assert rep.passed


def test_criterion_07_octonion_g2():
    t0 = time.perf_counter()
    rep = run_suite("g2_octonion", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(7, "octonions/G2", rep.passed and elapsed < 20, elapsed)
    assert elapsed < 20
    assert by_id["derivation-dim"].observed == 14
    assert by_id["triple-closure"].observed == 8
    assert by_id["kernel-triple"].observed == 0
    assert by_id["kernel-vector"].observed == 8
    assert by_id["kernel-scaled"].observed == 8
    assert by_id["cross-spinor"].observed == [[14, 14], [14, 14]]
    assert rep.passed


def test_criterion_08_coregular_freeness():
    t0 = time.perf_counter()
    rep = run_suite("coregular_free", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(8, "coregular freeness", rep.passed and elapsed < 120, elapsed)
    assert elapsed < 120
    for cid in ("free-7", "free-10", "free-11", "free-14"):
        assert by_id[cid].observed == 0
    assert by_id["chain-10"].observed == 10
    assert by_id["chain-11"].observed == 21
    assert by_id["chain-14"].observed == 55
    assert rep.passed


def test_criterion_09_branching():
    t0 = time.perf_counter()
    rep = run_suite("branching", CFG)
    elapsed = time.perf_counter() - t0
    by_id = checks_by_id(rep)
    announce(9, "branching", rep.passed and elapsed < 30, elapsed)
    assert elapsed < 30
    assert by_id["restriction-blocks"].observed == [16, 16, True]
    assert by_id["half10-so5-fingerprint"].observed == [16, 16]
    assert by_id["spin5-symplectic"].observed == [0, 1, 4]
    assert by_id["sp4-left-multiplication"].observed == 0
    assert rep.passed


def test_criterion_10_determinism_and_field_independence():
    t0 = time.perf_counter()

    def strip(r):
        doc = report_to_dict(r)
        doc.pop("elapsed_ms")
        return doc

    ok = True
    # report-identical re-runs
    for name in ("g2_octonion", "spin7", "spin10"):
        ok &= strip(run_suite(name, CFG)) == strip(run_suite(name, CFG))

    # explicit two-prime agreement of headline certificates
    for build, expected in (
        (lambda f: spin_rep(QuadraticSpace(7), f), 14),
        (lambda f: half_spin_reps(QuadraticSpace(10), f)[0], 29),
    ):
        dims = [min_trial_stabilizer(build(GF(p)), 3, 0)[0].dimension for p in PRIMES]
        ok &= dims == [expected, expected]

    # F_p versus Q replay on small instances
    inv_q = invariant_bilinear_space(spin_rep(QuadraticSpace(5), QQ))
    inv_p = invariant_bilinear_space(spin_rep(QuadraticSpace(5), GF(PRIMES[0])))
    ok &= (inv_q.symmetric_dim, inv_q.antisymmetric_dim, inv_q.sample_rank) == (
        inv_p.symmetric_dim,
        inv_p.antisymmetric_dim,
        inv_p.sample_rank,
    ) == (0, 1, 4)

    v_q = RandomSource(0).child(0).scalars(QQ, 8)
    dim_q = stabilizer(spin_rep(QuadraticSpace(7), QQ), v_q).dimension
    ok &= dim_q == 14

    elapsed = time.perf_counter() - t0
    announce(10, "determinism / field independence", ok, elapsed)
    assert ok
