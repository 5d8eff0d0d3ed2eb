import dataclasses
import json

import numpy as np
import pytest

from spincert.fields import GF, QQ, RandomSource
from spincert.suites import (
    Check,
    RunConfig,
    report_to_dict,
    SuiteReport,
    SUITES,
    run_suite,
)


def quick_cfg(**kw):
    defaults = dict(trials=2)
    defaults.update(kw)
    return RunConfig(**defaults)


G2_IDS = ["derivation-dim", "triple-closure", "kernel-triple", "kernel-vector", "kernel-scaled", "cross-spinor"]
SPIN7_IDS = [
    "invariant-forms",
    "stabilizer-dim",
    "killing-rank",
    "fixed-subspace",
    "fixed-contains-point",
    "orbit-dim",
    "center-negates",
    "scale-invariance",
]
SPIN11_IDS = ["stabilizer-dim", "killing-rank", "commutant-on-v11", "orbit-dim", "center-negates"]


def strip_elapsed(doc):
    doc = dict(doc)
    doc.pop("elapsed_ms", None)
    return doc


def test_suite_registry():
    names = list(SUITES)
    assert len(names) == 8
    assert names == [
        "g2_octonion",
        "spin7",
        "spin10",
        "spin11",
        "spin14",
        "coregular_free",
        "branching",
        "sln_quotient",
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(prime=4).validate()
    with pytest.raises(ValueError):
        RunConfig(prime=7, confirm_prime=7).validate()
    with pytest.raises(ValueError):
        RunConfig(suites=["nope"]).validate()
    with pytest.raises(ValueError, match="more than once"):
        RunConfig(suites=["spin7", "g2_octonion", "spin7"]).validate()
    with pytest.raises(ValueError):
        RunConfig(trials=0).validate()
    with pytest.raises(ValueError):
        RunConfig(seed=-1).validate()  # random.Random(-1) is random.Random(1)
    with pytest.raises(ValueError):
        RunConfig(confirm_prime=4294967311).validate()  # beyond exact int64 elimination
    with pytest.raises(ValueError, match="unknown suite 'all'"):
        RunConfig(suites=["all"]).validate()  # 'all' is CLI input only
    assert RunConfig().suites == list(SUITES)
    RunConfig().validate()
    RunConfig(prime=2147483647).validate()


def test_check_passes_when_observed_equals_expected():
    agreed = Check("x", "d", [1, 2], [1, 2], "derived", "a")
    split = Check("x", "d", 8, "8 / 9 (primes disagree)", "derived", "a")
    assert agreed.passed and not split.passed
    doc = report_to_dict(SuiteReport("s", [agreed, split], 0, (5, 7), 0))
    assert [c["pass"] for c in doc["checks"]] == [True, False]


def test_g2_suite_passes_and_is_deterministic():
    cfg = quick_cfg(suites=["g2_octonion"])
    rep1 = run_suite("g2_octonion", cfg)
    rep2 = run_suite("g2_octonion", cfg)
    assert rep1.passed
    assert [c.id for c in rep1.checks] == G2_IDS
    assert strip_elapsed(report_to_dict(rep1)) == strip_elapsed(report_to_dict(rep2))
    by_id = {c.id: c for c in rep1.checks}
    assert by_id["derivation-dim"].observed == 14
    assert by_id["kernel-triple"].observed == 0
    assert by_id["kernel-vector"].observed == 8
    assert by_id["kernel-scaled"].observed == 8


def test_g2_suite_seed_change_same_certificates():
    a = run_suite("g2_octonion", quick_cfg(suites=["g2_octonion"], seed=0))
    b = run_suite("g2_octonion", quick_cfg(suites=["g2_octonion"], seed=999))
    assert [c.observed for c in a.checks] == [c.observed for c in b.checks]


def test_spin7_suite_certificate_vector():
    rep = run_suite("spin7", quick_cfg(suites=["spin7"]))
    assert rep.passed
    assert [c.id for c in rep.checks] == SPIN7_IDS
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["invariant-forms"] == [1, 0, 8]
    assert by_id["stabilizer-dim"] == 14
    assert by_id["killing-rank"] == 14
    assert by_id["fixed-subspace"] == 1
    assert by_id["center-negates"] is True
    assert by_id["orbit-dim"] == 7


def test_spin10_suite():
    rep = run_suite("spin10", quick_cfg(suites=["spin10"]))
    assert rep.passed
    assert [c.id for c in rep.checks] == ["stabilizer-certificate", "parity-twin", "invariant-forms"]
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["stabilizer-certificate"] == [29, 21, 8]
    assert by_id["parity-twin"] == [29, 21, 8]
    assert by_id["invariant-forms"] == [0, 0]


def test_spin11_suite_flags_contract_discrepancy():
    # under the sl(5) stabilizer V11 = 5 + dual(5) + 1, so the derived
    # commutant is 3 and the whole suite passes
    rep = run_suite("spin11", quick_cfg(suites=["spin11"]))
    assert rep.passed
    assert [c.id for c in rep.checks] == SPIN11_IDS
    commutant = next(c for c in rep.checks if c.id == "commutant-on-v11")
    assert commutant.expected == 3 and commutant.observed == 3
    assert commutant.provenance == "derived"
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["stabilizer-dim"] == 24 and by_id["killing-rank"] == 24


def test_spin11_stretch_quartic():
    rep = run_suite("spin11", quick_cfg(suites=["spin11"], stretch=True))
    assert [c.id for c in rep.checks] == SPIN11_IDS + ["quartic-invariants"]
    by_id = {c.id: c for c in rep.checks}
    assert by_id["quartic-invariants"].observed == 1 and by_id["quartic-invariants"].passed
    # without the flag the check is absent
    rep2 = run_suite("spin11", quick_cfg(suites=["spin11"]))
    assert "quartic-invariants" not in {c.id for c in rep2.checks}


def test_spin14_suite():
    rep = run_suite("spin14", quick_cfg(suites=["spin14"]))
    assert rep.passed
    assert [c.id for c in rep.checks] == [
        "stabilizer-dim",
        "killing-rank",
        "scaled-stabilizer",
        "isotypic-fingerprint",
        "invariant-forms",
    ]
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["stabilizer-dim"] == 28
    assert by_id["killing-rank"] == 28
    assert by_id["scaled-stabilizer"] == 28
    assert by_id["isotypic-fingerprint"] == [98, 2]
    assert by_id["invariant-forms"] == [0, 0]


def test_coregular_suite():
    rep = run_suite("coregular_free", quick_cfg(suites=["coregular_free"]))
    assert rep.passed
    assert [c.id for c in rep.checks] == [
        "free-7",
        "free-10",
        "free-11",
        "free-14",
        "chain-10",
        "chain-11",
        "chain-14",
    ]
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["free-7"] == by_id["free-10"] == by_id["free-11"] == by_id["free-14"] == 0
    assert by_id["chain-10"] == 10
    assert by_id["chain-11"] == 21
    assert by_id["chain-14"] == 55


def test_spin7_scale_invariance_at_p7():
    # the point is rescaled by a unit of every accepted field, F_7 included
    rep = run_suite("spin7", RunConfig(prime=7, confirm_prime=11))
    assert {c.id: c.observed for c in rep.checks}["scale-invariance"] is True


def test_branching_suite():
    rep = run_suite("branching", quick_cfg(suites=["branching"]))
    assert rep.passed
    assert [c.id for c in rep.checks] == [
        "restriction-blocks",
        "half10-so5-fingerprint",
        "spin5-symplectic",
        "sp4-left-multiplication",
    ]
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["restriction-blocks"] == [16, 16, True]
    assert by_id["half10-so5-fingerprint"] == [16, 16]
    assert by_id["spin5-symplectic"] == [0, 1, 4]
    assert by_id["sp4-left-multiplication"] == 0


def test_sln_suite():
    rep = run_suite("sln_quotient", quick_cfg(suites=["sln_quotient"]))
    assert rep.passed
    plans = [("QQ", range(2, 6)), ("F1000003", range(2, 9)), ("F999983", range(2, 9))]
    kinds = ["pi-invariant", "tau-quotient", "normalize", "transporter", "stabilizer", "jacobian"]
    assert [c.id for c in rep.checks] == [
        f"{kind}-{label}-n{n}" for label, ns in plans for n in ns for kind in kinds
    ] + ["hand-transporter"]
    by_id = {c.id: c for c in rep.checks}
    assert by_id["hand-transporter"].observed == "-2/3"
    assert by_id["jacobian-QQ-n5"].observed == 16
    assert by_id["jacobian-F1000003-n8"].observed == 49
    assert by_id["transporter-F999983-n8"].observed == 10


# sizes of the RandomSource.scalars draws of one _sln_quotient call at seed 0,
# recorded before the pair API moved to arrays: 50 invariance samples, 5
# tau/normalization pairs, then per transporter attempt a pair and, once its
# product is nonsingular, a fiber partner column, then the stabilizer and
# Jacobian trials.  Over GF(7) some attempts fail the rank test and draw no partner.
SLN_DRAWS = {
    ("F1000003", 2): [300, 20, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 12, 12],
    ("F1000003", 3): [900, 60, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 36, 36],
    ("F1000003", 4): [1800, 120, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 72, 72],
    ("F1000003", 5): [3000, 200, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 120, 120],
    ("F1000003", 6): [4500, 300, 60, 5, 60, 5, 60, 5, 60, 5, 60, 5, 60, 5, 60, 5, 60, 5, 60, 5, 60, 5, 180, 180],
    ("F1000003", 7): [6300, 420, 84, 6, 84, 6, 84, 6, 84, 6, 84, 6, 84, 6, 84, 6, 84, 6, 84, 6, 84, 6, 252, 252],
    ("F1000003", 8): [8400, 560, 112, 7, 112, 7, 112, 7, 112, 7, 112, 7, 112, 7, 112, 7, 112, 7, 112, 7, 112, 7, 336, 336],
    ("QQ", 2): [300, 20, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 12, 12],
    ("QQ", 3): [900, 60, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 36, 36],
    ("QQ", 4): [1800, 120, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 72, 72],
    ("QQ", 5): [3000, 200, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 40, 4, 120, 120],
    ("F7", 2): [300, 20, 4, 4, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 4, 1, 4, 1, 4, 1, 4, 1, 12, 12],
    ("F7", 3): [900, 60, 12, 2, 12, 2, 12, 2, 12, 12, 2, 12, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 36, 36],
    ("F7", 4): [1800, 120, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 3, 24, 24, 3, 24, 3, 24, 3, 72, 72],
}


def test_sln_quotient_draw_sequence(monkeypatch):
    # certificate values cannot tell a reordered draw apart; the sizes can
    import spincert.suites as suites_mod

    drawn = {}

    class Recording(RandomSource):
        def scalars(self, field, count):
            drawn.setdefault(case, []).append(count)
            return super().scalars(field, count)

    monkeypatch.setattr(suites_mod, "RandomSource", Recording)
    fields = {"F1000003": GF(1_000_003), "QQ": QQ, "F7": GF(7)}
    for case in SLN_DRAWS:
        label, n = case
        suites_mod._sln_quotient(RunConfig(seed=0), fields[label], n)
    assert drawn == SLN_DRAWS


def spy_trials(monkeypatch, script=None):
    """Record the stack size of every stabilizer and Jacobian call of
    ``_sln_quotient``; ``script(name, n, size)``, when given, answers instead."""
    import spincert.suites as suites_mod

    calls = []
    for name in ("stabilizer_lie_dims", "jacobian_ranks_pi"):

        def spy(f, x, y, name=name, real=getattr(suites_mod, name)):
            calls.append((name, len(x)))
            return real(f, x, y) if script is None else script(name, x.shape[1], len(x))

        monkeypatch.setattr(suites_mod, name, spy)
    return calls


def test_sln_first_trial_at_its_bound_decides(monkeypatch):
    import spincert.suites as suites_mod

    calls = spy_trials(monkeypatch)
    for f, ns in [(QQ, range(2, 6)), (GF(1_000_003), range(2, 9)), (GF(999_983), range(2, 9))]:
        for n in ns:
            calls.clear()
            values = suites_mod._sln_quotient(RunConfig(), f, n)
            assert calls == [("stabilizer_lie_dims", 1), ("jacobian_ranks_pi", 1)], (f, n)
            assert (values["stabilizer"], values["jacobian"]) == (0, (n - 1) ** 2)


@pytest.mark.parametrize("trials", [1, 3, 8])
def test_sln_trials_past_a_first_trial_off_its_bound(monkeypatch, trials):
    # a first trial off its bound brings in the other trials as one stack,
    # and the best of all trials is recorded; a single trial stands alone
    import spincert.suites as suites_mod

    def script(name, n, size):
        if name == "stabilizer_lie_dims":
            return [2] if size == 1 else [3] + [1] * (size - 1)
        return [(n - 1) ** 2 - 2] if size == 1 else [(n - 1) ** 2 - 3] + [(n - 1) ** 2 - 1] * (size - 1)

    calls = spy_trials(monkeypatch, script)
    n = 4
    values = suites_mod._sln_quotient(RunConfig(trials=trials), GF(1_000_003), n)
    rest = [("stabilizer_lie_dims", trials - 1), ("jacobian_ranks_pi", trials - 1)] if trials > 1 else []
    assert calls == [("stabilizer_lie_dims", 1)] + rest[:1] + [("jacobian_ranks_pi", 1)] + rest[1:]
    want = (2, (n - 1) ** 2 - 2) if trials == 1 else (1, (n - 1) ** 2 - 1)
    assert (values["stabilizer"], values["jacobian"]) == want


# the checks of sln_quotient at primes (7, 11) that read other than expected, pinned
# before the first trial could decide alone; every other check passes.  At trials 1
# the first trial misses its bound, and at trials 3 the later trials reach it.
SLN_SMALL_PRIME_MISSES = {
    (0, 1): {"stabilizer-F7-n3": 1, "stabilizer-F11-n3": 1},
    (5, 1): {"stabilizer-F7-n5": 1},
    (0, 3): {},
    (5, 3): {},
}


@pytest.mark.parametrize("seed, trials", sorted(SLN_SMALL_PRIME_MISSES))
def test_sln_small_primes_match_the_pinned_values(seed, trials):
    cfg = RunConfig(suites=["sln_quotient"], prime=7, confirm_prime=11, seed=seed, trials=trials)
    rep = run_suite("sln_quotient", cfg)
    assert len(rep.checks) == 6 * (4 + 7 + 7) + 1
    assert {c.id: c.observed for c in rep.checks if not c.passed} == SLN_SMALL_PRIME_MISSES[seed, trials]


def test_unexpected_error_becomes_failed_check(monkeypatch):
    import spincert.suites as suites_mod

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(suites_mod, "derivation_algebra", boom)
    rep = run_suite("g2_octonion", quick_cfg(suites=["g2_octonion"]))
    assert not rep.passed
    assert rep.checks[-1].id == "suite-error"
    assert "injected" in str(rep.checks[-1].observed)


@pytest.mark.parametrize(
    "name, passing, failing",
    [
        ("invariant_bilinear_space", ["spin11", "g2_octonion", "coregular_free"], ["spin7", "branching"]),
        ("associative_closure", ["spin7", "spin10", "spin11"], ["spin14"]),
        ("subalgebra_generated", [], ["g2_octonion"]),
    ],
)
def test_spinor_row_computes_only_what_it_records(monkeypatch, name, passing, failing):
    # every two-prime table, the spinor rows and the shared-context ones alike,
    # derives data from its context only for the checks that read them; a
    # failure aborts the suite before any value is recorded
    import spincert.suites as suites_mod

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(suites_mod, name, boom)
    for suite in passing:
        assert run_suite(suite, quick_cfg()).passed, suite
    for suite in failing:
        assert [c.id for c in run_suite(suite, quick_cfg()).checks] == ["suite-error"], suite


def test_no_witnessed_trial_becomes_suite_error(monkeypatch):
    # no anisotropic point among the trials: no sampled value is recorded
    import spincert.suites as suites_mod

    monkeypatch.setattr(suites_mod, "anisotropic", lambda field, x: False)
    rep = run_suite("g2_octonion", quick_cfg(suites=["g2_octonion"]))
    assert [(c.id, c.description) for c in rep.checks] == [("suite-error", "suite aborted: NotWitnessed")]


def test_prime_disagreement_is_reported_not_raised(monkeypatch):
    # a per-field dependency that answers differently over the confirming
    # prime: each split check fails with both values, and the rest is recorded
    import spincert.suites as suites_mod

    cfg = quick_cfg()
    confirming = cfg.confirm_prime
    real_min_trial = suites_mod.min_trial_stabilizer

    def split_g2(rep, trials, seed, witness=None):
        rpt, v = real_min_trial(rep, trials, seed, witness)
        if rep.name == "g2 on trace-zero octonions" and rep.field.p == confirming:
            rpt = dataclasses.replace(rpt, dimension=rpt.dimension + 1)
        return rpt, v

    def split_center(rep):
        return rep.field.p != confirming

    real_action = suites_mod.kernel_action_matrices

    def no_fixed_line(kernel, rep):
        mats = real_action(kernel, rep)
        if rep.name == "spin(7)" and rep.field.p == confirming:
            mats = np.stack([rep.field.eye(rep.dim)] * len(mats))
        return mats

    monkeypatch.setattr(suites_mod, "min_trial_stabilizer", split_g2)
    monkeypatch.setattr(suites_mod, "center_acts_minus_one", split_center)
    monkeypatch.setattr(suites_mod, "kernel_action_matrices", no_fixed_line)

    split = {
        "g2_octonion": {"kernel-vector": "8 / 9 (primes disagree)"},
        "spin7": {
            "fixed-subspace": "1 / 0 (primes disagree)",
            "fixed-contains-point": "True / False (primes disagree)",
            "center-negates": "True / False (primes disagree)",
        },
    }
    for name, ids in (("g2_octonion", G2_IDS), ("spin7", SPIN7_IDS)):
        rep = run_suite(name, cfg)
        assert [c.id for c in rep.checks] == ids
        assert not rep.passed
        for c in rep.checks:
            if c.id in split[name]:
                assert c.observed == split[name][c.id] and not c.passed
            else:
                assert c.passed, c


def test_report_json_schema():
    rep = run_suite("spin7", quick_cfg(suites=["spin7"]))
    doc = report_to_dict(rep)
    assert set(doc) == {"suite", "checks", "seed", "primes", "elapsed_ms", "pass"}
    for c in doc["checks"]:
        assert set(c) == {"id", "description", "expected", "observed", "provenance", "anchor", "pass"}
    json.dumps(doc)  # must be serializable as-is


def test_restriction_blocks_reads_mixed_blocks(monkeypatch):
    # with one even and one odd Fock index swapped, some so(10) generator
    # couples the two parts, and the branching check reads no blocks
    import spincert.suites as suites_mod

    real = suites_mod.parity_indices

    def swapped(n):
        even, odd = real(n)
        return [odd[0], *even[1:]], [even[0], *odd[1:]]

    field = suites_mod._Field(RunConfig(), GF(1_000_003))
    assert suites_mod._restriction_blocks(field) == [16, 16, True]
    monkeypatch.setattr(suites_mod, "parity_indices", swapped)
    assert suites_mod._restriction_blocks(field) == [0, 0, False]
