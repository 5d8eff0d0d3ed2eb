import json

import pytest

from spincert.suites import (
    RunConfig,
    report_to_dict,
    run_suite,
    suite_names,
)


def quick_cfg(**kw):
    defaults = dict(suites=["all"], trials=2)
    defaults.update(kw)
    return RunConfig(**defaults)


def strip_elapsed(doc):
    doc = dict(doc)
    doc.pop("elapsed_ms", None)
    return doc


def test_suite_registry():
    names = suite_names()
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
    with pytest.raises(ValueError):
        RunConfig(trials=0).validate()
    with pytest.raises(ValueError):
        RunConfig(confirm_prime=4294967311).validate()  # beyond exact int64 elimination
    RunConfig().validate()
    RunConfig(prime=2147483647).validate()


def test_g2_suite_passes_and_is_deterministic():
    cfg = quick_cfg(suites=["g2_octonion"])
    rep1 = run_suite("g2_octonion", cfg)
    rep2 = run_suite("g2_octonion", cfg)
    assert rep1.passed
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
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["stabilizer-certificate"] == [29, 21, 8]
    assert by_id["parity-twin"] == [29, 21, 8]
    assert by_id["invariant-forms"] == [0, 0]


def test_spin11_suite_flags_contract_discrepancy():
    # under the sl(5) stabilizer V11 = 5 + dual(5) + 1, so the derived
    # commutant is 3 and the whole suite passes
    rep = run_suite("spin11", quick_cfg(suites=["spin11"]))
    assert rep.passed
    commutant = next(c for c in rep.checks if c.id == "commutant-on-v11")
    assert commutant.expected == 3 and commutant.observed == 3
    assert commutant.provenance == "derived"
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["stabilizer-dim"] == 24 and by_id["killing-rank"] == 24


def test_spin11_stretch_quartic():
    rep = run_suite("spin11", quick_cfg(suites=["spin11"], stretch=True))
    by_id = {c.id: c for c in rep.checks}
    assert "quartic-invariants" in by_id
    assert by_id["quartic-invariants"].observed == 1 and by_id["quartic-invariants"].passed
    # without the flag the check is absent
    rep2 = run_suite("spin11", quick_cfg(suites=["spin11"]))
    assert "quartic-invariants" not in {c.id for c in rep2.checks}


def test_spin14_suite():
    rep = run_suite("spin14", quick_cfg(suites=["spin14"]))
    assert rep.passed
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["stabilizer-dim"] == 28
    assert by_id["killing-rank"] == 28
    assert by_id["scaled-stabilizer"] == 28
    assert by_id["isotypic-fingerprint"] == [98, 2]
    assert by_id["invariant-forms"] == [0, 0]


def test_coregular_suite():
    rep = run_suite("coregular_free", quick_cfg(suites=["coregular_free"]))
    assert rep.passed
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["free-7"] == by_id["free-10"] == by_id["free-11"] == by_id["free-14"] == 0
    assert by_id["chain-10"] == 10
    assert by_id["chain-11"] == 21
    assert by_id["chain-14"] == 55


def test_branching_suite():
    rep = run_suite("branching", quick_cfg(suites=["branching"]))
    assert rep.passed
    by_id = {c.id: c.observed for c in rep.checks}
    assert by_id["restriction-blocks"] == [16, 16, True]
    assert by_id["half10-so5-fingerprint"] == [16, 16]
    assert by_id["spin5-symplectic"] == [0, 1, 4]
    assert by_id["sp4-left-multiplication"] == 0


def test_sln_suite():
    rep = run_suite("sln_quotient", quick_cfg(suites=["sln_quotient"]))
    assert rep.passed
    by_id = {c.id: c for c in rep.checks}
    assert by_id["hand-transporter"].observed == "-2/3"
    assert by_id["jacobian-QQ-n5"].observed == 16
    assert by_id["jacobian-F1000003-n8"].observed == 49
    assert by_id["transporter-F999983-n8"].observed == 10


def test_unexpected_error_becomes_failed_check(monkeypatch):
    import spincert.suites as suites_mod

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(suites_mod, "derivation_algebra", boom)
    rep = run_suite("g2_octonion", quick_cfg(suites=["g2_octonion"]))
    assert not rep.passed
    assert rep.checks[-1].id == "suite-error"
    assert "injected" in str(rep.checks[-1].observed)


def test_report_json_schema():
    rep = run_suite("spin7", quick_cfg(suites=["spin7"]))
    doc = report_to_dict(rep)
    assert set(doc) == {"suite", "checks", "seed", "primes", "elapsed_ms", "pass"}
    for c in doc["checks"]:
        assert set(c) == {"id", "description", "expected", "observed", "provenance", "anchor", "pass"}
    json.dumps(doc)  # must be serializable as-is
