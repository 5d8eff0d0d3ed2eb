import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spincert
from spincert.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_list_suites(capsys):
    code, out = run_cli(["list-suites"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert lines == sorted(lines, key=lambda l: [
        "g2_octonion", "spin7", "spin10", "spin11", "spin14",
        "coregular_free", "branching", "sln_quotient",
    ].index(l.split(" - ")[0]))
    assert any("spin11" in l and "stabilizer SL_5" in l for l in lines)


def test_run_spin7_text(capsys):
    code, out = run_cli(["run", "--suites", "spin7", "--seed", "42"], capsys)
    assert code == 0
    assert "suite spin7" in out and "[PASS]" in out
    assert "stabilizer-dim" in out and "expected=14  observed=14" in out


def test_run_json_document(capsys):
    code, out = run_cli(
        ["run", "--suites", "g2_octonion,spin7", "--format", "json", "--trials", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"suites", "seed", "primes", "trials", "pass"}
    assert doc["pass"] is True
    assert [s["suite"] for s in doc["suites"]] == ["g2_octonion", "spin7"]
    for s in doc["suites"]:
        assert set(s) == {"suite", "checks", "seed", "primes", "elapsed_ms", "pass"}
        for c in s["checks"]:
            assert set(c) == {
                "id",
                "description",
                "expected",
                "observed",
                "provenance",
                "anchor",
                "pass",
            }


def test_largest_prime_matches_default_primes(capsys):
    # every accepted prime must be exact, up to 2**31 - 1
    docs = {}
    for prime in ("2147483647", "1000003"):
        code, out = run_cli(["run", "--suites", "spin7,g2_octonion", "--format", "json", "--prime", prime], capsys)
        assert code == 0
        docs[prime] = json.loads(out)
    for big, default in zip(docs["2147483647"]["suites"], docs["1000003"]["suites"]):
        assert big["primes"] == [2147483647, 999983]
        assert "suite-error" not in {c["id"] for c in big["checks"]}
        assert big["checks"] == default["checks"]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--prime", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suites", "unknown"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--prime", "7", "--confirm-prime", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--prime", "4294967311"])
    assert exc.value.code == 2


def test_failing_suite_exit_1(capsys, monkeypatch):
    import spincert.suites as suites_mod

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(suites_mod, "derivation_algebra", boom)
    code, out = run_cli(["run", "--suites", "g2_octonion", "--trials", "2"], capsys)
    assert code == 1
    assert "FAIL suite-error" in out


def test_env_override_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("NOETHER_SUITES", "g2_octonion")
    monkeypatch.setenv("NOETHER_TRIALS", "2")
    code, out = run_cli(["run", "--format", "json"], capsys)
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == ["g2_octonion"]  # env selected the suite
    code, out = run_cli(["run", "--suites", "spin7", "--format", "json"], capsys)
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == ["spin7"]  # flag beat the environment


def test_malformed_env_is_usage_error_unless_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("NOETHER_PRIME", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suites", "spin7"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # list-suites never reads the run defaults
    code, out = run_cli(["list-suites"], capsys)
    assert code == 0 and "spin7" in out
    monkeypatch.delenv("NOETHER_PRIME")
    monkeypatch.setenv("NOETHER_TRIALS", "1.5")
    code, out = run_cli(["run", "--suites", "spin7", "--trials", "2", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["trials"] == 2


def test_stretch_env_words(capsys, monkeypatch):
    import spincert.cli as cli_mod

    seen = []
    monkeypatch.setattr(cli_mod, "run_selected", lambda cfg: seen.append(cfg.stretch) or [])
    for word, stretch in (("Yes", True), ("ON", True), ("1", True), ("false", False), ("Off", False), ("0", False)):
        monkeypatch.setenv("NOETHER_STRETCH", word)
        assert main(["run", "--suites", "spin11"]) == 0
        assert seen.pop() is stretch
    capsys.readouterr()


def test_malformed_stretch_env_is_usage_error(capsys, monkeypatch):
    import spincert.cli as cli_mod

    monkeypatch.setenv("NOETHER_STRETCH", "maybe")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suites", "spin11"])
    assert exc.value.code == 2
    assert "invalid NOETHER_STRETCH value: 'maybe'" in capsys.readouterr().err
    # the flag wins over the malformed value, and list-suites never reads it
    seen = []
    monkeypatch.setattr(cli_mod, "run_selected", lambda cfg: seen.append(cfg.stretch) or [])
    assert main(["run", "--suites", "spin11", "--stretch"]) == 0 and seen == [True]
    code, out = run_cli(["list-suites"], capsys)
    assert code == 0 and "spin11" in out


def test_dump_representations(tmp_path, capsys):
    out_file = tmp_path / "reps.json"
    code, _ = run_cli(
        ["run", "--suites", "g2_octonion,spin7", "--dump", str(out_file), "--trials", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    names = {r["name"] for r in doc["representations"]}
    assert names == {"vector(7)", "spin(7)"}
    rep = next(r for r in doc["representations"] if r["name"] == "spin(7)")
    assert rep["n"] == 7
    assert rep["field"] == {"kind": "PrimeField", "prime": 1000003}
    assert len(rep["basisLabels"]) == 21
    assert len(rep["matrices"]) == 21
    assert all(isinstance(x, int) for row in rep["matrices"][0] for x in row)
    assert doc["derivations"]["dimension"] == 14


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spincert", "list-suites"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "g2_octonion" in proc.stdout


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_package_import_caps_blas_threads_unless_set(preset, want):
    # importing spincert before NumPy loads OpenBLAS with one thread; a value already set wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, spincert, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want


# -- the names perfbench/ reaches in the package ------------------------------


def test_benchmark_trace_and_setup_still_resolve():
    # the tracer raises LayerMissing when a wrapped function is gone;
    # child.py imports the modules and names every workload uses
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    for argv in (
        ["-c", "import layertrace; layertrace.Tracer().install()"],
        [str(ROOT / "perfbench" / "child.py"), "--setup-only"],
    ):
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "LayerMissing" not in proc.stderr


def test_every_exported_name_resolves():
    modules = [spincert] + [
        importlib.import_module(f"spincert.{info.name}")
        for info in pkgutil.iter_modules(spincert.__path__)
        if not info.name.startswith("_")
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 1 and missing == []


def test_default_report_matches_golden(capsys, monkeypatch):
    # the default certificate table, byte for byte, with the timings removed;
    # the golden file is that report as a known-good tree printed it
    for name in list(os.environ):
        if name.startswith("NOETHER_"):
            monkeypatch.delenv(name)
    code, out = run_cli(["run", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    for suite in doc["suites"]:
        del suite["elapsed_ms"]
    golden = (Path(__file__).parent / "golden_default_report.json").read_text()
    assert json.dumps(doc, indent=1) + "\n" == golden
