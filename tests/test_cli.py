import ast
import functools
import importlib
import inspect
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
        main(["run", "--suites", "spin7,spin7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suites", "spin7,all"])  # 'all' alone names every suite
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--prime", "7", "--confirm-prime", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--prime", "4294967311"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed", "-1"])
    assert exc.value.code == 2


def test_failing_suite_exit_1(capsys, monkeypatch):
    import spincert.suites as suites_mod

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(suites_mod, "derivation_algebra", boom)
    code, out = run_cli(["run", "--suites", "g2_octonion", "--trials", "2"], capsys)
    assert code == 1
    assert "FAIL suite-error" in out


def test_environment_sets_no_option(capsys, monkeypatch):
    # flags are the only way in: NOETHER_* values, malformed or not, change nothing
    for name, value in (
        ("NOETHER_SUITES", "g2_octonion"),
        ("NOETHER_PRIME", "abc"),
        ("NOETHER_FORMAT", "xml"),
        ("NOETHER_STRETCH", "maybe"),
    ):
        monkeypatch.setenv(name, value)
    code, out = run_cli(["run", "--suites", "spin7", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["primes"] == [1000003, 999983]
    assert [s["suite"] for s in doc["suites"]] == ["spin7"]


def test_all_names_every_suite(monkeypatch):
    # 'all', or no name at all, reaches the suites as the registry's names
    import spincert.cli as cli_mod
    from spincert.suites import SUITES

    seen = []
    monkeypatch.setattr(cli_mod, "run_selected", lambda cfg: seen.append(cfg.suites) or [])
    for argv in (["run"], ["run", "--suites", "all"], ["run", "--suites", " , "]):
        assert main(argv) == 0
    assert seen == [list(SUITES)] * 3


def test_flag_defaults_are_the_run_defaults(monkeypatch):
    import spincert.cli as cli_mod
    from spincert.suites import RunConfig

    seen = []
    monkeypatch.setattr(cli_mod, "run_selected", lambda cfg: seen.append(cfg) or [])
    assert main(["run"]) == 0
    assert seen == [RunConfig()]


ROOT = Path(__file__).resolve().parents[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spincert", "list-suites"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "g2_octonion" in proc.stdout


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


def test_no_module_reads_the_environment():
    # the one read is the package's OpenBLAS thread default, set before NumPy loads
    reads = []
    for path in sorted((ROOT / "src" / "spincert").rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node.func.value)
            for node in ast.walk(tree)
            if path.name == "__init__.py"
            and isinstance(node, ast.Call)
            and ast.unparse(node.func) == "os.environ.setdefault"
            and ast.unparse(node.args[0]) == "'OPENBLAS_NUM_THREADS'"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv") and id(node) not in allowed:
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}" for a in node.names if a.name in ("environ", "getenv")]
    assert reads == []


# -- the names perfbench/ reaches in the package ------------------------------


TRACED_RUN = """
import contextlib, io, json
import layertrace

tracer = layertrace.Tracer()
tracer.install()
from spincert.cli import main
from spincert.clifford import QuadraticSpace, so_structure_constants
from spincert.fields import GF
from spincert.orbits import invariant_quartic_dim
from spincert.spinreps import spin_rep, vector_rep, verify_lie_homomorphism

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["run", "--format", "json"])
f, five, seven = GF(1_000_003), QuadraticSpace(5), QuadraticSpace(7)
lie = verify_lie_homomorphism(spin_rep(five, f), so_structure_constants(five, f))
quartic = invariant_quartic_dim(vector_rep(seven, f))
calls = {layer: rec["calls"] for layer, rec in tracer.totals().items()}
print(json.dumps({"code": code, "report": json.loads(out.getvalue()), "lie": lie, "quartic": quartic, "calls": calls}))
"""


def test_benchmark_trace_and_setup_still_resolve():
    # child.py imports the modules and names every workload uses.  The tracer
    # raises LayerMissing when a wrapped function is gone, and a traced run fails
    # when a wrapped function's arguments no longer fit its observer; the default
    # run, the spin(5) Lie check and the vector(7) quartic reach every layer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))

    def run(*argv):
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    run(str(ROOT / "perfbench" / "child.py"), "--setup-only")
    doc = json.loads(run("-c", TRACED_RUN))
    assert (doc["code"], doc["lie"], doc["quartic"]) == (0, True, 1)
    for suite in doc["report"]["suites"]:
        del suite["elapsed_ms"]
    golden = (ROOT / "tests" / "golden_default_report.json").read_text()
    assert json.dumps(doc["report"], indent=1) + "\n" == golden
    assert [layer for layer, calls in doc["calls"].items() if calls == 0] == []


def package_modules():
    """The package and its public modules, imported, keyed by source file stem."""
    modules = {"__init__": spincert}
    for info in pkgutil.iter_modules(spincert.__path__):
        if not info.name.startswith("_"):
            modules[info.name] = importlib.import_module(f"spincert.{info.name}")
    return modules


def test_every_exported_name_resolves():
    modules = package_modules().values()
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 1 and missing == []


def test_every_exported_name_is_used():
    # a name in an __all__ of the package must be imported, loaded or read as an
    # attribute somewhere in the program, its benchmark or its kernel timings
    used, exported = set(), []
    for path in sorted(p for d in ("src", "perfbench", "benchmarks") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif path.parent.name == "spincert" and isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    exported += [f"{path.stem}.{name}" for name in ast.literal_eval(node.value)]
    # every module with an __all__ adds to the scan, so it cannot pass by seeing nothing
    with_all = {stem for stem, m in package_modules().items() if hasattr(m, "__all__")}
    assert len(with_all) > 1 and with_all <= {name.split(".")[0] for name in exported}
    assert [name for name in exported if name.rsplit(".", 1)[1] not in used] == []


def public_methods(cls):
    """The public functions and properties a class defines itself."""
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    return [n for n, v in vars(cls).items() if not n.startswith("_") and (inspect.isfunction(v) or isinstance(v, kinds))]


def test_every_public_method_is_used():
    # a public method or property of a class in the package must be read as an
    # attribute, or named as a string, somewhere in the program, its benchmark
    # or its kernel timings
    used, methods = set(), []
    for path in sorted(p for d in ("src", "perfbench", "benchmarks") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
            elif path.parent.name == "spincert" and isinstance(node, ast.ClassDef):
                methods += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    # every module with a class that has a public method adds to the scan, so it
    # cannot pass by seeing nothing; exceptions and plain dataclasses have none
    with_methods = {
        stem
        for stem, m in package_modules().items()
        for cls in vars(m).values()
        if inspect.isclass(cls) and cls.__module__ == m.__name__ and public_methods(cls)
    }
    assert len(with_methods) > 1 and with_methods <= {name.split(".")[0] for name in methods}
    assert [name for name in methods if name.rsplit(".", 1)[1] not in used] == []


def test_default_report_matches_golden(capsys):
    # the default certificate table, byte for byte, with the timings removed;
    # the golden file is that report as a known-good tree printed it
    code, out = run_cli(["run", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    for suite in doc["suites"]:
        del suite["elapsed_ms"]
    golden = (Path(__file__).parent / "golden_default_report.json").read_text()
    assert json.dumps(doc, indent=1) + "\n" == golden
