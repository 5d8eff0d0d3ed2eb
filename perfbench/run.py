"""spincert benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload full_table [--seed 0] [--seconds 20] [--trace 0]

Each iteration runs the workload in a fresh interpreter (``child.py``), one
after another: a closed loop with one caller.  With ``--trace 0`` the run
repeats untraced iterations until ``--seconds`` have passed (at least two)
and reports the end-to-end metrics of BENCHMARK.json as medians.  With
``--trace 1`` it runs one untraced iteration and two traced ones and reports
the per-layer metrics; the traced iterations must repeat every count exactly.

Every run checks every certificate against ``reference.json`` and requires
the outputs, without their timing fields, to be identical across iterations.
Human-readable lines and a provenance record come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = ("full_table", "generic_sweep", "construct_verify")
SETUP_PROBES = 4  # set-up probes before each untraced iteration
MIN_ITERATIONS = 2
TRACED_ITERATIONS = 2
# Everything, children included, ends within this many seconds of the start.
DEADLINE_S = 170.0


class Failure(RuntimeError):
    """The run cannot produce a result (missing program, crashed or stuck child)."""


def child_env() -> tuple[dict, list]:
    """Environment of every child: NOETHER_* removed, the checkout's src first."""
    removed = sorted(k for k in os.environ if k.startswith("NOETHER_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("NOETHER_")}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env, removed


def run_child(argv: list, env: dict, deadline: float) -> dict:
    """Run child.py once; wall time, CPU time and peak RSS come from wait4."""
    start = time.monotonic()
    if start >= deadline:
        raise Failure("out of time before starting a child")
    proc = subprocess.Popen([sys.executable, str(CHILD), *argv], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(deadline - start, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise Failure(f"child {' '.join(argv)} exited with {proc.returncode}")
    lines = out.decode().splitlines()
    if not lines:
        raise Failure(f"child {' '.join(argv)} printed nothing")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - start
    result["wall_s"] = wall
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


# -- correctness ---------------------------------------------------------------


def check_outputs(workload: str, outputs: dict, reference: dict) -> tuple[int, list]:
    """(certificates attempted, descriptions of the wrong ones) for one iteration.

    A check that is missing, a suite-error, a "primes disagree" value or any
    value other than the reference counts as wrong.  Checks the reference does
    not list are held to the report's own expected value.
    """
    attempted = 0
    wrong = []
    wanted = reference["suites"]
    if workload == "generic_sweep":
        wanted = {name: wanted[name] for name in reference["generic_sweep_suites"]}
    for run in outputs.get("runs", ()):
        by_suite = {s["suite"]: {c["id"]: c for c in s["checks"]} for s in run["suites"]}
        if set(by_suite) != set(wanted):
            wrong.append(f"seed {run['seed']}: suites {sorted(by_suite)} != {sorted(wanted)}")
        for suite, checks in wanted.items():
            got = dict(by_suite.get(suite, {}))
            for cid, value in checks.items():
                attempted += 1
                check = got.pop(cid, None)
                if check is None or check["observed"] != value:
                    observed = "missing" if check is None else repr(check["observed"])
                    wrong.append(f"seed {run['seed']} {suite}/{cid}: {observed}, reference {value!r}")
            for cid, check in got.items():
                attempted += 1
                if cid == "suite-error" or check["observed"] != check["expected"]:
                    wrong.append(f"seed {run['seed']} {suite}/{cid}: {check['observed']!r}")
    if "quartic" in outputs:
        for p in reference["primes"]:
            attempted += 1
            dim = outputs["quartic"].get(str(p))
            if dim != reference["quartic_dim"]:
                wrong.append(f"quartic over F{p}: {dim!r}, reference {reference['quartic_dim']}")
    if "verified" in outputs:
        got = {(p, name): ok for p, name, ok in outputs["verified"]}
        for p in reference["primes"]:
            for name in reference["construct_verify_reps"]:
                attempted += 1
                if got.get((p, name)) is not True:
                    wrong.append(f"verify_lie_homomorphism({name}) over F{p}: {got.get((p, name))!r}")
        expected = len(reference["primes"]) * len(reference["construct_verify_reps"])
        if len(outputs["verified"]) != expected:
            wrong.append(f"construct_verify verified {len(outputs['verified'])} representations, not {expected}")
    return attempted, wrong


def stripped_digest(outputs: dict) -> str:
    """sha256 of the outputs with every elapsed_ms removed."""
    doc = json.loads(json.dumps(outputs))
    for run in doc.get("runs", ()):
        for suite in run["suites"]:
            suite.pop("elapsed_ms", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def program_failing_checks(outputs: dict) -> int:
    """Checks the program itself marks as failing (spin11 commutant-on-v11 at the baseline)."""
    return sum(not c["pass"] for run in outputs.get("runs", ()) for s in run["suites"] for c in s["checks"])


# -- provenance ----------------------------------------------------------------


def source_provenance() -> dict:
    src = ROOT / "src"
    files = sorted(p for p in src.rglob("*") if p.is_file() and p.suffix in (".py", ".pyx"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    # The ceiling stops git from reporting a repository that merely encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20, check=False
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_python_lines": sum(len(p.read_text().splitlines()) for p in files if p.suffix == ".py"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- metrics -------------------------------------------------------------------


def end_to_end(iterations: list, setups: list, attempted: int, wrong: int) -> dict:
    return {
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        "setup_s": statistics.median(setups),
        "correct_share": (attempted - wrong) / attempted,
    }


def per_layer(names: list, untraced: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced iterations, plus count mismatches between them."""
    totals = [it["trace"] for it in traced]
    mismatches = []
    for layer in totals[0]:
        for key, value in totals[0][layer].items():
            if not key.endswith("_s") and any(t[layer].get(key) != value for t in totals[1:]):
                mismatches.append(f"{layer}.{key}: {[t[layer].get(key) for t in totals]}")

    def value_of(layer, key):
        if key.endswith("_s"):
            return statistics.median(t[layer].get(key, 0) for t in totals)
        return totals[0][layer].get(key, 0)  # counts repeat exactly, checked above

    traced_wall = statistics.median(it["wall_s"] for it in traced)
    outside = statistics.median(
        it["work_s"] - sum(rec["self_s"] for layer, rec in it["trace"].items() if not layer.startswith("suites."))
        for it in traced
    )
    special = {
        "trace.overhead_s": traced_wall - statistics.median(it["wall_s"] for it in untraced),
        "trace.outside_layers_s": outside,
    }
    layers = sorted(totals[0], key=len, reverse=True)
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        layer = next((l for l in layers if name.startswith(l + ".")), None)
        if layer is None:
            raise Failure(f"per-layer metric {name} names no traced layer")
        values[name] = value_of(layer, name[len(layer) + 1 :])
    return values, mismatches


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one spincert benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    env, removed = child_env()
    workload_argv = ["--workload", args.workload, "--seed", str(args.seed)]

    run_child(["--setup-only"], env, deadline)  # fills the bytecode and file caches, untimed
    setups = []
    untraced = []
    traced = []
    if args.trace:
        untraced.append(run_child(workload_argv, env, deadline))
        for _ in range(TRACED_ITERATIONS):
            traced.append(run_child(workload_argv + ["--trace"], env, deadline))
    else:
        measure_start = time.monotonic()
        while len(untraced) < MIN_ITERATIONS or time.monotonic() - measure_start < args.seconds:
            if len(untraced) >= MIN_ITERATIONS and time.monotonic() + untraced[-1]["wall_s"] > deadline:
                break
            setups += [run_child(["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            untraced.append(run_child(workload_argv, env, deadline))
        setups += [it["setup_s"] for it in untraced]

    iterations = untraced + traced
    attempted = 0
    wrong = []
    for it in iterations:
        n, bad = check_outputs(args.workload, it["outputs"], reference)
        attempted += n
        wrong += bad
    digests = {stripped_digest(it["outputs"]) for it in iterations}
    problems = list(wrong)
    if len(digests) != 1:
        problems.append(f"outputs differ between iterations of one seed: {len(digests)} distinct digests")

    if args.trace:
        metrics, mismatches = per_layer([m["name"] for m in spec["per_layer"]], untraced, traced)
        problems += [f"traced count did not repeat: {m}" for m in mismatches]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(untraced, setups, attempted, len(wrong))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    first = iterations[0]
    provenance = dict(first["provenance"], **source_provenance())
    provenance.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        untraced_iterations=len(untraced),
        traced_iterations=len(traced),
        removed_env=removed,
        program_failing_checks=program_failing_checks(first["outputs"]),
        outputs_sha256=sorted(digests),
    )
    if "exit_code" in first["outputs"]:
        provenance["cli_exit_code"] = first["outputs"]["exit_code"]
    return {
        "provenance": provenance,
        "iterations": iterations,
        "problems": problems,
        "attempted": attempted,
        "wrong": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spincert" / "__init__.py").is_file():
        print(f"spincert sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for i, it in enumerate(report["iterations"]):
        kind = "traced" if it.get("trace") else "untraced"
        print(
            f"iteration {i + 1} ({kind}): wall {it['wall_s']:.3f} s  cpu {it['cpu_s']:.3f} s  "
            f"rss {it['peak_rss_mb']:.1f} MB  setup {it['setup_s']:.3f} s"
        )
    for problem in report["problems"]:
        print(f"PROBLEM {problem}")
    print(f"certificates: {report['attempted']} attempted, {report['wrong']} wrong, "
          f"wrong_share {report['wrong'] / report['attempted']:.6g}")
    for name, m in report["metrics"].items():
        value = m["value"]
        print(f"{name:<48} {value if isinstance(value, int) else f'{value:.6f}':>16} {m['unit']}")
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["wrong"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
