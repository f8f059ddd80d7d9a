"""Reachability gate: every function under src/tailamp runs on the program's own traffic.

    python tests/audit_reach.py

In this one process, under a sys.settrace hook that records each function
call, the script runs the traffic the program serves:

- ``tailamp generate`` on bar1d (256 scenarios), cantilever and lbracket
  (24 each), into a temporary directory;
- ``tailamp estimate`` on every QoI of each of those ensembles, with both
  methods, at a budget of 64,000;
- a short ``tailamp bench``;
- the three demos (``budget_sweep_demo.py`` from a temporary copy, since it
  writes next to itself);
- the three perfbench workloads, one second each, untraced;
- ``tests/test_acceptance.py`` under pytest.

It exits 1 when a step fails, or when a ``def`` under src/tailamp (methods,
properties and nested functions included) never ran and ALLOWED does not
name it.  An ALLOWED entry that names no def, or one the traffic now
reaches, fails it too, so the list only holds what it must.  To keep a
function that the traffic does not reach, add its dotted name (module,
then class, then function) to ALLOWED with a one-line reason.  The script
takes no options and writes nothing into the checkout except the
perfbench workloads' own temporary directories, which they remove.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailamp"

# Functions the traffic never calls, each with the reason it stays.
ALLOWED = {
    "stats.log_likelihood_terms": "the grid reference of the scalar kernels, read by perfbench through mliqae (ROADMAP item 13)",
    "intervals.IntervalUnion.__eq__": "value equality, which the tests compare unions by",
    "intervals.IntervalUnion.__hash__": "equal unions hash alike, pinned by tests/test_intervals.py",
    "intervals.IntervalUnion.__repr__": "how a union reads in an assertion message",
}


def defs() -> list[tuple[str, tuple[str, int]]]:
    """(dotted name, (file, first line)) of every def under src/tailamp.

    The first line is the first decorator's, as in the code object's
    co_firstlineno.
    """
    found = []

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((name, (path, first)))
                walk(child, name, path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem, str(path))
    return found


def traffic(tmp: Path):
    """Yield (step name, callable returning an exit code) for each piece of traffic."""
    from tailamp import cli, stochfem

    def cli_main(*argv):
        return lambda: cli.main([str(a) for a in argv])

    for benchmark, n in (("bar1d", 256), ("cantilever", 24), ("lbracket", 24)):
        yield f"generate {benchmark}", cli_main("generate", "--benchmark", benchmark, "--n-scenarios", n, "--out-dir", tmp)
    for path in sorted(tmp.glob("*.ensemble.txt")):
        for qoi in stochfem.QOI_NAMES:
            for method in ("mc", "mliqae"):
                yield (
                    f"estimate {path.name} {qoi} {method}",
                    cli_main("estimate", "--ensemble", path, "--qoi", qoi, "--method", method, "--budget", 64000),
                )
    yield "bench", cli_main("bench", "--n-scenarios", 256, "--budgets", "2000,8000", "--reps", 2, "--out-dir", tmp)

    def demo(path):
        def go():
            runpy.run_path(str(path), run_name="__main__")
            return 0

        return go

    yield "demo worked_example", demo(ROOT / "demos" / "worked_example.py")
    yield "demo bar_cvar_demo", demo(ROOT / "demos" / "bar_cvar_demo.py")
    sweep = shutil.copy(ROOT / "demos" / "budget_sweep_demo.py", tmp)
    yield "demo budget_sweep_demo", demo(sweep)

    sys.path.insert(0, str(ROOT / "perfbench"))
    perfbench = runpy.run_path(str(ROOT / "perfbench" / "run.py"))
    for workload in ("operating", "saturated", "statevector"):
        yield (
            f"perfbench {workload}",
            lambda w=workload: perfbench["main"](["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"]),
        )

    def acceptance():
        import pytest

        return pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"])

    yield "pytest tests/test_acceptance.py", acceptance


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()

    def tracer(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    failed = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        sys.settrace(tracer)
        try:
            for step, run in traffic(Path(tmp)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run()
                if code != 0:
                    failed.append(step)
                    print(f"FAILED {step}: exit code {code}\n{out.getvalue()}")
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    print(f"traffic ran in {time.perf_counter() - start:.1f} s")

    found = defs()
    names = {name for name, _ in found}
    unreached = sorted({name for name, key in found if key not in seen})
    problems = [f"traffic step failed: {step}" for step in failed]
    problems += [f"never runs: {name}" for name in unreached if name not in ALLOWED]
    problems += [f"ALLOWED names no def: {name}" for name in ALLOWED if name not in names]
    problems += [f"ALLOWED but reached: {name}" for name in ALLOWED if name in names and name not in unreached]
    for name in unreached:
        if name in ALLOWED:
            print(f"allowed: {name} ({ALLOWED[name]})")
    print(f"{len(names) - len(unreached)} of {len(names)} functions ran")
    for problem in problems:
        print(f"REACH GATE: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
