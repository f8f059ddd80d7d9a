"""Run one workload of the tailamp benchmark and print its metrics.

    python3 perfbench/run.py --workload operating --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
of the same checkout, and ``BENCHMARK.json`` names the workloads and the
metrics with their units.  Lines starting with ``#`` describe the run; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` reports the per-layer
metrics of a traced replay.  The exit code is 0 only when every
correctness check passed, 1 when one failed, 2 when the checkout is
incomplete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "tailamp" / "__init__.py").is_file():
        print(f"error: no tailamp sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # One client, no threads: keep BLAS single-threaded and the CLI's sweep
    # pool off before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TAILAMP_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import tailamp

    if Path(tailamp.__file__).resolve().parent != SRC / "tailamp":
        print(f"error: imported tailamp from {tailamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if args.trace:
        result = workloads.traced(args.workload, args.seed, args.seconds, ROOT, list(units))
    else:
        result = workloads.end_to_end(args.workload, args.seed, args.seconds, ROOT)
    problems = list(result.problems)
    if set(result.metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(result.metrics) ^ set(units))}")
    problems += [f"{name} is not finite" for name, v in result.metrics.items() if not math.isfinite(v)]

    for line in result.notes:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"# {name} = {result.metrics.get(name, math.nan):.6g} {unit}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    if any(name not in result.metrics or not math.isfinite(result.metrics[name]) for name in units):
        return 1
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
