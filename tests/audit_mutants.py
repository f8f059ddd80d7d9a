"""Mutation gate: every listed guard branch is held by a tier-1 test.

    python tests/audit_mutants.py

Each entry of MUTANTS is a (module, label, old, new) text replacement in
src/tailamp: it disables one guard branch, zeroes one constant or flips
one comparison of the controller (mliqae, stats, intervals), of an input
path (riskmodel, stochfem, cli), of the input rules stochfem.checked and
stochfem.known, or of the plane-stress solve and the ensemble assembly
(stochfem).  The script copies the checkout into a temporary directory,
checks that tier-1 passes on the copy as it is, then runs tier-1 with -x
once per mutant, on the copy with that one replacement made.  A nonzero
exit or a run longer than the timeout kills the mutant.  It prints one row
per mutant: killed, with the first test that failed, or survived.

It exits 1 when an ``old`` text does not occur exactly once in its module
(so a refactor forces the list to be updated), when a mutant survives that
KEPT does not name, or when a mutant that KEPT names is killed.  To add a
mutant, append a row to MUTANTS; to keep a branch that no test can tell
apart, add its label to KEPT with the measured reason in one line.  The
script takes no options and writes nothing into the checkout.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# -v names each test as it finishes, so the first failure is named even when a
# plugin's report hook errors and pytest prints no summary.
TIER1 = [sys.executable, "-m", "pytest", "-x", "-v", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

MUTANTS = [
    # intervals
    ("intervals", "_normalize: keep pieces with hi < lo", "        if hi >= lo:\n            clipped.append", "        if True:\n            clipped.append"),
    ("intervals", "_normalize: no lower clip", "lo = max(float(lo), THETA_LO)", "lo = float(lo)"),
    ("intervals", "MERGE_TOL = 0", "MERGE_TOL = 1e-14", "MERGE_TOL = 0.0"),
    ("intervals", "_normalize: touching pieces stay apart", "if lo - last_hi <= MERGE_TOL:", "if lo - last_hi < 0.0:"),
    ("intervals", "_normalize: a nested piece cuts the union short", "            if hi > last_hi:\n", "            if True:\n"),
    ("intervals", "contains: no tolerance", "if lo - tol <= theta <= hi + tol:", "if lo <= theta <= hi:"),
    ("intervals", "intersect: advance the union that ends last", "if a[i][1] < b[j][1]:", "if a[i][1] > b[j][1]:"),
    # stats
    ("stats", "clopper_pearson: no pinned lower end at h = 0", "    if h == 0:\n        p_lo = 0.0", "    if False:\n        p_lo = 0.0"),
    ("stats", "clopper_pearson: no pinned upper end at h = m", "    if h == m:\n        p_hi = 1.0", "    if False:\n        p_hi = 1.0"),
    ("stats", "OrderTotals.add: a repeated order gets a second row", "rows[i + hit :]", "rows[i:]"),
    ("stats", "OrderTotals.add: a repeated order restarts its counts", "h, t = hs + h, tails + t", "h, t = h, t"),
    ("stats", "log_likelihood_terms: no zero-count guard", "t1 = np.where(hs[:, None] > 0, hs[:, None] * lp, 0.0)", "t1 = hs[:, None] * lp"),
    ("stats", "log_likelihood: no zero-success guard", "lp = h * log(abs(sin(x))) if h > 0.0 else 0.0", "lp = h * log(abs(sin(x)))"),
    ("stats", "log_likelihood: no zero-failure guard", "lq = t * log(abs(cos(x))) if t > 0.0 else 0.0", "lq = t * log(abs(cos(x)))"),
    ("stats", "log_likelihood_slopes: no zero-success guard on the score", "(h * c / s if h > 0.0 else 0.0)", "(h * c / s)"),
    ("stats", "log_likelihood_slopes: no zero-success guard on the curvature", "(h / (s * s) if h > 0.0 else 0.0)", "(h / (s * s))"),
    ("stats", "chord_mass: no zero-drop case", "/ drop if drop > 0.0 else 1.0", "/ drop"),
    # mliqae
    ("mliqae", "ControllerConfig: no MAX_BUDGET check", "if self.budget > MAX_BUDGET:", "if False:"),
    ("mliqae", "_concave_piece: no skip of an order with no singular angle", "        if first >= last:\n            continue", "        if False:\n            continue"),
    ("mliqae", "_concave_piece: a zero count is singular too", "if (t if j % 2 else h) == 0:", "if False:"),
    ("mliqae", "_concave_piece: no lower _CUT_NUDGE", "piece_lo = max(piece_lo, cut * (1.0 + _CUT_NUDGE))", "piece_lo = max(piece_lo, cut)"),
    ("mliqae", "_concave_piece: no upper _CUT_NUDGE", "piece_hi = min(piece_hi, cut * (1.0 - _CUT_NUDGE))", "piece_hi = min(piece_hi, cut)"),
    ("mliqae", "_concave_piece: no raise on a singular angle inside", "            else:\n                raise ValueError(f\"order", "            elif False:\n                raise ValueError(f\"order"),
    ("mliqae", "_concave_piece: no raise on an empty piece", "if piece_lo > piece_hi:", "if False:"),
    ("mliqae", "_newton_refine: edge checked at one step, not two", "<= 2.0 * abs(newton - th):", "<= 1.0 * abs(newton - th):"),
    ("mliqae", "_newton_refine: edge never checked", "if edge is not None and abs(edge - th)", "if False and abs(edge - th)"),
    ("mliqae", "_newton_refine: an edge with zero score is not the maximum", "if side * score_edge >= 0.0:", "if side * score_edge > 0.0:"),
    ("mliqae", "_newton_refine: no bisection fallback", "th = newton if lo < newton < hi else 0.5 * (lo + hi)", "th = newton"),
    ("mliqae", "_MLE_BRACKET = 0", "_MLE_BRACKET = 1e-10", "_MLE_BRACKET = 0.0"),
    ("mliqae", "update_feasible: a lower chord end at theta_hat takes a pass", "mass_lo = 1.0 if end_lo == theta else ", "mass_lo = "),
    ("mliqae", "update_feasible: an upper chord end at theta_hat takes a pass", "mass_hi = 1.0 if end_hi == theta else ", "mass_hi = "),
    ("mliqae", "update_feasible: no zero-chord case", "ll + math.log(chord) if chord > 0.0 else -math.inf", "ll + math.log(chord)"),
    ("mliqae", "update_feasible: residual-score terms up, down = 0", "up, down = max(score, 0.0), max(-score, 0.0)", "up, down = 0.0, 0.0"),
    ("mliqae", "update_feasible: new set not clipped to the old", "new_lo = max(lo, theta - 2.0 * (down + math.sqrt(down * down + slack)) / info)", "new_lo = theta - 2.0 * (down + math.sqrt(down * down + slack)) / info"),
    ("mliqae", "select_depth: no zero-width case", "    if hi > lo:\n", "    if True:\n"),
    ("mliqae", "select_shots: no _M_MIN floor", "max(_M_MIN, affordable // _HORIZON)", "affordable // _HORIZON"),
    ("mliqae", "run: the precision stop ignores epsilon_a = 0", "if cfg.epsilon_a > 0.0 and ", "if "),
    ("mliqae", "run: a_lo not pinned to 0 at THETA_LO", "a_lo = 0.0 if lo <= THETA_LO else math.sin(lo) ** 2", "a_lo = math.sin(lo) ** 2"),
    # input paths
    ("riskmodel", "var_threshold: no clamp to the last scenario", "order[min(idx, order.size - 1)]", "order[idx]"),
    ("stochfem", "read_ensemble: no blank-line skip", "                elif line:\n", "                else:\n"),
    ("stochfem", "checked: a bool passes", "if isinstance(value, bool) or not (ok", "if not (ok"),
    ("stochfem", "checked: no finiteness test", "numbers.Real) and _finite(value),", "numbers.Real),"),
    ("stochfem", "checked: the kind column is ignored", "    if kind is int:\n", "    if False:\n"),
    ("stochfem", "from_text: every setting is read as a float", "return _PARAM_RANGES[name][0](text)", "return float(text)"),
    ("stochfem", "known: never raises", "    if unknown:\n", "    if False:\n"),
    ("stochfem", "KernelModel: rank skips checked",
     '("length_scale_x", "length_scale_y", "sigma", "rank")', '("length_scale_x", "length_scale_y", "sigma")'),
    ("stochfem", "checked: an integer too large for a float is finite",
     "    except OverflowError:  # an integer too large for a float\n        return False",
     "    except OverflowError:  # an integer too large for a float\n        return True"),
    ("stochfem", "checked: a count has no ceiling", "lambda v: 1 <= v <= ceiling", "lambda v: 1 <= v"),
    ("stochfem", "checked: a line's ceiling is numpy's largest count, not its array's",
     "_count(_MAX_BYTES // 8 - 1)", "_count(_MAX_BYTES)"),
    ("stochfem", "checked: n_elems takes a line's ceiling, not its block of draws'",
     "_count(_MAX_BYTES // (8 * _BAR_BLOCK))", "_count(_MAX_BYTES // 8 - 1)"),
    ("stochfem", "checked: a square grid's side takes a line's ceiling",
     "_count(_SQUARE_SIDE)", "_count(_MAX_BYTES // 8 - 1)"),
    ("stochfem", "build_lbracket_mesh: a cell count has no range",
     "0.5 <= cells <= _SQUARE_SIDE and ", ""),
    # the plane-stress solve and the ensemble assembly
    ("stochfem", "_BandMap.solve: no info check", "        if info > 0:\n", "        if False:\n"),
    ("stochfem", "_BandMap.solve: the band is copied before it is factored", "lower=1, overwrite_ab=1)", "lower=1, overwrite_ab=0)"),
    ("stochfem", "_plane_blocks: the last block is not cut short",
     "block = min(_PLANE_BLOCK, n_scenarios - start)", "block = _PLANE_BLOCK"),
    ("stochfem", "_plane_blocks: the error names the block, not the scenario",
     "scenario {start + i}'s modulus field", "scenario {start}'s modulus field"),
    ("stochfem", "build_scenario_ensemble: every block is copied to the front",
     "responses[name][start : start + values.size] = values", "responses[name][: values.size] = values"),
    ("stochfem", "PlaneStressSolver.solve: no moduli check",
     'not positive definite.\n        """\n        moduli = _checked_moduli(moduli, self.mesh.n_elems)\n',
     'not positive definite.\n        """\n        moduli = np.asarray(moduli, dtype=float)\n'),
]

# Mutants no tier-1 test kills, each with the measured reason its branch stays.
KEPT = {
    "log_likelihood: no zero-failure guard": (
        "speed: it skips a log per row with no failures, 1.2-1.3 us per call against 1.5-1.8 without"
        " on saturated updates (69% of rows); the bits are the same"
    ),
    "_concave_piece: no skip of an order with no singular angle": (
        "speed: 0.9-1.2 us per call against 1.5-2.0 without, over 2,833 operating updates of 5.2 rows;"
        " the bits are the same"
    ),
    "_BandMap.solve: the band is copied before it is factored": (
        "speed: without it ?pbsv copies the band (323 KB on the default cantilever) on every call,"
        " 802 us against 770 us per call (medians of 7 x 200 calls, one thread); the bits are the same"
    ),
    "update_feasible: residual-score terms up, down = 0": (
        "the outer bound's derivation needs them; the bound -l'' >= info / 2 leaves a factor-2 margin"
        " that hides them (300 order-0 updates from the full domain)"
    ),
}


def tier1(tree: Path, timeout: float) -> tuple[str, float]:
    """Run tier-1 with -x on tree: ("" if it passed, else the first failing test), seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"timeout after {timeout:.0f} s", time.perf_counter() - start
    took = time.perf_counter() - start
    if proc.returncode == 0:
        return "", took
    # A test's own line ("tests/... FAILED"), else the summary's ("ERROR tests/... - ...").
    first = re.search(r"^(?:(tests/.+?) (?:FAILED|ERROR)\b|(?:FAILED|ERROR) (tests/.+?)(?: - |$))", proc.stdout, re.MULTILINE)
    return (first.group(1) or first.group(2) if first else f"exit code {proc.returncode}"), took


def main() -> int:
    problems = []
    sources = {}
    for module, label, old, new in MUTANTS:
        text = sources.setdefault(module, (ROOT / "src" / "tailamp" / f"{module}.py").read_text())
        if text.count(old) != 1:
            problems.append(f"{label}: its old text occurs {text.count(old)} times in {module}.py, not once")
    labels = [label for _, label, _, _ in MUTANTS]
    problems += [f"KEPT names no mutant: {label}" for label in KEPT if label not in labels]
    problems += [f"two mutants share the label {label}" for label in set(labels) if labels.count(label) > 1]
    if problems:
        for problem in problems:
            print(f"MUTATION GATE: {problem}")
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT, tree,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*", "out"),
        )
        failure, took = tier1(tree, timeout=600.0)
        if failure:
            print(f"MUTATION GATE: tier-1 fails on the unmutated copy: {failure}")
            return 1
        timeout = max(120.0, 5.0 * took)
        print(f"unmutated copy: tier-1 passed in {took:.1f} s; timeout per mutant {timeout:.0f} s")
        print("| Module | Mutant | Outcome | Seconds |")
        print("|---|---|---|---:|")
        for module, label, old, new in MUTANTS:
            path = tree / "src" / "tailamp" / f"{module}.py"
            path.write_text(sources[module].replace(old, new))
            try:
                failure, took = tier1(tree, timeout)
            finally:
                path.write_text(sources[module])
            if failure:
                outcome = f"killed: {failure}"
                if label in KEPT:
                    problems.append(f"{label} is killed ({failure}); drop its KEPT entry")
            elif label in KEPT:
                outcome = f"survived, kept: {KEPT[label]}"
            else:
                outcome = "SURVIVED"
                problems.append(f"{label} survives tier-1 and KEPT does not name it")
            print(f"| `{module}` | {label} | {outcome} | {took:.1f} |", flush=True)
    for problem in problems:
        print(f"MUTATION GATE: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
