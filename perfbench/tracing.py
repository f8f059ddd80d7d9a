"""Per-layer tracing of tailamp from outside the package.

The tracer replaces public functions of the tailamp modules with timing
wrappers while it is installed, and puts the originals back when it is
removed.  A function is patched at every place it is looked up: on its
defining module or class, and on every other tailamp module that bound the
same object with ``from ... import`` (``mliqae`` does this for
``clopper_pearson``, ``log_likelihood_terms``, ``log_likelihood``,
``theta_preimage`` and ``sample_shots``).

Each call becomes a span (name, start, end, parent span, run id), kept in
memory and written out by ``write_spans`` at the end.  Counters are taken at
the same boundaries.  Spans recorded while ``run_id`` is ``SETUP`` belong to
input generation; all others belong to timed runs.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

SETUP = "setup"


def _cells(args, kwargs, result, scratch):
    theta, omega = args[0], args[1]
    return {"stats.log_likelihood_terms.cells": len(omega) * len(theta)}


def _bands(args, kwargs, result, scratch):
    return {"intervals.theta_preimage.bands": 2 * args[0] + 2}


def _gate_count(args, kwargs, result, scratch):
    scratch["gates"] = len(result)
    return None


def _grover(args, kwargs, result, scratch):
    k = kwargs.get("k", args[2] if len(args) > 2 else 1)
    # apply_grover applies the gate list and its adjoint once per iterate.
    return {"qsim.grover_iterates": k, "qsim.gates_applied": 2 * k * scratch.pop("gates", 0)}


def _mc_samples(args, kwargs, result, scratch):
    return {"riskmodel.mc_samples": args[2]}


# (module, attribute path, counter).  The layer is the module name.
TRACED = (
    ("cli", "estimate_once", None),
    ("mliqae", "run", None),
    ("mliqae", "constrained_mle", None),
    ("mliqae", "update_feasible", None),
    ("mliqae", "select_depth", None),
    ("mliqae", "select_shots", None),
    ("stats", "log_likelihood_terms", _cells),
    ("stats", "log_likelihood", None),
    ("stats", "clopper_pearson", None),
    ("intervals", "theta_preimage", _bands),
    ("intervals", "IntervalUnion.intersect", None),
    ("qsim", "AnalyticOracle.success_probability", None),
    ("qsim", "StatevectorOracle.success_probability", None),
    ("qsim", "apply_grover", _grover),
    ("qsim", "oracle_gates", _gate_count),
    ("qsim", "success_probability", None),
    ("qsim", "sample_shots", None),
    ("riskmodel", "var_threshold", None),
    ("riskmodel", "normalize_hinge", None),
    ("riskmodel", "discrete_cvar", None),
    ("riskmodel", "cvar_from_amplitude", None),
    ("riskmodel", "mc_estimate_cvar", _mc_samples),
    ("riskmodel", "to_oracle_spec", None),
    ("stochfem", "build_scenario_ensemble", None),
    ("stochfem", "PlaneStressSolver.solve", None),
    ("stochfem", "solve_bar_1d", None),
    ("stochfem", "write_ensemble", None),
    ("stochfem", "read_ensemble", None),
)

LAYERS = ("cli", "mliqae", "stats", "intervals", "qsim", "riskmodel", "stochfem")
COUNTERS = (
    "stats.log_likelihood_terms.cells",
    "intervals.theta_preimage.bands",
    "qsim.grover_iterates",
    "qsim.gates_applied",
    "riskmodel.mc_samples",
)


def metric_names() -> set:
    """Every name ``Tracer.totals`` can produce."""
    names = set(COUNTERS) | {f"{layer}.self_s" for layer in LAYERS}
    for module, path, _ in TRACED:
        names |= {f"{module}.{path}.calls", f"{module}.{path}.s"}
    return names


def _package_modules():
    return {name: mod for name, mod in sys.modules.items() if name.startswith("tailamp.")}


class Tracer:
    """Install with ``with Tracer() as tr:``; set ``tr.run_id`` per run."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, run id)
        self.counts: list = []         # (run id, counter name, value)
        self.run_id = SETUP
        self._stack: list[int] = []
        self._scratch: dict = {}
        self._patched: list = []       # (owner, attribute, original) still installed
        self.leaked = 0                # places that did not get their original back

    # -- installing -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        import tailamp.cli  # noqa: F401  (loads every module the tracer patches)

        modules = _package_modules()
        try:
            for module, path, counter in TRACED:
                mod = modules.get(f"tailamp.{module}")
                owner_path, _, attr = path.rpartition(".")
                owner = mod
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue  # gone from the program: reported as zero calls
                wrapper = self._wrap(f"{module}.{path}", original, counter)
                self._patch(owner, attr, original, wrapper)
                if owner is mod:
                    for other in modules.values():
                        if other is not mod and getattr(other, attr, None) is original:
                            self._patch(other, attr, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        sites = self._patched[:]
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.leaked += sum(getattr(owner, attr) is not original for owner, attr, original in sites)

    def restored(self) -> bool:
        """Whether every place patched so far got its original object back."""
        return not self._patched and self.leaked == 0

    def _wrap(self, name, fn, counter):
        spans, stack, counts, scratch = self.spans, self._stack, self.counts, self._scratch
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counter is not None:
                extra = counter(args, kwargs, result, scratch)
                for key, value in (extra or {}).items():
                    counts.append((self.run_id, key, value))
            return result

        return traced

    # -- reporting --------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Sums per metric name, split into (set-up bucket, run bucket).

        Names are ``<function>.calls``, ``<function>.s``, ``<layer>.self_s``
        and the counter names.  A span's self time is its duration minus the
        durations of its direct children.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        setup, runs = defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, run_id) in enumerate(self.spans):
            bucket = setup if run_id == SETUP else runs
            bucket[f"{name}.calls"] += 1
            bucket[f"{name}.s"] += end - start
            bucket[f"{name.split('.')[0]}.self_s"] += end - start - child[idx]
        for run_id, key, value in self.counts:
            (setup if run_id == SETUP else runs)[key] += value
        return setup, runs

    def write_spans(self, path) -> None:
        """One JSON object per span, in call order, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )
