"""Span tracing around the calls between `sympulse`'s modules.

`Tracer.install()` replaces each function at the name its caller looks it up
by with a wrapper that records one span (id, parent id, name, start, end)
per call, and reads the counts it needs from the returned records.  The
package itself is not modified; `uninstall()` puts the originals back.
Spans stay in memory until `write()`.

A span's self time is its duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import statistics
import time
from collections import defaultdict

# (module, attribute, span name): the names the callers look the functions up
# by.  The span name is the layer that owns the called function.  The
# workloads call `cli.run` and `experiments.reference_state` through their
# modules too, so those calls are spans of their own.
TARGETS = (
    ("sympulse.cli", "run", "cli.run"),
    ("sympulse.experiments", "reference_state", "experiments.reference_state"),
    ("sympulse.conserve", "step", "stepper.step"),
    ("sympulse.conserve", "butcher", "tableau.butcher"),
    ("sympulse.conserve", "energy_defect", "conserve.energy_defect"),
    ("sympulse.experiments", "step", "stepper.step"),
    ("sympulse.experiments", "butcher", "tableau.butcher"),
    ("sympulse.experiments", "solve_alpha", "conserve.solve_alpha"),
    ("sympulse.experiments", "integrate", "experiments.integrate"),
    ("sympulse.cli", "integrate", "experiments.integrate"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.step_iters = []
        self.unconverged = 0
        self.g_evals = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved = []

    def wrap(self, name, fn, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_step(self, result):
        self.step_iters.append(result.iterations)
        if not result.converged:
            self.unconverged += 1

    def _observe_solve(self, record):
        self.g_evals.append(record.g_evals)

    def install(self):
        observers = {
            "stepper.step": self._observe_step,
            "conserve.solve_alpha": self._observe_solve,
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr), observers.get(name)))

        problems = importlib.import_module("sympulse.problems")
        cls = problems.HamiltonianSystem
        self._patch(cls, "vector_field", self.wrap("problems.vector_field", cls.vector_field))
        # `energy` is a field of each system instance, built afresh by every
        # `get_problem` call, so the factories hand out systems whose energy
        # is wrapped
        for key, factory in list(problems.PROBLEMS.items()):
            problems.PROBLEMS[key] = self._energy_factory(factory)
            self._saved.append((problems.PROBLEMS, key, factory, True))

    def _energy_factory(self, factory):
        def make(*args, **kwargs):
            system, ic = factory(*args, **kwargs)
            energy = self.wrap("problems.energy", system.energy)
            return dataclasses.replace(system, energy=energy), ic

        return make

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, key, original, is_item = self._saved.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self):
        """Per span name: (calls, self seconds)."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            child[parent] += end - start
        calls, own = defaultdict(int), defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            own[name] += end - start - child[sid]
        return calls, own

    def children_of(self, parent_name, child_name):
        ids = {sid for sid, _p, name, _s, _e in self.spans if name == parent_name}
        return sum(1 for _sid, p, name, _s, _e in self.spans if name == child_name and p in ids)

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end in self.spans:
                handle.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def layer_metrics(tracer, steps):
    """Per-layer metrics of one traced execution of a workload.  `steps` is
    the number of accepted integration steps it made."""
    calls, own = tracer.totals()
    evals = sum(tracer.g_evals)
    roots = len(tracer.g_evals)
    n_step = calls["stepper.step"]
    n_vf = calls["problems.vector_field"]
    return {
        "conserve.defect_evals_per_step": evals / steps if steps else 0.0,
        "conserve.defect_evals_max": max(tracer.g_evals, default=0),
        "conserve.roots_per_eval": roots / evals if evals else 0.0,
        "conserve.solve_alpha_s": own["conserve.solve_alpha"],
        "conserve.energy_defect_s": own["conserve.energy_defect"],
        "stepper.step_calls": n_step,
        "stepper.step_calls_per_step": n_step / steps if steps else 0.0,
        "stepper.step_s": own["stepper.step"],
        "stepper.stage_iters_per_solve": (
            statistics.fmean(tracer.step_iters) if tracer.step_iters else 0.0
        ),
        "stepper.unconverged": tracer.unconverged,
        "problems.vector_field_calls": n_vf,
        "problems.vector_field_s": own["problems.vector_field"],
        "problems.vector_field_us_per_call": (
            1e6 * own["problems.vector_field"] / n_vf if n_vf else 0.0
        ),
        "problems.energy_calls": calls["problems.energy"],
        "problems.energy_s": own["problems.energy"],
        "tableau.butcher_calls": calls["tableau.butcher"],
        "tableau.butcher_s": own["tableau.butcher"],
        "experiments.integrate_calls": calls["experiments.integrate"],
        "experiments.integrate_s": own["experiments.integrate"],
        "experiments.reference_levels": tracer.children_of(
            "experiments.reference_state", "experiments.integrate"
        ),
        "cli.run_s": own["cli.run"],
    }
