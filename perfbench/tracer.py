"""Per-layer tracing by wrapping the public names the lab's modules call.

The program is not edited: while a ``Tracer`` is installed, each target
function is replaced, in every ``cornerimpact`` module that looks it up by
name, by a wrapper that records a span (name, parent, start, end) or only
counts the call.  Leaving the ``with`` block restores every attribute.

Spans of one op share its op id and are aggregated when the op ends, so
memory does not grow with the run.  A span's self time is its duration
minus its child spans; a module is busy while any of its spans is open.
Metric names use ``kernels`` for the ``_kernels`` module, because a name
must start with a letter.  A metric whose target name no longer exists in
the program is reported as None (null), not 0.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cornerimpact"
ALIAS = {"_kernels": "kernels"}


def _integrate_corner_done(tracer, args, kwargs, res):
    tracer.counts["corner_phase.steps_accepted"] += res.n_accepted
    tracer.counts["corner_phase.steps_rejected"] += res.n_rejected
    tau_eval = kwargs.get("tau_eval")
    tracer.counts["corner_phase.eval_points"] += (
        0 if tau_eval is None else len(tau_eval))
    if tracer.parent_name() == "harness.simulate_full":
        extra = 0 if res.eval_tau is None else len(res.eval_tau)
        tracer.counts["harness.corner_produced"] += len(res.tau) + extra


def _simulate_full_done(tracer, args, kwargs, traj):
    tracer.counts["harness.corner_kept"] += \
        traj.metadata["phase_counts"]["corner"]


def _write_csv_done(tracer, args, kwargs, _):
    data = args[0] if args else kwargs["data"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    column = data.t if hasattr(data, "t") else next(iter(data.values()))
    tracer.counts["harness.write_csv.rows"] += len(column)
    tracer.counts["harness.write_csv.bytes"] += os.path.getsize(path)


def _oracle_done(tracer, args, kwargs, run):
    tracer.counts["corner_phase.oracle.steps"] += len(run.t) - 1


# (module, name, kind, own, hook): the names other modules call.  "span"
# times each call; "count" only counts it, for functions too hot for a
# span.  own=True also patches the defining module, for the callers that
# live inside it.
TARGETS = [
    ("cli", "main", "span", True, None),
    ("config", "load_config", "span", False, None),
    ("config", "SimConfig.override", "span", False, None),
    ("config", "SimConfig.validated", "span", False, None),
    ("harness", "simulate_full", "span", True, _simulate_full_done),
    ("harness", "convergence_study", "span", False, None),
    ("harness", "asymptotic_report", "span", False, None),
    ("harness", "phase_portrait", "span", False, None),
    ("harness", "write_csv", "span", False, _write_csv_done),
    ("corner_phase", "integrate_corner", "span", False,
     _integrate_corner_done),
    ("corner_phase", "oracle_fast_time_integration", "span", False,
     _oracle_done),
    ("corner_phase", "radial_rhs", "count", False, None),
    ("_kernels", "integrate_radial", "span", False, None),
    ("_kernels", "_rhs", "count", True, None),
    ("_kernels", "_substep", "count", True, None),
    ("scaling", "scaled_params_from_physical", "span", False, None),
    ("scaling", "scaled_params_direct", "span", False, None),
] + [("linear_phase", name, "span", False, None) for name in (
    "characteristic_roots", "first_crossing_time", "r1_phase_state",
    "face_phase_state", "kernels_K2_H2", "kernel_K2_dot")
] + [("asymptotics", name, "span", False, None) for name in (
    "asymptotic_times", "critical_point", "exit_equivalents",
    "first_asymptotic_R1", "first_asymptotic_dR1", "second_asymptotic_R2")
] + [("moreau", "limit_trajectory", "span", False, None)
] + [("geometry", name, "span", False, None) for name in (
    "project_onto_cone", "damping_force_G", "pi1", "tangent_cone_project")]


def span_name(module: str, name: str) -> str:
    return f"{ALIAS.get(module, module)}.{name}"


class Tracer:
    """Installs the wrappers; collects spans and counters per op."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: set[str] = set()
        self.labels: set[str] = set()         # installed wrappers
        self.counts: Counter = Counter()
        self.incl: Counter = Counter()        # span name -> total duration
        self.self_time: Counter = Counter()   # span name -> self time
        self.mod_busy: Counter = Counter()    # module -> busy time
        self.mod_self: Counter = Counter()    # module -> self time
        self.mod_calls: Counter = Counter()   # module -> outermost spans
        self.n_ops = 0
        self.op_id = None                     # op whose spans are open
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[list] = []          # [name, parent, start, end]
        self._stack: list[int] = []

    # -- installation -------------------------------------------------
    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, name, kind, own, hook in self.targets:
            label = span_name(module, name)
            defining = sys.modules.get(f"{PACKAGE}.{module}")
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(defining, owner_name, None) if owner_name \
                else defining
            original = None if owner is None else vars(owner).get(attr)
            # Compiled kernels (numba) are not plain functions: calls made
            # from compiled code would bypass a wrapper, so report null.
            if not inspect.isfunction(original):
                self.missing.add(label)
                continue
            self.labels.add(label)
            if kind == "count":
                wrapper = self._counter(label, original)
            else:
                wrapper = self._span(label, original, hook)
            if owner_name:
                owners = [owner]
            else:
                owners = [m for m in modules if vars(m).get(attr) is original
                          and (own or m is not defining)]
            for target in owners:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def _counter(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, label, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    # -- spans ----------------------------------------------------------
    def _open(self, label: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([label, parent, time.perf_counter(), 0.0])
        self._stack.append(len(self._spans) - 1)

    def _close(self) -> None:
        self._spans[self._stack.pop()][3] = time.perf_counter()

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self._spans[self._stack[-1]][0] if self._stack else None

    def begin_op(self, op_id: int) -> None:
        self._spans = []
        self._stack = []
        self.op_id = op_id
        self._open("op")

    def end_op(self) -> None:
        """Close the op span and fold its spans into the totals."""
        self._close()
        spans = self._spans
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (label, parent, start, end) in enumerate(spans):
            dur = end - start
            module = label.split(".", 1)[0]
            self.incl[label] += dur
            self.self_time[label] += dur - child[i]
            self.mod_self[module] += dur - child[i]
            while parent >= 0 and \
                    not spans[parent][0].startswith(module + "."):
                parent = spans[parent][1]
            if parent < 0:
                self.mod_busy[module] += dur
                self.mod_calls[module] += 1
        self.n_ops += 1
        self._spans = []

    # -- metrics ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float | None]:
        """Per-op layer metrics over all ops traced so far."""
        n = max(self.n_ops, 1)
        c, ms = self.counts, 1e3 / n
        op_time = self.incl["op"]

        def share(label):
            return 100.0 * self.incl[label] / op_time if op_time else None

        def ratio(num, den):
            return num / den if den else None

        acc = c["corner_phase.steps_accepted"]
        rej = c["corner_phase.steps_rejected"]
        values = {
            "kernels.integrate_radial.busy_ms":
                self.incl["kernels.integrate_radial"] * ms,
            "kernels.substep_calls": c["kernels._substep"] / n,
            "kernels.rhs_evals": c["kernels._rhs"] / n,
            "kernels.rhs_per_accepted_step": ratio(c["kernels._rhs"], acc),
            "kernels.share_pct": share("kernels.integrate_radial"),
            "corner_phase.steps_accepted": acc / n,
            "corner_phase.steps_rejected": rej / n,
            "corner_phase.accept_ratio": ratio(acc, acc + rej),
            "corner_phase.integrate_corner.self_ms":
                self.self_time["corner_phase.integrate_corner"] * ms,
            "corner_phase.eval_points": c["corner_phase.eval_points"] / n,
            "corner_phase.radial_rhs.calls":
                c["corner_phase.radial_rhs"] / n,
            "corner_phase.oracle.busy_ms":
                self.incl["corner_phase.oracle_fast_time_integration"] * ms,
            "corner_phase.oracle.steps": c["corner_phase.oracle.steps"] / n,
            "corner_phase.oracle.share_pct":
                share("corner_phase.oracle_fast_time_integration"),
            "harness.self_ms": self.mod_self["harness"] * ms,
            "harness.corner_kept_ratio": ratio(
                c["harness.corner_kept"], c["harness.corner_produced"]),
            "harness.write_csv.busy_ms": self.incl["harness.write_csv"] * ms,
            "harness.write_csv.rows": c["harness.write_csv.rows"] / n,
            "harness.write_csv.bytes": c["harness.write_csv.bytes"] / n,
            "harness.phase_portrait.busy_ms":
                self.incl["harness.phase_portrait"] * ms,
            "geometry.calls": self.mod_calls["geometry"] / n,
            "geometry.busy_ms": self.mod_busy["geometry"] * ms,
            "linear_phase.busy_ms": self.mod_busy["linear_phase"] * ms,
            "moreau.busy_ms": self.mod_busy["moreau"] * ms,
            "scaling.busy_ms": self.mod_busy["scaling"] * ms,
            "asymptotics.busy_ms": self.mod_busy["asymptotics"] * ms,
            "config.busy_ms": self.mod_busy["config"] * ms,
            "cli.self_ms": self.mod_self["cli"] * ms,
        }
        traced_modules = {label.split(".", 1)[0] for label in self.labels}
        for metric in values:
            gone = metric.split(".", 1)[0] not in traced_modules or any(
                dep in self.missing for dep in DEPENDS[metric])
            if gone:
                values[metric] = None
        return values


# The wrapped names each metric is measured through.
DEPENDS = defaultdict(tuple, {
    "kernels.integrate_radial.busy_ms": ("kernels.integrate_radial",),
    "kernels.substep_calls": ("kernels._substep",),
    "kernels.rhs_evals": ("kernels._rhs",),
    "kernels.rhs_per_accepted_step": ("kernels._rhs",
                                      "corner_phase.integrate_corner"),
    "kernels.share_pct": ("kernels.integrate_radial",),
    "corner_phase.steps_accepted": ("corner_phase.integrate_corner",),
    "corner_phase.steps_rejected": ("corner_phase.integrate_corner",),
    "corner_phase.accept_ratio": ("corner_phase.integrate_corner",),
    "corner_phase.integrate_corner.self_ms":
        ("corner_phase.integrate_corner",),
    "corner_phase.eval_points": ("corner_phase.integrate_corner",),
    "corner_phase.radial_rhs.calls": ("corner_phase.radial_rhs",),
    "corner_phase.oracle.busy_ms":
        ("corner_phase.oracle_fast_time_integration",),
    "corner_phase.oracle.steps":
        ("corner_phase.oracle_fast_time_integration",),
    "corner_phase.oracle.share_pct":
        ("corner_phase.oracle_fast_time_integration",),
    "harness.corner_kept_ratio": ("harness.simulate_full",
                                  "corner_phase.integrate_corner"),
    "harness.write_csv.busy_ms": ("harness.write_csv",),
    "harness.write_csv.rows": ("harness.write_csv",),
    "harness.write_csv.bytes": ("harness.write_csv",),
    "harness.phase_portrait.busy_ms": ("harness.phase_portrait",),
    "cli.self_ms": ("cli.main",),
})

# (name, unit, better) of every per-layer metric, in report order; the
# last four come from the benchmark's own timing of the trace block.
LAYER_METRICS = [
    ("kernels.integrate_radial.busy_ms", "ms/op", "lower"),
    ("kernels.substep_calls", "count/op", "lower"),
    ("kernels.rhs_evals", "count/op", "lower"),
    ("kernels.rhs_per_accepted_step", "ratio", "lower"),
    ("kernels.share_pct", "%", "lower"),
    ("corner_phase.steps_accepted", "count/op", "lower"),
    ("corner_phase.steps_rejected", "count/op", "lower"),
    ("corner_phase.accept_ratio", "ratio", "higher"),
    ("corner_phase.integrate_corner.self_ms", "ms/op", "lower"),
    ("corner_phase.eval_points", "count/op", "lower"),
    ("corner_phase.radial_rhs.calls", "count/op", "lower"),
    ("corner_phase.oracle.busy_ms", "ms/op", "lower"),
    ("corner_phase.oracle.steps", "count/op", "lower"),
    ("corner_phase.oracle.share_pct", "%", "lower"),
    ("harness.self_ms", "ms/op", "lower"),
    ("harness.corner_kept_ratio", "ratio", "higher"),
    ("harness.write_csv.busy_ms", "ms/op", "lower"),
    ("harness.write_csv.rows", "count/op", "lower"),
    ("harness.write_csv.bytes", "B/op", "lower"),
    ("harness.phase_portrait.busy_ms", "ms/op", "lower"),
    ("geometry.calls", "count/op", "lower"),
    ("geometry.busy_ms", "ms/op", "lower"),
    ("linear_phase.busy_ms", "ms/op", "lower"),
    ("moreau.busy_ms", "ms/op", "lower"),
    ("scaling.busy_ms", "ms/op", "lower"),
    ("asymptotics.busy_ms", "ms/op", "lower"),
    ("config.busy_ms", "ms/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("op.untraced_ms_p50", "ms", "lower"),
    ("op.traced_ms_p50", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("op.traced_count", "count", "higher"),
]
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
