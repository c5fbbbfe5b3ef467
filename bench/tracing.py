"""Per-layer spans and counters, recorded by wrapping the package's functions.

`Tracer.install` wraps every public function of every `ghzfreq` module (the
names in each module's `__all__`) and replaces each reference to the
original in every loaded `ghzfreq` module, including module-level dicts and
tuples such as the CLI's model table. A name imported into several modules
(`qfi_ghz_closed` lives in fisher, optimize, measurement, verify, cli and the
package itself) is thus counted wherever it is called from. Nothing in the
program is edited; the wrappers live only in this process.

Each wrapped function belongs to a layer. A layer's self time is the time
inside its functions minus the time inside wrapped callees, so the self
times of all layers add up to the time spent inside the outermost wrapped
calls.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Tracer", "PER_LAYER_METRICS"]

MODULES = ("channel", "state", "fisher", "measurement", "optimize", "verify", "cli")

# functions with a layer of their own; other public functions of a module
# fall into "<module>.other"
NAMED_LAYERS = {
    "cli.run": "cli",
    "verify.run_verification": "verify",
    "optimize.maximize_f_over_t": "optimize.maximize",
    "measurement.saturation_check": "measurement.saturation",
    "fisher.qfi_ghz_closed": "fisher.closed",
    "fisher.qfi_ancilla_closed": "fisher.closed",
    "fisher.qfi_uncorrelated_closed": "fisher.closed",
    "fisher.qfi_sld_oracle": "fisher.sld",
    "state.evolve_directsum_free": "state.directsum",
    "state.evolve_directsum_ancilla": "state.directsum",
    "state.evolve_dense": "state.dense",
    "state.ghz_state": "state.dense",
    "channel.params_at": "channel.params_at",
    "channel.integrate_master_equation": "channel.rk4",
}

LAYERS = (
    "cli", "cli.other", "verify", "verify.other", "optimize.maximize", "optimize.other",
    "measurement.saturation", "measurement.other", "fisher.closed", "fisher.sld",
    "fisher.other", "state.directsum", "state.dense", "state.other", "channel.params_at",
    "channel.rk4", "channel.other",
)


def _self_metric(layer: str) -> str:
    return f"{layer}_self_ms" if "." in layer else f"{layer}.self_ms"


# (name, unit, better) of every metric `Tracer.metrics` reports
PER_LAYER_METRICS = (
    ("optimize.objective_evals_per_optimum", "count", "lower"),
    ("optimize.maximize_calls_per_row", "count", "lower"),
    ("fisher.closed_calls", "count", "lower"),
    ("fisher.sld_calls", "count", "lower"),
    ("channel.params_at_calls", "count", "lower"),
    ("channel.rk4_calls", "count", "lower"),
    ("measurement.observables_per_check", "count", "lower"),
    ("state.residual_entries", "count", "lower"),
    *((_self_metric(layer), "ms", "lower") for layer in LAYERS),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.untraced_wall_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.root_s = 0.0
        self._stack: list[float] = []  # time spent in wrapped children, per open span

    def _span(self, layer: str, fn, on_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                self.self_s[layer] += duration - children
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_rows(self, rows) -> None:
        self.counts["sweep_rows"] += len(rows)

    def _count_residual(self, state) -> None:
        self.counts["residual_entries"] += len(state.residual)

    def _counting_objective(self, make_objective):
        @functools.wraps(make_objective)
        def wrapper(*args, **kwargs):
            objective = make_objective(*args, **kwargs)

            def counted(t):
                self.counts["objective_evals"] += 1
                return objective(t)

            return counted

        return wrapper

    def _counting_observable(self, cls):
        tracer = self

        class CountedObservable(cls):
            def __post_init__(self) -> None:
                tracer.counts["observables"] += 1
                super().__post_init__()

        return CountedObservable

    def install(self) -> None:
        """Wrap the package in this process; call after importing ghzfreq.cli."""
        hooks = {
            "optimize.sweep": self._count_rows,
            "state.evolve_directsum_free": self._count_residual,
            "state.evolve_directsum_ancilla": self._count_residual,
        }
        replace: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = sys.modules[f"ghzfreq.{short}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    key = f"{short}.{name}"
                    layer = NAMED_LAYERS.get(key, f"{short}.other")
                    replace[id(fn)] = (fn, self._span(layer, fn, hooks.get(key)))
        optimize = sys.modules["ghzfreq.optimize"]
        replace[id(optimize._objective)] = (
            optimize._objective, self._counting_objective(optimize._objective))
        measurement = sys.modules["ghzfreq.measurement"]
        replace[id(measurement.GhzObservable)] = (
            measurement.GhzObservable, self._counting_observable(measurement.GhzObservable))

        def swap(value):
            entry = replace.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else value

        packages = [m for name, m in sys.modules.items()
                    if name == "ghzfreq" or name.startswith("ghzfreq.")]
        for module in packages:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for k, v in value.items():
                        value[k] = swap(v)
                elif isinstance(value, tuple) and any(id(v) in replace for v in value):
                    setattr(module, attr, tuple(swap(v) for v in value))
                else:
                    setattr(module, attr, swap(value))
        originals = {id(fn) for fn, _ in replace.values()}
        for module in packages:
            for attr, value in vars(module).items():
                if attr.startswith("__"):
                    continue
                values = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, tuple) else (value,))
                if any(id(v) in originals for v in values):
                    raise RuntimeError(f"{module.__name__}.{attr} still holds an unwrapped function")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a traced run that took wall_s, except the
        untraced wall time and the overhead, which need a second run."""

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        maximize = self.calls["optimize.maximize"]
        out = {
            "optimize.objective_evals_per_optimum": ratio(self.counts["objective_evals"], maximize),
            "optimize.maximize_calls_per_row": ratio(maximize, self.counts["sweep_rows"]),
            "fisher.closed_calls": self.calls["fisher.closed"],
            "fisher.sld_calls": self.calls["fisher.sld"],
            "channel.params_at_calls": self.calls["channel.params_at"],
            "channel.rk4_calls": self.calls["channel.rk4"],
            "measurement.observables_per_check": ratio(
                self.counts["observables"], self.calls["measurement.saturation"]),
            "state.residual_entries": self.counts["residual_entries"],
        }
        for layer in LAYERS:
            out[_self_metric(layer)] = 1e3 * self.self_s[layer]
        out["trace.unattributed_ms"] = 1e3 * (wall_s - self.root_s)
        out["trace.wall_ms"] = 1e3 * wall_s
        return out

    def accounting_problems(self, wall_s: float) -> list[str]:
        """Self times plus the unattributed remainder must make up the wall time."""
        total_self = sum(self.self_s.values())
        unattributed = wall_s - self.root_s
        problems = []
        if unattributed < 0.0:
            problems.append(f"spans cover {self.root_s:.6f} s of a {wall_s:.6f} s run")
        if abs(total_self + unattributed - wall_s) > 1e-6 * wall_s + 1e-9:
            problems.append(
                f"self times {total_self:.6f} s + unattributed {unattributed:.6f} s "
                f"!= wall {wall_s:.6f} s")
        return problems
