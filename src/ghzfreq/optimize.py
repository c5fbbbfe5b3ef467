"""Interrogation-time optimization and strategy comparison.

The figure of merit throughout is F_omega(t)/t, the frequency information
per unit of total measurement time. For each strategy it is maximized over
t in two stages, both on the log-space closed form `fisher.log_qfi_phase`
evaluated over arrays of times:

  * a geometric scan of the whole window in one array call, which also
    certifies that the sampled profile rises to a single interior peak;
  * a bracketing search on the sign of d/dt log(F/t) between the scan
    points either side of the peak. Each step evaluates the slope at
    REFINE_POINTS interior points in one array call and keeps the
    sub-interval where it changes sign. The slope is analytic for the named
    models and a central difference of log(F/t) for custom ones.

The slope's sign stays resolvable down to a few ulps of the optimum, where a
value-based search stops at about sqrt(eps) because the profile is flat to
second order at the peak.

`sweep` packages the per-N results (optimal time, peak value, ratio against
the best uncorrelated scheme, and the readout saturation gap at the
optimum) into rows ready for tabulation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import NoiseModel
from .fisher import log_qfi_phase, qfi_ancilla_closed, qfi_ghz_closed, qfi_uncorrelated_closed
from .measurement import saturation_check
from .state import STRATEGIES, ProbeSpec, StrategyKind, check_ancillas

__all__ = [
    "StrategyKind",
    "SweepRow",
    "Table1Row",
    "maximize_f_over_t",
    "sensitivity_ratio",
    "sweep",
    "tabulated_f_over_t",
    "table1",
]

SCAN_POINTS = 200
# in units of 1/gamma; for the GHZ strategies the lower edge is also divided
# by N, since their optimum sits near 1/(N gamma)
SCAN_WINDOW = (1e-4, 1e2)
REFINE_POINTS = 64
REFINE_REL_WIDTH = 1e-8  # bracket width, relative, at which the slope is interpolated
_TINY = sys.float_info.min


@dataclass(frozen=True)
class SweepRow:
    n: int
    strategy: StrategyKind
    model: str
    gamma: float
    t_opt: float
    f_over_t_max: float
    ratio_r: float
    saturation_gap: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "strategy": self.strategy.value,
            "model": self.model,
            "gamma": self.gamma,
            "t_opt": self.t_opt,
            "f_over_t_max": self.f_over_t_max,
            "ratio_r": self.ratio_r,
            "saturation_gap": self.saturation_gap,
        }


@dataclass(frozen=True)
class Table1Row:
    model: str
    n: int
    gamma: float
    t: float
    f_ghz_over_t: float
    f_ancilla_over_t: float
    f_uncorrelated_over_t: float
    f_ghz_over_t_literal: float
    literal_mismatch: bool

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "gamma": self.gamma,
            "t": self.t,
            "f_ghz_over_t": self.f_ghz_over_t,
            "f_ancilla_over_t": self.f_ancilla_over_t,
            "f_uncorrelated_over_t": self.f_uncorrelated_over_t,
            "f_ghz_over_t_literal": self.f_ghz_over_t_literal,
            "literal_mismatch": self.literal_mismatch,
        }


def _objective(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel
) -> Callable[[np.ndarray], np.ndarray]:
    """F_omega/t = t * F_phase as a function of an array of times."""

    def f_over_t(t: np.ndarray) -> np.ndarray:
        return t * np.exp(log_qfi_phase(strategy, spec, model, t))

    return f_over_t


def _log_slope(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel,
    f: Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    """d/dt log(F/t) over an array of times.

    Analytic for the named models; for custom ones a central difference of
    log f with a relative step of 1e-6, both sides in one call of f.
    """
    if model.kind == "custom":
        def slope(t: np.ndarray) -> np.ndarray:
            h = 1e-6 * t
            with np.errstate(divide="ignore"):
                logs = np.log(f(np.concatenate([t - h, t + h])))
            return (logs[t.size:] - logs[: t.size]) / (2.0 * h)

        return slope

    def slope(t: np.ndarray) -> np.ndarray:
        return log_qfi_phase(strategy, spec, model, t, slope=True)[1] + 1.0 / t

    return slope


def _slope_root(slope: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Locate the sign change of a decreasing slope inside [a, b].

    Each step evaluates the slope at REFINE_POINTS evenly spaced interior
    points in one call and keeps the sub-interval ending at the first point
    where it is no longer positive. Once the bracket is narrower than
    REFINE_REL_WIDTH, the root is interpolated linearly between its ends.
    """
    points = np.linspace(a, b, REFINE_POINTS + 2)
    values = slope(points)
    if not (values[0] > 0.0 > values[-1]):
        raise ValueError(
            "the slope of log(F/t) does not change sign inside the scan bracket "
            f"[{a!r}, {b!r}] (slopes {values[0]!r}, {values[-1]!r})"
        )
    while True:
        i = int(np.argmax(values <= 0.0))
        a, b, s_a, s_b = points[i - 1], points[i], values[i - 1], values[i]
        if b - a <= REFINE_REL_WIDTH * b:
            return float(a + (b - a) * s_a / (s_a - s_b))
        points = np.linspace(a, b, REFINE_POINTS + 2)
        values = np.concatenate(([s_a], slope(points[1:-1]), [s_b]))


def maximize_f_over_t(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel
) -> tuple[float, float]:
    """Maximize F_omega(t)/t over the interrogation time.

    Returns (t_opt, f_over_t_max). The spec's ancilla count must fit the
    strategy. The scan takes SCAN_POINTS times across SCAN_WINDOW in units
    of 1/gamma, its lower edge divided by N for the correlated (GHZ)
    strategies; the sampled profile must rise strictly to a single interior
    peak and never rise again past it, otherwise a ValueError is raised
    rather than silently refining one of several candidate peaks. A
    ValueError is also raised when F/t is 0 at every scanned time (a probe
    without phase coherence, |c1 c2| = 0), and when the slope of log(F/t)
    does not change sign between the scan points either side of the peak.
    """
    if model.gamma <= 0:
        raise ValueError("time optimization needs gamma > 0; the noiseless profile is unbounded")
    check_ancillas(strategy, spec.n_ancillas)
    f = _objective(strategy, spec, model)
    lo, hi = SCAN_WINDOW[0] / model.gamma, SCAN_WINDOW[1] / model.gamma
    if STRATEGIES[strategy].correlated:
        lo /= spec.n_probes
    grid = np.geomspace(lo, hi, SCAN_POINTS)
    values = f(grid)
    if not np.any(values > 0.0):
        raise ValueError(
            "F/t is 0 at every scanned time: the probe has no phase coherence "
            "(|c1 c2|^2 is 0 in floating point), so there is no optimal time"
        )
    peak = int(np.argmax(values))
    if peak == 0 or peak == SCAN_POINTS - 1:
        raise ValueError(
            f"profile peaks at the scan boundary (index {peak}); "
            "the optimum lies outside SCAN_WINDOW"
        )
    diffs = np.diff(values)
    if not (np.all(diffs[:peak] > 0.0) and np.all(diffs[peak:] <= 0.0)):
        raise ValueError(
            "sampled profile is not unimodal over the scan window: "
            f"strategy={strategy.value} model={model.kind} n={spec.n_probes}"
        )
    slope = _log_slope(strategy, spec, model, f)
    t_opt = _slope_root(slope, float(grid[peak - 1]), float(grid[peak + 1]))
    return t_opt, float(f(t_opt))


def sensitivity_ratio(
    spec: ProbeSpec, model: NoiseModel, strategy: StrategyKind
) -> float:
    """R = max_t(F_uncorrelated/t) / max_t(F_strategy/t) at equal probe count."""
    if strategy is StrategyKind.UNCORRELATED:
        raise ValueError("compare a correlated strategy against the uncorrelated one")
    unc_spec = ProbeSpec(spec.c1, spec.c2, spec.n_probes)
    _, best_unc = maximize_f_over_t(StrategyKind.UNCORRELATED, unc_spec, model)
    _, best = maximize_f_over_t(strategy, spec, model)
    return best_unc / best


def sweep(
    model: NoiseModel,
    n_min: int,
    n_max: int,
    strategies: Sequence[StrategyKind] | None = None,
    c1: complex = 1.0 / math.sqrt(2.0),
) -> list[SweepRow]:
    """Optimal-time summary rows for N = n_min..n_max, one per strategy.

    Rows come out with N ascending and strategies in declaration order.
    Each probe carries its strategy's default ancilla count (the information
    does not depend on how many). The uncorrelated optimum is computed once,
    for one probe: its time does not depend on N and its F/t is N times the
    single-probe value. The saturation gap is evaluated at the optimal time
    with the corner readout; uncorrelated rows quote the single-probe gap
    since that strategy is measured qubit by qubit.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad probe range {n_min}..{n_max}")
    chosen = list(StrategyKind) if strategies is None else [
        s for s in StrategyKind if s in set(strategies)
    ]
    if not chosen:
        raise ValueError("no strategies selected")
    c2 = math.sqrt(1.0 - abs(c1) ** 2)
    single = ProbeSpec(c1, c2, 1)
    t_unc, best_single = maximize_f_over_t(StrategyKind.UNCORRELATED, single, model)
    if StrategyKind.UNCORRELATED in chosen:
        _, _, gap_unc = saturation_check(single, model, t_unc, omega=0.0)
    rows = []
    for n in range(n_min, n_max + 1):
        best_unc = n * best_single
        for strategy in chosen:
            if strategy is StrategyKind.UNCORRELATED:
                t_opt, best, ratio, gap = t_unc, best_unc, 1.0, gap_unc
            else:
                spec = ProbeSpec(c1, c2, n, STRATEGIES[strategy].default_ancillas)
                t_opt, best = maximize_f_over_t(strategy, spec, model)
                ratio = best_unc / best
                _, _, gap = saturation_check(spec, model, t_opt, omega=0.0)
            rows.append(SweepRow(
                n=n,
                strategy=strategy,
                model=model.kind,
                gamma=model.gamma,
                t_opt=t_opt,
                f_over_t_max=best,
                ratio_r=ratio,
                saturation_gap=gap,
            ))
    return rows


def tabulated_f_over_t(
    kind: str, strategy: StrategyKind, n: int, gamma: float, t: float
) -> float:
    """Evaluate the tabulated balanced-probe expression for F_omega/t.

    These are the formulas as usually quoted per noise model, assuming
    c1 = c2 = 1/sqrt(2), with g = exp(-gamma t):

        adc: 2 t N^2 g^N / (1 + g^N + (1-g)^N),  2 t N^2 g^N / (1 + g^N),  t N g
        dpc: 2 t N^2 g^2N / (((1+g)/2)^N + ((1-g)/2)^N),
             t N^2 g^2N / ((1+g)/2)^N,  t N g^2
        pdc: t N^2 g^2N for both GHZ strategies,  t N g^2

    for the free GHZ, ancilla and uncorrelated strategies. They are
    evaluated in log space, so deep decay gives the tiny value rather than 0;
    a ValueError is raised if even that is below the smallest normal double.
    For the dephasing model the quoted GHZ expression carries an extra
    factor of two relative to the closed form this package derives; `table1`
    flags the discrepancy instead of hiding it.
    """
    if n < 1:
        raise ValueError(f"need at least one probe, got {n}")
    if t < 0 or gamma < 0:
        raise ValueError("gamma and t must be nonnegative")
    if kind not in ("adc", "dpc", "pdc"):
        raise ValueError(f"no tabulated expressions for model kind {kind!r}")
    x = gamma * t
    log_t = math.log(t) if t > 0 else -math.inf
    log_1mg = math.log(-math.expm1(-x)) if x > 0 else -math.inf  # log(1 - g)
    ghz = 2.0 * math.log(n) + log_t
    if strategy is StrategyKind.UNCORRELATED:
        log_value = math.log(n) + log_t - (x if kind == "adc" else 2.0 * x)
    elif kind == "adc":
        denominator = np.logaddexp(0.0, -n * x)
        if strategy is StrategyKind.GHZ_FREE:
            denominator = np.logaddexp(denominator, n * log_1mg)
        log_value = math.log(2.0) + ghz - n * x - float(denominator)
    elif kind == "dpc":
        log_hi = n * math.log1p(0.5 * math.expm1(-x))  # N log((1 + g)/2)
        if strategy is StrategyKind.GHZ_FREE:
            denominator = np.logaddexp(log_hi, n * (log_1mg - math.log(2.0)))
            log_value = math.log(2.0) + ghz - 2.0 * n * x - float(denominator)
        else:
            log_value = ghz - 2.0 * n * x - log_hi
    else:
        log_value = ghz - 2.0 * n * x
    value = math.exp(log_value)
    if math.isfinite(log_value) and value < _TINY:
        raise ValueError(
            f"tabulated F/t underflows double precision (log F/t = {log_value:.6g})"
        )
    return value


def table1(model: NoiseModel, n: int, t: float) -> Table1Row:
    """Closed-form F_omega/t for all three strategies at one (N, t) point.

    Includes the tabulated GHZ expression alongside the derived one;
    `literal_mismatch` is set when the two disagree beyond rounding.
    """
    if t <= 0:
        raise ValueError(f"F/t needs t > 0, got {t}")
    spec_free = ProbeSpec.balanced(n, 0)
    spec_anc = ProbeSpec.balanced(n, 1)
    f_ghz = qfi_ghz_closed(spec_free, model, t).f_freq / t
    f_anc = qfi_ancilla_closed(spec_anc, model, t).f_freq / t
    f_unc = qfi_uncorrelated_closed(spec_free, model, t).f_freq / t
    literal = tabulated_f_over_t(model.kind, StrategyKind.GHZ_FREE, n, model.gamma, t)
    mismatch = abs(literal - f_ghz) > 1e-9 * max(abs(f_ghz), 1e-300)
    return Table1Row(
        model=model.kind,
        n=n,
        gamma=model.gamma,
        t=t,
        f_ghz_over_t=f_ghz,
        f_ancilla_over_t=f_anc,
        f_uncorrelated_over_t=f_unc,
        f_ghz_over_t_literal=literal,
        literal_mismatch=mismatch,
    )
