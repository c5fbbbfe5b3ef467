"""Interrogation-time optimization and strategy comparison.

The figure of merit throughout is F_omega(t)/t, the frequency information
per unit of total measurement time. It is maximized over t for a batch of
rows at once, a row being one (strategy, probe) pair under one noise model.
Every step evaluates the log-space closed form (`fisher._log_f_phase`) for
all rows in one array call, N and the amplitudes as (rows, 1) columns
against a (rows, points) array of times. The GHZ strategies share a batch:
their block terms are joined and a row gives a term its strategy lacks the
log weight -inf. Two stages:

  * a geometric scan of the whole window, one (rows, SCAN_POINTS) call,
    which also certifies that each row's sampled profile rises to a single
    interior peak;
  * a bracketing search on the sign of d/dt log(F/t) between the scan
    points either side of each row's peak. Each step evaluates the slope at
    REFINE_POINTS interior points of every bracket still open in one call
    and keeps, per row, the sub-interval where it changes sign. The slope is
    analytic for the named models and a central difference of log(F/t) for
    custom ones.

A row is frozen once its bracket is narrow enough and is evaluated no more,
so its result is the same to the bit whichever rows share its batch;
`maximize_f_over_t` is the one-row batch. A failed check names the row's
strategy and N. The slope's sign stays resolvable down to a few ulps of the
optimum, where a value-based search stops at about sqrt(eps) because the
profile is flat to second order at the peak.

`sweep` optimizes its GHZ rows in batches of at most BATCH_ROWS, so memory
does not grow with the probe range, and packages the per-N results
(optimal time, peak value, ratio against the best uncorrelated scheme, and
the readout saturation gap at the optimum) into rows ready for tabulation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import NoiseModel, _FloatMath
from .fisher import _log_f_phase, qfi_closed
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
_SCAN_STEPS = np.arange(float(SCAN_POINTS))
_REFINE_STEPS = np.arange(1.0, REFINE_POINTS + 1)
# rows that `sweep` optimizes in one batch. About ten (BATCH_ROWS, SCAN_POINTS)
# arrays of 51 kB are alive at once during the scan. A larger batch makes
# fewer numpy calls per row: the 60 rows of `sweep --n 1:30` ran about 8%
# faster as one batch, with 0.5 MB more peak memory.
BATCH_ROWS = 32
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
        return {**vars(self), "strategy": self.strategy.value}


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
        return dict(vars(self))


def _probe_table(rows: Sequence[tuple[StrategyKind, ProbeSpec]], terms) -> np.ndarray:
    """One column per row holding |c1|^2, |c2|^2, the log weight of each of
    `terms` and N. A term the row's strategy lacks gets the log weight -inf,
    which drops it from the logsumexp of the block trace."""
    table = []
    for kind, spec in rows:
        own = STRATEGIES[kind].block_terms
        w = (abs(spec.c1) ** 2, abs(spec.c2) ** 2)
        log_w = (_FloatMath.log(w[0]), _FloatMath.log(w[1]))
        table.append([*w, *(log_w[t[0]] if t in own else -math.inf for t in terms), spec.n_probes])
    return np.array(table, dtype=float).T.copy()


def _probe(table: np.ndarray):
    """The (w, log_w, n) arguments of `fisher._log_f_phase` for the rows of
    `table`: (rows, 1) columns, or floats for a single row, which numpy
    broadcasts against its (1, points) times more cheaply and to the same bits."""
    if table.shape[1] == 1:
        columns = table[:, 0].tolist()
    else:
        columns = [row[:, None] for row in table]
    return tuple(columns[:2]), tuple(columns[2:-1]), columns[-1]


def _objective(
    terms, table: np.ndarray, model: NoiseModel
) -> Callable[[np.ndarray], np.ndarray]:
    """F_omega/t = t * F_phase of each row of `table` over a (rows, points) array of times."""
    probe = _probe(table)

    def f_over_t(t: np.ndarray) -> np.ndarray:
        return t * np.exp(_log_f_phase(terms, *probe, model, t, np, False)[0])

    return f_over_t


def _log_slope(
    terms, table: np.ndarray, model: NoiseModel
) -> Callable[[np.ndarray], np.ndarray]:
    """d/dt log(F/t) of each row of `table` over a (rows, points) array of times.

    Analytic for the named models; for custom ones a central difference of
    log(F/t) with a relative step of 1e-6, both sides in one objective call.
    """
    if model.kind == "custom":
        f = _objective(terms, table, model)

        def slope(t: np.ndarray) -> np.ndarray:
            h = 1e-6 * t
            logs = np.log(f(np.concatenate([t - h, t + h], axis=1)))
            return (logs[:, t.shape[1]:] - logs[:, : t.shape[1]]) / (2.0 * h)

        return slope

    probe = _probe(table)

    def slope(t: np.ndarray) -> np.ndarray:
        return _log_f_phase(terms, *probe, model, t, np, True)[1] + 1.0 / t

    return slope


def _row_name(row: tuple[StrategyKind, ProbeSpec], model: NoiseModel) -> str:
    """Which row failed, for an error message."""
    kind, spec = row
    return f"strategy={kind.value} model={model.kind} n={spec.n_probes}"


def _interior(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """REFINE_POINTS evenly spaced points strictly inside each row's [a, b]."""
    return a[:, None] + _REFINE_STEPS * ((b - a) / (REFINE_POINTS + 1))[:, None]


def _slope_roots(terms, table, model, a, b, rows) -> np.ndarray:
    """Locate the sign change of each row's decreasing slope inside [a, b].

    Each step evaluates the slope of every row still searching at
    REFINE_POINTS evenly spaced interior points of its bracket in one call
    and keeps the sub-interval ending at the first point where it is no
    longer positive. A row whose bracket is narrower than REFINE_REL_WIDTH
    is frozen: its root is interpolated linearly between the bracket's ends
    and it is evaluated no more, so what it returns does not depend on the
    other rows of the batch.
    """
    slope = _log_slope(terms, table, model)
    points = np.concatenate([a[:, None], _interior(a, b), b[:, None]], axis=1)
    values = slope(points)
    changes = (values[:, 0] > 0.0) & (values[:, -1] < 0.0)
    if not changes.all():
        r = int(np.argmin(changes))
        raise ValueError(
            "the slope of log(F/t) does not change sign inside the scan bracket "
            f"[{float(a[r])!r}, {float(b[r])!r}] "
            f"(slopes {float(values[r, 0])!r}, {float(values[r, -1])!r}): "
            f"{_row_name(rows[r], model)}"
        )
    roots = np.empty(len(a))
    active = np.arange(len(a))
    while True:
        # flat index of the first point of each row where the slope is <= 0
        right = np.argmax(values <= 0.0, axis=1) + np.arange(0, values.size, values.shape[1])
        a, b = points.take(right - 1), points.take(right)
        s_a, s_b = values.take(right - 1), values.take(right)
        done = b - a <= REFINE_REL_WIDTH * b
        if done.any():
            roots[active[done]] = (a + (b - a) * s_a / (s_a - s_b))[done]
            if done.all():
                return roots
            keep = ~done
            active, a, b, s_a, s_b = active[keep], a[keep], b[keep], s_a[keep], s_b[keep]
            slope = _log_slope(terms, table[:, active], model)
        inner = _interior(a, b)
        points = np.concatenate([a[:, None], inner, b[:, None]], axis=1)
        values = np.concatenate([s_a[:, None], slope(inner), s_b[:, None]], axis=1)


def _maximize_rows(
    rows: Sequence[tuple[StrategyKind, ProbeSpec]], model: NoiseModel
) -> list[tuple[float, float]]:
    """(t_opt, f_over_t_max) of each (strategy, spec) row, all rows in one batch.

    The rows are either all correlated (GHZ) or all uncorrelated. Their
    strategies' block terms are joined, in `STRATEGIES` order, and a row
    gives a term its strategy lacks the log weight -inf, so one array call
    evaluates every row. The scan is one (rows, SCAN_POINTS) call; the slope
    search then follows each row's own bracket (`_slope_roots`). Every check
    of `maximize_f_over_t` is made per row, and a failure names the row's
    strategy and N.
    """
    if model.gamma <= 0:
        raise ValueError("time optimization needs gamma > 0; the noiseless profile is unbounded")
    for kind, spec in rows:
        check_ancillas(kind, spec.n_ancillas)
    kinds = {kind for kind, _ in rows}
    correlated = {STRATEGIES[kind].correlated for kind in kinds}
    if len(correlated) != 1:
        raise ValueError("a batch holds either correlated or uncorrelated rows, not both")
    terms = tuple(dict.fromkeys(
        term for kind in STRATEGIES if kind in kinds for term in STRATEGIES[kind].block_terms
    ))
    table = _probe_table(rows, terms)
    # the table holds one log weight per joined term: term i reads log_w[i]
    terms = tuple((i, pole, side) for i, (_, pole, side) in enumerate(terms))
    lo = np.full(len(rows), SCAN_WINDOW[0] / model.gamma)
    if correlated.pop():
        lo /= table[-1]
    log_lo = np.log(lo)
    step = (math.log(SCAN_WINDOW[1] / model.gamma) - log_lo) / (SCAN_POINTS - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = np.exp(log_lo[:, None] + _SCAN_STEPS * step[:, None])
        f = _objective(terms, table, model)
        values = f(grid)
        peak = np.argmax(values, axis=1)
        coherent = np.any(values > 0.0, axis=1)
        inside = (peak > 0) & (peak < SCAN_POINTS - 1)
        diffs = np.diff(values, axis=1)
        rising = _SCAN_STEPS[1:] <= peak[:, None]
        unimodal = np.all(np.where(rising, diffs > 0.0, diffs <= 0.0), axis=1)
        passed = coherent & inside & unimodal
        if not passed.all():
            r = int(np.argmin(passed))
            if not coherent[r]:
                raise ValueError(
                    "F/t is 0 at every scanned time: the probe has no phase coherence "
                    "(|c1 c2|^2 is 0 in floating point), so there is no optimal time: "
                    f"{_row_name(rows[r], model)}"
                )
            if not inside[r]:
                raise ValueError(
                    f"profile peaks at the scan boundary (index {peak[r]}); "
                    f"the optimum lies outside SCAN_WINDOW: {_row_name(rows[r], model)}"
                )
            raise ValueError(
                f"sampled profile is not unimodal over the scan window: {_row_name(rows[r], model)}"
            )
        row = np.arange(len(rows))
        t_opt = _slope_roots(terms, table, model, grid[row, peak - 1], grid[row, peak + 1], rows)
        best = f(t_opt[:, None])[:, 0]
    return list(zip(t_opt.tolist(), best.tolist()))


def maximize_f_over_t(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel
) -> tuple[float, float]:
    """Maximize F_omega(t)/t over the interrogation time.

    Returns (t_opt, f_over_t_max); this is the one-row batch of the
    maximizer that `sweep` runs over many rows. The spec's ancilla count
    must fit the strategy. The scan takes SCAN_POINTS times across
    SCAN_WINDOW in units of 1/gamma, its lower edge divided by N for the
    correlated (GHZ) strategies; the sampled profile must rise strictly to a
    single interior peak and never rise again past it, otherwise a
    ValueError is raised rather than silently refining one of several
    candidate peaks. A ValueError is also raised when F/t is 0 at every
    scanned time (a probe without phase coherence, |c1 c2| = 0), and when
    the slope of log(F/t) does not change sign between the scan points
    either side of the peak.
    """
    return _maximize_rows([(strategy, spec)], model)[0]


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
    single-probe value. The GHZ rows are optimized in batches of at most
    BATCH_ROWS consecutive rows (`_maximize_rows`); a row's result does not
    depend on the batch it falls in. The saturation gap is evaluated at the
    optimal time with the corner readout; uncorrelated rows quote the
    single-probe gap since that strategy is measured qubit by qubit.
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
    correlated = [s for s in chosen if STRATEGIES[s].correlated]
    per_chunk = max(1, BATCH_ROWS // max(1, len(correlated)))
    rows = []
    for first in range(n_min, n_max + 1, per_chunk):
        probes = range(first, min(first + per_chunk, n_max + 1))
        batch = [(s, ProbeSpec(c1, c2, n, STRATEGIES[s].default_ancillas))
                 for n in probes for s in correlated]
        optima = iter(zip(batch, _maximize_rows(batch, model) if batch else ()))
        for n in probes:
            best_unc = n * best_single
            for strategy in chosen:
                if strategy is StrategyKind.UNCORRELATED:
                    t_opt, best, ratio, gap = t_unc, best_unc, 1.0, gap_unc
                else:
                    (_, spec), (t_opt, best) = next(optima)
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
        denominator = _FloatMath.logaddexp(0.0, -n * x)
        if strategy is StrategyKind.GHZ_FREE:
            denominator = _FloatMath.logaddexp(denominator, n * log_1mg)
        log_value = math.log(2.0) + ghz - n * x - denominator
    elif kind == "dpc":
        log_hi = n * math.log1p(0.5 * math.expm1(-x))  # N log((1 + g)/2)
        if strategy is StrategyKind.GHZ_FREE:
            denominator = _FloatMath.logaddexp(log_hi, n * (log_1mg - math.log(2.0)))
            log_value = math.log(2.0) + ghz - 2.0 * n * x - denominator
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
    f_ghz = qfi_closed(StrategyKind.GHZ_FREE, spec_free, model, t).f_freq / t
    f_anc = qfi_closed(StrategyKind.GHZ_ANCILLA, spec_anc, model, t).f_freq / t
    f_unc = qfi_closed(StrategyKind.UNCORRELATED, spec_free, model, t).f_freq / t
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
