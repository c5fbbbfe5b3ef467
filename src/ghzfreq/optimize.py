"""Interrogation-time optimization and strategy comparison.

The figure of merit throughout is F_omega(t)/t, the frequency information
per unit of total measurement time. It is maximized over t for a batch of
rows at once under one noise model. A batch is one probe record
(`state._probe_columns`): a strategy and an N column, one row each, and
the amplitudes that all rows share. Every step evaluates the log-space
closed form (`fisher._log_f_phase`) for all rows in one array call, the
record's (rows, 1) columns against a (rows, points) array of times. The
GHZ strategies share a batch: their block terms are joined and a row gives
a term its strategy lacks the log weight -inf.

Where the answer is analytic it is taken as it is. The derivative record of
`channel._log_channel`, read once per batch, says when d/dt log(F/t) is
1/t + r with r constant (`_constant_slope`): then t_opt = -1/r. That is
every uncorrelated row of a named model (t_opt = 1/gamma for adc,
1/(2 gamma) for dpc and pdc) and every pdc GHZ row (1/(2 N gamma), as in
Huelga et al., PRL 79, 3865 (1997)). The peak value comes from one
objective call at t_opt, which is checked as the scan would be. Every other
batch (adc and dpc GHZ rows, custom models) is searched in two stages:

  * a geometric scan of the whole window, one (rows, SCAN_POINTS) call,
    which also certifies that each row's sampled profile rises to a single
    interior peak;
  * a bracketing search on the sign of d/dt log(F/t) between the scan
    points either side of each row's peak. Each call evaluates the slope at
    two points of every bracket still open and keeps, per row, the
    sub-interval where it changes sign. The first call's points lie either
    side of the vertex of the parabola through the scan's log(F/t) around
    the peak; each later call's lie either side of the secant root of the
    row's bracket, at a distance that shrinks with the square of its width.
    On adc and dpc, up to N = 10**9 at least, three calls (8 slope values
    per row) narrow every bracket below REFINE_REL_WIDTH. A window that
    would leave a bracket wider than bisection allows, with one call to
    spare, is widened toward its midpoint, so no slope takes more calls
    than bisection plus one. The slope is analytic for the named models and
    a five-point difference of log(F/t) for custom ones.

A row is frozen once its bracket is narrow enough and is evaluated no more,
so its result is the same to the bit whichever rows share its batch;
`maximize_f_over_t` is the one-row batch. A failed check names the row's
strategy and N, read from the record (`state._row_name`). The slope's sign stays resolvable down to a few ulps of the
optimum, where a value-based search stops at about sqrt(eps) because the
profile is flat to second order at the peak.

`sweep` optimizes its GHZ rows in batches of at most BATCH_ROWS, so memory
does not grow with the probe range, and packages the per-N results
(optimal time, peak value, ratio against the best uncorrelated scheme, and
the readout saturation gap at the optimum) into rows ready for tabulation.
The gaps of a batch are formed in one array pass as well
(`measurement._saturation_gaps`), from the batch's probe record and the
log F_phase that the optimizer's last evaluation gives at t_opt;
`measurement.saturation_check` runs the same pass on one probe's floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._numpy import np
from .channel import _TINY, NoiseModel, _FloatMath, _log_channel
from .fisher import _log_f_phase, qfi_closed
from .measurement import _saturation_gaps, saturation_check
from .state import (
    STRATEGIES,
    ProbeSpec,
    StrategyKind,
    _block_log_terms,
    _probe_columns,
    _row_name,
    _rows_of,
    check_ancillas,
)

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
GUESS_REL_WIDTH = 6e-3  # half-width, relative, of the first slope window
REFINE_REL_WIDTH = 1e-8  # bracket width, relative, at which the slope is interpolated
# rows that `sweep` optimizes in one batch. About ten (BATCH_ROWS, SCAN_POINTS)
# arrays of 51 kB are alive at once during the scan. A larger batch makes
# fewer numpy calls per row: the 60 rows of `sweep --n 1:30` ran about 8%
# faster as one batch, with 0.5 MB more peak memory.
BATCH_ROWS = 32


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


def _objective(probe, model: NoiseModel) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(F_omega/t, log F_phase) of each row of the batch record `probe` over a
    (rows, points) array of times, F_omega/t being t * exp(log F_phase)."""

    def f_over_t(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        log_f = _log_f_phase(probe, model, t, np, False)[0]
        return t * np.exp(log_f), log_f

    return f_over_t


def _log_slope(probe, model: NoiseModel) -> Callable[[np.ndarray], np.ndarray]:
    """d/dt log(F/t) of each row of the batch record `probe` over (rows, points) times.

    Analytic for the named models; for custom ones the five-point central
    difference (f(t-2h) - 8 f(t-h) + 8 f(t+h) - f(t+2h)) / (12 h) of
    log(F/t), h = 1e-3 t (Fornberg, Math. Comp. 51, 699 (1988)), all four
    points in one objective call. Its truncation error, of order h**4,
    places a custom optimum within about 3e-12 of the analytic one.
    """
    if model.kind == "custom":
        f = _objective(probe, model)

        def slope(t: np.ndarray) -> np.ndarray:
            h = 1e-3 * t
            k = t.shape[1]
            logs = np.log(f(np.concatenate([t - 2.0 * h, t - h, t + h, t + 2.0 * h], axis=1))[0])
            return (logs[:, :k] - logs[:, 3 * k:] + 8.0 * (logs[:, 2 * k:3 * k] - logs[:, k:2 * k])
                    ) / (12.0 * h)

        return slope

    def slope(t: np.ndarray) -> np.ndarray:
        return _log_f_phase(probe, model, t, np, True)[1] + 1.0 / t

    return slope


def _slope_roots(probe, model, a, b, guess) -> np.ndarray:
    """Locate the sign change of each row's decreasing slope inside [a, b].

    Each call evaluates the slope at two points of every bracket still open
    and keeps, per row, the sub-interval where it changes sign. The first
    call also evaluates the bracket's ends, and its two points lie
    GUESS_REL_WIDTH either side of the row's first guess. Each later call
    evaluates two points either side of the secant (regula falsi) root of
    the bracket [a, b], at a distance w**2 / (4 b) that shrinks with the
    bracket's width w. The secant interpolates t times the slope, which is
    linear in t for pdc and nearly so for the other models.

    A row's k-th call must leave its bracket at most w0 * 2**(1 - k) wide,
    w0 being the starting width, so a window is widened toward the
    bracket's midpoint where it would leave more (as in ITP, Oliveira &
    Takahashi, ACM TOMS 47(1), 2020). A row thus takes at most
    ceil(log2(w0 / (REFINE_REL_WIDTH * b))) + 1 calls, one more than
    bisection. A row whose bracket is narrower than REFINE_REL_WIDTH is
    frozen: its root is interpolated linearly between the bracket's ends
    and it is evaluated no more, so what it returns does not depend on the
    other rows of the batch.
    """
    slope = _log_slope(probe, model)
    budget = b - a  # the widest bracket each row's next call may leave
    # fmin and fmax pass over a NaN guess, which puts the window at a + half
    half = np.fmin(GUESS_REL_WIDTH * guess, 0.25 * budget)
    centre = np.fmin(np.fmax(guess, a + half), b - half)
    points = np.stack([a, centre - half, centre + half, b], axis=1)
    values = slope(points)
    changes = (values[:, 0] > 0.0) & (values[:, -1] < 0.0)
    if not changes.all():
        r = int(np.argmin(changes))
        if a[r] < _TINY:
            # near t ~ 1/(N gamma) < _TINY, 1/t and N gamma reach the largest
            # double: the slope overflows to inf or NaN, or keeps too few bits
            raise ValueError(
                "the slope of log(F/t) overflows double precision at the subnormal times "
                f"[{float(a[r])!r}, {float(b[r])!r}] around the optimum, below the "
                f"smallest normal double {_TINY!r} (slopes {float(values[r, 0])!r}, "
                f"{float(values[r, -1])!r}): {_row_name(probe, r, model)}"
            )
        raise ValueError(
            "the slope of log(F/t) does not change sign inside the scan bracket "
            f"[{float(a[r])!r}, {float(b[r])!r}] "
            f"(slopes {float(values[r, 0])!r}, {float(values[r, -1])!r}): "
            f"{_row_name(probe, r, model)}"
        )
    roots = np.empty(len(a))
    active = np.arange(len(a))
    while True:
        # flat index of the first point of each row where the slope is <= 0
        right = np.argmax(values <= 0.0, axis=1) + np.arange(0, values.size, values.shape[1])
        a, b = points.take(right - 1), points.take(right)
        s_a, s_b = values.take(right - 1), values.take(right)
        w = b - a
        done = w <= REFINE_REL_WIDTH * b
        if done.any():
            roots[active[done]] = (a + w * s_a / (s_a - s_b))[done]
            if done.all():
                return roots
            keep = ~done
            active, a, b, w, s_a, s_b, budget = (
                v[keep] for v in (active, a, b, w, s_a, s_b, budget)
            )
            slope = _log_slope(_rows_of(probe, active), model)
        budget = 0.5 * budget
        y_a, y_b = a * s_a, b * s_b
        half = 0.25 * w * w / b  # below w / 4, since w < b
        centre = np.fmin(np.fmax(a + w * y_a / (y_a - y_b), a + half), b - half)
        inner = np.stack(
            [np.fmin(centre - half, a + budget), np.fmax(centre + half, b - budget)], axis=1
        )
        points = np.concatenate([a[:, None], inner, b[:, None]], axis=1)
        values = np.concatenate([s_a[:, None], slope(inner), s_b[:, None]], axis=1)


def _constant_slope(probe, model: NoiseModel):
    """The rate r of each row of the batch record `probe` where d/dt
    log(F/t) = 1/t + r exactly, as a (rows,) array, or None if the slope
    has another form.

    That is so when the derivative record of `channel._log_channel` has a
    constant d/dt log|eta_perp| and a d/dt log(A/2) of exactly 0.0 for every
    live block term (`state._block_log_terms`): then r = 2 P d/dt
    log|eta_perp|, with P = N for a GHZ row and 1 otherwise, as
    `fisher._log_f_phase` writes the slope, and the optimum is t = -1/r.
    That holds for every uncorrelated row of a named model and for every
    pdc GHZ row (Huelga et al., PRL 79, 3865 (1997)). The record is
    read at no times at all, so a custom rule is not called; its slope is
    not analytic (None).
    """
    (_, log_half, _, _), d_eta, d_half = _log_channel(model, np.empty(0), np, True)
    if d_eta is None or np.ndim(d_eta):
        return None
    live, _ = _block_log_terms(probe, log_half)
    if not all(isinstance(d_half[pole], float) and d_half[pole] == 0.0 for pole, _, _ in live):
        return None
    power = probe.n[:, 0] if probe.terms else np.ones(len(probe.n))
    return 2.0 * power * d_eta


def _check_profile(values, times, probe, model: NoiseModel, peak=None) -> None:
    """Raise ValueError naming the first row of the batch record `probe` whose
    (rows, points) F/t `values` at `times` overflows double precision or is 0 at every
    point (a probe without phase coherence); for a scan, whose `peak` index
    per row is given, also a row that peaks at the window's edge or is not
    unimodal."""
    finite = ~np.any(values == math.inf, axis=1)
    coherent = np.any(values > 0.0, axis=1)
    passed = finite & coherent
    if peak is not None:
        inside = (peak > 0) & (peak < values.shape[1] - 1)
        diffs = np.diff(values, axis=1)
        rising = np.arange(1, values.shape[1]) <= peak[:, None]
        unimodal = np.all(np.where(rising, diffs > 0.0, diffs <= 0.0), axis=1)
        passed &= inside & unimodal
    if passed.all():
        return
    r = int(np.argmin(passed))
    if not finite[r]:
        at = float(times[r, np.argmax(values[r] == math.inf)])
        raise ValueError(f"F/t overflows double precision at t={at!r}: {_row_name(probe, r, model)}")
    if not coherent[r]:
        raise ValueError(
            "F/t is 0 at every scanned time: the probe has no phase coherence "
            "(|c1 c2|^2 is 0 in floating point), so there is no optimal time: "
            f"{_row_name(probe, r, model)}"
        )
    if not inside[r]:
        raise ValueError(
            f"profile peaks at the scan boundary (index {peak[r]}); "
            f"the optimum lies outside SCAN_WINDOW: {_row_name(probe, r, model)}"
        )
    raise ValueError(
        f"sampled profile is not unimodal over the scan window: {_row_name(probe, r, model)}"
    )


def _maximize_rows(probe, model: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_opt, f_over_t_max, log F_phase at t_opt) of each row of the batch
    record `probe` (`state._probe_columns`) as (rows,) arrays.

    The rows are either all correlated (GHZ) or all uncorrelated, and one
    array call evaluates every row. Where the slope of log(F/t) is 1/t + r
    with a constant r (`_constant_slope`), t_opt = -1/r is taken as it is.
    Otherwise the scan is one (rows, SCAN_POINTS) call, and the slope
    search then follows each row's own bracket (`_slope_roots`). The
    window's edges are checked either way, and every check is made per row:
    a failure names the row's strategy and N. The last evaluation, at
    t_opt, gives both f_over_t_max and log F_phase, which `sweep` passes on
    to the saturation gap with the same record.
    """
    if model.gamma <= 0:
        raise ValueError("time optimization needs gamma > 0; the noiseless profile is unbounded")
    hi = SCAN_WINDOW[1] / model.gamma
    lo = np.full(len(probe.kinds), SCAN_WINDOW[0] / model.gamma)
    if probe.terms:
        lo /= probe.n[:, 0]
    if not math.isfinite(hi):
        raise ValueError(
            f"the scan window's upper edge {SCAN_WINDOW[1]!r}/gamma overflows double "
            f"precision at gamma={model.gamma!r}: {_row_name(probe, 0, model)}"
        )
    if not lo.all():
        r = int(np.argmin(lo))
        raise ValueError(
            f"the scan window's lower edge underflows to 0 at gamma={model.gamma!r}: "
            f"{_row_name(probe, r, model)}"
        )
    f = _objective(probe, model)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rate = _constant_slope(probe, model)
        if rate is None:
            t_opt = _searched_optima(f, probe, model, lo, hi)
            best, log_f = f(t_opt[:, None])
        else:
            # -1/rate lies far inside the window. A rate that overflows gives
            # 0, and the window's lower edge stands in for it while the
            # profile is checked, so a probe without coherence is named first
            t_opt = np.fmax(-1.0 / rate, lo)
            best, log_f = f(t_opt[:, None])
            _check_profile(best, t_opt[:, None], probe, model)
            finite = np.isfinite(rate)
            if not finite.all():
                r = int(np.argmin(finite))
                # 1/t + rate is inf - inf at the optimum -1/rate, below _TINY
                raise ValueError(
                    f"the slope of log(F/t), 1/t + ({float(rate[r])!r}), overflows double "
                    "precision: the optimum lies at subnormal times, below the smallest "
                    f"normal double {_TINY!r}: {_row_name(probe, r, model)}"
                )
    return t_opt, best[:, 0], log_f[:, 0]


def _searched_optima(f, probe, model: NoiseModel, lo, hi: float) -> np.ndarray:
    """t_opt of each row by the geometric scan of its window [lo, hi] with
    the objective f, checked by `_check_profile`, and the slope search
    between the scan points either side of the peak (`_slope_roots`)."""
    log_lo = np.log(lo)
    step = (math.log(hi) - log_lo) / (SCAN_POINTS - 1)
    grid = np.exp(log_lo[:, None] + np.arange(float(SCAN_POINTS)) * step[:, None])
    values, _ = f(grid)
    peak = np.argmax(values, axis=1)
    _check_profile(values, grid, probe, model, peak)
    row = np.arange(len(lo))
    # the vertex of the parabola through log(F/t) at the three scan
    # points around the peak, in log t, where the grid is even
    y0, y1, y2 = np.log(values[row[:, None], peak[:, None] + np.arange(-1, 2)]).T
    guess = grid[row, peak] * np.exp(step * (y0 - y2) / (2.0 * (y0 - 2.0 * y1 + y2)))
    return _slope_roots(probe, model, grid[row, peak - 1], grid[row, peak + 1], guess)


def maximize_f_over_t(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel
) -> tuple[float, float]:
    """Maximize F_omega(t)/t over the interrogation time.

    Returns (t_opt, f_over_t_max); this is the one-row batch of the
    maximizer that `sweep` runs over many rows. The spec's ancilla count
    must fit the strategy. Where d/dt log(F/t) = 1/t + r with a constant r
    (an uncorrelated row of a named model, a pdc GHZ row), t_opt = -1/r.
    Otherwise the scan takes SCAN_POINTS times across SCAN_WINDOW in units
    of 1/gamma, its lower edge divided by N for the correlated (GHZ)
    strategies; the sampled profile must rise strictly to a single interior
    peak and never rise again past it, otherwise a ValueError is raised
    rather than silently refining one of several candidate peaks. Either
    way a ValueError is also raised when the window's edges or F/t leave
    double precision (gamma below about 5.6e-307, N*gamma above about
    4e319 or N/gamma above about 1e308), when F/t is 0 at every time (a
    probe without phase coherence, |c1 c2| = 0), and when the slope of
    log(F/t) overflows because the optimum lies below the smallest normal
    double (N*gamma above about 1e308); a searched row also fails when its
    slope does not change sign between the scan points either side of the
    peak.
    """
    check_ancillas(strategy, spec.n_ancillas)
    t_opt, best, _ = _maximize_rows(_probe_columns([strategy], [spec.n_probes], spec), model)
    return float(t_opt[0]), float(best[0])


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
    The amplitudes are checked once, in the single-probe spec. The
    uncorrelated optimum is computed once, for one probe: its time does not
    depend on N and its F/t is N times the single-probe value; for a named
    model it is the closed form, t = 1/gamma (adc) or 1/(2 gamma). The GHZ
    rows are optimized in batches of at most BATCH_ROWS consecutive rows,
    each one record with a strategy and an N column (`_maximize_rows`),
    pdc's in closed form and the others by the scan and slope search; a
    row's result does not depend on the batch it falls in. The saturation
    gap is evaluated at the optimal time with the corner readout, for a
    whole batch at once; uncorrelated rows quote the single-probe gap (one
    `saturation_check` call per sweep) since that strategy is measured
    qubit by qubit.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad probe range {n_min}..{n_max}")
    wanted = set(StrategyKind if strategies is None else strategies)
    chosen = [s for s in StrategyKind if s in wanted]
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
        optima = iter(())
        if correlated:
            # N ascending, the strategies of each N in declaration order
            ns = [n for n in probes for _ in correlated]
            probe = _probe_columns(correlated * len(probes), ns, single)
            t_opt, best, log_f = _maximize_rows(probe, model)
            _, gaps = _saturation_gaps(probe, model, t_opt[:, None], log_f[:, None], 0.0, np)
            optima = zip(t_opt.tolist(), best.tolist(), gaps[:, 0].tolist())
        for n in probes:
            best_unc = n * best_single
            for strategy in chosen:
                if strategy is StrategyKind.UNCORRELATED:
                    t_opt, best, ratio, gap = t_unc, best_unc, 1.0, gap_unc
                else:
                    t_opt, best, gap = next(optima)
                    ratio = best_unc / best
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
