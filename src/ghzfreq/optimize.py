"""Interrogation-time optimization and strategy comparison.

The figure of merit throughout is F_omega(t)/t, the frequency information
per unit of total measurement time. Every model here depends on t only
through x = gamma t (a custom rule is read at t = x / gamma), and
F_omega/t = (x / gamma) F_phase(x). So the maximizer runs at unit rate on x
(`_unit_rate`), on log(gamma F/t) = log x + log F_phase(x) throughout, and
leaves both once: t_opt = x_opt / gamma and F/t = t_opt F_phase(x_opt),
where the one range check (`channel._check_normal`) names either, or
F_phase, when it is not a normal double. A batch of rows is maximized at
once, one probe record (`state._probe_columns`): each row's (strategy, N)
as given, an N column and the amplitudes that all rows share. Each step
evaluates the log-space closed form (`fisher._log_f_phase`) of every row
in one array call, the record's (rows, 1) columns against a (rows, points)
array of x.
The GHZ strategies share a batch; a row gives a block term its strategy
lacks the log weight -inf.

Where d/dx log(F/t) is 1/x + r with r constant (`_constant_slope`, from the
derivative record of `channel._log_channel`), x_opt = -1/r: every
uncorrelated row of a named model (x_opt = 1 for adc, 1/2 for dpc and pdc)
and every pdc GHZ row (1/(2N), Huelga et al., PRL 79, 3865 (1997)). Every
other batch (adc and dpc GHZ rows, custom models) is searched in two stages:

  * a geometric scan of log(F/t) over the whole window, one (rows,
    SCAN_POINTS) call, which also certifies that each row's sampled profile
    rises to a single interior peak and never rises after it (a -inf tail,
    where F = 0, does not rise);
  * a bracketing search on the sign of d/dx log(F/t) between the scan
    points either side of each row's peak. Each call evaluates the slope at
    two points of every bracket still open and keeps, per row, the
    sub-interval where it changes sign: first either side of the vertex of
    the parabola through the scan's log(F/t) around the peak, then either
    side of the secant root of the row's bracket, at a distance that
    shrinks with the square of its width. On adc and dpc, up to N = 10**9
    at least, three calls (8 slope values per row) narrow every bracket
    below REFINE_REL_WIDTH, and no slope takes more calls than bisection
    plus one. The slope is 1/x + d/dx log F_phase, analytic for the named
    models and a five-point difference of log F_phase for custom ones.

Either way the peak is one objective call at x_opt, checked for coherence.
A row is frozen once its bracket is narrow enough, so its result is the same
to the bit whichever rows share its batch; `maximize_f_over_t` is the
one-row batch. A failed check names the row's strategy and the N it was
given (`state._row_name`), and reports times in t. The slope's sign stays
resolvable down to a few ulps of the optimum, where a value-based search
stops at about sqrt(eps) because the profile is flat to second order there.

`sweep` optimizes its GHZ rows in batches of at most BATCH_ROWS, so memory
does not grow with the probe range, and packages the optimal time, peak
value, ratio against the best uncorrelated scheme and readout saturation
gap of each N into rows. The gaps of a batch are one array pass
(`measurement._saturation_gaps`) at x_opt as `_unit_rate` reads it, from the
record and the F_phase there that the maximizer has checked, so the pass
repeats none of its checks; `measurement.saturation_check` makes them on one
probe's floats and runs the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._numpy import np
from .channel import NoiseModel, _check_normal, _FloatMath, _log_channel
from .fisher import _log_f_phase, _scaled
from .measurement import _saturation_gaps, saturation_check
from .state import (
    ProbeSpec,
    StrategyKind,
    _block_log_terms,
    _probe_columns,
    _row_name,
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
# the scan window in x = gamma t; its lower edge is divided by the record's P,
# N for the GHZ strategies, since their optimum sits near x = 1/N
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


def _unit_rate(model: NoiseModel) -> tuple[NoiseModel, float]:
    """(model, divisor) that read the dimensionless time x = gamma t at x /
    divisor: a named model at gamma = 1 at x itself, a custom one at t = x /
    gamma, so that its rule and the checks on it name t."""
    return (model, model.gamma) if model.kind == "custom" else (NoiseModel(model.kind, 1.0), 1.0)


def _objective(probe, model: NoiseModel) -> Callable[[np.ndarray], np.ndarray]:
    """log F_phase of each row of the batch record `probe` over a (rows,
    points) array of dimensionless times x = gamma t, the model read as
    `_unit_rate` says; log x + log F_phase is log(gamma F_omega/t)."""
    unit, divisor = _unit_rate(model)

    def log_f_phase(x: np.ndarray) -> np.ndarray:
        return _log_f_phase(probe, unit, x / divisor, np, False)[0]

    return log_f_phase


def _log_slope(probe, model: NoiseModel) -> Callable[[np.ndarray], np.ndarray]:
    """d/dx log(F/t) = 1/x + d/dx log F_phase of each row of the batch record
    `probe` over (rows, points) dimensionless times x = gamma t.

    d/dx log F_phase is analytic for the named models; for custom ones the
    five-point central difference (f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h))
    / (12 h) of f = log F_phase, h = 1e-3 x (Fornberg, Math. Comp. 51, 699
    (1988)), all four points in one objective call. Its truncation error, of
    order h**4, places a custom optimum within about 3e-12 of the analytic one.
    """
    if model.kind == "custom":
        f = _objective(probe, model)

        def slope(x: np.ndarray) -> np.ndarray:
            h = 1e-3 * x
            k = x.shape[1]
            logs = f(np.concatenate([x - 2.0 * h, x - h, x + h, x + 2.0 * h], axis=1))
            return (logs[:, :k] - logs[:, 3 * k:] + 8.0 * (logs[:, 2 * k:3 * k] - logs[:, k:2 * k])
                    ) / (12.0 * h) + 1.0 / x

        return slope

    unit, _ = _unit_rate(model)  # divisor 1

    def slope(x: np.ndarray) -> np.ndarray:
        return _log_f_phase(probe, unit, x, np, True)[1] + 1.0 / x

    return slope


def _slope_roots(probe, model, a, b, guess) -> np.ndarray:
    """Locate the sign change of each row's decreasing slope in x inside [a, b].

    Each call evaluates the slope at two points of every bracket still open
    and keeps, per row, the sub-interval where it changes sign. The first
    call also evaluates the bracket's ends, and its two points lie
    GUESS_REL_WIDTH either side of the row's first guess. Each later call
    evaluates two points either side of the secant (regula falsi) root of
    the bracket [a, b], at a distance w**2 / (4 b) that shrinks with the
    bracket's width w. The secant interpolates x times the slope, which is
    linear in x for pdc and nearly so for the other models.

    A row's k-th call must leave its bracket at most w0 * 2**(1 - k) wide,
    w0 being the starting width, so a window is widened toward the
    bracket's midpoint where it would leave more (as in ITP, Oliveira &
    Takahashi, ACM TOMS 47(1), 2020). A row thus takes at most
    ceil(log2(w0 / (REFINE_REL_WIDTH * b))) + 1 calls, one more than
    bisection. A row is frozen once its bracket is narrower than
    REFINE_REL_WIDTH: its root, interpolated linearly between the bracket's
    ends, is kept through the calls that open rows still make, so what it
    returns does not depend on the other rows of the batch.
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
        gamma = model.gamma  # in t: t = x / gamma and d/dt = gamma d/dx
        raise ValueError(
            "the slope of log(F/t) does not change sign inside the scan bracket "
            f"[{float(a[r] / gamma)!r}, {float(b[r] / gamma)!r}] (slopes "
            f"{float(values[r, 0] * gamma)!r}, {float(values[r, -1] * gamma)!r}): "
            f"{_row_name(*probe.rows[r], model.kind)}"
        )
    roots = np.empty(len(a))
    frozen = np.zeros(len(a), dtype=bool)
    while True:
        # flat index of the first point of each row where the slope is <= 0
        right = np.argmax(values <= 0.0, axis=1) + np.arange(0, values.size, values.shape[1])
        a, b = points.take(right - 1), points.take(right)
        s_a, s_b = values.take(right - 1), values.take(right)
        w = b - a
        roots = np.where(frozen, roots, a + w * s_a / (s_a - s_b))
        frozen |= w <= REFINE_REL_WIDTH * b
        if frozen.all():
            return roots
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
    """x_opt = -1/r of each row of the batch record `probe` where d/dx
    log(F/t) = 1/x + r with r constant, as a (rows,) array, or None if the
    slope has another form.

    That is so when the derivative record of `channel._log_channel` at unit
    rate has a constant d/dx log|eta_perp| and a d/dx log(A/2) of exactly
    0.0 for every live block term (`state._block_log_terms`): then r = 2 P
    d/dx log|eta_perp|, with the record's P (N for a GHZ row, 1 otherwise), as
    `fisher._log_f_phase` writes the slope: r = -1 (adc) or -2 (dpc, pdc)
    for an uncorrelated row and -2N for a pdc GHZ row. x_opt is formed as
    -0.5 / (P d/dx log|eta_perp|), so 2N never overflows. The record is
    read at no times at all, so a custom rule is not called; its slope is
    not analytic (None).
    """
    (_, log_half, _, _), d_eta, d_half = _log_channel(_unit_rate(model)[0], np.empty(0), np, True)
    if d_eta is None or np.ndim(d_eta):
        return None
    live, _ = _block_log_terms(probe, log_half)
    if not all(isinstance(d_half[pole], float) and d_half[pole] == 0.0 for pole, _, _ in live):
        return None
    return -0.5 / (probe.power[:, 0] * d_eta)


def _check_profile(values, probe, model: NoiseModel, peak=None) -> None:
    """Raise ValueError naming the first row of the batch record `probe` whose
    (rows, points) log-space profile `values` is -inf at every point (F = 0,
    a probe without phase coherence); for a scan, whose `peak` index per row
    is given, also a row that peaks at the window's edge or is not unimodal:
    each step after the peak must not rise (a -inf tail's nan steps do not)."""
    passed = coherent = np.any(values > -math.inf, axis=1)
    if peak is not None:
        inside = (peak > 0) & (peak < values.shape[1] - 1)
        diffs = np.diff(values, axis=1)
        rising = np.arange(1, values.shape[1]) <= peak[:, None]
        unimodal = np.all(np.where(rising, diffs > 0.0, ~(diffs > 0.0)), axis=1)
        passed = coherent & inside & unimodal
    if passed.all():
        return
    r = int(np.argmin(passed))
    name = _row_name(*probe.rows[r], model.kind)
    if not coherent[r]:
        raise ValueError(
            f"F/t is 0{'' if peak is None else ' at every scanned time'}: the probe has no "
            "phase coherence (|c1 c2|^2 is 0 in floating point), so there is no optimal "
            f"time: {name}"
        )
    if not inside[r]:
        raise ValueError(
            f"profile peaks at the scan boundary (index {peak[r]}); "
            f"the optimum lies outside SCAN_WINDOW: {name}"
        )
    raise ValueError(f"sampled profile is not unimodal over the scan window: {name}")


def _at_row(rows, model: NoiseModel) -> Callable[[int], str]:
    """Where row r of `rows` (`state._Probe.rows`) was computed, for `_check_normal`."""
    return lambda r: f"gamma={model.gamma!r}: {_row_name(*rows[r], model.kind)}"


def _maximize_rows(probe, model: NoiseModel):
    """(x_opt, t_opt, f_over_t_max, F_phase at x_opt) of each row of the
    batch record `probe` (`state._probe_columns`) as (rows,) arrays.

    The rows are either all correlated (GHZ) or all uncorrelated, and one
    array call evaluates every row, at unit rate in x = gamma t. Where the
    slope of log(F/t) is 1/x + r with a constant r (`_constant_slope`),
    x_opt = -1/r is taken as it is. Otherwise the scan is one (rows,
    SCAN_POINTS) call, and the slope search then follows each row's own
    bracket (`_slope_roots`). Either way log F_phase is evaluated once at
    x_opt and checked for coherence, and x is left once: t_opt = x_opt /
    gamma and f_over_t_max = t_opt F_phase(x_opt), each checked with F_phase
    to be a normal double (`channel._check_normal`). Every check is made per
    row, and a failure names the row's strategy and N. The F_phase at x_opt
    is what `sweep` passes on to the saturation gap there, checked.
    """
    if model.gamma <= 0:
        raise ValueError("time optimization needs gamma > 0; the noiseless profile is unbounded")
    f = _objective(probe, model)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_opt = _constant_slope(probe, model)
        if x_opt is None:
            x_opt = _searched_optima(f, probe, model)
        log_f = f(x_opt[:, None])
        _check_profile(log_f, probe, model)
        t_opt = x_opt / model.gamma
        f_phase = np.exp(log_f[:, 0])
        best = t_opt * f_phase
    _check_normal([("t_opt", t_opt), ("F_phase", f_phase), ("F/t", best)],
                  _at_row(probe.rows, model))
    return x_opt, t_opt, best, f_phase


def _searched_optima(f, probe, model: NoiseModel) -> np.ndarray:
    """x_opt of each row by the geometric scan of log(gamma F/t) = log x + f(x)
    over its window in x = gamma t, checked by `_check_profile`, and the slope
    search between the scan points either side of the peak (`_slope_roots`)."""
    lo = SCAN_WINDOW[0] / probe.power[:, 0]
    _check_normal([(f"the scan window's lower edge gamma*t = {SCAN_WINDOW[0]!r}/N", lo)],
                  _at_row(probe.rows, model))
    log_lo = np.log(lo)
    step = (math.log(SCAN_WINDOW[1]) - log_lo) / (SCAN_POINTS - 1)
    log_grid = log_lo[:, None] + np.arange(float(SCAN_POINTS)) * step[:, None]
    grid = np.exp(log_grid)
    values = log_grid + f(grid)
    peak = np.argmax(values, axis=1)
    _check_profile(values, probe, model, peak)
    row = np.arange(len(lo))
    # the vertex of the parabola through log(F/t) at the three scan
    # points around the peak, in log x, where the grid is even
    y0, y1, y2 = values[row[:, None], peak[:, None] + np.arange(-1, 2)].T
    guess = grid[row, peak] * np.exp(step * (y0 - y2) / (2.0 * (y0 - 2.0 * y1 + y2)))
    return _slope_roots(probe, model, grid[row, peak - 1], grid[row, peak + 1], guess)


def maximize_f_over_t(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel
) -> tuple[float, float]:
    """Maximize F_omega(t)/t over the interrogation time.

    Returns (t_opt, f_over_t_max); this is the one-row batch of the
    maximizer that `sweep` runs over many rows, in x = gamma t. The spec's
    ancilla count must fit the strategy. Where d/dx log(F/t) = 1/x + r with
    a constant r (an uncorrelated row of a named model, a pdc GHZ row),
    x_opt = -1/r. Otherwise the scan takes SCAN_POINTS values of x across
    SCAN_WINDOW, its lower edge divided by N for the GHZ strategies; a
    ValueError is raised unless the sampled profile rises strictly to a
    single interior peak and never rises again, and unless the slope changes
    sign between the scan points either side of it. A ValueError is also
    raised when F/t is 0 at every time (a probe without phase coherence,
    |c1 c2| = 0), and when t_opt, F_phase or F/t is not a normal double.
    """
    check_ancillas(strategy, spec.n_ancillas)
    _, t_opt, best, _ = _maximize_rows(_probe_columns([(strategy, spec.n_probes)], spec), model)
    return float(t_opt[0]), float(best[0])


def _uncorrelated_f_over_t(probes: Sequence[int], best_single: float,
                           model: NoiseModel) -> np.ndarray:
    """The uncorrelated F/t = N (F/t)_1 of each N of `probes`, from the one-probe
    optimum best_single, checked to be normal doubles; a failing row is named
    by the N it was given."""
    with np.errstate(over="ignore"):
        best_unc = np.array(probes, dtype=float) * best_single
    _check_normal([("F/t", best_unc)],
                  _at_row([(StrategyKind.UNCORRELATED, n) for n in probes], model))
    return best_unc


def sensitivity_ratio(
    spec: ProbeSpec, model: NoiseModel, strategy: StrategyKind
) -> float:
    """R = max_t(F_uncorrelated/t) / max_t(F_strategy/t) at equal probe count N.

    The uncorrelated maximum is N times that of one probe, formed as N (F/t)_1
    / (F/t) from the one-probe optimum, the `ratio_r` of `sweep` to the bit.
    """
    if strategy is StrategyKind.UNCORRELATED:
        raise ValueError("compare a correlated strategy against the uncorrelated one")
    single = ProbeSpec(spec.c1, spec.c2, 1)
    _, best_single = maximize_f_over_t(StrategyKind.UNCORRELATED, single, model)
    (best_unc,) = _uncorrelated_f_over_t([spec.n_probes], best_single, model).tolist()
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
    The amplitudes are checked once, in the single-probe spec; where |c1
    c2|^2 is 0 in floating point, no row of any strategy has phase
    coherence, and a ValueError names c1. The uncorrelated optimum is
    computed once, for one probe: its time does not depend on N and its F/t
    is N times the single-probe value; for a named model it is the closed
    form, t = 1/gamma (adc) or 1/(2 gamma). The GHZ rows are optimized in
    batches of at most BATCH_ROWS consecutive rows, each one record of
    (strategy, N) rows (`_maximize_rows`), pdc's in closed form and the
    others by the scan and slope search; a row's result does not depend on
    the batch it falls in. Each GHZ row's R is N (F/t)_1 / (F/t), what
    `sensitivity_ratio` gives to the bit. N, each batch's uncorrelated F/t
    and its ratios R are checked to be normal doubles
    (`channel._check_normal`), so a failure names its row. The saturation
    gap is evaluated at the optimum x_opt = gamma t_opt as `_unit_rate`
    reads it, with the corner readout, for a whole batch at once;
    uncorrelated rows quote the single-probe gap (one `saturation_check`
    call per sweep) since that strategy is measured qubit by qubit.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad probe range {n_min}..{n_max}")
    _check_normal([("N", n_max)], lambda _: f"n={n_max}")
    wanted = tuple(StrategyKind if strategies is None else strategies)
    chosen = [s for s in StrategyKind if s in wanted]
    if not chosen:
        raise ValueError("no strategies selected")
    c2 = math.sqrt(max(0.0, 1.0 - abs(c1) ** 2))
    single = ProbeSpec(c1, c2, 1)
    if abs(c1) ** 2 * c2 * c2 == 0.0:
        raise ValueError(f"the probe has no phase coherence at c1={c1!r} (|c1 c2|^2 is 0 in "
                         "floating point), so F/t is 0 at every time and there is no optimal time")
    x_unc, t_unc, best_single, _ = (float(v[0]) for v in _maximize_rows(
        _probe_columns([(StrategyKind.UNCORRELATED, 1)], single), model))
    unit, divisor = _unit_rate(model)
    if StrategyKind.UNCORRELATED in chosen:
        _, _, gap_unc = saturation_check(single, unit, x_unc / divisor, omega=0.0)
    correlated = [s for s in chosen if s.correlated]
    k = len(correlated)
    per_chunk = max(1, BATCH_ROWS // max(1, k))
    rows = []
    for first in range(n_min, n_max + 1, per_chunk):
        probes = range(first, min(first + per_chunk, n_max + 1))
        if correlated:
            # N ascending, the strategies of each N in declaration order
            probe = _probe_columns([(s, n) for n in probes for s in correlated], single)
            x_opt, t_opt, best, f_phase = _maximize_rows(probe, model)
        best_unc = _uncorrelated_f_over_t(probes, best_single, model)
        optima = []  # (t_opt, F/t, R, gap) of each GHZ row, in the batch's order
        if correlated:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = best_unc.repeat(k) / best
                _check_normal([("ratio_r", ratio)], _at_row(probe.rows, model))
                _, gaps = _saturation_gaps(probe, unit, x_opt[:, None] / divisor,
                                           f_phase[:, None], 0.0, np)
            optima = list(zip(t_opt.tolist(), best.tolist(), ratio.tolist(), gaps[:, 0].tolist()))
        # one (t_opt, F/t, R, gap) column per chosen strategy, one entry per N
        columns = [
            optima[correlated.index(strategy)::k] if strategy.correlated
            else [(t_unc, best_n, 1.0, gap_unc) for best_n in best_unc.tolist()]
            for strategy in chosen
        ]
        rows += [SweepRow(n, strategy, model.kind, model.gamma, *column[i])
                 for i, n in enumerate(probes) for strategy, column in zip(chosen, columns)]
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
    a ValueError names N or the value (t > 0) when it is not a normal double.
    For the dephasing model the quoted GHZ expression carries an extra
    factor of two relative to the closed form this package derives; `table1`
    flags the discrepancy instead of hiding it.
    """
    if n < 1:
        raise ValueError(f"need at least one probe, got {n}")
    if not t >= 0 or not gamma >= 0:
        raise ValueError("gamma and t must be nonnegative")
    if kind not in ("adc", "dpc", "pdc"):
        raise ValueError(f"no tabulated expressions for model kind {kind!r}")

    def where(_):
        return f"gamma={gamma!r} t={t!r}: {_row_name(strategy, n, kind)}"
    _check_normal([("N", n)], where)
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
    value = _FloatMath.exp(log_value)
    if t > 0:
        _check_normal([("tabulated F/t", value)], where)
    return value


def table1(model: NoiseModel, n: int, t: float) -> Table1Row:
    """Closed-form F_omega/t for all three strategies at one (N, t) point.

    Each F/t is t F_phase, checked with F_phase as `fisher.qfi_closed` checks
    F: F = t^2 F_phase may underflow where F/t does not. Includes the tabulated
    GHZ expression alongside the derived one, checked as well; `literal_mismatch`
    is set when the two disagree beyond rounding.
    """
    if not t > 0:
        raise ValueError(f"F/t needs t > 0, got {t}")
    specs = [ProbeSpec.balanced(n, ancillas) for ancillas in (0, 1)]
    f_ghz, f_anc, f_unc = (
        _scaled(kind, specs[kind.default_ancillas], model, t, 1)[1]
        for kind in (StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA, StrategyKind.UNCORRELATED)
    )
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
