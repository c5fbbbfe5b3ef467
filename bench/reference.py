"""Reference values for the benchmark's output checks, written from the formulas.

Nothing here is imported from `ghzfreq`: the channel dictionaries, the
closed-form information of the three strategies, their optimal times and the
Choi spectrum are written out again from the formulas in PAPER.md and
README.md, in log space so that deep-decay points keep their value.

With g = exp(-gamma*t), the channel moves the Bloch vector by
    adc: eta_perp = exp(-gamma*t/2), eta_par = g, kappa = g - 1
    dpc: eta_perp = g,               eta_par = g, kappa = 0
    pdc: eta_perp = g,               eta_par = 1, kappa = 0
and A(s1, s2) = 1 + s1*eta_par + s2*kappa. For weights w1 = |c1|^2,
w2 = |c2|^2 the information about the frequency is
    ghz_free:     F = 4 t^2 w1 w2 N^2 eta_perp^(2N) / r0,
                  r0 = 2^-N [w1 (A++^N + A--^N) + w2 (A-+^N + A+-^N)]
    ghz_ancilla:  same numerator, r0 = 2^-N (w1 A++^N + w2 A+-^N)
    uncorrelated: F = 4 t^2 w1 w2 N eta_perp^2, since the per-qubit
                  denominator w1 (A++ + A--)/2 + w2 (A-+ + A+-)/2 is 1.
"""

from __future__ import annotations

import math

__all__ = [
    "channel",
    "choi_eigenvalues",
    "log_qfi",
    "f_over_t",
    "optimum",
]

_LOG2 = math.log(2.0)


def channel(model: str, gamma: float, t: float) -> tuple[float, float, float]:
    """(eta_perp, eta_par, kappa) of the named model after time t."""
    g = math.exp(-gamma * t)
    if model == "adc":
        return math.exp(-0.5 * gamma * t), g, math.expm1(-gamma * t)
    if model == "dpc":
        return g, g, 0.0
    if model == "pdc":
        return g, 1.0, 0.0
    raise ValueError(f"unknown model {model!r}")


def choi_eigenvalues(eta_perp: float, eta_par: float, kappa: float) -> list[float]:
    """Ascending spectrum of the trace-2 Choi matrix of the affine map.

    The matrix is diag(A++, A-+, A--, A+-)/2 plus the coherence eta_perp
    between the first and last basis states, so two eigenvalues are A-+/2 and
    A--/2 and the other two come from a 2x2 block.
    """
    a_pp, a_pm = 1.0 + eta_par + kappa, 1.0 + eta_par - kappa
    a_mp, a_mm = 1.0 - eta_par + kappa, 1.0 - eta_par - kappa
    mean, half_diff = 0.25 * (a_pp + a_pm), 0.25 * (a_pp - a_pm)
    radius = math.hypot(half_diff, eta_perp)
    return sorted([0.5 * a_mp, 0.5 * a_mm, mean - radius, mean + radius])


def _log_eta_perp(model: str, x: float) -> float:
    return -0.5 * x if model == "adc" else -x


def _log_half_a(model: str, x: float) -> dict[str, float | None]:
    """log(A/2) for each pole coefficient at gamma*t = x; None where A = 0."""
    log_one_minus_g = math.log(-math.expm1(-x))
    if model == "adc":  # A++ = 2g, A+- = 2, A-+ = 0, A-- = 2(1 - g)
        return {"pp": -x, "pm": 0.0, "mp": None, "mm": log_one_minus_g}
    if model == "dpc":  # A++ = A+- = 1 + g, A-+ = A-- = 1 - g
        hi = math.log1p(math.exp(-x)) - _LOG2
        lo = log_one_minus_g - _LOG2
        return {"pp": hi, "pm": hi, "mp": lo, "mm": lo}
    if model == "pdc":  # A++ = A+- = 2, A-+ = A-- = 0
        return {"pp": 0.0, "pm": 0.0, "mp": None, "mm": None}
    raise ValueError(f"unknown model {model!r}")


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def log_qfi(strategy: str, model: str, gamma: float, n: int, t: float,
            w1: float, w2: float) -> float:
    """log F for a strategy named as in the CLI output (ghz_free, ...); t, gamma > 0."""
    x = gamma * t
    log_eta = _log_eta_perp(model, x)
    base = math.log(4.0 * w1 * w2) + 2.0 * math.log(t)
    if strategy == "uncorrelated":
        return base + math.log(n) + 2.0 * log_eta
    half = _log_half_a(model, x)
    if strategy == "ghz_free":
        terms = [(w1, half["pp"]), (w1, half["mm"]), (w2, half["mp"]), (w2, half["pm"])]
    elif strategy == "ghz_ancilla":
        terms = [(w1, half["pp"]), (w2, half["pm"])]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    log_r0 = _logsumexp([math.log(w) + n * la for w, la in terms if la is not None and w > 0])
    return base + 2.0 * math.log(n) + 2.0 * n * log_eta - log_r0


def f_over_t(strategy: str, model: str, gamma: float, n: int, t: float,
             w1: float, w2: float) -> float:
    return math.exp(log_qfi(strategy, model, gamma, n, t, w1, w2) - math.log(t))


def optimum(strategy: str, model: str, gamma: float, n: int,
            w1: float, w2: float) -> tuple[float, float]:
    """(t_opt, max F/t) of one strategy.

    Analytic where the profile is t*exp(-k*t): uncorrelated adc peaks at
    1/gamma, uncorrelated dpc/pdc at 1/(2 gamma), and GHZ pdc (with or without
    ancilla, r0 = 1) at 1/(2 N gamma) with maximum 4 w1 w2 N / (2 e gamma).
    The adc/dpc GHZ profiles are maximized numerically by scipy's bounded
    search over log t.
    """
    scale = 4.0 * w1 * w2
    if strategy == "uncorrelated":
        t_opt = 1.0 / gamma if model == "adc" else 0.5 / gamma
        return t_opt, scale * n * t_opt / math.e
    if model == "pdc":
        return 0.5 / (n * gamma), scale * n / (2.0 * math.e * gamma)
    from scipy.optimize import minimize_scalar

    def neg_log(u: float) -> float:
        return -(log_qfi(strategy, model, gamma, n, math.exp(u), w1, w2) - u)

    res = minimize_scalar(
        neg_log,
        bounds=(math.log(1e-3 / (n * gamma)), math.log(10.0 / gamma)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    t_opt = math.exp(res.x)
    return t_opt, f_over_t(strategy, model, gamma, n, t_opt, w1, w2)
