"""Quantum Fisher information for GHZ frequency probes.

Two phase conventions run through this module. f_phase is the information
about the encoded phase phi = omega*t; f_freq = t**2 * f_phase is the
information about the frequency itself and is what enters the Cramer-Rao
bound Var(omega) * T >= t / f_freq for total acquisition time T.

Two independent routes to the same number:

  * the closed form in the pole-population coefficients, one log-space
    expression for every strategy (`qfi_closed`, `log_qfi_phase`),
  * the symmetric-logarithmic-derivative sum over the coupled block of the
    dense state (the oracle; shares no algebra with the closed forms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._numpy import np
from .channel import NoiseModel, _check_normal, _FloatMath, _log_channel, params_at
from .state import (
    ProbeSpec,
    StrategyKind,
    _block_log_terms,
    _probe,
    _row_name,
    check_ancillas,
    evolve_dense,
)

__all__ = [
    "SLD_EIGENVALUE_CUTOFF",
    "QfiResult",
    "log_qfi_phase",
    "qfi_closed",
    "qfi_sld_oracle",
]

SLD_EIGENVALUE_CUTOFF = 1e-12


@dataclass(frozen=True)
class QfiResult:
    f_phase: float
    f_freq: float
    route: str


def _log_f_phase(probe, model: NoiseModel, t, xp, slope: bool):
    """(log F_phase, d/dt log F_phase or None) at t of the probe record
    `probe` (`state._Probe`): floats for one probe at a float or an array t,
    or (rows, 1) columns against a (rows, points) t, one row per probe. P, the
    record's `power`, multiplies 2 log|eta_perp| and its slope. The slope
    reads again each block term (`state._block_log_terms`) of log r0."""
    n, power = probe.n, probe.power
    (log_eta, log_half, _, _), d_eta, d_half = _log_channel(model, t, xp, slope)
    d_f = None
    if slope and d_eta is not None:
        d_f = power * (2.0 * d_eta) + 0.0 * t  # shaped like t; 2 P overflows from P = 9e307
    log_f = probe.log_f0 + power * (2.0 * log_eta)
    if probe.terms:
        live, parts = _block_log_terms(probe, log_half)
        # a strategy whose every term drops out has r0 = 0, so log r0 = -inf
        # and F = 0 (an initial -inf would cost one more array logaddexp)
        log_r0 = functools.reduce(xp.logaddexp, parts) if live else -math.inf
        # a zero block trace comes with a zero numerator, so (-inf) - (-inf)
        # = nan stands for F = 0
        log_f = xp.fmax(log_f - log_r0, -math.inf)
        if d_f is not None:
            for (pole, _, _), part in zip(live, parts):
                # a pole whose log is constant in t (pdc; adc's A+- and A-+) adds nothing
                if not isinstance(d_half[pole], float) or d_half[pole] != 0.0:
                    d_f = d_f - n * xp.exp(part - log_r0) * d_half[pole]
    return log_f, d_f


def log_qfi_phase(strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel, t):
    """log F_phase of one strategy's closed form, at one time or over an array of times.

    For the GHZ strategies (those whose `StrategyKind` member has block terms)

        log F = log(4 |c1 c2|^2 N^2) + 2N log|eta_perp|
                - logsumexp_i(log w_i + N log(A_i/2)),

    summed over the block terms of the probe's record (`state._probe`),
    which `state.coherence_block` exponentiates into the block diagonal; the
    uncorrelated form is
    log(4 |c1 c2|^2 N) + 2 log|eta_perp|. Nothing is raised to the N-th
    power in linear space, so the value neither underflows nor loses
    precision at large N*gamma*t, nor leaves the doubles where 4 |c1 c2|^2 N^2
    does (`state._log_noiseless`). A vanishing numerator or block trace gives
    -inf. The spec's ancilla count is not checked here; a custom model that
    is not finite or not CPTP at t raises ValueError.

    Returns a float (computed with `math` alone, for a custom model too)
    for a float t, else an array shaped like t.
    """
    scalar = isinstance(t, (int, float))
    t_arr = float(t) if scalar else np.asarray(t, dtype=float)
    low = t_arr if scalar else float(t_arr.min())
    if low < 0.0:
        raise ValueError(f"interrogation time must be >= 0, got {low}")
    probe = _probe(strategy, spec)
    if scalar:
        return _log_f_phase(probe, model, t_arr, _FloatMath, False)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _log_f_phase(probe, model, t_arr, np, False)[0]


def qfi_closed(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel, t: float
) -> QfiResult:
    """Closed-form information of `strategy` for the probe `spec` at time t.

    With N the probe count and a_xy the pole populations
    (`channel.a_coefficients`):

      * GHZ_FREE: F = 4 t^2 |c1 c2|^2 N^2 eta_perp^(2N) / r0 with the block
        trace r0 = 2^-N [ |c1|^2 (a_pp^N + a_mm^N) + |c2|^2 (a_mp^N + a_pm^N) ];
      * GHZ_ANCILLA: the same numerator over the smaller block trace
        r0 = 2^-N ( |c1|^2 a_pp^N + |c2|^2 a_pm^N ). The ancilla count never
        enters, so the result is independent of how many are attached;
      * UNCORRELATED: N independent one-qubit probes with amplitudes
        (c1, c2), F = 4 t^2 |c1 c2|^2 N eta_perp^2; with every exponent 1
        the block trace is 1 identically.

    All three are evaluated in log space (`log_qfi_phase`), and F as
    t (t F_phase). Raises ValueError when the spec's ancilla count does not
    fit the strategy, and when F_phase or F is not a normal double
    (`channel._check_normal`). A log F_phase of -inf is F = 0 only for a
    probe without coherence (c1 c2 = 0) or a custom map that destroys it; for
    a named model (gamma*t overflowing, |c1 c2|^2 underflowing) it underflows.
    """
    f_phase, f_freq = _scaled(strategy, spec, model, t, 2)
    return QfiResult(f_phase, f_freq, strategy.route)


def _scaled(strategy, spec, model: NoiseModel, t, power: int) -> tuple[float, float]:
    """(F_phase, t**power F_phase) at t, power 1 (F/t) or 2 (F), checked as `qfi_closed`
    says (F = 0 at t = 0 is exact); t^2 alone may leave the doubles first, so each
    factor t comes in alone."""
    check_ancillas(strategy, spec.n_ancillas)
    log_f = float(log_qfi_phase(strategy, spec, model, t))
    f_phase = scaled = _FloatMath.exp(log_f)
    for _ in range(power):
        scaled = t * scaled if scaled else 0.0  # t may be inf
    if log_f != -math.inf or (model.kind != "custom" and spec.c1 and spec.c2):
        columns = [("F_phase", f_phase), (("F/t", "F")[power - 1], scaled)]
        _check_normal(columns if t else columns[:1], lambda _: (
            f"gamma={model.gamma!r} t={t!r}: {_row_name(strategy, spec.n_probes, model.kind)}"))
    return f_phase, scaled


def _sld_qfi(rho: np.ndarray, n_probes: int) -> float:
    """2 * sum_{ij} |<i|drho|j>|^2 / (lam_i + lam_j) over pairs above SLD_EIGENVALUE_CUTOFF.

    drho = d rho/d phi has two nonzero entries, drho[0, -1] = -i N rho[0, -1]
    and its conjugate, so <i|drho|j> = conj(v_0i) drho[0, -1] v_-1j +
    conj(v_-1i) drho[-1, 0] v_0j. A row whose one nonzero entry (exactly) is
    its diagonal is an eigenvector with no weight in rows 0 and -1, so the sum
    runs over the block of the other rows alone, wherever they sit; rows 0
    and -1 are its first and last. A zero corner gives drho = 0 and F = 0.
    """
    if rho[0, -1] == 0:
        return 0.0
    nonzero = rho != 0
    coupled = (nonzero.sum(axis=1) > nonzero.diagonal()).nonzero()[0]
    lam, vec = np.linalg.eigh(rho[coupled[:, None], coupled])
    first, last = vec[0], vec[-1]
    m = (np.outer(first.conj(), -1j * n_probes * rho[0, -1] * last)
         + np.outer(last.conj(), 1j * n_probes * rho[-1, 0] * first))
    s = lam[:, None] + lam[None, :]
    mask = s > SLD_EIGENVALUE_CUTOFF
    return float(2.0 * np.sum(np.abs(m[mask]) ** 2 / s[mask]))


def qfi_sld_oracle(spec: ProbeSpec, model: NoiseModel, t: float, omega: float) -> QfiResult:
    """Brute-force QFI from the dense density matrix.

    Evolves the dense state and evaluates the eigendecomposition form of the
    symmetric-logarithmic-derivative information on it (`_sld_qfi`): d rho/d phi
    from the state's two corners, eigenpairs from the block of rows that rho's
    exact zeros leave coupled.
    """
    rho = evolve_dense(spec, params_at(model, t), omega, t).matrix
    f_phase = _sld_qfi(rho, spec.n_probes)
    return QfiResult(f_phase, t * (t * f_phase), "sld_oracle")  # t^2 alone may underflow
