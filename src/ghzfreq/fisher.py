"""Quantum Fisher information for GHZ frequency probes.

Two phase conventions run through this module. f_phase is the information
about the encoded phase phi = omega*t; f_freq = t**2 * f_phase is the
information about the frequency itself and is what enters the Cramer-Rao
bound Var(omega) * T >= t / f_freq for total acquisition time T.

Two independent routes to the same number:

  * the closed form in the pole-population coefficients, one log-space
    expression for every strategy (`qfi_closed`, `log_qfi_phase`),
  * a symmetric-logarithmic-derivative eigendecomposition of the full
    density matrix (the oracle; shares no algebra with the closed forms).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .channel import NoiseModel, _FloatMath, _log_channel, params_at
from .state import (
    STRATEGIES,
    ProbeSpec,
    StrategyKind,
    _block_log_terms,
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
_TINY = sys.float_info.min  # smallest normal double; below it a result has underflowed


@dataclass(frozen=True)
class QfiResult:
    f_phase: float
    f_freq: float
    route: str


def _log_f_phase(terms, w, log_w, n, model: NoiseModel, t, xp, slope: bool):
    """(log F_phase, d/dt log F_phase or None) at t over the block `terms`.

    w = (|c1|^2, |c2|^2), the log weights log_w that the terms index
    (`state._block_log_terms`) and n the probe count are floats for one
    probe at a float or an array t, or (rows, 1) columns against a
    (rows, points) t, one row per probe.
    """
    power = n if terms else 1
    log_eta, log_half, d_eta, d_half = _log_channel(model, t, xp, slope)
    d_f = None
    if slope and d_eta is not None:
        d_f = 2.0 * power * d_eta + 0.0 * t  # shaped like t
    # the block trace is summed before log F is formed, and its terms are
    # dropped as they are summed unless the slope reads them again: fewer
    # (rows, points) arrays are alive at once
    if terms:
        parts = _block_log_terms(terms, log_w, n, log_half)
        if d_f is not None:
            parts = list(parts)
        log_r0 = functools.reduce(xp.logaddexp, parts)
    log_f = xp.log(4.0 * w[0] * w[1] * n * power) + 2.0 * power * log_eta
    if terms:
        # a zero block trace comes with a zero numerator, so (-inf) - (-inf)
        # = nan stands for F = 0
        log_f = xp.fmax(log_f - log_r0, -math.inf)
        if d_f is not None:
            for part, (_, pole, _) in zip(parts, terms):
                # a pole whose log is constant in t (pdc; adc's A+- and A-+) adds nothing
                if not isinstance(d_half[pole], float) or d_half[pole] != 0.0:
                    d_f = d_f - n * xp.exp(part - log_r0) * d_half[pole]
    return log_f, d_f


def log_qfi_phase(
    strategy: StrategyKind, spec: ProbeSpec, model: NoiseModel, t, slope: bool = False
):
    """log F_phase of one strategy's closed form, at one time or over an array of times.

    For the GHZ strategies (those with block terms in `state.STRATEGIES`)

        log F = log(4 |c1 c2|^2 N^2) + 2N log|eta_perp|
                - logsumexp_i(log w_i + N log(A_i/2)),

    summed over the strategy's block terms, which `state.coherence_block`
    exponentiates into the block diagonal; the uncorrelated form is
    log(4 |c1 c2|^2 N) + 2 log|eta_perp|. Nothing is raised to the N-th
    power in linear space, so the value neither underflows nor loses
    precision at large N*gamma*t. A vanishing numerator or block trace gives
    -inf. The spec's ancilla count is not checked here.

    Returns a float (computed with `math` alone) for a float t of a named
    model, else an array shaped like t. With `slope` set, returns the pair
    (log F, d/dt log F), taken at gamma*t > 0; the derivative is analytic
    for the named models and None for custom ones.
    """
    scalar = isinstance(t, (int, float)) and model.kind != "custom"
    t_arr = float(t) if scalar else np.asarray(t, dtype=float)
    low = t_arr if scalar else float(t_arr.min())
    if low < 0.0:
        raise ValueError(f"interrogation time must be >= 0, got {low}")
    if slope and model.gamma * low == 0.0:
        raise ValueError("the slope of log F is taken at gamma*t > 0 only")
    terms = STRATEGIES[strategy].block_terms
    w = (abs(spec.c1) ** 2, abs(spec.c2) ** 2)
    probe = (w, (_FloatMath.log(w[0]), _FloatMath.log(w[1])), spec.n_probes)
    if scalar:
        log_f, d_f = _log_f_phase(terms, *probe, model, t_arr, _FloatMath, slope)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_f, d_f = _log_f_phase(terms, *probe, model, t_arr, np, slope)
    return (log_f, d_f) if slope else log_f


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

    All three are evaluated in log space (`log_qfi_phase`). Raises
    ValueError when the spec's ancilla count does not fit the strategy, and
    when the information is positive but underflows double precision.
    """
    check_ancillas(strategy, spec.n_ancillas)
    log_f = float(log_qfi_phase(strategy, spec, model, t))
    f_phase = math.exp(log_f)
    f_freq = t * t * f_phase
    if math.isfinite(log_f) and (f_phase < _TINY or (t > 0.0 and f_freq < _TINY)):
        raise ValueError(
            f"information underflows double precision at t={t} (log F_phase = {log_f:.6g})"
        )
    return QfiResult(f_phase, f_freq, STRATEGIES[strategy].route)


def _sld_qfi(rho: np.ndarray, drho) -> float:
    """2 * sum_{ij} |<i|drho|j>|^2 / (lam_i + lam_j) over pairs above SLD_EIGENVALUE_CUTOFF.

    drho is a dense matrix, or the pair (drho[0, -1], drho[-1, 0]) when
    those corners are its only nonzero entries; <i|drho|j> is then the
    rank-2 sum conj(v_0i) drho[0, -1] v_-1j + conj(v_-1i) drho[-1, 0] v_0j
    over the first and last rows of the eigenvectors, not a dense product.
    """
    lam, vec = np.linalg.eigh(rho)
    if isinstance(drho, tuple):
        first, last = vec[0], vec[-1]
        m = np.outer(first.conj(), drho[0] * last) + np.outer(last.conj(), drho[1] * first)
    else:
        m = vec.conj().T @ drho @ vec
    s = lam[:, None] + lam[None, :]
    mask = s > SLD_EIGENVALUE_CUTOFF
    return float(2.0 * np.sum(np.abs(m[mask]) ** 2 / s[mask]))


def qfi_sld_oracle(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
    dphi: float | None = None,
) -> QfiResult:
    """Brute-force QFI from the full density matrix.

    Evolves the dense state, differentiates it with respect to the encoded
    phase (analytically when dphi is None, else by second-order central
    differences of step dphi), and evaluates the eigendecomposition form of
    the symmetric-logarithmic-derivative information.
    """
    params = params_at(model, t)
    rho = evolve_dense(spec, params, omega, t).matrix
    n = spec.n_probes
    if dphi is None:
        drho = (-1j * n * rho[0, -1], 1j * n * rho[-1, 0])
    else:
        if not (0.0 < dphi <= 1e-3):
            raise ValueError(f"finite-difference step must lie in (0, 1e-3], got {dphi}")
        # shifting theta_noise by +-dphi shifts the encoded phase by the same
        # amount, as both enter the block phase only through their sum
        plus = evolve_dense(spec, replace(params, theta_noise=params.theta_noise + dphi), omega, t)
        minus = evolve_dense(spec, replace(params, theta_noise=params.theta_noise - dphi), omega, t)
        drho = (plus.matrix - minus.matrix) / (2.0 * dphi)
    f_phase = _sld_qfi(rho, drho)
    return QfiResult(f_phase, t * t * f_phase, "sld_oracle")
