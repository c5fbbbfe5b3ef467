"""Parity-type readout that saturates the frequency Cramer-Rao bound.

The observable is supported on the GHZ coherence corner only,

    O = exp(-i*delta)|0...0><1...1| + exp(+i*delta)|1...1><0...0|,

and annihilates the residual sector. Restricted to the block it squares to
the block projector, so the second moment equals the block trace; with that
convention the error-propagation variance, minimized over the measurement
phase delta, meets t/F exactly. (Letting the observable act as the identity
on the residual instead inflates the variance by the residual mass and the
bound is then missed whenever population has leaked out of the block.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseModel, params_at
from .fisher import qfi_ancilla_closed, qfi_ghz_closed
from .state import (
    DirectSumState,
    ProbeSpec,
    coherence_block,
    evolve_directsum_ancilla,
    evolve_directsum_free,
)

__all__ = [
    "GhzObservable",
    "UnusableWorkingPointError",
    "expectation_moments",
    "error_propagation_sensitivity",
    "saturation_check",
]


class UnusableWorkingPointError(ValueError):
    """The mean's phase response vanishes, so error propagation is undefined."""


@dataclass(frozen=True)
class GhzObservable:
    """Corner observable on n_total qubits with tunable measurement phase delta.

    delta = 0 gives the plain corner-swap operator; the residual sector is
    annihilated (see the module docstring for why that choice is the
    saturating one).
    """

    n_total: int
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError(f"observable needs at least one qubit, got {self.n_total}")

    def dense_matrix(self) -> np.ndarray:
        dim = 2**self.n_total
        o = np.zeros((dim, dim), dtype=complex)
        o[0, -1] = cmath.exp(-1j * self.delta)
        o[-1, 0] = cmath.exp(1j * self.delta)
        return o


def _evolved(spec: ProbeSpec, model: NoiseModel, t: float, omega: float) -> DirectSumState:
    params = params_at(model, t)
    if spec.n_ancillas == 0:
        return evolve_directsum_free(spec, params, omega, t)
    return evolve_directsum_ancilla(spec, params, omega, t)


def expectation_moments(ds: DirectSumState, obs: GhzObservable) -> tuple[float, float]:
    """(<O>, <O^2>) on a direct-sum state.

    <O> = 2 |c1 c2| eta_perp^N cos(phase_total - delta - arg(c1*conj(c2)))
    read directly off the block coherence; <O^2> is the block trace since
    O^2 is the block projector.
    """
    if obs.n_total != ds.n_total:
        raise ValueError(
            f"observable spans {obs.n_total} qubits but the state has {ds.n_total}"
        )
    rotated = cmath.exp(1j * obs.delta) * ds.block[0, 1]
    mean = 2.0 * rotated.real
    return mean, ds.block_trace()


def _mean_and_slope(
    coherence: complex, n_probes: int, obs: GhzObservable
) -> tuple[float, float, float]:
    """mean, d<O>/dphi and the slope's attainable maximum, all analytic,
    from the block's off-diagonal entry."""
    rotated = cmath.exp(1j * obs.delta) * coherence
    mean = 2.0 * rotated.real
    slope = 2.0 * n_probes * rotated.imag
    slope_max = 2.0 * n_probes * abs(coherence)
    return mean, slope, slope_max


def error_propagation_sensitivity(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
    obs: GhzObservable,
) -> float:
    """Var(omega_hat) * T of the corner readout at the given working point.

    Computed as (<O^2> - <O>^2) / (t * (d<O>/dphi)^2) with the analytic
    slope. Working points where the slope vanishes (relative to its
    attainable maximum) are rejected rather than returned as infinities.
    """
    if t <= 0:
        raise ValueError(f"interrogation time must be > 0, got {t}")
    ds = _evolved(spec, model, t, omega)
    if obs.n_total != ds.n_total:
        raise ValueError(
            f"observable spans {obs.n_total} qubits but the state has {ds.n_total}"
        )
    mean, slope, slope_max = _mean_and_slope(ds.block[0, 1], ds.n_probes, obs)
    if slope_max == 0.0 or abs(slope) < 1e-9 * slope_max:
        raise UnusableWorkingPointError(
            "the mean has no phase response at this working point"
        )
    variance = ds.block_trace() - mean * mean
    return variance / (t * slope * slope)


def saturation_check(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
    rel_tol: float = 1e-8,
) -> tuple[bool, float, float]:
    """Compare the quadrature-phase readout variance against t/F.

    Returns (is_saturating, best_delta, gap) with gap = variance / (t/F) - 1,
    the variance taken at the better of the two quadrature phases, where the
    mean crosses zero with maximal slope (ties go to the smaller delta). Only
    the 2x2 coherence block is built, so the cost does not grow with N. That
    no other measurement phase does better is checked by a phase scan in
    `verify`.
    """
    if spec.n_ancillas == 0:
        f = qfi_ghz_closed(spec, model, t).f_freq
    else:
        f = qfi_ancilla_closed(spec, model, t).f_freq
    if f <= 0.0:
        raise ValueError("quantum Fisher information vanishes; nothing to saturate")
    bound = t / f
    block, phase_total = coherence_block(spec, params_at(model, t), omega, t)
    block_trace = float(block[0, 0].real + block[1, 1].real)
    n_total = spec.n_probes + spec.n_ancillas
    # quadrature condition: phase_total - delta - arg(c1 conj(c2)) = pi/2 (mod pi)
    alpha = cmath.phase(spec.c1 * np.conj(spec.c2))
    quad = (phase_total - alpha - 0.5 * math.pi) % math.pi
    best_delta = math.nan
    best = math.inf
    for delta in (quad, quad + math.pi):
        obs = GhzObservable(n_total, delta)
        mean, slope, slope_max = _mean_and_slope(block[0, 1], spec.n_probes, obs)
        if slope_max == 0.0 or abs(slope) < 1e-9 * slope_max:
            continue
        val = (block_trace - mean * mean) / (t * slope * slope)
        if val < best:
            best, best_delta = val, delta
    if not math.isfinite(best):
        raise ValueError("the readout has no phase response at quadrature")
    gap = best / bound - 1.0
    return abs(gap) <= rel_tol, best_delta, gap
