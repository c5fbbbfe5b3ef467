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

from .channel import NoiseModel
from .fisher import log_qfi_phase
from .state import DirectSumState, ProbeSpec, coherence_block, ghz_strategy

__all__ = [
    "GhzObservable",
    "UnusableWorkingPointError",
    "expectation_moments",
    "error_propagation_sensitivity",
    "saturation_check",
]

SATURATION_REL_TOL = 1e-8  # |gap| at or below which the readout counts as saturating


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


def _phase_variance(block: np.ndarray, n_probes: int, obs: GhzObservable) -> float:
    """(<O^2> - <O>^2) / (d<O>/dphi)^2: the mean and its analytic slope
    from the block's off-diagonal, <O^2> the block trace."""
    rotated = cmath.exp(1j * obs.delta) * block[0, 1]
    mean = 2.0 * rotated.real
    slope = 2.0 * n_probes * rotated.imag
    slope_max = 2.0 * n_probes * abs(block[0, 1])
    if slope_max == 0.0 or abs(slope) < 1e-9 * slope_max:
        raise UnusableWorkingPointError("the mean has no phase response at this working point")
    variance = float(block[0, 0].real + block[1, 1].real) - mean * mean
    return variance / (slope * slope)


def error_propagation_sensitivity(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
    obs: GhzObservable,
) -> float:
    """Var(omega_hat) * T of the corner readout at the given working point.

    Computed as (<O^2> - <O>^2) / (t * (d<O>/dphi)^2) with the analytic
    slope. Both moments live on the coherence block, so only the block is
    built and the cost does not grow with N. Working points where the slope
    vanishes (relative to its attainable maximum) are rejected rather than
    returned as infinities.
    """
    if t <= 0:
        raise ValueError(f"interrogation time must be > 0, got {t}")
    if obs.n_total != spec.n_total:
        raise ValueError(
            f"observable spans {obs.n_total} qubits but the state has {spec.n_total}"
        )
    block, _ = coherence_block(spec, model, omega, t)
    return _phase_variance(block, spec.n_probes, obs) / t


def saturation_check(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
) -> tuple[bool, float, float]:
    """Compare the quadrature-phase readout variance against t/F.

    Returns (is_saturating, best_delta, gap) with gap = variance / (t/F) - 1
    and is_saturating = |gap| <= SATURATION_REL_TOL. The variance is taken at
    the better of the two quadrature phases, where the mean crosses zero with
    maximal slope (ties go to the smaller delta). The information is the
    closed form of the spec's strategy (`ghz_strategy`), taken as F_phase
    from `log_qfi_phase`, and the gap is formed as the phase variance
    (<O^2> - <O>^2) / (d<O>/dphi)^2 times F_phase, minus 1. t cancels out
    of it, so the gap stays finite where F = t^2 F_phase under- or
    overflows at an extreme t. Only the 2x2 coherence block is built, from
    the same log-space terms as that closed form, so the cost does not grow
    with N and the gap stays at rounding level at any N. That no other
    measurement phase does better is checked by a phase scan in `verify`.
    """
    f_phase = math.exp(float(log_qfi_phase(ghz_strategy(spec.n_ancillas), spec, model, t)))
    if f_phase == 0.0:
        raise ValueError("quantum Fisher information vanishes; nothing to saturate")
    block, phase_total = coherence_block(spec, model, omega, t)
    # quadrature condition: phase_total - delta - arg(c1 conj(c2)) = pi/2 (mod pi)
    alpha = cmath.phase(spec.c1 * np.conj(spec.c2))
    quad = (phase_total - alpha - 0.5 * math.pi) % math.pi
    best_delta = math.nan
    best = math.inf
    for delta in (quad, quad + math.pi):
        try:
            val = _phase_variance(block, spec.n_probes, GhzObservable(spec.n_total, delta))
        except UnusableWorkingPointError:
            continue
        if val < best:
            best, best_delta = val, delta
    if not math.isfinite(best):
        raise ValueError("the readout has no phase response at quadrature")
    gap = best * f_phase - 1.0
    return abs(gap) <= SATURATION_REL_TOL, best_delta, gap
