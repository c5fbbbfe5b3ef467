"""Parity-type readout that saturates the frequency Cramer-Rao bound.

The observable is supported on the GHZ coherence corner only,

    O = exp(-i*delta)|0...0><1...1| + exp(+i*delta)|1...1><0...0|,

and annihilates the residual sector. Restricted to the block it squares to
the block projector, so the second moment equals the block trace; with that
convention the error-propagation variance, minimized over the measurement
phase delta, meets t/F exactly. (Letting the observable act as the identity
on the residual instead inflates the variance by the residual mass and the
bound is then missed whenever population has leaked out of the block.)

The saturation gap is a batch quantity: `_saturation_gaps` forms the gaps of
many (strategy, probe) rows in one array pass, from each row's log F_phase
at its time, and `saturation_check` is its one-row call. `optimize.sweep`
passes each batch with the probe table and log F_phase its optimizer
already has.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from ._numpy import np
from .channel import NoiseModel, _log_channel
from .fisher import log_qfi_phase
from .state import (
    DirectSumState,
    ProbeSpec,
    StrategyKind,
    _block,
    _probe_table,
    _row_name,
    coherence_block,
    ghz_strategy,
)

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
    return _readout(ds.block[0, 1], ds.n_probes, obs.delta, math)[0], ds.block_trace()


def _readout(off, n_probes, delta, xp):
    """(<O>, d<O>/dphi, whether the slope vanishes) of the corner readout at
    phase delta, from the block coherence off; floats (xp = math) or arrays
    (xp = numpy). The slope vanishes when it is 0 or below 1e-9 of its
    attainable maximum 2N|off|."""
    rotated = (xp.cos(delta) + 1j * xp.sin(delta)) * off
    slope = 2.0 * n_probes * rotated.imag
    slope_max = 2.0 * n_probes * abs(off)
    return 2.0 * rotated.real, slope, (slope_max == 0.0) | (abs(slope) < 1e-9 * slope_max)


def _phase_variance(block: np.ndarray, n_probes: int, obs: GhzObservable) -> float:
    """(<O^2> - <O>^2) / (d<O>/dphi)^2: the mean and its analytic slope
    from the block's off-diagonal, <O^2> the block trace."""
    mean, slope, flat = _readout(block[0, 1], n_probes, obs.delta, math)
    if flat:
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


def _raise_at(failed: np.ndarray, message: str, rows, model: NoiseModel) -> None:
    """Raise ValueError(message) naming the first row where `failed` holds."""
    if failed.any():
        raise ValueError(f"{message}: {_row_name(rows[int(np.argmax(failed))], model)}")


def _saturation_gaps(
    rows: Sequence[tuple[StrategyKind, ProbeSpec]],
    probe_table: tuple[tuple, np.ndarray],
    model: NoiseModel,
    t: np.ndarray,
    log_f: np.ndarray,
    omega: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(quad, gap) of each GHZ (strategy, spec) row at its time t, all rows in one pass.

    probe_table is `state._probe_table(rows)`, the rows' joined block terms
    and columns, which the optimizer has already built for the same rows.
    log_f is each row's log F_phase at its t, as the optimizer already has
    it. The block entries come from `state._block` over the model's
    log-space record at t (`channel._log_channel`, the sign of eta_perp and
    theta_noise included); then the quadrature phase, the mean and its
    slope, and gap = variance * F_phase - 1 with the variance
    (<O^2> - <O>^2) / (d<O>/dphi)^2, all as (rows,) arrays. The pass makes
    no CPTP check of its own: every caller has already evaluated the record
    at the same t, and `_log_channel` checks a custom model each time. Every
    check of the readout is made per row, and a failure names the row's
    strategy and N.
    """
    f_phase = np.exp(log_f)
    _raise_at(f_phase == 0.0, "quantum Fisher information vanishes; nothing to saturate",
              rows, model)
    terms, table = probe_table
    c12 = np.array([spec.c1 * spec.c2.conjugate() for _, spec in rows], dtype=complex)
    n = table[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        record, _, _ = _log_channel(model, t, np, False)
        r00, r11, off, phase = _block(terms, table[2:-1], n, c12, record, omega, t, np)
        # quadrature condition: phase_total - delta - arg(c1 conj(c2)) = pi/2 (mod pi)
        quad = (phase - np.angle(c12) - 0.5 * math.pi) % math.pi
        mean, slope, flat = _readout(off, n, quad, np)
        _raise_at(flat, "the readout has no phase response at quadrature", rows, model)
        variance = ((r00 + r11) - mean * mean) / (slope * slope)
        return quad, variance * f_phase - 1.0


def saturation_check(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
) -> tuple[bool, float, float]:
    """Compare the quadrature-phase readout variance against t/F.

    Returns (is_saturating, best_delta, gap) with gap = variance / (t/F) - 1
    and is_saturating = |gap| <= SATURATION_REL_TOL. The variance is taken at
    the quadrature phase best_delta in [0, pi), where the mean crosses zero
    with maximal slope; the other quadrature phase, best_delta + pi, flips
    the sign of the mean and of the slope, which enter squared, so it gives
    the same variance. The information is the closed form of the spec's
    strategy (`ghz_strategy`), taken as F_phase from `log_qfi_phase`, and
    the gap is formed as the phase variance (<O^2> - <O>^2) / (d<O>/dphi)^2
    times F_phase, minus 1. t cancels out of it, so the gap stays finite
    where F = t^2 F_phase under- or overflows at an extreme t. Only the 2x2
    coherence block is built, from the same log-space terms as that closed
    form, so the cost does not grow with N and the gap stays at rounding
    level at any N. This is the one-row call of the batch that `sweep`
    makes for its GHZ rows, with its own one-row probe table; `sweep` takes
    the table and log F_phase from the optimizer instead. A custom model
    that is not finite or not CPTP at t raises ValueError when
    `log_qfi_phase` reads its log-space record. That no other measurement
    phase does better is checked by a phase scan in `verify`.
    """
    kind = ghz_strategy(spec.n_ancillas)
    rows = [(kind, spec)]
    log_f = float(log_qfi_phase(kind, spec, model, t))
    quad, gap = _saturation_gaps(
        rows, _probe_table(rows), model, np.array([float(t)]), np.array([log_f]), omega
    )
    return bool(abs(gap[0]) <= SATURATION_REL_TOL), float(quad[0]), float(gap[0])
