"""Parity-type readout that saturates the frequency Cramer-Rao bound.

The observable is supported on the GHZ coherence corner only,

    O = exp(-i*delta)|0...0><1...1| + exp(+i*delta)|1...1><0...0|,

and annihilates the residual sector. Restricted to the block it squares to
the block projector, so the second moment equals the block trace; with that
convention the error-propagation variance, minimized over the measurement
phase delta, meets t/F exactly. (Letting the observable act as the identity
on the residual instead inflates the variance by the residual mass and the
bound is then missed whenever population has leaked out of the block.)

Every readout quantity, the mean, its phase slope and the phase variance,
comes from one formula (`_readout`) on floats or arrays. The saturation-gap
pass `_saturation_gaps` reads a probe record (`state._Probe`):
`saturation_check` runs it on one probe's floats, and `optimize.sweep` on
each batch's columns, with the record and F_phase its optimizer checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._numpy import np
from .channel import NoiseModel, _check_normal, _FloatMath, _log_channel
from .fisher import _log_f_phase
from .state import (
    DirectSumState,
    ProbeSpec,
    _block,
    _probe,
    _row_name,
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
    read directly off the block coherence (`_readout`); <O^2> is the block
    trace since O^2 is the block projector.
    """
    if obs.n_total != ds.n_total:
        raise ValueError(
            f"observable spans {obs.n_total} qubits but the state has {ds.n_total}"
        )
    second = ds.block_trace()
    return _readout(second, complex(ds.block[0, 1]), ds.n_probes, obs.delta, _FloatMath)[0], second


def _readout(second, off, n_probes, delta, xp):
    """(<O>, (<O^2> - <O>^2) / (d<O>/dphi)^2, whether d<O>/dphi vanishes) of
    the corner readout at phase delta, from the block trace second = <O^2>
    and the block coherence off; floats (xp = `channel._FloatMath`) or arrays
    (xp = numpy). The slope vanishes when it is 0 or below 1e-9 of its
    attainable maximum 2N|off|; each caller raises its own error then."""
    rotated = (xp.cos(delta) + 1j * xp.sin(delta)) * off
    mean = 2.0 * rotated.real
    slope = 2.0 * n_probes * rotated.imag
    slope_max = 2.0 * n_probes * abs(off)
    flat = (slope_max == 0.0) | (abs(slope) < 1e-9 * slope_max)
    return mean, xp.divide(second - mean * mean, slope * slope), flat


def error_propagation_sensitivity(
    spec: ProbeSpec,
    model: NoiseModel,
    t: float,
    omega: float,
    obs: GhzObservable,
) -> float:
    """Var(omega_hat) * T of the corner readout at the given working point.

    Computed as (<O^2> - <O>^2) / (t * (d<O>/dphi)^2) with the analytic
    slope (`_readout`). Both moments live on the coherence block, so only
    its entries are built, in floats, and the cost does not grow with N.
    Working points where the slope vanishes (relative to its attainable
    maximum) are rejected rather than returned as infinities.
    """
    if t <= 0:
        raise ValueError(f"interrogation time must be > 0, got {t}")
    if obs.n_total != spec.n_total:
        raise ValueError(
            f"observable spans {obs.n_total} qubits but the state has {spec.n_total}"
        )
    record, _, _ = _log_channel(model, t, _FloatMath, False)
    probe = _probe(ghz_strategy(spec.n_ancillas), spec)
    r00, r11, off, _ = _block(probe, record, omega, t, _FloatMath)
    _, variance, flat = _readout(r00 + r11, off, spec.n_probes, obs.delta, _FloatMath)
    if flat:
        raise UnusableWorkingPointError("the mean has no phase response at this working point")
    return variance / t


def _saturation_gaps(probe, model: NoiseModel, t, f_phase, omega: float, xp):
    """(quad, gap) of each GHZ row of the probe record `probe` (`state._Probe`)
    at its time t, all rows in one pass.

    f_phase is each row's F_phase at its t: floats for one probe
    (`state._probe`, xp = `channel._FloatMath`), or (rows, 1) columns for a
    batch (`state._probe_columns`, xp = numpy). The block entries come from
    `state._block` over the model's log-space record at t
    (`channel._log_channel`, the sign of eta_perp and theta_noise included);
    then the quadrature phase, the readout there (`_readout`) and gap =
    variance * F_phase - 1, all shaped like t. Its one check is the
    readout's, a slope at quadrature that does not vanish; every caller has
    checked the rest at the same t (F_phase positive and normal, and the CPTP
    record of a custom model). It enters no errstate: a numpy caller does.
    """
    record, _, _ = _log_channel(model, t, xp, False)
    r00, r11, off, phase = _block(probe, record, omega, t, xp)
    # quadrature condition: phase_total - delta - arg(c1 conj(c2)) = pi/2 (mod pi)
    quad = (phase - xp.angle(probe.c12) - 0.5 * math.pi) % math.pi
    _, variance, flat = _readout(r00 + r11, off, probe.n, quad, xp)
    first = xp.flatnonzero(flat)
    if len(first):
        raise ValueError("the readout has no phase response at quadrature: "
                         f"{_row_name(*probe.rows[int(first[0])], model.kind)}")
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
    strategy (`ghz_strategy`), taken as F_phase from the same probe record
    (`fisher._log_f_phase`), and the gap is formed as the phase variance
    (<O^2> - <O>^2) / (d<O>/dphi)^2 times F_phase, minus 1. t cancels out
    of it, so the gap stays finite where F = t^2 F_phase under- or
    overflows at an extreme t; F_phase itself must be a normal double, or a
    ValueError names it. Only the 2x2 coherence block's entries are
    built, from the same log-space terms as that closed form, so the cost
    does not grow with N and the gap stays at rounding level at any N. This
    is the one-row, float call of the batch pass that `sweep` makes for its
    GHZ rows. A custom model that is not finite or not CPTP at t raises
    ValueError when its log-space record is read. That no other measurement
    phase does better is checked by a phase scan in `verify`.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"interrogation time must be >= 0, got {t}")
    probe = _probe(ghz_strategy(spec.n_ancillas), spec)
    f_phase = _FloatMath.exp(_log_f_phase(probe, model, t, _FloatMath, False)[0])
    name = _row_name(*probe.rows[0], model.kind)
    if f_phase == 0.0:
        raise ValueError(f"quantum Fisher information vanishes; nothing to saturate: {name}")
    _check_normal([("F_phase", f_phase)], lambda _: name)
    quad, gap = _saturation_gaps(probe, model, t, f_phase, omega, _FloatMath)
    return abs(gap) <= SATURATION_REL_TOL, float(quad), float(gap)
