"""Phase-covariant qubit channels as affine Bloch-vector maps.

A channel acts on the Bloch vector as r -> A(theta) r + c with

    A = [[ep*cos(th), -ep*sin(th), 0],
         [ep*sin(th),  ep*cos(th), 0],
         [0,           0,          el]],   c = (0, 0, kappa),

where th combines the noise-induced rotation with the frequency encoding
omega*t, ep shrinks the equatorial plane and (el, kappa) move the poles.
Three named dissipation models are provided (amplitude damping, isotropic
depolarization, pure dephasing) together with a Choi-based complete-positivity
test and an independent fixed-step Lindblad integrator used for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ChannelParams",
    "ACoefficients",
    "NoiseModel",
    "adc",
    "dpc",
    "pdc",
    "custom",
    "params_at",
    "a_coefficients",
    "affine_apply",
    "choi_matrix",
    "choi_min_eigenvalue",
    "is_cptp",
    "superoperator",
    "integrate_master_equation",
]

CP_TOL = 1e-12

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# lowering operator consistent with kappa <= 0 for amplitude damping:
# population flows from |0> (north pole) to |1> (south pole)
_SMINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ChannelParams:
    """Snapshot of the affine map at one instant.

    theta_noise is only the noise-induced rotation angle; the frequency
    encoding omega*t is applied separately so it is never double counted.
    All three named models have theta_noise = 0. Values outside the
    physical region are representable; ``is_cptp`` is the validity test.
    """

    theta_noise: float
    eta_perp: float
    eta_par: float
    kappa: float


@dataclass(frozen=True)
class ACoefficients:
    """Pole-population coefficients A(s1, s2) = 1 + s1*eta_par + s2*kappa.

    The first sign subscript applies to eta_par, the second to kappa.
    They obey a_pp + a_mm = a_pm + a_mp = 2 identically.
    """

    a_pp: float
    a_pm: float
    a_mp: float
    a_mm: float


@dataclass(frozen=True)
class NoiseModel:
    """A named dissipation process with rate gamma.

    kind is one of "adc", "dpc", "pdc", "custom". Custom models supply
    ``rule(t) -> ChannelParams`` and have no Lindblad form.
    """

    kind: str
    gamma: float
    rule: Callable[[float], ChannelParams] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("adc", "dpc", "pdc", "custom"):
            raise ValueError(f"unknown noise model kind: {self.kind!r}")
        if not (self.gamma >= 0.0) or not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.kind == "custom" and self.rule is None:
            raise ValueError("custom models need a rule(t) -> ChannelParams")


def adc(gamma: float) -> NoiseModel:
    """Amplitude damping at rate gamma (decay toward the south pole)."""
    return NoiseModel("adc", gamma)


def dpc(gamma: float) -> NoiseModel:
    """Isotropic depolarization at rate gamma."""
    return NoiseModel("dpc", gamma)


def pdc(gamma: float) -> NoiseModel:
    """Pure dephasing at rate gamma (poles untouched)."""
    return NoiseModel("pdc", gamma)


def custom(rule: Callable[[float], ChannelParams], gamma: float = 1.0) -> NoiseModel:
    """Wrap an arbitrary t -> ChannelParams rule as a NoiseModel."""
    return NoiseModel("custom", gamma, rule)


def params_at(model: NoiseModel, t: float) -> ChannelParams:
    """Evaluate the model's affine parameters after interrogation time t.

    Dictionaries for the named models (g = exp(-gamma*t)):
        adc: (0, sqrt(g), g, g - 1)
        dpc: (0, g, g, 0)
        pdc: (0, g, 1, 0)
    """
    if t < 0:
        raise ValueError(f"interrogation time must be >= 0, got {t}")
    if model.kind == "custom":
        assert model.rule is not None
        return model.rule(t)
    g = math.exp(-model.gamma * t)
    if model.kind == "adc":
        return ChannelParams(0.0, math.exp(-0.5 * model.gamma * t), g, g - 1.0)
    if model.kind == "dpc":
        return ChannelParams(0.0, g, g, 0.0)
    return ChannelParams(0.0, g, 1.0, 0.0)


def a_coefficients(params: ChannelParams) -> ACoefficients:
    el, ka = params.eta_par, params.kappa
    return ACoefficients(
        a_pp=1.0 + el + ka,
        a_pm=1.0 + el - ka,
        a_mp=1.0 - el + ka,
        a_mm=1.0 - el - ka,
    )


def choi_matrix(params: ChannelParams) -> np.ndarray:
    """Choi matrix (trace 2) of the affine map, frequency encoding off.

    Basis order |00>, |01>, |10>, |11> with the channel acting on the first
    factor. Diagonal is {a_pp, a_mp, a_mm, a_pm}/2; the only coherence sits
    on the |00><11| corner with magnitude eta_perp.
    """
    a = a_coefficients(params)
    corner = params.eta_perp * np.exp(-1j * params.theta_noise)
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 0.5 * a.a_pp
    c[1, 1] = 0.5 * a.a_mp
    c[2, 2] = 0.5 * a.a_mm
    c[3, 3] = 0.5 * a.a_pm
    c[0, 3] = corner
    c[3, 0] = np.conj(corner)
    return c


def choi_min_eigenvalue(params: ChannelParams) -> float:
    """Smallest Choi eigenvalue, in closed form.

    The Choi matrix is a 2x2 coherence block on the {|00>, |11>} corner plus
    two decoupled diagonal entries, so its spectrum is available without a
    numerical eigensolver.
    """
    return float(_choi_min(a_coefficients(params), params.eta_perp))


def _choi_min(a: ACoefficients, eta_perp):
    """Smallest Choi eigenvalue from the pole coefficients; elementwise on arrays."""
    s = 0.25 * (a.a_pp + a.a_pm)
    d = 0.25 * (a.a_pp - a.a_pm)
    corner_min = s - np.hypot(d, eta_perp)
    return np.minimum(np.minimum(0.5 * a.a_mp, 0.5 * a.a_mm), corner_min)


def is_cptp(params: ChannelParams, tol: float = CP_TOL) -> bool:
    """Decide complete positivity from the exact Choi spectrum.

    Trace preservation is structural for the affine form, so the test reduces
    to the closed-form inequalities

        a_mp >= 0,  a_mm >= 0,  a_pp * a_pm >= 4 * eta_perp**2,

    evaluated as a minimum-eigenvalue threshold so the verdict agrees with a
    numerical Choi eigensolver to within tol.
    """
    return choi_min_eigenvalue(params) >= -tol


def affine_apply(
    params: ChannelParams,
    omega: float,
    t: float,
    r: np.ndarray,
    unchecked: bool = False,
) -> np.ndarray:
    """Map a Bloch vector through the channel with frequency encoding.

    The rotation angle is theta_noise + omega*t. Rejects non-CPTP params
    and |r| > 1 unless ``unchecked`` is set.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    if not unchecked:
        if not is_cptp(params):
            raise ValueError("channel parameters are not CPTP; pass unchecked=True to force")
        if np.linalg.norm(r) > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
    th = params.theta_noise + omega * t
    cth, sth = math.cos(th), math.sin(th)
    ep, el, ka = params.eta_perp, params.eta_par, params.kappa
    return np.array(
        [
            ep * (cth * r[0] - sth * r[1]),
            ep * (sth * r[0] + cth * r[1]),
            el * r[2] + ka,
        ]
    )


def superoperator(params: ChannelParams, omega: float, t: float) -> np.ndarray:
    """4x4 real matrix acting on the extended Bloch column (r0, rx, ry, rz).

    Block form [[1, 0], [c, A]]; applying it to (tr(rho), r) reproduces
    ``affine_apply`` and is the per-qubit building block of the dense
    evolution.
    """
    th = params.theta_noise + omega * t
    cth, sth = math.cos(th), math.sin(th)
    ep, el, ka = params.eta_perp, params.eta_par, params.kappa
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, ep * cth, -ep * sth, 0.0],
            [0.0, ep * sth, ep * cth, 0.0],
            [ka, 0.0, 0.0, el],
        ]
    )


def _lindblad_rhs(rho: np.ndarray, h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for L in jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        out += L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def _jump_operators(model: NoiseModel) -> list[np.ndarray]:
    g = model.gamma
    if model.kind == "adc":
        return [math.sqrt(g) * _SMINUS]
    if model.kind == "dpc":
        return [math.sqrt(0.25 * g) * p for p in (_SX, _SY, _SZ)]
    if model.kind == "pdc":
        return [math.sqrt(0.5 * g) * _SZ]
    raise ValueError(f"model kind {model.kind!r} has no Lindblad form")


def integrate_master_equation(
    model: NoiseModel,
    omega: float,
    t: float,
    rho0: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Fixed-step classical RK4 integration of the single-qubit master equation.

    H = omega*sz/2 plus the model's dissipator. The equation is linear, so an
    RK4 step of size dt is the fixed 4x4 matrix
    P = I + X + X^2/2 + X^3/6 + X^4/24 with X = dt*L, where the Liouvillian L
    holds the right-hand side of the four 2x2 matrix units as columns;
    ``steps`` steps apply P**steps (repeated squaring) to the flattened rho0.
    Converges to the affine map of ``params_at`` at O(steps**-4). L is built
    from the jump operators and H alone, with no code shared with the
    closed-form path, so the integrator can serve as an oracle.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if t < 0:
        raise ValueError(f"integration time must be >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError(f"rho0 must be 2x2, got shape {rho0.shape}")
    if abs(rho0[0, 1] - np.conj(rho0[1, 0])) > 1e-12 or abs(rho0[0, 0].imag) > 1e-12:
        raise ValueError("rho0 is not Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError(f"rho0 trace {np.trace(rho0)} is not 1")
    jumps = _jump_operators(model)
    h = 0.5 * omega * _SZ
    dt = t / steps
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    x = dt * np.stack([_lindblad_rhs(e, h, jumps).ravel() for e in units], axis=1)
    x2 = x @ x
    step = np.eye(4) + x + x2 / 2.0 + (x2 @ x) / 6.0 + (x2 @ x2) / 24.0
    return (np.linalg.matrix_power(step, steps) @ rho0.ravel()).reshape(2, 2)
