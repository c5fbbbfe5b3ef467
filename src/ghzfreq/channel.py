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

    A custom model's rule(t) is the one place its parameters enter, so a
    ValueError is raised there unless every field is finite.
    """
    if t < 0:
        raise ValueError(f"interrogation time must be >= 0, got {t}")
    if model.kind == "custom":
        assert model.rule is not None
        params = model.rule(t)
        fields = (params.theta_noise, params.eta_perp, params.eta_par, params.kappa)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"model parameters at t={t} are not finite: {params}")
        return params
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


_LOG2 = math.log(2.0)


class _FloatMath:
    """The numpy functions the log-space terms use, for one Python float.

    A numpy call costs about a microsecond whatever its size, which would
    make a single-point evaluation several times slower than the array
    evaluation of a whole scan step. `log` returns -inf at 0 and `fmax`
    ignores NaN, as their numpy counterparts do under np.errstate.
    """

    exp, expm1, log1p, maximum = math.exp, math.expm1, math.log1p, max

    @staticmethod
    def log(value: float) -> float:
        return math.log(value) if value > 0.0 else -math.inf

    @staticmethod
    def logaddexp(a: float, b: float) -> float:
        top = max(a, b)
        return top if top == -math.inf else top + math.log1p(math.exp(-abs(a - b)))

    @staticmethod
    def fmax(a: float, b: float) -> float:
        return b if math.isnan(a) else max(a, b)


def _log_params(params: ChannelParams, xp):
    """log|eta_perp| and log(A/2) (-inf for A <= 0) per pole from float or array fields."""
    a = a_coefficients(params)
    log_half = tuple(xp.log(xp.maximum(v, 0.0)) - _LOG2 for v in (a.a_pp, a.a_pm, a.a_mp, a.a_mm))
    return xp.log(abs(params.eta_perp)), log_half


def _log_channel(model: NoiseModel, t, xp, slope: bool):
    """log|eta_perp| and log(A/2) for the poles (pp, pm, mp, mm) at the times t.

    `xp` is numpy for an array t and `_FloatMath` for a float of a named
    model. Returns (log_eta, log_half, dlog_eta, dlog_half): log_half is a
    4-tuple whose entries are shaped like t or constant, and the last two
    are the t-derivatives (None for custom models, whose slope is not
    analytic). Named models are written out in exact logarithms
    (g = exp(-gamma t)), so that N * log(...) keeps full precision at large
    N; a vanishing coefficient gives -inf. They are CPTP for every gamma,
    t >= 0 (their smallest Choi eigenvalue is 0, or (1 - g)/2 for dpc).
    Custom models take an array t of any shape and go through `params_at`
    point by point, each point checked for complete positivity.
    """
    gamma = model.gamma
    if model.kind == "custom":
        times = np.ravel(t)
        points = [params_at(model, float(s)) for s in times]
        params = ChannelParams(0.0, *(
            np.array([getattr(p, name) for p in points]).reshape(np.shape(t))
            for name in ("eta_perp", "eta_par", "kappa")
        ))
        # NaN-safe: a NaN eigenvalue is not CPTP either
        bad = ~(_choi_min(a_coefficients(params), params.eta_perp) >= -CP_TOL)
        if bad.any():
            raise ValueError(f"model parameters at t={float(times[np.argmax(bad)])} are not CPTP")
        return (*_log_params(params, np), None, None)
    x = gamma * t
    if model.kind == "pdc":  # A++ = A+- = 2, A-+ = A-- = 0
        return -x, (0.0, 0.0, -math.inf, -math.inf), -gamma, (0.0, 0.0, 0.0, 0.0)
    em1 = xp.expm1(-x)  # g - 1
    # d/dt log(1 - g) = gamma g / (1 - g)
    d_low = -gamma * (1.0 + em1) / em1 if slope else None
    if model.kind == "adc":  # A++ = 2g, A+- = 2, A-+ = 0, A-- = 2(1 - g)
        log_half = (-x, 0.0, -math.inf, xp.log(-em1))
        return -0.5 * x, log_half, -0.5 * gamma, (-gamma, 0.0, 0.0, d_low)
    # dpc: A++ = A+- = 1 + g, A-+ = A-- = 1 - g
    high, low = xp.log1p(0.5 * em1), xp.log(-em1) - _LOG2
    d_high = -gamma * (1.0 + em1) / (2.0 + em1) if slope else None
    return -x, (high, high, low, low), -gamma, (d_high, d_high, d_low, d_low)


def is_cptp(params: ChannelParams) -> bool:
    """Decide complete positivity from the exact Choi spectrum.

    Trace preservation is structural for the affine form, so the test reduces
    to the closed-form inequalities

        a_mp >= 0,  a_mm >= 0,  a_pp * a_pm >= 4 * eta_perp**2,

    evaluated as a minimum-eigenvalue threshold so the verdict agrees with a
    numerical Choi eigensolver to within CP_TOL.
    """
    return choi_min_eigenvalue(params) >= -CP_TOL


def affine_apply(params: ChannelParams, omega: float, t: float, r: np.ndarray) -> np.ndarray:
    """Map a Bloch vector through the channel with frequency encoding.

    The rotation angle is theta_noise + omega*t; the map is ``superoperator``
    applied to (1, r). Rejects non-CPTP params and |r| > 1.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    if not is_cptp(params):
        raise ValueError("channel parameters are not CPTP")
    if np.linalg.norm(r) > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
    return (superoperator(params, omega, t) @ np.array([1.0, *r]))[1:]


def superoperator(params: ChannelParams, omega: float, t: float) -> np.ndarray:
    """4x4 real matrix acting on the extended Bloch column (r0, rx, ry, rz).

    Block form [[1, 0], [c, A]], acting on (tr(rho), r); the one place the
    rotation is written out, used by ``affine_apply`` and, per qubit, by the
    dense evolution.
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
