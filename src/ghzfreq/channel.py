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
`_log_channel` is the one place that says how a model at time t, named or
custom, enters the log-space closed forms and the coherence block.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from ._numpy import np

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
_TINY = sys.float_info.min  # smallest normal double; below it a result has underflowed


def _check_normal(columns, where) -> None:
    """Raise ValueError naming the first (name, value) of `columns`, scalars or arrays, that
    is not a normal double, and `where(r)` it was computed: r = 0, or an array's failing row."""
    for name, values in columns:
        scalar = isinstance(values, (int, float))
        if scalar and _TINY <= values <= sys.float_info.max:  # the one-probe fast path
            continue
        for r, value in enumerate((values,) if scalar else values.ravel().tolist()):
            if not _TINY <= value <= sys.float_info.max:  # NaN fails; an int N may pass inf
                cause = "overflows double precision" if value >= _TINY else (
                    f"= {float(value)!r} underflows double precision, below the smallest "
                    f"normal double {_TINY!r},")
                raise ValueError(f"{name} {cause} at {where(r)}")


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
    if not t >= 0:
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
    factor: the Liouville matrix K (`_liouville`) at omega*t = 0 reshuffled,
    entry ((i, k), (j, l)) = K[(i, j), (k, l)] (M.-D. Choi, Linear Algebra
    Appl. 10, 285 (1975)), so it shares no algebra with the closed-form
    spectrum: diagonal {a_pp, a_mp, a_mm, a_pm}/2, corner eta_perp
    exp(-i theta_noise). Array fields give a stack, each its own fields' matrix.
    """
    k = _liouville(params, 0.0, 0.0)
    return k.reshape(k.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(k.shape)


def choi_min_eigenvalue(params: ChannelParams) -> float:
    """Smallest Choi eigenvalue, in closed form.

    The Choi matrix is a 2x2 coherence block on the {|00>, |11>} corner plus
    two decoupled diagonal entries, so its spectrum is available without a
    numerical eigensolver. It is NaN where it is undefined, as when a pole
    coefficient overflows to inf and the corner reads inf - inf.
    """
    fields = (float(params.eta_perp), float(params.eta_par), float(params.kappa))
    return _choi_min(ChannelParams(0.0, *fields), _FloatMath)


def _choi_spectrum(params: ChannelParams, xp):
    """The four Choi eigenvalues (a_mp/2, a_mm/2, s - r, s + r), unsorted.

    The two decoupled diagonal entries, then the eigenvalues of the 2x2
    coherence block on the {|00>, |11>} corner, whose mean is
    s = (a_pp + a_pm)/4 and whose half-gap is r = hypot((a_pp - a_pm)/4,
    eta_perp); theta_noise only rotates the corner's phase. Elementwise on
    array fields (xp numpy), or of float fields (xp `_FloatMath`), whose
    arithmetic gives inf - inf = NaN without a warning.
    """
    a = a_coefficients(params)
    s = 0.25 * (a.a_pp + a.a_pm)
    r = xp.hypot(0.25 * (a.a_pp - a.a_pm), params.eta_perp)
    return 0.5 * a.a_mp, 0.5 * a.a_mm, s - r, s + r


def _choi_min(params: ChannelParams, xp):
    """Smallest Choi eigenvalue of `_choi_spectrum`, NaN if any is NaN."""
    mp, mm, corner_min, _ = _choi_spectrum(params, xp)
    return xp.minimum(xp.minimum(mp, mm), corner_min)


_LOG2 = math.log(2.0)


class _FloatMath:
    """The numpy functions the log-space terms, the coherence block, the
    readout pass and the Choi minimum use, for one Python float.

    A numpy call costs about a microsecond whatever its size, which would
    make a single-point evaluation several times slower than the array
    evaluation of a whole scan step. `exp` returns inf past the largest
    double, `log` returns -inf at 0, `fmax` ignores NaN, `minimum`
    propagates it, `divide` gives inf or NaN at a zero divisor and `where`
    picks one of two values, as their numpy counterparts do under
    np.errstate; none warns, so a float caller enters no errstate.
    """

    expm1, log1p, maximum, cos, sin = math.expm1, math.log1p, max, math.cos, math.sin
    copysign, hypot, angle = math.copysign, math.hypot, cmath.phase

    @staticmethod
    def exp(value: float) -> float:
        try:
            return math.exp(value)
        except OverflowError:  # math raises where numpy returns inf
            return math.inf

    @staticmethod
    def where(condition: bool, a: float, b: float) -> float:
        return a if condition else b

    @staticmethod
    def flatnonzero(value: bool) -> list[int]:
        return [0] if value else []

    @staticmethod
    def divide(a: float, b: float) -> float:
        return a / b if b else a * math.copysign(math.inf, b)

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

    @staticmethod
    def minimum(a: float, b: float) -> float:
        """min(a, b), NaN if either is NaN, as numpy's."""
        return a if a <= b or math.isnan(a) else b


def _log_params(params: ChannelParams, xp):
    """The log-space record (log_eta, log_half, sign, theta) from float or
    array fields: log|eta_perp|, log(A/2) (-inf for A <= 0) per pole, the
    sign of eta_perp and theta_noise."""
    a = a_coefficients(params)
    log_half = tuple(xp.log(xp.maximum(v, 0.0)) - _LOG2 for v in (a.a_pp, a.a_pm, a.a_mp, a.a_mm))
    eta = params.eta_perp
    return xp.log(abs(eta)), log_half, xp.copysign(1.0, eta), params.theta_noise


def _log_channel(model: NoiseModel, t, xp, slope: bool):
    """How the channel at the times t enters the log-space formulas.

    Returns (record, dlog_eta, dlog_half). The record is (log_eta,
    log_half, sign, theta): log|eta_perp|, log(A/2) for the poles (pp, pm,
    mp, mm) as a 4-tuple, the sign of eta_perp and theta_noise, each shaped
    like t or constant. The last two are the t-derivatives of log_eta and
    log_half (None for custom models, whose slope is not analytic).
    `xp` is numpy for an array t and `_FloatMath` for a float t.

    Named models give sign 1.0 and theta 0.0 and are written out in exact
    logarithms (g = exp(-gamma t)), so that N * log(...) keeps full
    precision at large N; a vanishing coefficient gives -inf. They are
    CPTP for every gamma, t >= 0 (their smallest Choi eigenvalue is 0, or
    (1 - g)/2 for dpc). A custom model goes through `params_at` point by
    point, and a ValueError is raised unless every point is finite and
    CPTP (a NaN Choi eigenvalue counts as not CPTP).
    """
    gamma = model.gamma
    if model.kind == "custom":
        times = [float(t)] if xp is _FloatMath else np.ravel(t).tolist()
        points = [params_at(model, s) for s in times]
        params = points[0] if xp is _FloatMath else ChannelParams(*(
            np.array([getattr(p, name) for p in points]).reshape(np.shape(t))
            for name in ("theta_noise", "eta_perp", "eta_par", "kappa")
        ))
        # fmax turns a NaN eigenvalue into -inf, so that it fails the test too
        bad = xp.flatnonzero(xp.fmax(_choi_min(params, xp), -math.inf) < -CP_TOL)
        if len(bad):
            raise ValueError(f"model parameters at t={times[bad[0]]} are not CPTP")
        return _log_params(params, xp), None, None
    x = gamma * t
    if model.kind == "pdc":  # A++ = A+- = 2, A-+ = A-- = 0
        return (-x, (0.0, 0.0, -math.inf, -math.inf), 1.0, 0.0), -gamma, (0.0, 0.0, 0.0, 0.0)
    em1 = xp.expm1(-x)  # g - 1
    # d/dt log(1 - g) = gamma g / (1 - g)
    d_low = -gamma * (1.0 + em1) / em1 if slope else None
    if model.kind == "adc":  # A++ = 2g, A+- = 2, A-+ = 0, A-- = 2(1 - g)
        log_half = (-x, 0.0, -math.inf, xp.log(-em1))
        return (-0.5 * x, log_half, 1.0, 0.0), -0.5 * gamma, (-gamma, 0.0, 0.0, d_low)
    # dpc: A++ = A+- = 1 + g, A-+ = A-- = 1 - g
    high, low = xp.log1p(0.5 * em1), xp.log(-em1) - _LOG2
    d_high = -gamma * (1.0 + em1) / (2.0 + em1) if slope else None
    return (-x, (high, high, low, low), 1.0, 0.0), -gamma, (d_high, d_high, d_low, d_low)


def is_cptp(params: ChannelParams) -> bool:
    """Decide complete positivity from the exact Choi spectrum.

    Trace preservation is structural for the affine form, so the test reduces
    to the closed-form inequalities

        a_mp >= 0,  a_mm >= 0,  a_pp * a_pm >= 4 * eta_perp**2,

    evaluated as a minimum-eigenvalue threshold so the verdict agrees with a
    numerical Choi eigensolver to within CP_TOL. The spectrum does not
    depend on theta_noise, but the Choi matrix holds exp(i theta_noise), so
    a non-finite theta_noise is not CPTP either; nor is a NaN spectrum.
    """
    return math.isfinite(params.theta_noise) and choi_min_eigenvalue(params) >= -CP_TOL


def _require_cptp(params: ChannelParams) -> None:
    if not is_cptp(params):
        raise ValueError("channel parameters are not CPTP")


def affine_apply(params: ChannelParams, omega: float, t: float, r: np.ndarray) -> np.ndarray:
    """Map a Bloch vector through the channel with frequency encoding.

    The rotation angle is theta_noise + omega*t; the map is ``superoperator``
    applied to (1, r). Rejects non-CPTP params and |r| > 1.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    _require_cptp(params)
    if not np.linalg.norm(r) <= 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
    return (superoperator(params, omega, t) @ np.array([1.0, *r]))[1:]


def superoperator(params: ChannelParams, omega: float, t: float) -> np.ndarray:
    """4x4 real matrix acting on the extended Bloch column (r0, rx, ry, rz).

    Block form [[1, 0], [c, A]], acting on (tr(rho), r); the one place the
    rotation is written out, read by ``affine_apply`` and `_liouville`.
    Raises ValueError when a float rotation angle is not finite; array fields
    give a stack of matrices over their shape, NaN where the angle is not.
    """
    th = params.theta_noise + omega * t
    xp = _FloatMath if isinstance(th, (int, float)) else np
    if xp is _FloatMath and not math.isfinite(th):  # math.cos would raise "math domain error"
        raise ValueError(
            f"the rotation angle theta_noise + omega*t = {th!r} is not a finite double at "
            f"theta_noise={params.theta_noise!r}, omega={omega!r}, t={t!r}"
        )
    cth, sth = xp.cos(th), xp.sin(th)
    ep, el, ka = params.eta_perp, params.eta_par, params.kappa
    s = np.zeros(np.broadcast(th, ep, el, ka).shape + (4, 4))
    s[..., 0, 0], s[..., 3, 0], s[..., 3, 3] = 1.0, ka, el
    s[..., 1, 1] = s[..., 2, 2] = ep * cth
    s[..., 2, 1] = ep * sth
    s[..., 1, 2] = -s[..., 2, 1]
    return s


@functools.cache
def _pauli_basis() -> tuple[np.ndarray, np.ndarray]:
    """(B, C) between a qubit's extended Bloch column v and its rho flattened
    row-major: vec rho = (B/2) v, B's columns I, X, Y, Z (`_pauli_operators`),
    and v = C vec rho, C = B^H, as v_b = tr(P_b rho). Built once; read only."""
    b = np.stack([np.eye(2), *_pauli_operators()[:3]]).reshape(4, 4).T
    c = b.conj().T
    b.flags.writeable = c.flags.writeable = False
    return b, c


def _liouville(params: ChannelParams, omega: float, t: float) -> np.ndarray:
    """The Liouville matrix K = (B/2) s C (`_pauli_basis`) of s = `superoperator`,
    vec rho' = K vec rho, stacked over array fields (s cast first and K halved in
    place, so a stack peaks at two complex copies); each entry a sum of +-s_ab and
    +-i*s_ab terms halved after the sum, 0 where K of a phase-covariant s vanishes."""
    b, c = _pauli_basis()
    k = b @ superoperator(params, omega, t).astype(complex) @ c
    return np.multiply(k, 0.5, out=k)


def _lindblad_rhs(rho: np.ndarray, h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for L in jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        out += L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def _pauli_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sx, sy, sz, sminus) as complex 2x2 arrays.

    sminus is the lowering operator consistent with kappa <= 0 for
    amplitude damping: population flows from |0> (north pole) to |1>
    (south pole).
    """
    return tuple(np.array(m, dtype=complex) for m in (
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
        [[0.0, 0.0], [1.0, 0.0]],
    ))


def _jump_operators(model: NoiseModel) -> list[np.ndarray]:
    g = model.gamma
    sx, sy, sz, sminus = _pauli_operators()
    if model.kind == "adc":
        return [math.sqrt(g) * sminus]
    if model.kind == "dpc":
        return [math.sqrt(0.25 * g) * p for p in (sx, sy, sz)]
    if model.kind == "pdc":
        return [math.sqrt(0.5 * g) * sz]
    raise ValueError(f"model kind {model.kind!r} has no Lindblad form")


def _check_density(rho: np.ndarray, name: str) -> None:
    """Raise ValueError, naming the matrix `name`, unless the square matrix `rho`
    is Hermitian and of unit trace: every entry of rho - rho^H within 1e-12
    and tr(rho) within 1e-10 of 1. A NaN entry fails. rho - rho^H is formed
    one 64x64 tile at a time, tile (i, j) of the upper triangle against tile
    (j, i) transposed, so the check of a large matrix reads no strided column
    and allocates no temporary of its size."""
    hermitian, trace = 1e-12, 1e-10
    tile, dim = 64, len(rho)
    worst = np.max([np.abs(rho[i:i + tile, j:j + tile] - rho[j:j + tile, i:i + tile].conj().T).max()
                    for i in range(0, dim, tile) for j in range(i, dim, tile)])
    if not worst <= hermitian:
        raise ValueError(f"{name} is not Hermitian within {hermitian!r}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= trace:
        raise ValueError(f"{name} trace {tr} is not 1 within {trace!r}")


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
    if not t >= 0:
        raise ValueError(f"integration time must be >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError(f"rho0 must be 2x2, got shape {rho0.shape}")
    _check_density(rho0, "rho0")
    jumps = _jump_operators(model)
    h = 0.5 * omega * _pauli_operators()[2]
    dt = t / steps
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    x = dt * np.stack([_lindblad_rhs(e, h, jumps).ravel() for e in units], axis=1)
    x2 = x @ x
    step = np.eye(4) + x + x2 / 2.0 + (x2 @ x) / 6.0 + (x2 @ x2) / 24.0
    return (np.linalg.matrix_power(step, steps) @ rho0.ravel()).reshape(2, 2)
