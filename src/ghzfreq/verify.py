"""Built-in cross-checks between independent computation routes.

Every closed-form result in this package has a slower redundant route: the
direct-sum evolution has a dense tensor-product twin, the affine channel
has a master-equation integrator, the block QFI has a full SLD
eigendecomposition, and the complete-positivity predicate has a numerical
Choi eigensolver. `run_verification` exercises each pair on seeded random
inputs and reports one line per check, so a broken invariant is caught
here before it surfaces as a silently wrong number downstream.

Two checks play referee between conflicting tabulated expressions rather
than between routes: the uncorrelated-strategy denominator (per-qubit,
not raised to the probe count) and the factor-two discrepancy in the
commonly quoted GHZ dephasing formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .channel import (
    CP_TOL,
    ChannelParams,
    a_coefficients,
    adc,
    choi_matrix,
    choi_min_eigenvalue,
    custom,
    dpc,
    integrate_master_equation,
    is_cptp,
    params_at,
    pdc,
    superoperator,
)
from .fisher import qfi_closed, qfi_sld_oracle
from .measurement import (
    SATURATION_REL_TOL,
    GhzObservable,
    _readout,
    error_propagation_sensitivity,
    expectation_moments,
    saturation_check,
)
from .optimize import StrategyKind, maximize_f_over_t, sensitivity_ratio, tabulated_f_over_t
from .state import (
    ProbeSpec,
    assert_consistency,
    block_probe,
    coherence_block,
    evolve_dense,
    evolve_directsum,
    ghz_strategy,
)

__all__ = ["CheckResult", "run_verification"]

_MODELS = (adc, dpc, pdc)
# shared bounds: closed form vs SLD oracle (relative), rounding alone, an
# exact ratio, and a limit reached to within an approximation
_ORACLE_TOL = 1e-7
_ROUNDING = 1e-12
_RATIO_TOL = 1e-9
_LIMIT_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """A check's criteria, each a (label, value, low, high) tuple where a bound
    of None is absent. It passes when every value is finite and within its
    bounds. A value over draws is folded with np.max or np.min, which
    propagate NaN, so a NaN in any draw fails the check."""

    name: str
    criteria: tuple[tuple[str, float, float | None, float | None], ...]

    @property
    def passed(self) -> bool:
        return all(math.isfinite(value) and (low is None or low <= value)
                   and (high is None or value <= high) for _, value, low, high in self.criteria)

    @property
    def detail(self) -> str:
        # a count, such as cp_boundary's disagreements, prints as an integer
        return "; ".join(f"{label} {value:{'d' if isinstance(value, int) else '.3e'}}" + "".join(
            f" ({sign} {bound!r})" for sign, bound in ((">=", low), ("<=", high)) if bound is not None
        ) for label, value, low, high in self.criteria)

    def as_dict(self) -> dict:
        """The JSON record; a value that is not finite is written as null."""
        criteria = [{"label": label, "value": value if math.isfinite(value) else None,
                     "low": low, "high": high} for label, value, low, high in self.criteria]
        return {"name": self.name, "passed": self.passed, "detail": self.detail,
                "criteria": criteria}


def _random_spec(rng: np.random.Generator, n: int, n_anc: int) -> ProbeSpec:
    w = rng.uniform(0.15, 0.85)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    c1 = math.sqrt(w) * np.exp(1j * p1)
    c2 = math.sqrt(1.0 - w) * np.exp(1j * p2)
    return ProbeSpec(complex(c1), complex(c2), n, n_anc)


def _check_route_agreement(rng: np.random.Generator, nmax: int) -> CheckResult:
    devs = []
    for make in _MODELS:
        model = make(1.0)
        for n in range(1, nmax + 1):
            # three draws per GHZ strategy, each followed by one of the
            # uncorrelated strategy, checked by additivity over its one-qubit
            # blocks
            for kind, draws in (
                (StrategyKind.GHZ_FREE, 3), (StrategyKind.UNCORRELATED, 1),
                (StrategyKind.GHZ_ANCILLA, 3), (StrategyKind.UNCORRELATED, 1),
            ):
                for _ in range(draws):
                    spec = _random_spec(rng, n, kind.default_ancillas)
                    t = rng.uniform(0.05, 1.5)
                    omega = rng.uniform(-2.0, 2.0)
                    closed = qfi_closed(kind, spec, model, t).f_freq
                    unit, copies = block_probe(kind, spec)
                    oracle = copies * qfi_sld_oracle(unit, model, t, omega).f_freq
                    devs.append(abs(closed - oracle) / max(oracle, 1e-300))
    return CheckResult("route_agreement", (
        ("closed vs SLD oracle, max rel dev", np.max(devs), None, _ORACLE_TOL),
    ))


def _check_uncorrelated_denominator(rng: np.random.Generator, nmax: int) -> CheckResult:
    devs, variant_devs = [], []
    for make in _MODELS:
        model = make(1.0)
        for n in range(2, max(nmax, 3) + 1):
            spec = _random_spec(rng, n, 0)
            t = rng.uniform(0.5, 1.2)
            omega = rng.uniform(-2.0, 2.0)
            unit, copies = block_probe(StrategyKind.UNCORRELATED, spec)
            oracle = copies * qfi_sld_oracle(unit, model, t, omega).f_freq
            closed = qfi_closed(StrategyKind.UNCORRELATED, spec, model, t).f_freq
            devs.append(abs(closed - oracle) / max(oracle, 1e-300))
            # the rejected variant raises the block weights to the N-th power
            a = a_coefficients(params_at(model, t))
            w1, w2 = abs(spec.c1) ** 2, abs(spec.c2) ** 2
            r0_n = (
                w1 * (a.a_pp / 2.0) ** n
                + w2 * (a.a_mp / 2.0) ** n
                + w1 * (a.a_mm / 2.0) ** n
                + w2 * (a.a_pm / 2.0) ** n
            )
            eta_perp = params_at(model, t).eta_perp
            variant = 4.0 * w1 * w2 * n * eta_perp**2 * t**2 / r0_n
            variant_devs.append(abs(variant - oracle) / max(oracle, 1e-300))
    return CheckResult("uncorrelated_denominator", (
        ("per-qubit form vs oracle, max rel dev", np.max(devs), None, _ORACLE_TOL),
        # the variant must be off by more than 1e-4 on some draw
        ("power-N variant vs oracle, max rel dev", np.max(variant_devs),
         math.nextafter(1e-4, math.inf), None),
    ))


def _check_tabulated_forms(rng: np.random.Generator, nmax: int) -> CheckResult:
    devs, ratio_devs = [], []
    for kind, make in (("adc", adc), ("dpc", dpc), ("pdc", pdc)):
        model = make(1.0)
        for _ in range(10):
            n = int(rng.integers(1, max(nmax, 2) + 1))
            t = rng.uniform(0.05, 1.5)
            spec = ProbeSpec.balanced(n, 0)
            closed = qfi_closed(StrategyKind.GHZ_FREE, spec, model, t).f_freq / t
            lit = tabulated_f_over_t(kind, StrategyKind.GHZ_FREE, n, 1.0, t)
            if kind == "dpc":
                ratio_devs.append(abs(lit / closed - 2.0))
            else:
                devs.append(abs(lit - closed) / closed)
            for strat in (StrategyKind.GHZ_ANCILLA, StrategyKind.UNCORRELATED):
                probe = ProbeSpec.balanced(n, strat.default_ancillas)
                f = qfi_closed(strat, probe, model, t).f_freq / t
                lit = tabulated_f_over_t(kind, strat, n, 1.0, t)
                devs.append(abs(lit - f) / f)
    return CheckResult("tabulated_forms", (
        ("matching entries, max rel dev", np.max(devs), None, _ROUNDING),
        ("dephasing GHZ entry / closed form - 2, max |dev|", np.max(ratio_devs),
         None, _RATIO_TOL),
    ))


def _check_cp_boundary(rng: np.random.Generator) -> CheckResult:
    draws = 2000
    fields = rng.uniform(-1.5, 1.5, size=(draws, 4))
    maps = [ChannelParams(*row) for row in fields]
    numeric = np.linalg.eigvalsh(choi_matrix(ChannelParams(*fields.T)))[:, 0]
    disagreements, devs = 0, []
    for params, lowest in zip(maps, numeric.tolist()):
        devs.append(abs(choi_min_eigenvalue(params) - lowest))
        disagreements += is_cptp(params) != (lowest >= -CP_TOL)
    return CheckResult("cp_boundary", (
        (f"predicate disagreements in {draws} random maps", disagreements, None, 0),
        ("min-eigenvalue routes, max dev", np.max(devs), None, None),
    ))


def _check_master_equation(rng: np.random.Generator) -> CheckResult:
    devs = []
    for make in _MODELS:
        model = make(1.0)
        t = rng.uniform(1.0, 2.0)
        omega = rng.uniform(-2.0, 2.0)
        r = rng.uniform(-1.0, 1.0, size=3)
        r *= rng.uniform(0.0, 0.99) / max(np.linalg.norm(r), 1e-12)
        rho0 = 0.5 * np.array(
            [[1.0 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1.0 - r[2]]],
            dtype=complex,
        )
        rho_ode = integrate_master_equation(model, omega, t, rho0, steps=10_000)
        s = superoperator(params_at(model, t), omega, t)
        v = s @ np.array([1.0, r[0], r[1], r[2]])
        rho_map = 0.5 * np.array(
            [[v[0] + v[3], v[1] - 1j * v[2]], [v[1] + 1j * v[2], v[0] - v[3]]],
            dtype=complex,
        )
        devs.append(np.max(np.abs(rho_ode - rho_map)))
    return CheckResult("master_equation", (
        ("RK4 (1e4 steps) vs affine map, max entry dev", np.max(devs), None, _LIMIT_TOL),
    ))


def _check_directsum_consistency(rng: np.random.Generator, nmax: int) -> CheckResult:
    dense_devs, trace_devs, moment_devs, eigs = [], [], [], []
    for make in _MODELS:
        model = make(1.0)
        for n_anc in (0, 2):
            n = 1 if nmax == 1 else int(rng.integers(2, min(nmax, 4) + 1))
            spec = _random_spec(rng, n, n_anc)
            t = rng.uniform(0.05, 1.2)
            omega = rng.uniform(-2.0, 2.0)
            params = params_at(model, t)
            ds = evolve_directsum(ghz_strategy(n_anc), spec, params, omega, t)
            dense = evolve_dense(spec, params, omega, t)
            dense_devs.append(assert_consistency(ds, dense))
            trace_devs.append(abs(ds.block_trace() + ds.residual_mass() - 1.0))
            eigs.append(np.linalg.eigvalsh(ds.block)[0])
            obs = GhzObservable(ds.n_total, rng.uniform(0.0, 2.0 * math.pi))
            mean, second = expectation_moments(ds, obs)
            o = obs.dense_matrix()
            mean_dense = float(np.trace(o @ dense.matrix).real)
            second_dense = float(np.trace(o @ o @ dense.matrix).real)
            moment_devs += [abs(mean - mean_dense), abs(second - second_dense)]
    return CheckResult("directsum_consistency", (
        ("dense dev", np.max(dense_devs), None, _ROUNDING),
        ("trace closure", np.max(trace_devs), None, _ROUNDING),
        ("block min eig", np.min(eigs), -_ROUNDING, None),
        ("moment dev", np.max(moment_devs), None, _ROUNDING),
    ))


SCAN_PHASES = 720


def _check_saturation(rng: np.random.Generator) -> CheckResult:
    """Quadrature readout meets t/F, and no phase on a uniform grid beats it.

    `saturation_check` evaluates only the quadrature phase; here the
    error-propagation sensitivity is also scanned over SCAN_PHASES measurement
    phases in [0, 2*pi), in one readout pass (`measurement._readout`) over
    one coherence block per working point, leaving out the phases where the
    mean has no phase response. The margin is the smallest relative excess
    of a grid phase's variance over the quadrature variance (about 0 when a
    grid phase lands on quadrature, negative if one did better).
    """
    gaps, margins = [], []
    for make in _MODELS:
        model = make(1.0)
        for spec in (ProbeSpec.balanced(3, 0), ProbeSpec.balanced(2, 1)):
            t = rng.uniform(0.3, 1.0)
            omega = rng.uniform(-2.0, 2.0)
            _, delta, gap = saturation_check(spec, model, t, omega)
            gaps.append(abs(gap))
            n_total = spec.n_total
            quad = error_propagation_sensitivity(spec, model, t, omega, GhzObservable(n_total, delta))
            block, _ = coherence_block(spec, model, omega, t)
            phases = 2.0 * math.pi * np.arange(SCAN_PHASES) / SCAN_PHASES
            with np.errstate(divide="ignore", invalid="ignore"):
                _, variance, flat = _readout(
                    block[0, 0].real + block[1, 1].real, block[0, 1], spec.n_probes, phases, np
                )
            margins.append(np.min(variance[~flat] / t / quad - 1.0, initial=math.inf))
    return CheckResult("readout_saturation", (
        ("corner readout at quadrature vs t/F, max |gap|", np.max(gaps),
         None, SATURATION_REL_TOL),
        (f"best of {SCAN_PHASES} grid phases above quadrature", np.min(margins),
         -_ROUNDING, None),
    ))


def _check_time_optima(rng: np.random.Generator) -> CheckResult:
    """The optimal times against the paper's: t = 1/gamma (adc) and 1/(2 gamma)
    (dpc, pdc) for the uncorrelated strategy, 1/(2 N gamma) for pdc GHZ.

    The optimizer takes those rows in closed form, so at the seeded rate
    each is also found by the numerical scan and slope search, on the model
    wrapped as a custom map (whose slope is not analytic); both must match.
    """
    devs: list[float] = []
    for gamma, search in ((1.0, False), (float(rng.uniform(0.3, 3.0)), True)):
        n = 3
        spec = ProbeSpec.balanced(n, 0)
        e_gamma = math.e * gamma
        for make, strategy, t_paper, best_paper in (
            (adc, StrategyKind.UNCORRELATED, 1.0 / gamma, n / e_gamma),
            (dpc, StrategyKind.UNCORRELATED, 0.5 / gamma, n / (2.0 * e_gamma)),
            (pdc, StrategyKind.UNCORRELATED, 0.5 / gamma, n / (2.0 * e_gamma)),
            (pdc, StrategyKind.GHZ_FREE, 0.5 / (n * gamma), n / (2.0 * e_gamma)),
        ):
            models = [make(gamma)]
            if search:
                models.append(custom(lambda t, named=models[0]: params_at(named, t), gamma))
            for model in models:
                t_opt, best = maximize_f_over_t(strategy, spec, model)
                devs.append(abs(t_opt - t_paper) / t_paper)
                devs.append(abs(best - best_paper) / best_paper)
    r_pdc = sensitivity_ratio(ProbeSpec.balanced(4, 0), pdc(1.0), StrategyKind.GHZ_FREE)
    r_a = sensitivity_ratio(ProbeSpec.balanced(3, 0), adc(1.0), StrategyKind.GHZ_FREE)
    r_b = sensitivity_ratio(ProbeSpec.balanced(3, 0), adc(2.7), StrategyKind.GHZ_FREE)
    return CheckResult("time_optima", (
        ("analytic optima, max rel dev", np.max(devs), None, 1e-8),
        ("dephasing-limit ratio |R-1|", abs(r_pdc - 1.0), None, _LIMIT_TOL),
        ("gamma invariance of R", abs(r_a - r_b), None, _RATIO_TOL),
    ))


def _check_noiseless_limit(nmax: int) -> CheckResult:
    devs = []
    model = pdc(0.0)
    for n in range(1, nmax + 1):
        for t in (0.3, 1.7):
            oracle = qfi_sld_oracle(ProbeSpec.balanced(n), model, t, 0.7).f_freq
            devs.append(abs(oracle - n**2 * t**2))
            for kind, law in (
                (StrategyKind.GHZ_FREE, n**2), (StrategyKind.GHZ_ANCILLA, n**2),
                (StrategyKind.UNCORRELATED, n),
            ):
                probe = ProbeSpec.balanced(n, kind.default_ancillas)
                devs.append(abs(qfi_closed(kind, probe, model, t).f_freq - law * t**2))
    return CheckResult("noiseless_limit", (
        ("gamma=0 information vs N^2 t^2 and N t^2, max dev", np.max(devs), None, _ROUNDING),
    ))


def run_verification(nmax: int = 5, seed: int = 7) -> list[CheckResult]:
    """Run every cross-check on seeded inputs; nmax caps the probe count."""
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if nmax > 10:
        raise ValueError(f"nmax {nmax} would make the dense oracle states huge")
    rng = np.random.default_rng(seed)
    return [
        _check_route_agreement(rng, nmax),
        _check_uncorrelated_denominator(rng, nmax),
        _check_tabulated_forms(rng, nmax),
        _check_cp_boundary(rng),
        _check_master_equation(rng),
        _check_directsum_consistency(rng, nmax),
        _check_saturation(rng),
        _check_time_optima(rng),
        _check_noiseless_limit(nmax),
    ]
