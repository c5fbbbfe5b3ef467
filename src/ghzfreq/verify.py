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

import numpy as np

from .channel import (
    ChannelParams,
    a_coefficients,
    adc,
    choi_matrix,
    choi_min_eigenvalue,
    dpc,
    integrate_master_equation,
    is_cptp,
    params_at,
    pdc,
    superoperator,
)
from .fisher import qfi_closed, qfi_sld_oracle
from .measurement import (
    GhzObservable,
    UnusableWorkingPointError,
    _phase_variance,
    error_propagation_sensitivity,
    expectation_moments,
    saturation_check,
)
from .optimize import StrategyKind, maximize_f_over_t, sensitivity_ratio, tabulated_f_over_t
from .state import (
    STRATEGIES,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # comparisons against numpy scalars yield np.bool_, which JSON rejects
        object.__setattr__(self, "passed", bool(self.passed))


def _random_spec(rng: np.random.Generator, n: int, n_anc: int) -> ProbeSpec:
    w = rng.uniform(0.15, 0.85)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    c1 = math.sqrt(w) * np.exp(1j * p1)
    c2 = math.sqrt(1.0 - w) * np.exp(1j * p2)
    return ProbeSpec(complex(c1), complex(c2), n, n_anc)


def _check_route_agreement(rng: np.random.Generator, nmax: int) -> CheckResult:
    worst = 0.0
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
                    spec = _random_spec(rng, n, STRATEGIES[kind].default_ancillas)
                    t = rng.uniform(0.05, 1.5)
                    omega = rng.uniform(-2.0, 2.0)
                    closed = qfi_closed(kind, spec, model, t).f_freq
                    unit, copies = block_probe(kind, spec)
                    oracle = copies * qfi_sld_oracle(unit, model, t, omega).f_freq
                    worst = max(worst, abs(closed - oracle) / max(oracle, 1e-300))
    return CheckResult(
        "route_agreement",
        worst <= 1e-7,
        f"closed vs SLD oracle, max rel dev {worst:.3e} (tol 1e-7)",
    )


def _check_uncorrelated_denominator(rng: np.random.Generator, nmax: int) -> CheckResult:
    worst_ok = 0.0
    variant_dev = 0.0
    for make in _MODELS:
        model = make(1.0)
        for n in range(2, max(nmax, 3) + 1):
            spec = _random_spec(rng, n, 0)
            t = rng.uniform(0.5, 1.2)
            omega = rng.uniform(-2.0, 2.0)
            unit, copies = block_probe(StrategyKind.UNCORRELATED, spec)
            oracle = copies * qfi_sld_oracle(unit, model, t, omega).f_freq
            closed = qfi_closed(StrategyKind.UNCORRELATED, spec, model, t).f_freq
            worst_ok = max(worst_ok, abs(closed - oracle) / max(oracle, 1e-300))
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
            variant_dev = max(variant_dev, abs(variant - oracle) / max(oracle, 1e-300))
    passed = worst_ok <= 1e-7 and variant_dev > 1e-4
    return CheckResult(
        "uncorrelated_denominator",
        passed,
        f"per-qubit form within {worst_ok:.3e} of oracle; "
        f"power-N variant off by up to {variant_dev:.3e}",
    )


def _check_tabulated_forms(rng: np.random.Generator, nmax: int) -> CheckResult:
    worst_match = 0.0
    ratio_dev = 0.0
    for kind, make in (("adc", adc), ("dpc", dpc), ("pdc", pdc)):
        model = make(1.0)
        for _ in range(10):
            n = int(rng.integers(1, max(nmax, 2) + 1))
            t = rng.uniform(0.05, 1.5)
            spec = ProbeSpec.balanced(n, 0)
            closed = qfi_closed(StrategyKind.GHZ_FREE, spec, model, t).f_freq / t
            lit = tabulated_f_over_t(kind, StrategyKind.GHZ_FREE, n, 1.0, t)
            if kind == "dpc":
                ratio_dev = max(ratio_dev, abs(lit / closed - 2.0))
            else:
                worst_match = max(worst_match, abs(lit - closed) / closed)
            for strat in (StrategyKind.GHZ_ANCILLA, StrategyKind.UNCORRELATED):
                probe = ProbeSpec.balanced(n, STRATEGIES[strat].default_ancillas)
                f = qfi_closed(strat, probe, model, t).f_freq / t
                lit = tabulated_f_over_t(kind, strat, n, 1.0, t)
                worst_match = max(worst_match, abs(lit - f) / f)
    passed = worst_match <= 1e-12 and ratio_dev <= 1e-9
    return CheckResult(
        "tabulated_forms",
        passed,
        f"matching entries within {worst_match:.3e}; "
        f"dephasing GHZ entry = 2x closed form within {ratio_dev:.3e}",
    )


def _check_cp_boundary(rng: np.random.Generator) -> CheckResult:
    draws = 2000
    maps = [ChannelParams(*row) for row in rng.uniform(-1.5, 1.5, size=(draws, 4))]
    numeric = np.linalg.eigvalsh(np.stack([choi_matrix(p) for p in maps]))[:, 0]
    disagreements = 0
    worst = 0.0
    for params, lowest in zip(maps, numeric.tolist()):
        worst = max(worst, abs(choi_min_eigenvalue(params) - lowest))
        if is_cptp(params) != (lowest >= -1e-12):
            disagreements += 1
    return CheckResult(
        "cp_boundary",
        disagreements == 0,
        f"{draws} random maps, {disagreements} predicate disagreements, "
        f"min-eigenvalue routes within {worst:.3e}",
    )


def _check_master_equation(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
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
        worst = max(worst, float(np.max(np.abs(rho_ode - rho_map))))
    return CheckResult(
        "master_equation",
        worst <= 1e-6,
        f"RK4 (1e4 steps) vs affine map, max entry dev {worst:.3e} (tol 1e-6)",
    )


def _check_directsum_consistency(rng: np.random.Generator, nmax: int) -> CheckResult:
    worst = 0.0
    trace_dev = 0.0
    min_eig = math.inf
    moment_dev = 0.0
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
            worst = max(worst, assert_consistency(ds, dense))
            trace_dev = max(trace_dev, abs(ds.block_trace() + ds.residual_mass() - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(ds.block)[0]))
            obs = GhzObservable(ds.n_total, rng.uniform(0.0, 2.0 * math.pi))
            mean, second = expectation_moments(ds, obs)
            o = obs.dense_matrix()
            mean_dense = float(np.trace(o @ dense.matrix).real)
            second_dense = float(np.trace(o @ o @ dense.matrix).real)
            moment_dev = max(
                moment_dev, abs(mean - mean_dense), abs(second - second_dense)
            )
    passed = (
        worst <= 1e-12
        and trace_dev <= 1e-12
        and min_eig >= -1e-12
        and moment_dev <= 1e-12
    )
    return CheckResult(
        "directsum_consistency",
        passed,
        f"dense dev {worst:.3e}, trace closure {trace_dev:.3e}, "
        f"block min eig {min_eig:.3e}, moment dev {moment_dev:.3e}",
    )


SCAN_PHASES = 720


def _check_saturation(rng: np.random.Generator) -> CheckResult:
    """Quadrature readout meets t/F, and no phase on a uniform grid beats it.

    `saturation_check` evaluates only the quadrature phase; here the
    error-propagation sensitivity is also scanned over SCAN_PHASES measurement
    phases in [0, 2*pi) on one coherence block per working point, and the
    margin is the smallest relative excess of a grid phase's variance over
    the quadrature variance (about 0 when a grid phase lands on quadrature,
    negative if one did better).
    """
    worst = 0.0
    margin = math.inf
    all_ok = True
    for make in _MODELS:
        model = make(1.0)
        for spec in (ProbeSpec.balanced(3, 0), ProbeSpec.balanced(2, 1)):
            t = rng.uniform(0.3, 1.0)
            omega = rng.uniform(-2.0, 2.0)
            ok, delta, gap = saturation_check(spec, model, t, omega)
            all_ok = all_ok and ok
            worst = max(worst, abs(gap))
            n_total = spec.n_total
            quad = error_propagation_sensitivity(spec, model, t, omega, GhzObservable(n_total, delta))
            block, _ = coherence_block(spec, model, omega, t)
            for i in range(SCAN_PHASES):
                obs = GhzObservable(n_total, 2.0 * math.pi * i / SCAN_PHASES)
                try:
                    value = _phase_variance(block, spec.n_probes, obs) / t
                except UnusableWorkingPointError:
                    continue
                margin = min(margin, value / quad - 1.0)
    return CheckResult(
        "readout_saturation",
        all_ok and margin >= -1e-12,
        f"corner readout at quadrature vs t/F, max |gap| {worst:.3e} (tol 1e-8); "
        f"best of {SCAN_PHASES} grid phases {margin:.3e} above quadrature (tol -1e-12)",
    )


def _check_time_optima(rng: np.random.Generator) -> CheckResult:
    devs: list[float] = []
    for gamma in (1.0, float(rng.uniform(0.3, 3.0))):
        n = 3
        spec = ProbeSpec.balanced(n, 0)
        t_opt, best = maximize_f_over_t(StrategyKind.UNCORRELATED, spec, adc(gamma))
        devs.append(abs(t_opt * gamma - 1.0))
        devs.append(abs(best - n / (math.e * gamma)) / (n / (math.e * gamma)))
        for make in (dpc, pdc):
            t_opt, best = maximize_f_over_t(StrategyKind.UNCORRELATED, spec, make(gamma))
            devs.append(abs(t_opt * gamma - 0.5) / 0.5)
            devs.append(abs(best - n / (2.0 * math.e * gamma)) / (n / (2.0 * math.e * gamma)))
        t_opt, best = maximize_f_over_t(StrategyKind.GHZ_FREE, spec, pdc(gamma))
        devs.append(abs(t_opt * gamma - 1.0 / (2.0 * n)) / (1.0 / (2.0 * n)))
        devs.append(abs(best - n / (2.0 * math.e * gamma)) / (n / (2.0 * math.e * gamma)))
    r_pdc = sensitivity_ratio(ProbeSpec.balanced(4, 0), pdc(1.0), StrategyKind.GHZ_FREE)
    r_a = sensitivity_ratio(ProbeSpec.balanced(3, 0), adc(1.0), StrategyKind.GHZ_FREE)
    r_b = sensitivity_ratio(ProbeSpec.balanced(3, 0), adc(2.7), StrategyKind.GHZ_FREE)
    gamma_inv = abs(r_a - r_b)
    t_dev = max(devs)
    passed = t_dev <= 1e-8 and abs(r_pdc - 1.0) <= 1e-6 and gamma_inv <= 1e-9
    return CheckResult(
        "time_optima",
        passed,
        f"analytic optima dev {t_dev:.3e}, dephasing-limit ratio |R-1| "
        f"{abs(r_pdc - 1.0):.3e}, gamma invariance {gamma_inv:.3e}",
    )


def _check_noiseless_limit(nmax: int) -> CheckResult:
    worst = 0.0
    model = pdc(0.0)
    for n in range(1, nmax + 1):
        for t in (0.3, 1.7):
            oracle = qfi_sld_oracle(ProbeSpec.balanced(n), model, t, 0.7).f_freq
            worst = max(worst, abs(oracle - n**2 * t**2))
            for kind, law in (
                (StrategyKind.GHZ_FREE, n**2), (StrategyKind.GHZ_ANCILLA, n**2),
                (StrategyKind.UNCORRELATED, n),
            ):
                probe = ProbeSpec.balanced(n, STRATEGIES[kind].default_ancillas)
                worst = max(worst, abs(qfi_closed(kind, probe, model, t).f_freq - law * t**2))
    return CheckResult(
        "noiseless_limit",
        worst <= 1e-12,
        f"gamma=0 information vs N^2 t^2 and N t^2, max dev {worst:.3e}",
    )


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
