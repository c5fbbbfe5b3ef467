"""Acceptance gate: one test per delivery criterion, tolerances as contracted.

Each test prints a single [PASS] line with its measured worst-case numbers;
run with -v for the per-criterion verdict or -s to see the margins. Random
draws are seeded so reruns check the same points. Each worst case is folded
with np.max or np.min, which propagate NaN, so a NaN in any draw fails its
bound (builtin max drops a NaN that is not first).
"""

import math
import time

import numpy as np
import pytest

from ghzfreq.channel import (
    ChannelParams,
    adc,
    choi_matrix,
    dpc,
    integrate_master_equation,
    is_cptp,
    params_at,
    pdc,
    superoperator,
)
from ghzfreq.fisher import qfi_closed, qfi_sld_oracle
from ghzfreq.measurement import saturation_check
from ghzfreq.optimize import StrategyKind, maximize_f_over_t, sensitivity_ratio, sweep, tabulated_f_over_t
from ghzfreq.state import ProbeSpec, evolve_directsum, ghz_strategy

MODELS = {"adc": adc, "dpc": dpc, "pdc": pdc}


def spec_from_amplitude(c1, n, n_anc=0):
    return ProbeSpec(c1, math.sqrt(1.0 - c1 * c1), n, n_anc)


def closed_f(spec, model, t):
    return qfi_closed(ghz_strategy(spec.n_ancillas), spec, model, t).f_freq


def test_criterion_1_route_agreement():
    """Closed forms track the dense SLD oracle to 1e-7 for every strategy."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    devs = []
    for make in MODELS.values():
        model = make(1.0)
        for strategy, anc_counts in (
            ("ghz_free", (0,)),
            ("ghz_ancilla", (1, 2)),
            ("uncorrelated", (0,)),
        ):
            for n in range(1, 6):
                for n_anc in anc_counts:
                    for _ in range(20):
                        c1 = rng.uniform(0.05, 0.95)
                        gt = rng.uniform(1e-3, 2.0)
                        wt = rng.uniform(0.0, 2.0 * math.pi)
                        omega = wt / gt
                        spec = spec_from_amplitude(c1, n, n_anc)
                        if strategy == "uncorrelated":
                            closed = qfi_closed(StrategyKind.UNCORRELATED, spec, model, gt).f_freq
                            single = spec_from_amplitude(c1, 1, 0)
                            oracle = n * qfi_sld_oracle(single, model, gt, omega).f_freq
                        else:
                            closed = closed_f(spec, model, gt)
                            oracle = qfi_sld_oracle(spec, model, gt, omega).f_freq
                        devs.append(abs(closed - oracle) / max(oracle, 1e-300))
    elapsed = time.monotonic() - start
    worst, cases = np.max(devs), len(devs)
    assert worst <= 1e-7, f"worst relative deviation {worst:.3e}"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"[PASS] criterion 1: {cases} cases, worst rel dev {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_tabulated_forms():
    """Tabulated F/t entries match evaluation; dephasing GHZ entry is 2x off."""
    rng = np.random.default_rng(102)
    match_devs, factor_devs, oracle_devs = [], [], []
    for _ in range(50):
        n = int(rng.integers(1, 11))
        gt = rng.uniform(0.05, 2.0)
        spec = ProbeSpec.balanced(n)
        anc = ProbeSpec.balanced(n, 1)
        for kind, make in MODELS.items():
            model = make(1.0)
            f_anc = qfi_closed(StrategyKind.GHZ_ANCILLA, anc, model, gt).f_freq / gt
            f_unc = qfi_closed(StrategyKind.UNCORRELATED, spec, model, gt).f_freq / gt
            f_ghz = qfi_closed(StrategyKind.GHZ_FREE, spec, model, gt).f_freq / gt
            lit_anc = tabulated_f_over_t(kind, StrategyKind.GHZ_ANCILLA, n, 1.0, gt)
            lit_unc = tabulated_f_over_t(kind, StrategyKind.UNCORRELATED, n, 1.0, gt)
            lit_ghz = tabulated_f_over_t(kind, StrategyKind.GHZ_FREE, n, 1.0, gt)
            match_devs += [abs(lit_anc - f_anc) / f_anc, abs(lit_unc - f_unc) / f_unc]
            if kind == "dpc":
                factor_devs.append(abs(lit_ghz / f_ghz - 2.0))
                n_small = min(n, 5)
                small = ProbeSpec.balanced(n_small)
                oracle = qfi_sld_oracle(small, model, gt, 0.3).f_freq
                derived = qfi_closed(StrategyKind.GHZ_FREE, small, model, gt).f_freq
                oracle_devs.append(abs(derived - oracle) / oracle)
            else:
                match_devs.append(abs(lit_ghz - f_ghz) / f_ghz)
    worst_match, worst_factor, worst_oracle = map(np.max, (match_devs, factor_devs, oracle_devs))
    assert worst_match <= 1e-12, f"tabulated-vs-closed rel dev {worst_match:.3e}"
    assert worst_factor <= 1e-9, f"dephasing factor dev {worst_factor:.3e}"
    assert worst_oracle <= 1e-7, f"dephasing closed-vs-oracle dev {worst_oracle:.3e}"
    print(
        "[PASS] criterion 2: tabulated entries within "
        f"{worst_match:.3e}; dephasing GHZ literal = 2x derived "
        f"(dev {worst_factor:.3e}), derived matches oracle ({worst_oracle:.3e})"
    )


def test_criterion_3_ratio_plateaus():
    """R plateaus and optimal-time monotonicity over N = 1..30 at gamma = 1."""
    start = time.monotonic()
    ghz = [StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA]
    rows = {kind: sweep(make(1.0), 1, 30, strategies=ghz) for kind, make in
            (("adc", adc), ("dpc", dpc))}
    elapsed = time.monotonic() - start
    checked = 0
    for kind, free_target, anc_target in (("adc", 0.66, 0.66), ("dpc", 0.76, 0.76)):
        free = [r for r in rows[kind] if r.strategy is StrategyKind.GHZ_FREE]
        anc = [r for r in rows[kind] if r.strategy is StrategyKind.GHZ_ANCILLA]
        for r in free:
            if r.n >= 15:
                assert abs(r.ratio_r - free_target) <= 0.01, (kind, r.n, r.ratio_r)
                checked += 1
        for r in anc:
            if kind == "adc":
                assert abs(r.ratio_r - anc_target) <= 0.01, (kind, r.n, r.ratio_r)
                checked += 1
            elif r.n >= 2:
                assert abs(r.ratio_r - anc_target) <= 0.01, (kind, r.n, r.ratio_r)
                checked += 1
            else:
                assert abs(r.ratio_r - 0.78) <= 0.01, (kind, r.n, r.ratio_r)
                checked += 1
        for series in (free, anc):
            t_opts = [r.t_opt for r in series]
            assert all(a > b for a, b in zip(t_opts, t_opts[1:])), (
                f"t_opt not strictly decreasing for {kind}"
            )
    assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget 120s"
    print(f"[PASS] criterion 3: {checked} plateau points verified, {elapsed:.1f}s")


def test_criterion_4_analytic_optima():
    """Numeric maxima land on the known closed-form optima."""
    t_devs, v_devs = [], []
    for gamma in (1.0, 0.37):
        for make, t_star_scale, v_scale in (
            (adc, 1.0, 1.0 / math.e),
            (dpc, 0.5, 0.5 / math.e),
            (pdc, 0.5, 0.5 / math.e),
        ):
            n = 3
            spec = ProbeSpec.balanced(n)
            t_opt, best = maximize_f_over_t(
                StrategyKind.UNCORRELATED, spec, make(gamma)
            )
            t_devs.append(abs(t_opt - t_star_scale / gamma) * gamma / t_star_scale)
            v_devs.append(abs(best - n * v_scale / gamma) * gamma / (n * v_scale))
        for n in (1, 2, 5):
            spec = ProbeSpec.balanced(n)
            t_opt, best = maximize_f_over_t(StrategyKind.GHZ_FREE, spec, pdc(gamma))
            t_star = 1.0 / (2.0 * n * gamma)
            v_star = n / (2.0 * math.e * gamma)
            t_devs.append(abs(t_opt - t_star) / t_star)
            v_devs.append(abs(best - v_star) / v_star)
    worst_t, worst_v = np.max(t_devs), np.max(v_devs)
    r = sensitivity_ratio(ProbeSpec.balanced(4), pdc(1.0), StrategyKind.GHZ_FREE)
    assert worst_t <= 1e-8, f"worst t_opt rel dev {worst_t:.3e}"
    assert worst_v <= 1e-10, f"worst peak-value rel dev {worst_v:.3e}"
    assert abs(r - 1.0) <= 1e-6, f"dephasing ratio dev {abs(r - 1.0):.3e}"
    print(
        f"[PASS] criterion 4: t_opt dev {worst_t:.3e}, value dev {worst_v:.3e}, "
        f"|R-1| = {abs(r - 1.0):.3e}"
    )


def test_criterion_5_readout_saturation():
    """Phase-optimized corner readout reaches t/F at a quadrature point."""
    rng = np.random.default_rng(105)
    gaps, quad_devs = [], []
    for make in MODELS.values():
        model = make(1.0)
        for n in range(1, 5):
            for n_anc in (0, 1):
                spec = ProbeSpec.balanced(n, n_anc)
                for _ in range(10):
                    t = rng.uniform(0.05, 1.5)
                    omega = rng.uniform(0.0, 2.0 * math.pi) / t
                    ok, delta, gap = saturation_check(spec, model, t, omega)
                    assert ok, (make.__name__, n, n_anc, t, gap)
                    params = params_at(model, t)
                    ds = evolve_directsum(ghz_strategy(n_anc), spec, params, omega, t)
                    gaps.append(abs(gap))
                    quad_devs.append(abs(math.cos(ds.phase_total - delta)))
    worst_gap, worst_quad, cases = np.max(gaps), np.max(quad_devs), len(gaps)
    assert worst_gap <= 1e-8, f"worst saturation gap {worst_gap:.3e}"
    assert worst_quad <= 1e-6, f"working point off quadrature by {worst_quad:.3e}"
    print(
        f"[PASS] criterion 5: {cases} working points, gap <= {worst_gap:.3e}, "
        f"quadrature dev <= {worst_quad:.3e}"
    )


def test_criterion_6_noiseless_limits():
    """gamma = 0 recovers N^2 t^2 (GHZ) and N t^2 (uncorrelated) on all routes."""
    devs = []
    for make in MODELS.values():
        model = make(0.0)
        for n in range(1, 6):
            spec = ProbeSpec.balanced(n)
            anc = ProbeSpec.balanced(n, 1)
            for t in (0.3, 1.0, 2.0):
                target = n * n * t * t
                routes = [
                    qfi_closed(StrategyKind.GHZ_FREE, spec, model, t).f_freq,
                    qfi_closed(StrategyKind.GHZ_ANCILLA, anc, model, t).f_freq,
                    qfi_sld_oracle(spec, model, t, 0.9).f_freq,
                    qfi_sld_oracle(anc, model, t, 0.9).f_freq,
                ]
                devs += [abs(f - target) / target for f in routes]
                f_unc = qfi_closed(StrategyKind.UNCORRELATED, spec, model, t).f_freq
                devs.append(abs(f_unc - n * t * t) / (n * t * t))
    worst = np.max(devs)
    assert worst <= 1e-12, f"worst noiseless deviation {worst:.3e}"
    print(f"[PASS] criterion 6: all routes within {worst:.3e} of the noiseless laws")


def test_criterion_7_channel_validity():
    """CP predicate matches the eigensolver; integrator matches the dictionary."""
    rng = np.random.default_rng(107)
    disagreements = 0
    for _ in range(10_000):
        p = ChannelParams(*rng.uniform(-1.5, 1.5, size=4))
        numeric_ok = bool(np.linalg.eigvalsh(choi_matrix(p))[0] >= -1e-12)
        if is_cptp(p) != numeric_ok:
            disagreements += 1
    assert disagreements == 0, f"{disagreements} CP disagreements"

    devs = []
    for make in MODELS.values():
        model = make(1.0)
        for t in (rng.uniform(0.1, 2.0), 2.0):
            omega = rng.uniform(-2.0, 2.0)
            r = rng.uniform(-0.5, 0.5, size=3)
            rho0 = 0.5 * np.array(
                [[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]],
                dtype=complex,
            )
            rho_ode = integrate_master_equation(model, omega, t, rho0, 10_000)
            v = superoperator(params_at(model, t), omega, t) @ np.array([1.0, *r])
            rho_map = 0.5 * np.array(
                [[v[0] + v[3], v[1] - 1j * v[2]], [v[1] + 1j * v[2], v[0] - v[3]]],
                dtype=complex,
            )
            devs.append(np.max(np.abs(rho_ode - rho_map)))
    worst = np.max(devs)
    assert worst <= 1e-6, f"integrator deviation {worst:.3e}"
    print(
        "[PASS] criterion 7: 10000 CP draws, 0 disagreements; "
        f"integrator within {worst:.3e}"
    )


def test_criterion_8_structural_invariants():
    """Trace closure, block positivity, ancilla-count independence, never-hurts,
    gamma invariance."""
    rng = np.random.default_rng(108)
    trace_devs, eigs = [], []
    for make in MODELS.values():
        for _ in range(10):
            n = int(rng.integers(1, 7))
            c1 = rng.uniform(0.05, 0.95)
            gt = rng.uniform(1e-3, 2.0)
            omega = rng.uniform(-2.0, 2.0)
            params = params_at(make(1.0), gt)
            for n_anc in (0, 2):
                spec = spec_from_amplitude(c1, n, n_anc)
                ds = evolve_directsum(ghz_strategy(n_anc), spec, params, omega, gt)
                trace_devs.append(abs(ds.block_trace() + ds.residual_mass() - 1.0))
                eigs.append(np.linalg.eigvalsh(ds.block)[0])
    worst_trace, min_eig = np.max(trace_devs), np.min(eigs)
    assert worst_trace <= 1e-12, f"trace closure dev {worst_trace:.3e}"
    assert min_eig >= -1e-12, f"block eigenvalue {min_eig:.3e}"

    # ancilla count must be irrelevant: bitwise for the closed form, 1e-9 for
    # the oracle route
    oracle_anc_devs = []
    for make in MODELS.values():
        model = make(1.0)
        for _ in range(3):
            n = int(rng.integers(1, 4))
            c1 = rng.uniform(0.1, 0.9)
            gt = rng.uniform(0.05, 1.5)
            closed = {
                k: qfi_closed(
                    StrategyKind.GHZ_ANCILLA, spec_from_amplitude(c1, n, k), model, gt
                ).f_freq
                for k in (1, 2, 3)
            }
            assert closed[1] == closed[2] == closed[3]
            oracle = [
                qfi_sld_oracle(spec_from_amplitude(c1, n, k), model, gt, 0.4).f_freq
                for k in (1, 2)
            ]
            oracle_anc_devs.append(abs(oracle[0] - oracle[1]) / oracle[0])
    worst_oracle_anc = np.max(oracle_anc_devs)
    assert worst_oracle_anc <= 1e-9, f"oracle ancilla dependence {worst_oracle_anc:.3e}"

    # an ancilla can never reduce the information
    for make in MODELS.values():
        model = make(1.0)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            c1 = rng.uniform(0.05, 0.95)
            gt = rng.uniform(1e-3, 2.0)
            f_free = qfi_closed(
                StrategyKind.GHZ_FREE, spec_from_amplitude(c1, n), model, gt
            ).f_freq
            f_anc = qfi_closed(
                StrategyKind.GHZ_ANCILLA, spec_from_amplitude(c1, n, 1), model, gt
            ).f_freq
            assert f_anc >= f_free * (1.0 - 1e-12), (make.__name__, n, c1, gt)

    # R is a pure function of the model shape, not of the decay rate
    gamma_devs = []
    for make, strategy, n_anc in (
        (adc, StrategyKind.GHZ_FREE, 0),
        (adc, StrategyKind.GHZ_ANCILLA, 1),
        (dpc, StrategyKind.GHZ_FREE, 0),
        (dpc, StrategyKind.GHZ_ANCILLA, 1),
        (pdc, StrategyKind.GHZ_FREE, 0),
    ):
        spec = ProbeSpec.balanced(3, n_anc)
        r1 = sensitivity_ratio(spec, make(1.0), strategy)
        r2 = sensitivity_ratio(spec, make(2.7), strategy)
        gamma_devs.append(abs(r1 - r2) / r1)
    worst_gamma = np.max(gamma_devs)
    assert worst_gamma <= 1e-9, f"gamma dependence of R {worst_gamma:.3e}"
    print(
        f"[PASS] criterion 8: trace closure {worst_trace:.3e}, block min eig "
        f"{min_eig:.3e}, oracle ancilla dev {worst_oracle_anc:.3e}, "
        f"gamma invariance {worst_gamma:.3e}"
    )
