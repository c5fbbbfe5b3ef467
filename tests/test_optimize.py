import collections
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzfreq import cli, measurement, optimize
from ghzfreq.channel import ChannelParams, adc, custom, dpc, params_at, pdc
from ghzfreq.cli import run
from ghzfreq.fisher import log_qfi_phase, qfi_closed
from ghzfreq.measurement import saturation_check
from ghzfreq.optimize import (
    StrategyKind,
    maximize_f_over_t,
    sensitivity_ratio,
    sweep,
    table1,
    tabulated_f_over_t,
)
from ghzfreq.state import ProbeSpec

# independently computed to 40 digits with mpmath, gamma = 1
R_ADC_ANCILLA = 0.6605498810078088
T_OPT_ADC_ANCILLA_N1 = 1.2784645427610737
R_ADC_FREE = {2: 0.7591142705196142, 3: 0.6804306394597122, 4: 0.6633797579301411}
R_DPC_FREE_N2 = 0.7881595513189941
R_DPC_ANCILLA = {1: 0.7881595513189941, 2: 0.7699548354348226, 3: 0.7634992561052814}


class TestAnalyticOptima:
    @pytest.mark.parametrize("gamma", [1.0, 0.37, 4.2])
    def test_uncorrelated_amplitude_damping(self, gamma):
        spec = ProbeSpec.balanced(3)
        t_opt, best = maximize_f_over_t(StrategyKind.UNCORRELATED, spec, adc(gamma))
        assert t_opt == pytest.approx(1.0 / gamma, rel=1e-8)
        assert best == pytest.approx(3.0 / (math.e * gamma), rel=1e-10)

    @pytest.mark.parametrize("make", [dpc, pdc])
    def test_uncorrelated_quadratic_decay(self, make):
        gamma = 1.6
        spec = ProbeSpec.balanced(2)
        t_opt, best = maximize_f_over_t(StrategyKind.UNCORRELATED, spec, make(gamma))
        assert t_opt == pytest.approx(1.0 / (2.0 * gamma), rel=1e-8)
        assert best == pytest.approx(2.0 / (2.0 * math.e * gamma), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_ghz_on_phase_damping(self, n):
        gamma = 1.0
        spec = ProbeSpec.balanced(n)
        t_opt, best = maximize_f_over_t(StrategyKind.GHZ_FREE, spec, pdc(gamma))
        assert t_opt == pytest.approx(1.0 / (2.0 * n * gamma), rel=1e-8)
        assert best == pytest.approx(n / (2.0 * math.e * gamma), rel=1e-10)

    def test_gamma_rescaling_moves_only_the_time_axis(self):
        spec = ProbeSpec.balanced(4)
        t1, b1 = maximize_f_over_t(StrategyKind.GHZ_FREE, spec, adc(1.0))
        t2, b2 = maximize_f_over_t(StrategyKind.GHZ_FREE, spec, adc(3.1))
        assert t2 * 3.1 == pytest.approx(t1, rel=1e-9)
        assert b2 * 3.1 == pytest.approx(b1, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.13, 1.3, 7.0])
    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_rows_depend_on_gamma_only_through_the_time_unit(self, make, gamma):
        # F/t = (x/gamma) F_phase(x) with x = gamma t, so scaling gamma by 4
        # divides t_opt and F/t by exactly 4 and moves no bit of R or the gap
        for row, scaled in zip(sweep(make(gamma), 1, 40, c1=0.6),
                               sweep(make(4.0 * gamma), 1, 40, c1=0.6), strict=True):
            assert (scaled.t_opt, scaled.f_over_t_max) == (row.t_opt / 4.0,
                                                           row.f_over_t_max / 4.0), row
            assert (scaled.ratio_r, scaled.saturation_gap) == (row.ratio_r,
                                                               row.saturation_gap), row

    def test_amplitude_damping_ancilla_optimum_time(self):
        spec = ProbeSpec.balanced(1, 1)
        t_opt, _ = maximize_f_over_t(StrategyKind.GHZ_ANCILLA, spec, adc(1.0))
        assert t_opt == pytest.approx(T_OPT_ADC_ANCILLA_N1, rel=1e-8)



GHZ_KINDS = [StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA]


def _no_search(monkeypatch):
    """Make the scan's slope and the slope search fail if they are reached."""

    def never(*_):
        raise AssertionError("the numerical search ran")

    monkeypatch.setattr(optimize, "_log_slope", never)
    monkeypatch.setattr(optimize, "_slope_roots", never)


class TestClosedFormOptimum:
    """Where d/dt log(F/t) = 1/t + r with a constant r (uncorrelated rows of
    the named models, pdc GHZ rows), t_opt = -1/r with no search."""

    @pytest.mark.parametrize("gamma", [1e-300, 3.7e-42, 0.13, 1.0, 1.3, 7.0, 2.5e77, 1e300])
    @pytest.mark.parametrize("make,factor", [(adc, 1.0), (dpc, 2.0), (pdc, 2.0)])
    def test_uncorrelated_time_is_exact(self, monkeypatch, make, factor, gamma):
        _no_search(monkeypatch)
        for n in (1, 7):
            spec = ProbeSpec(0.6, 0.8, n)
            t_opt, _ = maximize_f_over_t(StrategyKind.UNCORRELATED, spec, make(gamma))
            assert t_opt == 1.0 / (factor * gamma)

    @pytest.mark.parametrize("gamma", [1e-200, 0.013, 1.0, 1.3, 7.0, 1e200])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 123457, 10**6, 10**9])
    def test_phase_damping_ghz_time_within_two_ulp(self, monkeypatch, n, gamma):
        _no_search(monkeypatch)
        exact = float(1 / (2 * n * Fraction(gamma)))
        for kind in GHZ_KINDS:
            spec = ProbeSpec(0.6, 0.8, n, kind.default_ancillas)
            t_opt, _ = maximize_f_over_t(kind, spec, pdc(gamma))
            assert abs(t_opt - exact) <= 2.0 * math.ulp(exact), kind

    @pytest.mark.parametrize("make,kinds", [
        (adc, [StrategyKind.UNCORRELATED]),
        (dpc, [StrategyKind.UNCORRELATED]),
        (pdc, list(StrategyKind)),
    ])
    def test_peak_is_f_over_t_at_t_opt(self, make, kinds):
        model = make(1.3)
        for kind in kinds:
            for n in (1, 4, 250):
                spec = ProbeSpec(0.35, math.sqrt(1.0 - 0.35**2), n,
                                 kind.default_ancillas)
                t_opt, best = maximize_f_over_t(kind, spec, model)
                with np.errstate(all="ignore"):
                    log_f = log_qfi_phase(kind, spec, model, np.array([t_opt]))
                assert best == t_opt * np.exp(log_f[0]), (kind, n)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_sweep_searches_only_adc_and_dpc_ghz_rows(self, monkeypatch, make):
        _no_search(monkeypatch)
        strategies = list(StrategyKind) if make is pdc else [StrategyKind.UNCORRELATED]
        rows = sweep(make(0.7), 1, 40, strategies=strategies, c1=0.9)
        assert len(rows) == 40 * len(strategies)

    def test_custom_model_keeps_the_search(self, monkeypatch):
        searches = []
        slope_roots = optimize._slope_roots

        def counted(*args):
            searches.append(args)
            return slope_roots(*args)

        monkeypatch.setattr(optimize, "_slope_roots", counted)
        named = pdc(1.3)
        wrapped = custom(lambda t: params_at(named, t), 1.3)
        for kind in StrategyKind:
            spec = ProbeSpec.balanced(5, kind.default_ancillas)
            t_closed, best_closed = maximize_f_over_t(kind, spec, named)
            t_searched, best_searched = maximize_f_over_t(kind, spec, wrapped)
            # the five-point slope places a custom optimum to about 3e-12
            assert t_searched == pytest.approx(t_closed, rel=1e-11)
            assert best_searched == pytest.approx(best_closed, rel=1e-14)
        assert len(searches) == len(StrategyKind)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_custom_wrapper_places_the_named_optima(self, make):
        # the five-point slope: about 2.7e-12 over this grid, 2e-9 with a
        # central difference
        for gamma in (0.7, 1.3):
            named = make(gamma)
            wrapped = custom(lambda t, named=named: params_at(named, t), gamma)
            for c1 in (0.35, 1.0 / math.sqrt(2.0), 0.9):
                rows = zip(sweep(named, 1, 20, c1=c1), sweep(wrapped, 1, 20, c1=c1))
                for row, custom_row in rows:
                    assert custom_row.t_opt == pytest.approx(row.t_opt, rel=1e-11), (
                        gamma, c1, row.n, row.strategy)


class TestMaximizerGuards:
    def test_noiseless_profile_rejected(self):
        with pytest.raises(ValueError):
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec.balanced(2), adc(0.0))

    def test_multimodal_profile_rejected(self):
        # transverse contrast that beats against the decay has several local peaks
        def rule(t):
            return ChannelParams(0.0, math.exp(-t) * (0.6 + 0.4 * math.cos(5.0 * t)), 1.0, 0.0)

        with pytest.raises(ValueError, match="unimodal"):
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec.balanced(1), custom(rule))

    def test_optimum_past_the_window_exits_3(self, monkeypatch, capsys):
        # adc at rate 1e-4 as a custom rule at gamma = 1: the uncorrelated
        # optimum lies near t = 1e4, past the window's upper edge 100/gamma
        slow = custom(lambda t: params_at(adc(1e-4), t), 1.0)
        monkeypatch.setitem(cli._MODEL_FACTORIES, "adc", lambda gamma: slow)
        code = run(["sweep", "--model", "adc", "--gamma", "1", "--n", "1:3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert re.search(r"peaks at the scan boundary .*strategy=uncorrelated model=custom n=1$",
                         captured.err.strip()), captured.err

    def test_slope_without_a_sign_change_exits_3(self, monkeypatch, capsys):
        # eta_perp steps down halfway between the N = 1 scan points and is flat
        # in between: the sampled F/t peaks and falls, while the slope of
        # log(F/t) between the steps is 1/t > 0
        low = math.log(optimize.SCAN_WINDOW[0])
        step = (math.log(optimize.SCAN_WINDOW[1]) - low) / (optimize.SCAN_POINTS - 1)

        def staircase(t):
            k = math.floor((math.log(t) - low) / step - 0.5) if t > 0.0 else -1
            eta = math.exp(-math.exp(low + (k + 0.5) * step)) if k >= 0 else 1.0
            return ChannelParams(0.0, eta, 1.0, 0.0)

        model = custom(staircase)
        with pytest.raises(ValueError, match=r"does not change sign .*\(slopes \S+, \S+\): "
                                             r"strategy=ghz_free model=custom n=1$"):
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec.balanced(1), model)
        monkeypatch.setitem(cli._MODEL_FACTORIES, "adc", lambda gamma: model)
        code = run(["sweep", "--model", "adc", "--gamma", "1", "--n", "1:3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert re.search(r"does not change sign .*strategy=uncorrelated model=custom n=1$",
                         captured.err.strip()), captured.err

    @pytest.mark.parametrize("gamma", [1.0, 4.0])
    def test_custom_rule_failure_names_the_time_t(self, gamma):
        # eta_perp leaves the CPTP region past t = 2 whatever gamma is, so the
        # first scan point that fails lies just past t = 2, not x = gamma t
        def rule(t):
            g = math.exp(-0.05 * t)
            return ChannelParams(0.0, g if t <= 2.0 else 1.2, g, 0.0)

        with pytest.raises(ValueError) as info:
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec.balanced(1), custom(rule, gamma))
        t = re.fullmatch(r"model parameters at t=(\S+) are not CPTP", str(info.value)).group(1)
        assert 2.0 < float(t) < 2.06

    def test_zero_tail_counts_as_falling(self):
        # eta_perp reaches 0 at t = 3 and stays there, so log(F/t) is -inf over
        # the rest of the scan; F/t = t N eta^2 (uncorrelated) and t N^2 eta^(2N)
        # (GHZ-free, eta_par = 1, kappa = 0) peak at t = 1 and 3/(2N + 1)
        model = custom(lambda t: ChannelParams(0.0, max(0.0, 1.0 - t / 3.0), 1.0, 0.0))
        spec = ProbeSpec.balanced(2)
        t_opt, best = maximize_f_over_t(StrategyKind.UNCORRELATED, spec, model)
        assert t_opt == pytest.approx(1.0, rel=1e-11)
        assert best == pytest.approx(8.0 / 9.0, rel=1e-11)
        t_opt, best = maximize_f_over_t(StrategyKind.GHZ_FREE, spec, model)
        assert t_opt == pytest.approx(0.6, rel=1e-11)
        assert best == pytest.approx(0.98304, rel=1e-11)

    def test_strategy_spec_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximize_f_over_t(StrategyKind.GHZ_ANCILLA, ProbeSpec.balanced(2, 0), adc(1.0))
        with pytest.raises(ValueError):
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec.balanced(2, 1), adc(1.0))


class TestSensitivityRatio:
    def test_phase_damping_ghz_gains_nothing(self):
        for n in (2, 6):
            r = sensitivity_ratio(ProbeSpec.balanced(n), pdc(1.0), StrategyKind.GHZ_FREE)
            assert r == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n,expected", sorted(R_ADC_FREE.items()))
    def test_amplitude_damping_free(self, n, expected):
        r = sensitivity_ratio(ProbeSpec.balanced(n), adc(1.0), StrategyKind.GHZ_FREE)
        assert r == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_amplitude_damping_ancilla_is_n_independent(self, n):
        r = sensitivity_ratio(
            ProbeSpec.balanced(n, 1), adc(1.0), StrategyKind.GHZ_ANCILLA
        )
        assert r == pytest.approx(R_ADC_ANCILLA, rel=1e-9)

    @pytest.mark.parametrize("n,expected", sorted(R_DPC_ANCILLA.items()))
    def test_depolarizing_ancilla(self, n, expected):
        r = sensitivity_ratio(
            ProbeSpec.balanced(n, 1), dpc(1.0), StrategyKind.GHZ_ANCILLA
        )
        assert r == pytest.approx(expected, rel=1e-9)

    def test_single_probe_free_strategy_is_trivial(self):
        r = sensitivity_ratio(ProbeSpec.balanced(1), adc(1.0), StrategyKind.GHZ_FREE)
        assert r == pytest.approx(1.0, rel=1e-12)

    def test_gamma_invariance(self):
        a = sensitivity_ratio(ProbeSpec.balanced(3), dpc(1.0), StrategyKind.GHZ_FREE)
        b = sensitivity_ratio(ProbeSpec.balanced(3), dpc(2.9), StrategyKind.GHZ_FREE)
        assert a == pytest.approx(b, rel=1e-9)

    def test_uncorrelated_overflow_is_named(self):
        # N (F/t)_1 leaves the doubles though one probe's F/t does not
        with pytest.raises(ValueError, match=re.escape(
                "F/t overflows double precision at gamma=5.6e-307: "
                "strategy=uncorrelated model=dpc n=10815")):
            sensitivity_ratio(ProbeSpec.balanced(10815), dpc(5.6e-307), StrategyKind.GHZ_FREE)

    def test_uncorrelated_compared_to_itself_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_ratio(ProbeSpec.balanced(2), adc(1.0), StrategyKind.UNCORRELATED)


class TestSweep:
    def test_row_order_and_schema(self):
        rows = sweep(adc(1.0), 2, 3)
        assert [(r.n, r.strategy) for r in rows] == [
            (2, StrategyKind.UNCORRELATED),
            (2, StrategyKind.GHZ_FREE),
            (2, StrategyKind.GHZ_ANCILLA),
            (3, StrategyKind.UNCORRELATED),
            (3, StrategyKind.GHZ_FREE),
            (3, StrategyKind.GHZ_ANCILLA),
        ]
        assert list(rows[0].as_dict()) == [
            "n",
            "strategy",
            "model",
            "gamma",
            "t_opt",
            "f_over_t_max",
            "ratio_r",
            "saturation_gap",
        ]

    def test_optimal_time_shrinks_with_probe_count(self):
        rows = sweep(adc(1.0), 1, 8, strategies=[StrategyKind.GHZ_FREE])
        t_opts = [r.t_opt for r in rows]
        assert all(a > b for a, b in zip(t_opts, t_opts[1:]))

    def test_uncorrelated_rows_are_reference_rows(self):
        rows = sweep(dpc(1.0), 2, 2, strategies=[StrategyKind.UNCORRELATED])
        assert rows[0].ratio_r == 1.0
        assert abs(rows[0].saturation_gap) <= 1e-8

    def test_single_probe_free_row(self):
        (row,) = sweep(adc(1.0), 1, 1, strategies=[StrategyKind.GHZ_FREE])
        assert row.ratio_r == pytest.approx(1.0, rel=1e-12)

    def test_known_plateau_value(self):
        (row,) = sweep(dpc(1.0), 2, 2, strategies=[StrategyKind.GHZ_FREE])
        assert row.ratio_r == pytest.approx(R_DPC_FREE_N2, rel=1e-9)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            sweep(adc(1.0), 3, 2)
        with pytest.raises(ValueError):
            sweep(adc(1.0), 0, 2)

    def test_strategies_from_a_one_shot_iterator(self):
        rows = sweep(adc(1.0), 1, 2, strategies=iter([StrategyKind.GHZ_ANCILLA]))
        assert [(r.n, r.strategy) for r in rows] == [(1, StrategyKind.GHZ_ANCILLA),
                                                     (2, StrategyKind.GHZ_ANCILLA)]

    def test_amplitude_above_one_names_the_norm(self):
        # c2 = sqrt(1 - |c1|^2) would be a bare "math domain error"
        with pytest.raises(ValueError, match=r"^\|c1\|\^2 \+ \|c2\|\^2 = 1\.44 is not 1$"):
            sweep(adc(1.0), 1, 2, c1=1.2)


class TestTable1:
    def test_amplitude_damping_entries_match(self):
        row = table1(adc(1.0), 4, 0.6)
        assert not row.literal_mismatch
        assert row.f_ghz_over_t_literal == pytest.approx(row.f_ghz_over_t, rel=1e-12)
        assert row.f_uncorrelated_over_t == pytest.approx(
            4 * 0.6 * math.exp(-0.6), rel=1e-12
        )

    def test_phase_damping_entries_match(self):
        row = table1(pdc(1.0), 3, 0.4)
        assert not row.literal_mismatch
        assert row.f_ghz_over_t == pytest.approx(row.f_ancilla_over_t, rel=1e-12)

    def test_depolarizing_literal_carries_factor_two(self):
        row = table1(dpc(1.0), 3, 0.5)
        assert row.literal_mismatch
        assert row.f_ghz_over_t_literal / row.f_ghz_over_t == pytest.approx(
            2.0, abs=1e-9
        )

    def test_tabulated_expression_validation(self):
        with pytest.raises(ValueError):
            tabulated_f_over_t("custom", StrategyKind.GHZ_FREE, 2, 1.0, 0.5)
        with pytest.raises(ValueError):
            tabulated_f_over_t("adc", StrategyKind.GHZ_FREE, 0, 1.0, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: sweep(adc(1.0), 1, 2, strategies=[]), "no strategies selected"),
    (lambda: tabulated_f_over_t("adc", StrategyKind.GHZ_FREE, 2, -1.0, 0.5),
     "gamma and t must be nonnegative"),
    (lambda: tabulated_f_over_t("adc", StrategyKind.GHZ_FREE, 2, 1.0, -0.5),
     "gamma and t must be nonnegative"),
    (lambda: table1(adc(1.0), 2, 0.0), "F/t needs t > 0, got 0.0"),
    (lambda: sweep(adc(1.0), 1, 10**400), f"N overflows double precision at n={10**400}"),
    (lambda: tabulated_f_over_t("adc", StrategyKind.GHZ_FREE, 10**400, 1.0, 0.5),
     f"N overflows double precision at gamma=1.0 t=0.5: strategy=ghz_free model=adc "
     f"n={10**400}"),
    (lambda: table1(adc(1.0), 10**400, 0.5), f"N overflows double precision at n={10**400}"),
], ids=["sweep_no_strategy", "tabulated_gamma", "tabulated_t", "table1_t", "sweep_n",
        "tabulated_n", "table1_n"])
def test_input_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestLargeN:
    """The scan window scales with 1/N and F is evaluated in log space."""

    @pytest.mark.parametrize("n", [2969, 5000, 20000, 10**6])
    def test_phase_damping_optimum_and_ratio(self, n):
        gamma = 2.3
        rows = sweep(pdc(gamma), n, n,
                     strategies=[StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA])
        assert len(rows) == 2
        for row in rows:
            assert abs(row.t_opt * 2.0 * n * gamma - 1.0) <= 1e-11
            assert abs(row.ratio_r - 1.0) <= 1e-11


class TestUnderflow:
    """Deep decay gives the tiny value, or an error; never a silent 0."""

    @pytest.mark.parametrize("make,n", [(adc, 3400), (pdc, 1700)])
    def test_literal_agrees_in_deep_decay(self, make, n):
        row = table1(make(1.0), n, 0.2)
        assert 0.0 < row.f_ghz_over_t < 1e-200
        assert not row.literal_mismatch

    def test_underflow_below_double_range_raises(self):
        with pytest.raises(ValueError, match="underflow"):
            table1(dpc(1.0), 20000, 0.2)
        with pytest.raises(ValueError, match="underflow"):
            tabulated_f_over_t("dpc", StrategyKind.GHZ_FREE, 20000, 1.0, 0.2)


def _adc_like_rule(t):
    """A CPTP custom map: adc's poles, eta_perp wobbling below sqrt(g)."""
    g = math.exp(-t)
    return ChannelParams(0.0, math.exp(-0.5 * t) * (0.95 + 0.05 * math.cos(3.0 * t)), g, g - 1.0)


GHZ = [StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA]
BATCH_CASES = [
    *((make, gamma, 40) for make in (adc, dpc, pdc) for gamma in (0.3, 1.3, 7.0)),
    (lambda gamma: custom(_adc_like_rule, gamma), 1.0, 10),
]


def _key(row):
    return row.t_opt, row.f_over_t_max, row.ratio_r, row.saturation_gap


class TestBatch:
    """`sweep` optimizes its GHZ rows in batches; a row's numbers do not
    depend on which other rows share its batch."""

    @pytest.mark.parametrize("make,gamma,n_max", BATCH_CASES)
    def test_each_row_equals_the_row_alone(self, make, gamma, n_max):
        model = make(gamma)
        rows = sweep(model, 1, n_max, c1=0.6)
        assert len(rows) == 3 * n_max
        for row in rows:
            if row.strategy is StrategyKind.UNCORRELATED:
                continue
            (alone,) = sweep(model, row.n, row.n, strategies=[row.strategy], c1=0.6)
            assert _key(alone) == _key(row), (row.n, row.strategy)
            spec = ProbeSpec(0.6, 0.8, row.n, row.strategy.default_ancillas)
            assert maximize_f_over_t(row.strategy, spec, model) == (row.t_opt, row.f_over_t_max)

    def test_cli_rows_equal_the_rows_alone(self, capsys):
        argv = ["sweep", "--model", "dpc", "--gamma", "2.2", "--c1", "0.7"]
        assert run([*argv, "--n", "1:12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for n in range(1, 13):
            for i, flag in enumerate(("ghz-free", "ghz-ancilla")):
                assert run([*argv, "--n", str(n), "--strategy", flag]) == 0
                alone = capsys.readouterr().out.splitlines()[1]
                assert alone == lines[1 + 3 * (n - 1) + 1 + i]

    def test_rows_either_side_of_a_chunk_boundary(self):
        per_chunk = optimize.BATCH_ROWS // len(GHZ)
        edge = 1 + per_chunk  # the first N of the second chunk
        rows = sweep(adc(1.0), 1, edge + 1, strategies=GHZ)
        for row in rows[-6:]:
            (alone,) = sweep(adc(1.0), row.n, row.n, strategies=[row.strategy])
            assert _key(alone) == _key(row), (row.n, row.strategy)

    def test_chunk_size_does_not_move_a_bit(self, monkeypatch):
        whole = sweep(dpc(0.8), 1, 25, c1=0.55)
        monkeypatch.setattr(optimize, "BATCH_ROWS", 5)
        assert [_key(r) for r in sweep(dpc(0.8), 1, 25, c1=0.55)] == [_key(r) for r in whole]

    @pytest.mark.parametrize("call", [
        lambda: qfi_closed(StrategyKind.GHZ_FREE, ProbeSpec.balanced(3), adc(1.0), 0.2),
        lambda: saturation_check(ProbeSpec.balanced(3, 1), adc(1.0), 0.2, 0.0),
        lambda: maximize_f_over_t(StrategyKind.GHZ_ANCILLA, ProbeSpec.balanced(3, 1), adc(1.0)),
        lambda: sweep(adc(1.0), 1, 30),
        lambda: run(["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.2"]),
    ], ids=["qfi_closed", "saturation_check", "maximize_f_over_t", "sweep", "cli_qfi"])
    def test_no_strategy_is_hashed(self, monkeypatch, capsys, call):
        # hashing a StrategyKind runs Enum.__hash__ in Python; every strategy
        # is read off its member, so no call looks one up by hash
        hashes = []
        original = StrategyKind.__hash__

        def counted(kind):
            hashes.append(kind)
            return original(kind)

        monkeypatch.setattr(StrategyKind, "__hash__", counted)
        call()
        assert hashes == []

    def test_unimodality_failure_names_its_n(self):
        # this profile has a second peak for N = 2 only
        def rule(t):
            return ChannelParams(0.0, math.exp(-t) * (0.95 + 0.05 * math.cos(10.0 * t)), 1.0, 0.0)

        model = custom(rule)
        sweep(model, 1, 1, strategies=[StrategyKind.GHZ_FREE])
        sweep(model, 3, 3, strategies=[StrategyKind.GHZ_FREE])
        with pytest.raises(ValueError, match=r"not unimodal.*strategy=ghz_free .*n=2\b"):
            sweep(model, 1, 3, strategies=[StrategyKind.GHZ_FREE])

    @pytest.mark.parametrize("kind", GHZ_KINDS)
    def test_subnormal_optimum_is_named(self, kind):
        # x_opt = gamma t_opt is about 1, so t_opt is about 1e-308
        spec = ProbeSpec.balanced(2, kind.default_ancillas)
        with pytest.raises(ValueError, match=(
            r"^t_opt = .* underflows double precision, below the smallest normal double "
            rf".*strategy={kind.value} model=adc n=2$"
        )) as info:
            maximize_f_over_t(kind, spec, adc(1e308))
        assert "does not change sign" not in str(info.value)
        assert "phase coherence" not in str(info.value)

    def test_no_coherence_names_the_strategy_and_n(self):
        with pytest.raises(ValueError, match=r"no phase coherence.*strategy=ghz_free .*n=3\b"):
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec(1.0, 0.0, 3), adc(1.0))

    def test_large_range_finishes(self):
        rows = sweep(pdc(1.0), 1, 2000, strategies=GHZ)
        assert len(rows) == 4000
        assert all(abs(r.t_opt * 2.0 * r.n - 1.0) <= 1e-11 for r in rows)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    make=st.sampled_from([adc, dpc, pdc]),
    log_gamma=st.floats(-100.0, 100.0),
    c1=st.floats(0.05, 0.99),
    n_min=st.integers(1, 3000),
    width=st.integers(0, 4),
)
def test_sweep_rows_equal_the_one_row_calls(make, log_gamma, c1, n_min, width):
    """Every `sweep` row is the one-row `maximize_f_over_t` and, at its
    t_opt, `saturation_check`, and its R is `sensitivity_ratio` to the bit;
    the uncorrelated rows quote one probe's, whose gap is formed at
    x = gamma t_opt and so is that of gamma = 1."""
    model = make(10.0**log_gamma)
    c2 = math.sqrt(1.0 - c1 * c1)
    single = ProbeSpec(c1, c2, 1)
    t_unc, best_single = maximize_f_over_t(StrategyKind.UNCORRELATED, single, model)
    x_unc, _ = maximize_f_over_t(StrategyKind.UNCORRELATED, single, make(1.0))
    _, _, gap_unc = saturation_check(single, make(1.0), x_unc, 0.0)
    for row in sweep(model, n_min, n_min + width, c1=c1):
        if row.strategy is StrategyKind.UNCORRELATED:
            assert _key(row) == (t_unc, row.n * best_single, 1.0, gap_unc)
            continue
        spec = ProbeSpec(c1, c2, row.n, row.strategy.default_ancillas)
        t_opt, best = maximize_f_over_t(row.strategy, spec, model)
        assert (row.t_opt, row.f_over_t_max) == (t_opt, best)
        assert row.ratio_r == sensitivity_ratio(spec, model, row.strategy)
        _, _, gap = saturation_check(spec, model, t_opt, 0.0)
        assert abs(row.saturation_gap - gap) <= 2e-15


@pytest.mark.parametrize("make", [adc, dpc, pdc])
def test_custom_wrapper_ratios_are_sensitivity_ratio(make):
    # a custom model takes the searched route for every row, the uncorrelated
    # one-probe optimum included
    named = make(1.3)
    wrapped = custom(lambda t: params_at(named, t), named.gamma)
    c1 = 0.6
    c2 = math.sqrt(1.0 - c1 * c1)
    for row in sweep(wrapped, 1, 16, c1=c1):
        if row.strategy.correlated:
            spec = ProbeSpec(c1, c2, row.n, row.strategy.default_ancillas)
            assert row.ratio_r == sensitivity_ratio(spec, wrapped, row.strategy), row.n


@pytest.mark.parametrize("make", [adc, dpc])
@pytest.mark.parametrize("c1", [1e-6, 0.05, 0.999])
def test_rows_that_freeze_apart_equal_the_one_row_calls(make, c1):
    """In these sweeps some rows of a batch freeze on an earlier slope call
    than others; each GHZ row still equals its one-row batch to the bit."""
    c2 = math.sqrt(1.0 - c1 * c1)
    for row in sweep(make(1.0), 1, 200, strategies=(StrategyKind.GHZ_FREE,
                                                    StrategyKind.GHZ_ANCILLA), c1=c1):
        spec = ProbeSpec(c1, c2, row.n, row.strategy.default_ancillas)
        assert (row.t_opt, row.f_over_t_max) == maximize_f_over_t(row.strategy, spec, make(1.0))


# slopes that defeat a plain secant search on [1, 1.3]: a near-step, a
# step with a tiny positive shelf, and cubics with a triple root near an end
ADVERSARIAL_SLOPES = {
    "tanh step": lambda t: -np.tanh((t - 1.0113) / 1e-10),
    "tiny shelf": lambda t: np.where(t < 1.2917, 1e-200, -1.0),
    "cubic near a": lambda t: (1.00003 - t) ** 3,
    "cubic near b": lambda t: (1.29991 - t) ** 3,
}


def _recorded_slope(monkeypatch, shape):
    """Patch `optimize._log_slope` to `shape`; returns the list of (t, slope) of each call."""
    calls = []

    def fake(probe, model):
        def slope(t):
            calls.append((t.copy(), shape(t)))
            return calls[-1][1]

        return slope

    monkeypatch.setattr(optimize, "_log_slope", fake)
    return calls


class TestSlopeSearch:
    """The slope search takes 3 calls on the named models and, on any slope,
    at most one call more than bisection."""

    @pytest.mark.parametrize("guess", [1.0, 1.05, 1.15, 1.3, math.nan])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_SLOPES))
    def test_worst_case_is_bisection(self, monkeypatch, name, guess):
        calls = _recorded_slope(monkeypatch, ADVERSARIAL_SLOPES[name])
        a, b = 1.0, 1.3
        (root,) = optimize._slope_roots(None, None, np.array([a]), np.array([b]), np.array([guess]))
        t = np.concatenate([c[0].ravel() for c in calls])
        s = np.concatenate([c[1].ravel() for c in calls])
        lo, hi = t[s > 0.0].max(), t[s <= 0.0].min()
        assert lo <= root <= hi
        assert hi - lo <= optimize.REFINE_REL_WIDTH * hi
        bisection = math.ceil(math.log2((b - a) / (optimize.REFINE_REL_WIDTH * hi)))
        assert len(calls) <= bisection + 1

    def test_named_models_take_three_calls(self, monkeypatch):
        # an exact work count: no search for the analytic rows (uncorrelated,
        # pdc GHZ), and per adc/dpc GHZ batch 3 slope calls and 8 slope points per row
        searches = []
        log_slope, slope_roots = optimize._log_slope, optimize._slope_roots

        def counted_slope(probe, model):
            slope = log_slope(probe, model)

            def counted(t):
                searches[-1][0] += 1
                searches[-1][1] += t.size
                return slope(t)

            return counted

        def counted_roots(probe, model, a, b, guess):
            searches.append([0, 0, len(a)])
            return slope_roots(probe, model, a, b, guess)

        monkeypatch.setattr(optimize, "_log_slope", counted_slope)
        monkeypatch.setattr(optimize, "_slope_roots", counted_roots)
        for make in (adc, dpc, pdc):
            for gamma in (0.13, 1.3, 7.0):
                for c1 in (0.35, 0.9):
                    sweep(make(gamma), 1, 40, c1=c1)
                    sweep(make(gamma), 10**5, 10**5, strategies=GHZ, c1=c1)
        # per adc/dpc setting: 3 GHZ batches, then 1 batch
        assert len(searches) == 2 * 3 * 2 * (3 + 1)
        assert all((calls, points) == (3, 8 * rows) for calls, points, rows in searches)


def _rotating_rule(t):
    """A CPTP custom map with a noise rotation theta_noise != 0 and eta_perp < 0."""
    g = math.exp(-t)
    return ChannelParams(0.4 + 0.3 * t, -g, g, g - 1.0)


GAP_MODELS = [
    *((make, 60) for make in (adc, dpc, pdc)),
    (lambda gamma: custom(_rotating_rule, gamma), 12),
]


class TestSaturationGap:
    """`sweep` forms the saturation gaps of each batch in one array pass from
    the optimizer's log F; every row agrees with the one-row public call."""

    @pytest.mark.parametrize("make,n_max", GAP_MODELS)
    @pytest.mark.parametrize("c1", [0.35, 0.6, 0.9])
    def test_batch_gap_matches_saturation_check(self, make, n_max, c1):
        model = make(1.3)
        c2 = math.sqrt(1.0 - abs(c1) ** 2)
        rows = sweep(model, 1, n_max, strategies=GHZ, c1=c1)
        assert len(rows) == 2 * n_max
        for row in rows:
            spec = ProbeSpec(c1, c2, row.n, row.strategy.default_ancillas)
            _, _, gap = saturation_check(spec, model, row.t_opt, 0.0)
            assert abs(row.saturation_gap - gap) <= 2e-15, (row.n, row.strategy)
            assert abs(row.saturation_gap) <= 1e-14, (row.n, row.strategy)

    def test_sweep_makes_no_per_row_check(self, monkeypatch):
        # an exact work count: only the uncorrelated single-probe gap is a one-row call
        calls = collections.Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(optimize, "saturation_check")
        for name in ("_log_f_phase", "_block", "GhzObservable"):
            counted(measurement, name)
        # both the optimizer and the gap pass of a batch read one probe record
        counted(optimize, "_probe_columns")
        counted(measurement, "_probe")
        post_init = ProbeSpec.__post_init__

        def counted_spec(spec):
            calls["ProbeSpec"] += 1
            post_init(spec)

        monkeypatch.setattr(ProbeSpec, "__post_init__", counted_spec)

        def counted_check(module):
            original = module._check_normal

            def wrapper(columns, where):
                calls["F_phase"] += any(name == "F_phase" for name, _ in columns)
                return original(columns, where)

            monkeypatch.setattr(module, "_check_normal", wrapper)

        counted_check(optimize)
        counted_check(measurement)
        assert len(sweep(adc(1.3), 1, 30)) == 90
        assert calls["saturation_check"] <= 1
        assert calls["_log_f_phase"] <= 1
        assert calls["GhzObservable"] == 0
        # one record per batch of 32 rows (two here) and one for the one-row
        # uncorrelated optimum; one float record for its saturation check;
        # the amplitudes are checked once
        assert calls["_probe_columns"] == 3
        assert calls["_probe"] == 1
        assert calls["ProbeSpec"] == 1
        assert calls["_block"] <= 3
        # F_phase is range-checked once per optimum (the one-probe uncorrelated
        # one and two batches) and once by the one-probe saturation check; the
        # gap pass of a batch repeats none of the maximizer's checks
        assert calls["F_phase"] == 4
