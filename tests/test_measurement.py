import cmath
import math
import re

import numpy as np
import pytest

from ghzfreq.channel import adc, dpc, params_at, pdc
from ghzfreq.fisher import qfi_closed
from ghzfreq.measurement import (
    GhzObservable,
    UnusableWorkingPointError,
    _readout,
    error_propagation_sensitivity,
    expectation_moments,
    saturation_check,
)
from ghzfreq.state import (
    ProbeSpec,
    StrategyKind,
    coherence_block,
    evolve_dense,
    evolve_directsum,
)


class TestObservable:
    def test_dense_matrix_shape(self):
        o = GhzObservable(3, 0.4).dense_matrix()
        assert o.shape == (8, 8)
        assert o[0, 7] == pytest.approx(cmath.exp(-0.4j))
        assert o[7, 0] == pytest.approx(cmath.exp(0.4j))
        assert np.count_nonzero(o) == 2

    def test_squares_to_corner_projector(self):
        o = GhzObservable(2, 1.1).dense_matrix()
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        assert o @ o == pytest.approx(expected, abs=1e-15)

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError):
            GhzObservable(0)


class TestMoments:
    def test_noiseless_aligned_phase(self):
        n, omega, t = 3, 1.3, 0.5
        spec = ProbeSpec.balanced(n)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(adc(0.0), t), omega, t)
        mean, second = expectation_moments(ds, GhzObservable(n, n * omega * t))
        assert mean == pytest.approx(1.0, abs=1e-13)
        assert second == pytest.approx(1.0, abs=1e-13)

    def test_phase_damping_quadrature(self):
        n, gt = 2, 0.8
        spec = ProbeSpec.balanced(n)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(pdc(1.0), gt), 0.0, gt)
        mean, second = expectation_moments(
            ds, GhzObservable(n, ds.phase_total - math.pi / 2)
        )
        assert mean == pytest.approx(0.0, abs=1e-13)
        assert second == pytest.approx(1.0, abs=1e-13)  # dephasing keeps the block full

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_against_dense_expectation(self, make):
        rng = np.random.default_rng(37)
        w = rng.uniform(0.2, 0.8)
        spec = ProbeSpec(math.sqrt(w), complex(math.sqrt(1 - w) * np.exp(0.9j)), 2)
        t = rng.uniform(0.2, 1.0)
        omega = rng.uniform(-2.0, 2.0)
        params = params_at(make(1.0), t)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, omega, t)
        dense = evolve_dense(spec, params, omega, t)
        obs = GhzObservable(2, rng.uniform(0.0, 2 * math.pi))
        mean, second = expectation_moments(ds, obs)
        o = obs.dense_matrix()
        assert mean == pytest.approx(float(np.trace(o @ dense.matrix).real), abs=1e-12)
        assert second == pytest.approx(
            float(np.trace(o @ o @ dense.matrix).real), abs=1e-12
        )

    def test_variance_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            spec = ProbeSpec.balanced(int(rng.integers(1, 5)), 1)
            t = rng.uniform(0.05, 1.5)
            ds = evolve_directsum(StrategyKind.GHZ_ANCILLA, spec, params_at(adc(1.0), t), 0.4, t)
            mean, second = expectation_moments(
                ds, GhzObservable(ds.n_total, rng.uniform(0, 2 * math.pi))
            )
            assert second - mean**2 >= -1e-15

    def test_dimension_mismatch_rejected(self):
        spec = ProbeSpec.balanced(2)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(adc(1.0), 0.3), 0.0, 0.3)
        with pytest.raises(ValueError):
            expectation_moments(ds, GhzObservable(3))


class TestErrorPropagation:
    def test_noiseless_quadrature_hits_projective_limit(self):
        n, t = 4, 0.7
        spec = ProbeSpec.balanced(n)
        obs = GhzObservable(n, -math.pi / 2)  # quadrature for omega = 0
        v = error_propagation_sensitivity(spec, adc(0.0), t, 0.0, obs)
        assert v == pytest.approx(1.0 / (t * n**2), rel=1e-12)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    @pytest.mark.parametrize("n,n_anc", [(1, 0), (3, 0), (2, 1)])
    def test_quadrature_saturates_the_bound(self, make, n, n_anc):
        rng = np.random.default_rng(n * 7 + n_anc)
        spec = ProbeSpec.balanced(n, n_anc)
        model = make(1.0)
        t = rng.uniform(0.1, 1.2)
        omega = rng.uniform(-2.0, 2.0)
        if n_anc == 0:
            ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(model, t), omega, t)
            f = qfi_closed(StrategyKind.GHZ_FREE, spec, model, t).f_freq
        else:
            ds = evolve_directsum(StrategyKind.GHZ_ANCILLA, spec, params_at(model, t), omega, t)
            f = qfi_closed(StrategyKind.GHZ_ANCILLA, spec, model, t).f_freq
        obs = GhzObservable(ds.n_total, ds.phase_total - math.pi / 2)
        v = error_propagation_sensitivity(spec, model, t, omega, obs)
        assert v == pytest.approx(t / f, rel=1e-10)

    def test_detuned_phase_costs_variance(self):
        spec = ProbeSpec.balanced(3)
        model, t = adc(1.0), 0.5
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(model, t), 0.0, t)
        bound = t / qfi_closed(StrategyKind.GHZ_FREE, spec, model, t).f_freq
        detuned = GhzObservable(3, ds.phase_total - math.pi / 2 + 0.4)
        v = error_propagation_sensitivity(spec, model, t, 0.0, detuned)
        assert v > bound * 1.05

    def test_zero_slope_working_point_rejected(self):
        spec = ProbeSpec.balanced(2)
        model, t = adc(1.0), 0.5
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(model, t), 0.0, t)
        aligned = GhzObservable(2, ds.phase_total)  # mean extremum, no response
        with pytest.raises(UnusableWorkingPointError):
            error_propagation_sensitivity(spec, model, t, 0.0, aligned)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    @pytest.mark.parametrize("n,n_anc", [(3, 0), (2, 1)])
    def test_array_readout_is_the_float_readout_phase_by_phase(self, make, n, n_anc):
        # the one readout formula over an array of phases, as `verify` scans it,
        # against `error_propagation_sensitivity` one phase at a time on floats;
        # the two phases of the mean's extrema have no phase response
        spec, model, t, omega = ProbeSpec.balanced(n, n_anc), make(1.0), 0.6, 0.9
        block, _ = coherence_block(spec, model, omega, t)
        extrema = [-cmath.phase(block[0, 1]), math.pi - cmath.phase(block[0, 1])]
        phases = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 721), extrema])
        with np.errstate(divide="ignore", invalid="ignore"):
            _, variance, flat = _readout(
                block[0, 0].real + block[1, 1].real, block[0, 1], n, phases, np
            )
        assert flat.tolist() == [False] * 721 + [True, True]
        for delta, value, is_flat in zip(phases.tolist(), (variance / t).tolist(), flat):
            obs = GhzObservable(spec.n_total, delta)
            if is_flat:
                with pytest.raises(UnusableWorkingPointError):
                    error_propagation_sensitivity(spec, model, t, omega, obs)
            else:
                want = error_propagation_sensitivity(spec, model, t, omega, obs)
                assert value == pytest.approx(want, rel=1e-12)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            error_propagation_sensitivity(
                ProbeSpec.balanced(2), adc(1.0), 0.0, 0.0, GhzObservable(2)
            )


class TestSaturationCheck:
    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_free_strategy_saturates(self, make):
        ok, best_delta, gap = saturation_check(
            ProbeSpec.balanced(3), make(1.0), 0.6, omega=0.9
        )
        assert ok
        assert abs(gap) <= 1e-8

    def test_ancilla_strategy_saturates(self):
        ok, _, gap = saturation_check(
            ProbeSpec.balanced(2, 1), dpc(1.0), 0.4, omega=0.0
        )
        assert ok and abs(gap) <= 1e-8

    def test_best_delta_sits_at_quadrature(self):
        spec = ProbeSpec.balanced(3)
        model, t, omega = adc(1.0), 0.7, 1.1
        _, best_delta, _ = saturation_check(spec, model, t, omega)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(model, t), omega, t)
        assert abs(math.cos(ds.phase_total - best_delta)) < 1e-9

    def test_opposite_quadrature_gives_the_same_variance(self):
        # delta + pi flips the sign of the mean and of the slope, which enter squared
        rng = np.random.default_rng(41)
        for make in (adc, dpc, pdc):
            for spec in (ProbeSpec.balanced(3), ProbeSpec.balanced(2, 1)):
                t, omega = rng.uniform(0.1, 1.5), rng.uniform(-2.0, 2.0)
                _, delta, _ = saturation_check(spec, make(1.0), t, omega)
                assert 0.0 <= delta < math.pi
                near = error_propagation_sensitivity(
                    spec, make(1.0), t, omega, GhzObservable(spec.n_total, delta)
                )
                far = error_propagation_sensitivity(
                    spec, make(1.0), t, omega, GhzObservable(spec.n_total, delta + math.pi)
                )
                assert far == pytest.approx(near, rel=1e-12)

    def test_unbalanced_probe_state(self):
        spec = ProbeSpec(0.55, math.sqrt(1 - 0.55**2), 2)
        ok, _, gap = saturation_check(spec, adc(1.0), 0.5, omega=0.3)
        assert ok and abs(gap) <= 1e-8

    def test_f_phase_past_the_doubles_is_named(self):
        # log F_phase = log N^2 - 2 N t = 921 - 2e-10; the gap used to be NaN
        with pytest.raises(ValueError, match=re.escape(
                f"F_phase overflows double precision at strategy=ghz_free model=pdc n={10**200}"
        ) + "$"):
            saturation_check(ProbeSpec.balanced(10**200), pdc(1.0), 1e-210, 0.0)

    def test_saturates_at_a_large_encoded_phase(self):
        # the quadrature phase must come from the coherence the readout reads:
        # phase_total = N omega t keeps about 16 significant digits, so taken
        # from it the phase misses quadrature from omega ~ 1e14 here (worst
        # |gap| 1.2e-5 at 1e14 and 0.27 at 3e16)
        worst = 0.0
        for omega in (0.3, 3e3, 3e8, 1e14, 1e15, 3e15, 3e16):
            for spec in (ProbeSpec.balanced(4), ProbeSpec.balanced(3, 1)):
                for make in (adc, dpc, pdc):
                    ok, delta, gap = saturation_check(spec, make(1.0), 0.3, omega)
                    assert ok and 0.0 <= delta < math.pi
                    worst = max(worst, abs(gap))
        assert worst <= 1e-14

    def test_dead_probe_rejected(self):
        # c2 = 0 carries no coherence, so there is no information to saturate
        with pytest.raises(ValueError):
            saturation_check(ProbeSpec(1.0, 0.0, 2), adc(1.0), 0.5, omega=0.0)


class TestPhaseOverflow:
    """N*(theta_noise + omega*t) beyond the doubles is named, not a bare
    "math domain error" from math.cos(inf)."""

    def test_float_readouts_name_the_phase(self):
        spec, model = ProbeSpec.balanced(3), adc(1.0)
        calls = [
            lambda: saturation_check(spec, model, 10.0, 1e308),
            lambda: error_propagation_sensitivity(spec, model, 10.0, 1e308, GhzObservable(3)),
            lambda: coherence_block(spec, model, 1e308, 10.0),
        ]
        named = r"block phase N\*\(theta_noise \+ omega\*t\) = inf overflows"
        for call in calls:
            with pytest.raises(ValueError, match=named):
                call()

    def test_largest_finite_phase_still_works(self):
        # N * omega * t = 3 * 1e307 * 5 is finite
        _, delta, gap = saturation_check(ProbeSpec.balanced(3), adc(1.0), 5.0, 1e307)
        assert 0.0 <= delta < math.pi and math.isfinite(gap)


@pytest.mark.parametrize("call, message", [
    (lambda: error_propagation_sensitivity(ProbeSpec.balanced(2), adc(1.0), 0.3, 0.0,
                                           GhzObservable(3)),
     "observable spans 3 qubits but the state has 2"),
    (lambda: saturation_check(ProbeSpec.balanced(2), adc(1.0), -0.5, 0.0),
     "interrogation time must be >= 0, got -0.5"),
], ids=["observable_qubits", "saturation_time"])
def test_input_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
