import math

import numpy as np
import pytest

from ghzfreq.channel import ChannelParams, adc, custom, dpc, params_at, pdc
from ghzfreq.fisher import _sld_qfi, qfi_closed, qfi_sld_oracle
from ghzfreq.optimize import StrategyKind, maximize_f_over_t
from ghzfreq.state import ProbeSpec, evolve_dense

MODELS = [adc, dpc, pdc]


def random_spec(rng, n, n_anc=0):
    w = rng.uniform(0.1, 0.9)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return ProbeSpec(
        complex(math.sqrt(w) * np.exp(1j * p1)),
        complex(math.sqrt(1.0 - w) * np.exp(1j * p2)),
        n,
        n_anc,
    )


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_noiseless_heisenberg_scaling(self, n):
        t = 0.6
        spec = ProbeSpec(0.6, 0.8, n)
        weight = 4.0 * (0.6 * 0.8) ** 2
        r = qfi_closed(StrategyKind.GHZ_FREE, spec, adc(0.0), t)
        assert r.f_freq == pytest.approx(weight * n**2 * t**2, rel=1e-14)
        assert r.f_phase == pytest.approx(weight * n**2, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_phase_damping_form(self, n):
        gt = 0.45
        r = qfi_closed(StrategyKind.GHZ_FREE, ProbeSpec.balanced(n), pdc(1.0), gt)
        assert r.f_freq == pytest.approx(
            n**2 * gt**2 * math.exp(-2 * n * gt), rel=1e-13
        )

    def test_amplitude_damping_form(self):
        n, gt = 3, 0.8
        g = math.exp(-gt)
        r = qfi_closed(StrategyKind.GHZ_FREE, ProbeSpec.balanced(n), adc(1.0), gt)
        expected = 2 * n**2 * gt**2 * g**n / (1 + g**n + (1 - g) ** n)
        assert r.f_freq == pytest.approx(expected, rel=1e-13)

    def test_ancilla_strategy_on_amplitude_damping(self):
        n, gt = 4, 0.5
        g = math.exp(-gt)
        r = qfi_closed(StrategyKind.GHZ_ANCILLA, ProbeSpec.balanced(n, 1), adc(1.0), gt)
        assert r.f_freq == pytest.approx(
            2 * n**2 * gt**2 * g**n / (1 + g**n), rel=1e-13
        )

    def test_ancilla_count_never_enters(self):
        model, t = dpc(1.0), 0.7
        results = {
            qfi_closed(StrategyKind.GHZ_ANCILLA, ProbeSpec.balanced(3, k), model, t).f_freq
            for k in (1, 2, 3, 5)
        }
        assert len(results) == 1  # bitwise identical

    def test_ancilla_never_hurts(self):
        rng = np.random.default_rng(5)
        for make in MODELS:
            for _ in range(10):
                n = int(rng.integers(1, 6))
                spec = random_spec(rng, n)
                t = rng.uniform(0.05, 2.0)
                f_free = qfi_closed(StrategyKind.GHZ_FREE, spec, make(1.0), t).f_freq
                f_anc = qfi_closed(
                    StrategyKind.GHZ_ANCILLA, ProbeSpec(spec.c1, spec.c2, n, 1), make(1.0), t
                ).f_freq
                assert f_anc >= f_free * (1.0 - 1e-12)

    def test_uncorrelated_is_additive(self):
        rng = np.random.default_rng(9)
        for make in MODELS:
            spec = random_spec(rng, 5)
            t = rng.uniform(0.1, 1.5)
            total = qfi_closed(StrategyKind.UNCORRELATED, spec, make(1.0), t).f_freq
            single = ProbeSpec(spec.c1, spec.c2, 1)
            oracle = 5 * qfi_sld_oracle(single, make(1.0), t, 0.4).f_freq
            assert total == pytest.approx(oracle, rel=1e-8)

    def test_heisenberg_ceiling(self):
        # no phase-covariant channel can push F above the noiseless value
        rng = np.random.default_rng(13)
        for make in MODELS:
            for _ in range(20):
                n = int(rng.integers(1, 7))
                t = rng.uniform(0.05, 2.0)
                f = qfi_closed(StrategyKind.GHZ_FREE, ProbeSpec.balanced(n), make(1.0), t).f_freq
                assert f <= n**2 * t**2 * (1.0 + 1e-12)

    @pytest.mark.parametrize("make", MODELS)
    def test_monotone_in_noise_strength(self, make):
        t, n = 0.8, 3
        spec = ProbeSpec.balanced(n)
        values = [
            qfi_closed(StrategyKind.GHZ_FREE, spec, make(gamma), t).f_freq
            for gamma in np.linspace(0.0, 3.0, 25)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_time_squared_relation(self):
        r = qfi_closed(StrategyKind.GHZ_FREE, ProbeSpec.balanced(2), adc(1.0), 0.9)
        assert r.f_freq == pytest.approx(0.9**2 * r.f_phase, rel=1e-15)


class TestSldOracle:
    def test_pure_state_value(self):
        spec = ProbeSpec(0.48, math.sqrt(1 - 0.48**2), 3)
        w = 4.0 * abs(spec.c1 * spec.c2) ** 2
        r = qfi_sld_oracle(spec, adc(0.0), 0.7, 1.3)
        assert r.f_freq == pytest.approx(w * 9 * 0.7**2, rel=1e-11)

    @pytest.mark.parametrize("make", MODELS)
    def test_phase_covariance(self, make):
        # the information cannot depend on where along the precession we look
        spec = ProbeSpec.balanced(3)
        t = 0.8
        values = [
            qfi_sld_oracle(spec, make(1.0), t, omega).f_freq
            for omega in (0.0, 0.9, 2.4, -1.7)
        ]
        assert max(values) - min(values) <= 1e-9 * max(values)

    def test_finite_difference_route(self):
        spec = ProbeSpec.balanced(2, 1)
        model, t = adc(1.0), 0.6
        exact = qfi_sld_oracle(spec, model, t, 0.5).f_freq
        for dphi in (1e-4, 1e-5):
            fd = qfi_sld_oracle(spec, model, t, 0.5, dphi=dphi).f_freq
            assert fd == pytest.approx(exact, rel=1e-6)

    def test_finite_difference_step_validated(self):
        spec = ProbeSpec.balanced(2)
        for bad in (-1e-5, 0.0, 1e-2):
            with pytest.raises(ValueError):
                qfi_sld_oracle(spec, adc(1.0), 0.5, 0.0, dphi=bad)

    def test_route_labels(self):
        spec = ProbeSpec.balanced(2)
        assert qfi_closed(StrategyKind.GHZ_FREE, spec, adc(1.0), 0.5).route == "closed_ghz"
        assert qfi_sld_oracle(spec, adc(1.0), 0.5, 0.0).route == "sld_oracle"

    @pytest.mark.parametrize("make", MODELS)
    def test_rank_two_product_matches_dense_product(self, make):
        # the analytic drho has two nonzero corners; the rank-2 form of
        # <i|drho|j> must give the dense product's information
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            spec = random_spec(rng, n)
            rho = evolve_dense(spec, params_at(make(1.0), 0.4), 0.7, 0.4).matrix
            corners = (-1j * n * rho[0, -1], 1j * n * rho[-1, 0])
            dense = np.zeros_like(rho)
            dense[0, -1], dense[-1, 0] = corners
            assert _sld_qfi(rho, corners) == pytest.approx(_sld_qfi(rho, dense), rel=1e-15)


def _rule_with(**fields):
    base = {"theta_noise": 0.0, "eta_perp": 0.5, "eta_par": 0.5, "kappa": 0.0}
    return custom(lambda t: ChannelParams(**{**base, **fields}))


# custom maps that are not finite, or whose Choi spectrum is NaN although
# every field is finite (a_pp = inf, a_mm = -inf)
BAD_CUSTOM = {
    "eta_perp nan": _rule_with(eta_perp=math.nan),
    "eta_par inf": _rule_with(eta_par=math.inf),
    "kappa -inf": _rule_with(kappa=-math.inf),
    "theta nan": _rule_with(theta_noise=math.nan),
    "nan spectrum": _rule_with(eta_par=1e308, kappa=1e308),
}


class TestCustomModelsOutsideTheDomain:
    """A custom map that is not finite or not CPTP gets an error, never a number."""

    @pytest.mark.parametrize("name", sorted(BAD_CUSTOM))
    @pytest.mark.parametrize("kind", [StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA,
                                      StrategyKind.UNCORRELATED])
    def test_closed_forms_raise(self, name, kind):
        spec = ProbeSpec.balanced(2, 1 if kind is StrategyKind.GHZ_ANCILLA else 0)
        with pytest.raises(ValueError, match="not finite|not CPTP"):
            qfi_closed(kind, spec, BAD_CUSTOM[name], 0.5)

    @pytest.mark.parametrize("name", sorted(BAD_CUSTOM))
    def test_maximizer_raises(self, name):
        with pytest.raises(ValueError, match="not finite|not CPTP"):
            maximize_f_over_t(StrategyKind.GHZ_FREE, ProbeSpec.balanced(2), BAD_CUSTOM[name])
