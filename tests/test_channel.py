import math

import numpy as np
import pytest

from ghzfreq.channel import (
    CP_TOL,
    ChannelParams,
    a_coefficients,
    adc,
    affine_apply,
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
from ghzfreq.channel import _SZ, _FloatMath, _jump_operators, _lindblad_rhs


def bloch_of(rho):
    return np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def rk4_loop(model, omega, t, rho0, steps):
    """Plain step-by-step classical RK4 on the master equation: the reference."""
    jumps = _jump_operators(model)
    h = 0.5 * omega * _SZ
    dt = t / steps
    rho = np.asarray(rho0, dtype=complex).copy()
    for _ in range(steps):
        k1 = _lindblad_rhs(rho, h, jumps)
        k2 = _lindblad_rhs(rho + 0.5 * dt * k1, h, jumps)
        k3 = _lindblad_rhs(rho + 0.5 * dt * k2, h, jumps)
        k4 = _lindblad_rhs(rho + dt * k3, h, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def rho_of(r):
    return 0.5 * np.array(
        [[1.0 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1.0 - r[2]]],
        dtype=complex,
    )


class TestFloatMath:
    def test_logaddexp_matches_numpy(self):
        # the scalar path of the log-space terms, -inf operands included
        rng = np.random.default_rng(43)
        pairs = rng.uniform(-800.0, 800.0, size=(2000, 2))
        pairs[::7, 0] = -math.inf
        pairs[::11, 1] = -math.inf
        for a, b in pairs:
            assert _FloatMath.logaddexp(float(a), float(b)) == float(np.logaddexp(a, b))


class TestParamDictionaries:
    @pytest.mark.parametrize("gt", [0.0, 0.3, 1.0, 2.5])
    def test_amplitude_damping(self, gt):
        p = params_at(adc(1.0), gt)
        g = math.exp(-gt)
        assert p.theta_noise == 0.0
        assert p.eta_perp == pytest.approx(math.sqrt(g), rel=1e-15)
        assert p.eta_par == pytest.approx(g, rel=1e-15)
        assert p.kappa == pytest.approx(g - 1.0, abs=1e-15)

    @pytest.mark.parametrize("gt", [0.0, 0.4, 1.7])
    def test_depolarizing(self, gt):
        p = params_at(dpc(1.0), gt)
        g = math.exp(-gt)
        assert (p.eta_perp, p.eta_par, p.kappa) == (g, g, 0.0)

    @pytest.mark.parametrize("gt", [0.0, 0.4, 1.7])
    def test_phase_damping(self, gt):
        p = params_at(pdc(1.0), gt)
        g = math.exp(-gt)
        assert (p.eta_perp, p.eta_par, p.kappa) == (g, 1.0, 0.0)

    def test_gamma_scaling(self):
        # only the product gamma*t enters
        assert params_at(adc(2.0), 0.35) == params_at(adc(0.7), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            params_at(adc(1.0), -0.1)

    def test_custom_rule_dispatch(self):
        rule = lambda t: ChannelParams(0.1 * t, 0.9, 0.8, 0.0)
        model = custom(rule)
        assert params_at(model, 2.0) == ChannelParams(0.2, 0.9, 0.8, 0.0)

    def test_custom_without_rule_rejected(self):
        from ghzfreq.channel import NoiseModel

        with pytest.raises(ValueError):
            NoiseModel("custom", 1.0)


class TestACoefficients:
    def test_amplitude_damping_values(self):
        g = math.exp(-0.8)
        a = a_coefficients(params_at(adc(1.0), 0.8))
        assert a.a_pp == pytest.approx(2.0 * g, rel=1e-15)
        assert a.a_pm == pytest.approx(2.0, rel=1e-15)
        assert a.a_mp == 0.0  # 1 - eta_par + kappa cancels exactly
        assert a.a_mm == pytest.approx(2.0 * (1.0 - g), rel=1e-14)

    def test_depolarizing_values(self):
        g = math.exp(-0.8)
        a = a_coefficients(params_at(dpc(1.0), 0.8))
        assert (a.a_pp, a.a_pm) == (1.0 + g, 1.0 + g)
        assert (a.a_mp, a.a_mm) == (1.0 - g, 1.0 - g)

    def test_phase_damping_values(self):
        a = a_coefficients(params_at(pdc(1.0), 0.8))
        assert (a.a_pp, a.a_pm, a.a_mp, a.a_mm) == (2.0, 2.0, 0.0, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_sum_rules(self, seed):
        rng = np.random.default_rng(seed)
        theta, ep, el, ka = rng.uniform(-1.5, 1.5, size=4)
        a = a_coefficients(ChannelParams(theta, ep, el, ka))
        assert a.a_pp + a.a_mm == pytest.approx(2.0, abs=1e-14)
        assert a.a_pm + a.a_mp == pytest.approx(2.0, abs=1e-14)


class TestAffineMap:
    def test_pole_relaxation_under_amplitude_damping(self):
        gt = 0.6
        p = params_at(adc(1.0), gt)
        r = affine_apply(p, 0.0, gt, np.array([0.0, 0.0, 1.0]))
        g = math.exp(-gt)
        assert r == pytest.approx([0.0, 0.0, 2.0 * g - 1.0], abs=1e-15)

    def test_equator_rotation_under_phase_damping(self):
        # quarter turn shrinks x into y by the transverse factor
        t, omega = 0.2, math.pi / 2 / 0.2
        p = params_at(pdc(1.0), t)
        r = affine_apply(p, omega, t, np.array([1.0, 0.0, 0.0]))
        assert r == pytest.approx([0.0, math.exp(-0.2), 0.0], abs=1e-15)

    def test_fixed_point_of_amplitude_damping(self):
        p = params_at(adc(1.0), 1.3)
        south = np.array([0.0, 0.0, -1.0])
        assert affine_apply(p, 0.7, 1.3, south) == pytest.approx(south, abs=1e-15)

    def test_non_cptp_rejected(self):
        with pytest.raises(ValueError):
            affine_apply(ChannelParams(0.0, 1.0, 0.0, 0.0), 0.0, 1.0, np.zeros(3))

    def test_unphysical_bloch_vector_rejected(self):
        p = params_at(adc(1.0), 0.5)
        with pytest.raises(ValueError):
            affine_apply(p, 0.0, 0.5, np.array([1.0, 1.0, 1.0]))


class TestChoi:
    def test_identity_channel_spectrum(self):
        eigs = np.linalg.eigvalsh(choi_matrix(ChannelParams(0.0, 1.0, 1.0, 0.0)))
        assert eigs == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-14)

    def test_transverse_only_map_is_not_cp(self):
        p = ChannelParams(0.0, 1.0, 0.0, 0.0)
        assert choi_min_eigenvalue(p) == pytest.approx(-0.5, abs=1e-14)
        assert not is_cptp(p)

    def test_identity_is_cptp(self):
        assert is_cptp(ChannelParams(0.0, 1.0, 1.0, 0.0))

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    @pytest.mark.parametrize("gt", [0.0, 0.2, 1.0, 3.0])
    def test_named_models_are_cptp(self, make, gt):
        assert is_cptp(params_at(make(1.0), gt))

    def test_trace_is_two(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = ChannelParams(*rng.uniform(-1.5, 1.5, size=4))
            assert np.trace(choi_matrix(p)).real == pytest.approx(2.0, abs=1e-14)

    def test_min_eigenvalue_matches_eigensolver(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            p = ChannelParams(*rng.uniform(-1.5, 1.5, size=4))
            numeric = np.linalg.eigvalsh(choi_matrix(p))[0]
            assert choi_min_eigenvalue(p) == pytest.approx(numeric, abs=1e-12)
            assert is_cptp(p) == (numeric >= -CP_TOL)

    def test_negative_eta_can_still_be_cp(self):
        # inversion-like maps sit inside the CP region despite eta < 0
        p = ChannelParams(0.0, -0.3, -0.3, 0.0)
        assert choi_min_eigenvalue(p) >= -CP_TOL
        assert is_cptp(p)


class TestSuperoperator:
    def test_identity_at_time_zero(self):
        s = superoperator(params_at(adc(1.0), 0.0), 0.0, 0.0)
        assert s == pytest.approx(np.eye(4), abs=1e-15)

    def test_affine_row_structure(self):
        p = params_at(adc(1.0), 0.9)
        s = superoperator(p, 0.0, 0.9)
        assert s[0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)
        assert s[3] == pytest.approx([p.kappa, 0.0, 0.0, p.eta_par], abs=1e-15)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_semigroup_composition(self, make):
        model = make(1.0)
        omega, t1, t2 = 1.3, 0.4, 0.7
        s1 = superoperator(params_at(model, t1), omega, t1)
        s2 = superoperator(params_at(model, t2), omega, t2)
        s12 = superoperator(params_at(model, t1 + t2), omega, t1 + t2)
        assert s12 == pytest.approx(s2 @ s1, abs=1e-12)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_rotation_commutes_with_dissipation(self, make):
        p = params_at(make(1.0), 0.8)
        rot = superoperator(ChannelParams(0.0, 1.0, 1.0, 0.0), 1.9, 0.8)
        dis = superoperator(p, 0.0, 0.8)
        full = superoperator(p, 1.9, 0.8)
        assert full == pytest.approx(rot @ dis, abs=1e-12)
        assert full == pytest.approx(dis @ rot, abs=1e-12)

    def test_matches_affine_apply(self):
        rng = np.random.default_rng(3)
        p = params_at(dpc(1.0), 0.5)
        r = rng.uniform(-0.5, 0.5, size=3)
        s = superoperator(p, 0.9, 0.5)
        via_matrix = (s @ np.array([1.0, *r]))[1:]
        assert affine_apply(p, 0.9, 0.5, r) == pytest.approx(via_matrix, abs=1e-14)


class TestMasterEquation:
    def test_noiseless_precession(self):
        model = adc(0.0)
        omega, t = 2.0, 0.7
        rho = integrate_master_equation(model, omega, t, rho_of([1.0, 0.0, 0.0]), 400)
        expected = [math.cos(omega * t), math.sin(omega * t), 0.0]
        assert bloch_of(rho) == pytest.approx(expected, abs=1e-9)

    def test_amplitude_damping_populations(self):
        # |0> is the unstable level: its population decays as exp(-gamma*t)
        gt = 1.1
        rho = integrate_master_equation(adc(1.0), 0.0, gt, rho_of([0.0, 0.0, 1.0]), 4000)
        assert rho[0, 0].real == pytest.approx(math.exp(-gt), abs=1e-10)
        assert rho[1, 1].real == pytest.approx(1.0 - math.exp(-gt), abs=1e-10)

    def test_depolarizing_coherence_decay(self):
        gt = 0.9
        rho = integrate_master_equation(dpc(1.0), 0.0, gt, rho_of([1.0, 0.0, 0.0]), 4000)
        assert rho[0, 1].real == pytest.approx(0.5 * math.exp(-gt), abs=1e-10)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_agrees_with_affine_form(self, make):
        model = make(1.0)
        omega, t = -1.4, 1.6
        r0 = np.array([0.3, -0.2, 0.4])
        rho = integrate_master_equation(model, omega, t, rho_of(r0), 10_000)
        r1 = affine_apply(params_at(model, t), omega, t, r0)
        assert bloch_of(rho) == pytest.approx(r1, abs=1e-8)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    @pytest.mark.parametrize("steps", [1, 2, 7, 100, 10_000])
    def test_is_plain_rk4(self, make, steps):
        model, omega, t = make(1.0), 1.7, 1.6
        rho0 = rho_of([0.3, -0.2, 0.4])
        rho = integrate_master_equation(model, omega, t, rho0, steps)
        assert np.max(np.abs(rho - rk4_loop(model, omega, t, rho0, steps))) <= 1e-12

    def test_fourth_order_convergence(self):
        model, omega, t = adc(1.0), 1.0, 1.0
        r0 = np.array([0.4, 0.1, 0.2])
        exact = rho_of(affine_apply(params_at(model, t), omega, t, r0))

        def err(steps):
            rho = integrate_master_equation(model, omega, t, rho_of(r0), steps)
            return np.max(np.abs(rho - exact))

        ratio = err(50) / err(100)
        assert 8.0 < ratio < 32.0  # h^4 scaling gives ~16 on halving

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate_master_equation(adc(1.0), 0.0, 1.0, rho_of([0, 0, 0]), 0)
        bad = np.array([[1.0, 0.5], [0.2, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            integrate_master_equation(adc(1.0), 0.0, 1.0, bad, 100)
        with pytest.raises(ValueError):
            rule = lambda t: ChannelParams(0.0, 1.0, 1.0, 0.0)
            integrate_master_equation(custom(rule), 0.0, 1.0, rho_of([0, 0, 0]), 100)
