import math
import re
import sys

import numpy as np
import pytest

from ghzfreq import channel
from ghzfreq.channel import (
    CP_TOL,
    ChannelParams,
    NoiseModel,
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
from ghzfreq.channel import (
    _check_density,
    _check_normal,
    _FloatMath,
    _jump_operators,
    _lindblad_rhs,
    _pauli_operators,
)


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
    h = 0.5 * omega * _pauli_operators()[2]
    dt = t / steps
    rho = np.asarray(rho0, dtype=complex).copy()
    for _ in range(steps):
        k1 = _lindblad_rhs(rho, h, jumps)
        k2 = _lindblad_rhs(rho + 0.5 * dt * k1, h, jumps)
        k3 = _lindblad_rhs(rho + 0.5 * dt * k2, h, jumps)
        k4 = _lindblad_rhs(rho + dt * k3, h, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def hand_choi(params):
    """The Choi matrix placed entry by entry from the pole coefficients: the
    reference that `choi_matrix`, read off the Liouville matrix, is pinned to."""
    a = a_coefficients(params)
    corner = params.eta_perp * np.exp(-1j * params.theta_noise)
    c = np.zeros(np.shape(corner) + (4, 4), dtype=complex)
    c[..., 0, 0] = 0.5 * a.a_pp
    c[..., 1, 1] = 0.5 * a.a_mp
    c[..., 2, 2] = 0.5 * a.a_mm
    c[..., 3, 3] = 0.5 * a.a_pm
    c[..., 0, 3] = corner
    c[..., 3, 0] = np.conj(corner)
    return c


# seeded random maps and, first, three extreme rows: zero, signed zeros and 1e+-300 fields
CHOI_FIELDS = np.random.default_rng(7).uniform(-1.5, 1.5, size=(2000, 4))
CHOI_FIELDS[:3] = [[0.0, 0.0, 0.0, 0.0], [-0.0, -1.0, 1.0, -0.0], [math.pi, 1e-300, -1.0, 1e300]]


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

    def test_exp_matches_numpy(self):
        # past log(largest double) = 709.78 math.exp raises, numpy returns inf
        values = np.concatenate([np.random.default_rng(47).uniform(-800.0, 800.0, 2000),
                                 [709.78, 709.79, 710.0, 1e308, math.inf, -math.inf, math.nan]])
        with np.errstate(over="ignore"):
            want = np.exp(values)
        got = np.array([_FloatMath.exp(float(v)) for v in values])
        # inf, 0 and NaN at the same inputs; the two libms may round a finite value apart
        for same in (np.isposinf, np.isnan, lambda a: a == 0.0):
            assert np.array_equal(same(got), same(want))
        assert np.isposinf(want).sum() > 100
        assert np.allclose(got, want, rtol=4.5e-16, atol=0.0, equal_nan=True)


TINY = "below the smallest normal double 2.2250738585072014e-308"


class TestCheckNormal:
    """The one rule: a value that is not a normal double is named with where
    it was computed, where(0) for a scalar or where(r) of an array's first
    failing row r."""

    @pytest.mark.parametrize("value", [1.0, sys.float_info.min, sys.float_info.max, 3, 10**308])
    def test_normal_values_pass(self, value):
        _check_normal([("x", value)], lambda _: "nowhere")

    @pytest.mark.parametrize("value, message", [
        (math.inf, "v overflows double precision at a=1"),
        (10**309, "v overflows double precision at a=1"),
        (1e-310, f"v = 1e-310 underflows double precision, {TINY}, at a=1"),
        (0.0, f"v = 0.0 underflows double precision, {TINY}, at a=1"),
        (0, f"v = 0.0 underflows double precision, {TINY}, at a=1"),
        (math.nan, f"v = nan underflows double precision, {TINY}, at a=1"),
    ])
    def test_a_scalar_names_its_inputs(self, value, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            _check_normal([("u", 2.0), ("v", value)], lambda r: f"a={r + 1}")

    def test_an_array_names_its_first_failing_row(self):
        rows = []
        with pytest.raises(ValueError, match=re.escape(
                f"v = 1e-320 underflows double precision, {TINY}, at row 2") + "$"):
            _check_normal([("u", np.ones(4)), ("v", np.array([1.0, 2.0, 1e-320, math.inf]))],
                          lambda r: rows.append(r) or f"row {r}")
        assert rows == [2]
        with pytest.raises(ValueError, match=r"^v overflows double precision at row 1$"):
            _check_normal([("v", np.array([[1.0], [math.inf]]))], lambda r: f"row {r}")


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

    @pytest.mark.parametrize("omega,t", [(1e308, 10.0), (-1.7e308, 1.7e308)])
    def test_rotation_angle_overflow_is_named(self, omega, t):
        # math.cos of the infinite angle would raise a bare "math domain error"
        tail = re.escape(f" is not a finite double at theta_noise=0.0, omega={omega!r}, t={t!r}")
        with pytest.raises(ValueError, match=r"^the rotation angle theta_noise \+ omega\*t = "
                                             rf"-?inf{tail}$"):
            affine_apply(params_at(adc(1.0), 0.5), omega, t, np.zeros(3))

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

    def test_stacked_matrices_are_the_per_map_ones(self):
        fields = np.random.default_rng(7).uniform(-1.5, 1.5, size=(200, 4))
        fields[:3] = [[0.0, 0.0, 0.0, 0.0], [-0.0, -1.0, 1.0, -0.0], [math.pi, 1e-300, -1.0, 1e300]]
        stacked = choi_matrix(ChannelParams(*fields.T))
        one = np.stack([choi_matrix(ChannelParams(*map(float, row))) for row in fields])
        assert stacked.shape == (200, 4, 4)
        assert np.array_equal(stacked.view(np.uint64), one.view(np.uint64))

    def test_matches_the_hand_assembly(self):
        # the same entries summed in another order: about 360 of the 2000 maps
        # move, each entry by at most eps = 2.2e-16 (one rounding of a sum of
        # order 1); the 1e300 entries do not move, and the exact zeros stay
        params = ChannelParams(*CHOI_FIELDS.T)
        got, want = choi_matrix(params), hand_choi(params)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.max(np.abs(got - want)) <= np.finfo(float).eps

    def test_reads_no_pole_coefficient(self, monkeypatch):
        # the Choi matrix is read off `superoperator`, so that an eigensolver on
        # it checks the closed-form spectrum built from `a_coefficients`
        calls = []
        monkeypatch.setattr(channel, "a_coefficients", lambda params: calls.append(params))
        choi_matrix(params_at(adc(1.0), 0.3))
        choi_matrix(ChannelParams(*CHOI_FIELDS.T))
        assert calls == []

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


@pytest.mark.parametrize("call, message", [
    (lambda: NoiseModel("xyz", 1.0), "unknown noise model kind: 'xyz'"),
    (lambda: NoiseModel("adc", math.inf), "gamma must be finite and >= 0, got inf"),
    (lambda: NoiseModel("adc", -1.0), "gamma must be finite and >= 0, got -1.0"),
    (lambda: affine_apply(params_at(adc(1.0), 0.5), 0.0, 0.5, np.zeros(2)),
     "Bloch vector must have shape (3,), got (2,)"),
    (lambda: integrate_master_equation(adc(1.0), 0.0, -1.0, rho_of([0, 0, 0]), 10),
     "integration time must be >= 0, got -1.0"),
    (lambda: integrate_master_equation(adc(1.0), 0.0, 1.0, np.eye(3) / 3, 10),
     "rho0 must be 2x2, got shape (3, 3)"),
    (lambda: integrate_master_equation(adc(1.0), 0.0, 1.0, np.eye(2), 10),
     "rho0 trace (2+0j) is not 1"),
    # the trace is within 1e-10 of 1, but the diagonal is not real
    (lambda: integrate_master_equation(
        adc(1.0), 0.0, 1.0, np.array([[0.5, 0.0], [0.0, 0.5 + 5e-11j]]), 10),
     "rho0 is not Hermitian within 1e-12"),
    (lambda: integrate_master_equation(
        adc(1.0), 0.0, 1.0, np.array([[math.nan, 0.0], [0.0, 0.5]]), 10),
     "rho0 is not Hermitian within 1e-12"),
], ids=["model_kind", "model_gamma_inf", "model_gamma_negative", "bloch_shape",
        "master_equation_t", "master_equation_shape", "master_equation_trace",
        "master_equation_hermitian", "master_equation_nan"])
def test_input_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _hermitian_1024():
    """A 2^10 x 2^10 matrix of unit trace, exactly Hermitian, with every
    off-diagonal entry nonzero."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    np.fill_diagonal(a, 0.0)
    return np.eye(1024) / 1024 + 1e-5 * (a + a.conj().T)


def _changed(*changes):
    """`_hermitian_1024()` with each (index, change) added."""
    rho = _hermitian_1024()
    for index, change in changes:
        rho[index] += change
    return rho


_NOT_HERMITIAN = "density matrix is not Hermitian within 1e-12"


class TestDensityCheckOfALargeMatrix:
    """`_check_density` forms rho - rho^H one 64x64 tile at a time; each
    verdict and message is the one of the whole-matrix difference."""

    @pytest.mark.parametrize("rho, message", [
        # an anti-Hermitian pair in the last row block: |rho - rho^H| = 2e-12, then 5e-13
        (lambda: _changed(((-1, -2), 1e-12), ((-2, -1), -1e-12)), _NOT_HERMITIAN),
        (lambda: _changed(((-1, -2), 2.5e-13), ((-2, -1), -2.5e-13)), None),
        # a NaN whose row and column both lie in the first, a middle, the last row block
        (lambda: _changed(((0, 1), math.nan)), _NOT_HERMITIAN),
        (lambda: _changed(((512, 513), math.nan)), _NOT_HERMITIAN),
        (lambda: _changed(((-1, -2), math.nan)), _NOT_HERMITIAN),
        (lambda: _changed(((0, 0), 2e-10)),
         "density matrix trace (1.0000000002+0j) is not 1 within 1e-10"),
        (_hermitian_1024, None),
        # across the edge of two tiles, in the far corner tile and its transpose,
        # and inside a diagonal tile
        (lambda: _changed(((63, 64), 1e-12), ((64, 63), -1e-12)), _NOT_HERMITIAN),
        (lambda: _changed(((63, 64), math.nan)), _NOT_HERMITIAN),
        (lambda: _changed(((0, 1023), 1e-12), ((1023, 0), -1e-12)), _NOT_HERMITIAN),
        (lambda: _changed(((1023, 0), math.nan)), _NOT_HERMITIAN),
        (lambda: _changed(((130, 170), 1e-12), ((170, 130), -1e-12)), _NOT_HERMITIAN),
        (lambda: _changed(((130, 170), math.nan)), _NOT_HERMITIAN),
    ], ids=["defect_2e-12", "defect_5e-13", "nan_first_block", "nan_middle_block",
            "nan_last_block", "trace", "hermitian", "defect_tile_edge", "nan_tile_edge",
            "defect_corner_tile", "nan_corner_tile", "defect_diagonal_tile",
            "nan_diagonal_tile"])
    def test_verdict_and_message(self, rho, message):
        matrix = rho()
        if message is None:
            _check_density(matrix, "density matrix")
            return
        with pytest.raises(ValueError) as raised:
            _check_density(matrix, "density matrix")
        assert str(raised.value) == message
