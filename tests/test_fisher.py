import math
import re
import tracemalloc

import numpy as np
import pytest

from ghzfreq import cli
from ghzfreq.channel import (
    ChannelParams,
    adc,
    affine_apply,
    custom,
    dpc,
    is_cptp,
    params_at,
    pdc,
)
from ghzfreq.fisher import (
    SLD_EIGENVALUE_CUTOFF,
    _sld_qfi,
    log_qfi_phase,
    qfi_closed,
    qfi_sld_oracle,
)
from ghzfreq.measurement import GhzObservable, error_propagation_sensitivity, saturation_check
from ghzfreq.optimize import StrategyKind, maximize_f_over_t, sweep
from ghzfreq.state import (
    ProbeSpec,
    block_probe,
    coherence_block,
    evolve_dense,
    evolve_directsum,
)

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


def full_eigh_sld(rho, drho):
    """The SLD sum over one eigendecomposition of all of rho, with the dense
    product vec^dagger drho vec and the oracle's eigenvalue cutoff."""
    lam, vec = np.linalg.eigh(rho)
    m = vec.conj().T @ drho @ vec
    s = lam[:, None] + lam[None, :]
    mask = s > SLD_EIGENVALUE_CUTOFF
    return float(2.0 * np.sum(np.abs(m[mask]) ** 2 / s[mask]))


def corner_drho(rho, n):
    """d rho/d phi of an n-probe state as a dense matrix: its two corners."""
    drho = np.zeros_like(rho)
    drho[0, -1], drho[-1, 0] = -1j * n * rho[0, -1], 1j * n * rho[-1, 0]
    return drho


def random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x @ x.conj().T


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of every matrix handed to np.linalg.eigh, in call order."""
    shapes, real = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


class TestSldOracle:
    def test_dense_rho_is_one_block(self, eigh_shapes):
        rho = random_density(np.random.default_rng(3), 16)
        rho /= np.trace(rho).real
        got = _sld_qfi(rho, 4)
        assert eigh_shapes == [(16, 16)]
        assert math.isclose(got, full_eigh_sld(rho, corner_drho(rho, 4)), rel_tol=1e-13)

    def test_scattered_block_zero_row_and_zero_diagonal_row(self, eigh_shapes):
        # rows 0, 3, 6, 11 and 15 carry a dense block, row 13 has a zero
        # diagonal but couples to row 6, row 8 is zero and the rest are diagonal
        rng = np.random.default_rng(4)
        rho = np.diag(rng.uniform(0.01, 0.1, size=16)).astype(complex)
        rho[8, 8] = rho[13, 13] = 0.0
        rho[np.ix_([0, 3, 6, 11, 15], [0, 3, 6, 11, 15])] = 0.1 * random_density(rng, 5)
        rho[6, 13], rho[13, 6] = 0.02j, -0.02j
        got = _sld_qfi(rho, 4)
        assert eigh_shapes == [(6, 6)]
        assert math.isclose(got, full_eigh_sld(rho, corner_drho(rho, 4)), rel_tol=1e-13)

    @pytest.mark.parametrize("kind", list(StrategyKind))
    @pytest.mark.parametrize("make", MODELS)
    def test_evolved_states_match_the_full_eigendecomposition(self, make, kind):
        rng = np.random.default_rng(17)
        for n in (1, 4, 8):
            unit, _ = block_probe(kind, random_spec(rng, n, kind.default_ancillas))
            t, omega = rng.uniform(0.05, 1.5), rng.uniform(-2.0, 2.0)
            rho = evolve_dense(unit, params_at(make(1.0), t), omega, t).matrix
            want = full_eigh_sld(rho, corner_drho(rho, unit.n_probes))
            assert math.isclose(_sld_qfi(rho, unit.n_probes), want, rel_tol=1e-13), (n, t, omega)

    def test_peak_memory_is_the_zero_mask(self):
        # at N = 10 rho is 1024 x 1024 complex (16 MB); the boolean zero mask
        # (1 MB) is the only temporary of that size
        rho = evolve_dense(ProbeSpec.balanced(10), params_at(dpc(1.0), 0.3), 0.7, 0.3).matrix
        tracemalloc.start()
        try:
            _sld_qfi(rho, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("spec,make", [
        (ProbeSpec.balanced(10), dpc),
        (ProbeSpec.balanced(6, 1), adc),
        (ProbeSpec.balanced(6, 1), dpc),
        (ProbeSpec.balanced(6, 1), pdc),
    ], ids=["dpc-free-10", "adc-ancilla-6+1", "dpc-ancilla-6+1", "pdc-ancilla-6+1"])
    def test_named_model_ghz_state_diagonalizes_one_pair(self, spec, make, eigh_shapes):
        # phase-covariant noise leaves only the two GHZ corners off the diagonal
        assert qfi_sld_oracle(spec, make(1.0), 0.3, 0.7).f_phase > 0.0
        assert eigh_shapes == [(2, 2)]

    def test_probe_without_coherence_diagonalizes_nothing(self, eigh_shapes):
        assert qfi_sld_oracle(ProbeSpec(1.0, 0.0, 4), adc(1.0), 0.3, 0.7).f_phase == 0.0
        assert eigh_shapes == []

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

    def test_route_labels(self):
        spec = ProbeSpec.balanced(2)
        assert qfi_closed(StrategyKind.GHZ_FREE, spec, adc(1.0), 0.5).route == "closed_ghz"
        assert qfi_sld_oracle(spec, adc(1.0), 0.5, 0.0).route == "sld_oracle"


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

    @pytest.mark.parametrize("name", sorted(BAD_CUSTOM))
    def test_block_readout_and_sweep_raise(self, name):
        # each reaches the check through the model's log-space record
        model, spec = BAD_CUSTOM[name], ProbeSpec.balanced(2)
        calls = [
            lambda: coherence_block(spec, model, 0.3, 0.5),
            lambda: saturation_check(spec, model, 0.5, 0.3),
            lambda: error_propagation_sensitivity(spec, model, 0.5, 0.3, GhzObservable(2)),
            lambda: sweep(model, 1, 3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not finite|not CPTP"):
                call()

    @pytest.mark.parametrize("name", sorted(BAD_CUSTOM))
    def test_fields_are_rejected_without_a_warning(self, name):
        # the rule's fields as plain ChannelParams: is_cptp says False (Tier-1
        # turns any RuntimeWarning into an error) and each evolution raises
        params = BAD_CUSTOM[name].rule(0.5)
        assert is_cptp(params) is False
        spec = ProbeSpec.balanced(2)
        calls = [
            lambda: affine_apply(params, 0.3, 0.5, np.zeros(3)),
            lambda: evolve_dense(spec, params, 0.3, 0.5),
            lambda: evolve_directsum(StrategyKind.GHZ_FREE, spec, params, 0.3, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not CPTP"):
                call()


def _full_bit_flip(t):
    """A CPTP map that swaps the poles and keeps no coherence: eta_par = -1,
    so A++ = A+- = 0 and every block term of the ancilla strategy drops out."""
    return ChannelParams(0.0, 0.0, -1.0, 0.0)


class TestEmptyBlockTrace:
    def test_closed_form_is_zero(self):
        model = custom(_full_bit_flip)
        for kind, n_anc in ((StrategyKind.GHZ_ANCILLA, 1), (StrategyKind.GHZ_FREE, 0)):
            result = qfi_closed(kind, ProbeSpec.balanced(2, n_anc), model, 0.5)
            assert (result.f_phase, result.f_freq) == (0.0, 0.0), kind

    def test_optimizer_finds_no_coherence(self):
        with pytest.raises(ValueError, match="no phase coherence.*strategy=ghz_ancilla"):
            maximize_f_over_t(StrategyKind.GHZ_ANCILLA, ProbeSpec.balanced(2, 1),
                              custom(_full_bit_flip))

    def test_sweep_exits_3(self, monkeypatch, capsys):
        # the CLI names only the named models, so one of them stands for the map
        flip = custom(_full_bit_flip)
        monkeypatch.setitem(cli._MODEL_FACTORIES, "adc", lambda gamma: flip)
        code = cli.run(["sweep", "--model", "adc", "--gamma", "1", "--n", "1:3",
                        "--strategy", "ghz-ancilla"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "no phase coherence" in captured.err


# qfi points whose F = t^2 F_phase leaves the doubles: gamma t overflows, so
# eta_perp = exp(-inf) = 0 with both amplitudes nonzero; and t^2 overflows
# while F_phase is of order 1
DECAYED = (StrategyKind.GHZ_FREE, ProbeSpec(0.9, math.sqrt(0.19), 4), pdc(8.5e129), 1.37e269)
OVERFLOWING = (StrategyKind.UNCORRELATED, ProbeSpec.balanced(4), pdc(1e-300), 1e200)


TINY = "below the smallest normal double 2.2250738585072014e-308"


class TestInformationOutsideTheDoubles:
    """An F_phase or F that over- or underflows is named, never returned as nan or inf."""

    def test_overflowing_decay_is_an_underflow(self):
        with pytest.raises(ValueError, match=re.escape(
            f"F_phase = 0.0 underflows double precision, {TINY}, at gamma=8.5e+129 "
            "t=1.37e+269: strategy=ghz_free model=pdc n=4"
        ) + "$"):
            qfi_closed(*DECAYED)

    def test_overflow_is_named(self):
        with pytest.raises(ValueError, match=re.escape(
            "F overflows double precision at gamma=1e-300 t=1e+200: "
            "strategy=uncorrelated model=pdc n=4"
        ) + "$"):
            qfi_closed(*OVERFLOWING)

    @pytest.mark.parametrize("spec,model,t,where", [
        (ProbeSpec.balanced(1000), pdc(1e300), 1e7, "gamma=1e+300 t=10000000.0: "
                                                    "strategy=ghz_free model=pdc n=1000"),
        (ProbeSpec(1e-170, 1.0, 3), adc(1.0), 1.0, "gamma=1.0 t=1.0: "
                                                   "strategy=ghz_free model=adc n=3"),
    ], ids=["n-gamma-t-overflows", "c1-c2-underflows"])
    def test_a_minus_inf_log_with_coherence_is_an_underflow(self, spec, model, t, where):
        # the exact F is positive, though log F_phase = -inf in floating point
        with pytest.raises(ValueError, match=re.escape(
                f"F_phase = 0.0 underflows double precision, {TINY}, at {where}") + "$"):
            qfi_closed(StrategyKind.GHZ_FREE, spec, model, t)

    @pytest.mark.parametrize("point", [DECAYED, OVERFLOWING], ids=["decayed", "overflowing"])
    def test_a_probe_without_coherence_stays_zero(self, point):
        kind, _, model, t = point
        result = qfi_closed(kind, ProbeSpec(1.0, 0.0, 4), model, t)
        assert (result.f_phase, result.f_freq) == (0.0, 0.0)

    @pytest.mark.parametrize("argv, message", [
        (["--model", "pdc", "--gamma", "8.5e129", "--t", "1.37e269", "--c1", "0.9"],
         f"F_phase = 0.0 underflows double precision, {TINY}, at gamma=8.5e+129 t=1.37e+269: "
         "strategy=ghz_free model=pdc n=4"),
        (["--model", "pdc", "--gamma", "1e-300", "--t", "1e200", "--strategy", "uncorrelated"],
         "F overflows double precision at gamma=1e-300 t=1e+200: "
         "strategy=uncorrelated model=pdc n=4"),
    ], ids=["decayed", "overflowing"])
    def test_qfi_exits_3_naming_it(self, argv, message, capsys):
        code = cli.run(["qfi", "--n", "4", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"numerical failure: {message}\n"


def test_array_time_below_zero_is_named():
    with pytest.raises(ValueError, match=r"interrogation time must be >= 0, got -0\.5$"):
        log_qfi_phase(StrategyKind.GHZ_FREE, ProbeSpec.balanced(2), adc(1.0),
                      np.array([0.1, -0.5]))
