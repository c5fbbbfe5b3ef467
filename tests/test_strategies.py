"""Every entry of the strategy table, driven through every consumer, plus
property tests of the one closed form `fisher.log_qfi_phase`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzfreq.channel import ChannelParams, adc, custom, dpc, params_at, pdc
from ghzfreq.cli import run
from ghzfreq.fisher import log_qfi_phase, qfi_closed, qfi_sld_oracle
from ghzfreq.measurement import GhzObservable, error_propagation_sensitivity, saturation_check
from ghzfreq.optimize import maximize_f_over_t, sweep
from ghzfreq.state import (
    STRATEGIES,
    ProbeSpec,
    StrategyKind,
    assert_consistency,
    block_probe,
    coherence_block,
    evolve_dense,
    evolve_directsum,
    ghz_strategy,
)

MODELS = (adc, dpc, pdc)
GHZ_KINDS = (StrategyKind.GHZ_FREE, StrategyKind.GHZ_ANCILLA)


def flipped(gamma):
    """A CPTP custom map whose eta_perp is negative, so eta_perp^N changes sign."""
    return custom(lambda t: ChannelParams(0.0, -0.6 * math.exp(-gamma * t), 0.5, 0.0), gamma)


def probe(kind, n, c1=0.6, n_ancillas=None):
    """A probe of `kind` with real c1 and the strategy's default ancilla count."""
    if n_ancillas is None:
        n_ancillas = STRATEGIES[kind].default_ancillas
    return ProbeSpec(c1, math.sqrt(1.0 - c1 * c1), n, n_ancillas)


def oracle_f_phase(kind, spec, model, t, omega):
    """The SLD oracle's information: one dense block, or N one-qubit blocks."""
    unit, copies = block_probe(kind, spec)
    if STRATEGIES[kind].correlated:
        assert (unit, copies) == (spec, 1)
    else:
        assert (unit.n_probes, unit.n_ancillas, copies) == (1, 0, spec.n_probes)
    return copies * qfi_sld_oracle(unit, model, t, omega).f_phase


def cli_flag(kind):
    return kind.value.replace("_", "-")


@pytest.mark.parametrize("kind", list(StrategyKind))
class TestStrategyTable:
    @pytest.mark.parametrize("make", MODELS)
    def test_closed_form_matches_oracle(self, kind, make):
        rng = np.random.default_rng(11)
        model = make(1.0)
        for n in range(1, 5):
            spec = probe(kind, n, c1=rng.uniform(0.2, 0.9))
            t, omega = rng.uniform(0.05, 1.5), rng.uniform(-2.0, 2.0)
            result = qfi_closed(kind, spec, model, t)
            assert result.route == STRATEGIES[kind].route
            want = oracle_f_phase(kind, spec, model, t, omega)
            assert result.f_phase == pytest.approx(want, rel=1e-10)

    def test_ancilla_rule(self, kind, capsys):
        entry = STRATEGIES[kind]
        wrong = 0 if entry.default_ancillas else 1
        spec = probe(kind, 3, n_ancillas=wrong)
        with pytest.raises(ValueError):
            qfi_closed(kind, spec, adc(1.0), 0.3)
        with pytest.raises(ValueError):
            maximize_f_over_t(kind, spec, adc(1.0))
        if kind in GHZ_KINDS:
            with pytest.raises(ValueError):
                evolve_directsum(kind, spec, params_at(adc(1.0), 0.3), 0.0, 0.3)
        argv = ["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.3",
                "--strategy", cli_flag(kind)]
        assert run(argv + ["--n-ancillas", str(wrong)]) == 2
        assert "ancilla" in capsys.readouterr().err
        assert run(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["n_ancillas"] == str(entry.default_ancillas)
        if entry.default_ancillas:
            assert run(argv + ["--n-ancillas", "3"]) == 0  # any count >= 1

    @pytest.mark.parametrize("make", MODELS + (flipped,))
    def test_direct_sum_matches_dense(self, kind, make):
        rng = np.random.default_rng(13)
        model = make(1.0)
        for n in range(1, 5):
            unit, _ = block_probe(kind, probe(kind, n, c1=rng.uniform(0.2, 0.9)))
            t, omega = rng.uniform(0.05, 1.5), rng.uniform(-2.0, 2.0)
            params = params_at(model, t)
            ds = evolve_directsum(ghz_strategy(unit.n_ancillas), unit, params, omega, t)
            assert assert_consistency(ds, evolve_dense(unit, params, omega, t)) < 1e-12
            assert ds.block_trace() + ds.residual_mass() == pytest.approx(1.0, abs=1e-12)
            block, phase = coherence_block(unit, model, omega, t)
            assert phase == ds.phase_total
            assert np.max(np.abs(block - ds.block)) < 1e-15

    @pytest.mark.parametrize("make", MODELS)
    def test_readout_saturates_at_the_optimum(self, kind, make):
        for n in (1, 4, 30):
            (row,) = sweep(make(1.3), n, n, strategies=[kind], c1=0.6)
            assert abs(row.saturation_gap) <= 1e-12


@pytest.mark.parametrize("kind", GHZ_KINDS)
@pytest.mark.parametrize("make", MODELS)
@pytest.mark.parametrize("n", [10**7, 10**9])
def test_saturation_gap_exact_at_large_n(kind, make, n):
    model = make(1.0)
    spec = probe(kind, n)
    t_opt, _ = maximize_f_over_t(kind, spec, model)
    ok, _, gap = saturation_check(spec, model, t_opt, omega=0.0)
    assert ok and abs(gap) <= 1e-12


@pytest.mark.parametrize("kind", GHZ_KINDS)
def test_direct_sum_closes_at_large_n(kind):
    # dpc populates all four poles; at gamma N t = 1 block and residual both matter
    n = 10**6
    t = 1.0 / n
    ds = evolve_directsum(kind, probe(kind, n), params_at(dpc(1.0), t), 0.0, t)
    assert 0.1 < ds.block_trace() < 0.9
    assert abs(ds.block_trace() + ds.residual_mass() - 1.0) <= 1e-8


def test_error_propagation_builds_only_the_block():
    # pdc with an ancilla at N = 10^6: a residual would hold 2 * 10^6 classes
    model, n, omega = pdc(1.0), 10**6, 0.3
    spec = probe(StrategyKind.GHZ_ANCILLA, n)
    t = 0.5 / n
    _, delta, _ = saturation_check(spec, model, t, omega)
    value = error_propagation_sensitivity(spec, model, t, omega, GhzObservable(n + 1, delta))
    bound = t / qfi_closed(StrategyKind.GHZ_ANCILLA, spec, model, t).f_freq
    assert value == pytest.approx(bound, rel=1e-12)


# Fixed examples, so that every run draws the same points; no example database.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@PROPERTY
@given(
    kind=st.sampled_from(list(StrategyKind)),
    make=st.sampled_from(MODELS),
    n=st.integers(1, 10**6),
    gamma_t=st.floats(0.0, 60.0),
    c1=st.floats(0.0, 1.0),
)
def test_log_qfi_is_finite_or_minus_inf(kind, make, n, gamma_t, c1):
    spec = probe(kind, n, c1=c1)
    log_f = log_qfi_phase(kind, spec, make(1.0), gamma_t)
    assert isinstance(log_f, float)
    assert math.isfinite(log_f) or log_f == -math.inf
    assert math.exp(log_f) >= 0.0
    # the array path gives the same value as the float path
    on_grid = log_qfi_phase(kind, spec, make(1.0), np.array([gamma_t, 0.5 * gamma_t]))[0]
    assert on_grid == pytest.approx(log_f, rel=1e-12, abs=1e-12)


@PROPERTY
@given(
    kind=st.sampled_from(list(StrategyKind)),
    make=st.sampled_from(MODELS),
    n=st.integers(1, 6),
    gamma=st.floats(0.1, 10.0),
    gamma_t=st.floats(0.0, 8.0),
    c1=st.floats(0.0, 1.0),
    omega=st.floats(-2.0, 2.0),
)
def test_log_qfi_agrees_with_the_oracle(kind, make, n, gamma, gamma_t, c1, omega):
    model, t = make(gamma), gamma_t / gamma
    spec = probe(kind, n, c1=c1)
    f_phase = math.exp(log_qfi_phase(kind, spec, model, t))
    assert f_phase >= 0.0
    want = oracle_f_phase(kind, spec, model, t, omega)
    assert f_phase == pytest.approx(want, rel=1e-7, abs=1e-9 * n * n)
