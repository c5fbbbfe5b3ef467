import math

import numpy as np
import pytest

from ghzfreq.channel import ChannelParams, adc, dpc, params_at, pdc, superoperator
from ghzfreq.state import (
    MAX_DENSE_QUBITS,
    ProbeSpec,
    StrategyKind,
    assert_consistency,
    evolve_dense,
    evolve_directsum,
    ghz_state,
)

IDENTITY = ChannelParams(0.0, 1.0, 1.0, 0.0)


def random_spec(rng, n, n_anc=0):
    w = rng.uniform(0.1, 0.9)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return ProbeSpec(
        complex(math.sqrt(w) * np.exp(1j * p1)),
        complex(math.sqrt(1.0 - w) * np.exp(1j * p2)),
        n,
        n_anc,
    )


class TestProbeSpec:
    def test_balanced(self):
        spec = ProbeSpec.balanced(3, 2)
        assert spec.n_probes == 3 and spec.n_ancillas == 2 and spec.n_total == 5
        assert abs(spec.c1) ** 2 == pytest.approx(0.5)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ProbeSpec(0.9, 0.9, 2)

    def test_probe_count_enforced(self):
        with pytest.raises(ValueError):
            ProbeSpec.balanced(0)

    def test_complex_amplitudes_allowed(self):
        spec = ProbeSpec(0.6j, 0.8, 2)
        assert spec.n_total == 2


class TestGhzState:
    def test_two_qubit_matrix(self):
        dense = ghz_state(ProbeSpec.balanced(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert dense.matrix == pytest.approx(expected, abs=1e-15)

    def test_unbalanced_corner_weights(self):
        spec = ProbeSpec(0.6, 0.8j, 3)
        dense = ghz_state(spec)
        assert dense.matrix[0, 0] == pytest.approx(0.36)
        assert dense.matrix[7, 7] == pytest.approx(0.64)
        assert dense.matrix[0, 7] == pytest.approx(0.6 * np.conj(0.8j))

    def test_ancillas_share_the_branch(self):
        # ancilla bits copy the probe branch: |000>+|111> on 2+1 qubits
        dense = ghz_state(ProbeSpec.balanced(2, 1))
        assert dense.matrix[0, 0] == pytest.approx(0.5)
        assert dense.matrix[7, 7] == pytest.approx(0.5)
        assert dense.matrix[3, 3] == pytest.approx(0.0, abs=1e-15)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            ghz_state(ProbeSpec.balanced(MAX_DENSE_QUBITS + 1))


class TestFreeEvolution:
    def test_identity_channel_keeps_purity(self):
        spec = ProbeSpec.balanced(3)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, IDENTITY, 1.1, 0.4)
        assert ds.block_trace() == pytest.approx(1.0, abs=1e-15)
        assert ds.residual_mass() == 0.0
        assert abs(ds.block[0, 1]) == pytest.approx(0.5, abs=1e-15)
        assert ds.phase_total == pytest.approx(3 * 1.1 * 0.4)

    def test_phase_damping_block(self):
        # dephasing never populates the residual, only shrinks coherence
        n, gt = 4, 0.7
        spec = ProbeSpec.balanced(n)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(pdc(1.0), gt), 0.0, gt)
        assert ds.block[0, 0].real == pytest.approx(0.5, abs=1e-15)
        assert ds.block[1, 1].real == pytest.approx(0.5, abs=1e-15)
        assert abs(ds.block[0, 1]) == pytest.approx(0.5 * math.exp(-n * gt), rel=1e-13)
        assert ds.residual_mass() == pytest.approx(0.0, abs=1e-15)

    def test_amplitude_damping_block_diagonals(self):
        n, gt = 3, 0.4
        g = math.exp(-gt)
        spec = ProbeSpec.balanced(n)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params_at(adc(1.0), gt), 0.0, gt)
        assert ds.block[0, 0].real == pytest.approx(0.5 * g**n, rel=1e-13)
        assert ds.block[1, 1].real == pytest.approx(
            0.5 * ((1.0 - g) ** n + 1.0), rel=1e-13
        )

    def test_encoded_phase_only_rotates_the_coherence(self):
        # omega turns the block off-diagonal; populations and |coherence| stay put
        rng = np.random.default_rng(31)
        for make in (adc, dpc, pdc):
            spec = random_spec(rng, 4)
            t = rng.uniform(0.1, 1.0)
            params = params_at(make(1.0), t)
            still = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, 0.0, t)
            moving = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, 1.1, t)
            assert moving.block[0, 0] == still.block[0, 0]
            assert moving.block[1, 1] == still.block[1, 1]
            assert abs(moving.block[0, 1]) == pytest.approx(abs(still.block[0, 1]), rel=1e-15)
            assert moving.phase_total - still.phase_total == pytest.approx(4 * 1.1 * t, rel=1e-15)

    def test_residual_multiplicities_are_binomial(self):
        ds = evolve_directsum(
            StrategyKind.GHZ_FREE, ProbeSpec.balanced(5), params_at(adc(1.0), 0.5), 0.0, 0.5
        )
        # adc: A++/2 = g, A+-/2 = 1, A-+/2 = 0, A--/2 = 1 - g; the |0...0> branch
        # has poles (A++, A--), the |1...1> branch (A-+, A+-)
        g = math.exp(-0.5)
        want = [
            math.comb(5, k) * (0.5 * g**k * (1.0 - g) ** (5 - k) + 0.5 * 0.0**k * 1.0 ** (5 - k))
            for k in range(1, 5)
        ]
        assert np.exp(ds.residual) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_residual_mass_past_double_binomials(self, make):
        # C(1031, 515) > 1.8e308: a linear-space class mass would overflow
        params = params_at(make(1.0), 0.3)
        for kind, n_anc in ((StrategyKind.GHZ_FREE, 0), (StrategyKind.GHZ_ANCILLA, 1)):
            ds = evolve_directsum(kind, ProbeSpec(0.6, 0.8, 1031, n_anc), params, 0.0, 0.3)
            assert abs(ds.block_trace() + ds.residual_mass() - 1.0) <= 1e-12

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_matches_dense_evolution(self, make):
        rng = np.random.default_rng(7)
        for _ in range(4):
            spec = random_spec(rng, int(rng.integers(1, 5)))
            t = rng.uniform(0.05, 1.2)
            omega = rng.uniform(-2.0, 2.0)
            params = params_at(make(1.0), t)
            ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, omega, t)
            dense = evolve_dense(spec, params, omega, t)
            assert assert_consistency(ds, dense) < 1e-12


class TestAncillaEvolution:
    def test_identity_channel_keeps_purity(self):
        spec = ProbeSpec.balanced(2, 2)
        ds = evolve_directsum(StrategyKind.GHZ_ANCILLA, spec, IDENTITY, 0.9, 0.3)
        assert ds.block_trace() == pytest.approx(1.0, abs=1e-15)
        assert ds.residual_mass() == 0.0

    def test_amplitude_damping_block_diagonals(self):
        # ancilla tags stop the two branches from mixing inside the block
        n, gt = 3, 0.6
        g = math.exp(-gt)
        spec = ProbeSpec.balanced(n, 1)
        ds = evolve_directsum(StrategyKind.GHZ_ANCILLA, spec, params_at(adc(1.0), gt), 0.0, gt)
        assert ds.block[0, 0].real == pytest.approx(0.5 * g**n, rel=1e-13)
        assert ds.block[1, 1].real == pytest.approx(0.5, rel=1e-13)

    def test_trace_closure(self):
        rng = np.random.default_rng(19)
        for make in (adc, dpc, pdc):
            spec = random_spec(rng, 4, 2)
            t = rng.uniform(0.1, 1.5)
            ds = evolve_directsum(
                StrategyKind.GHZ_ANCILLA, spec, params_at(make(1.0), t), 0.3, t
            )
            assert ds.block_trace() + ds.residual_mass() == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    @pytest.mark.parametrize("n_anc", [1, 2])
    def test_matches_dense_evolution(self, make, n_anc):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, 2, n_anc)
        t = rng.uniform(0.05, 1.2)
        omega = rng.uniform(-2.0, 2.0)
        params = params_at(make(1.0), t)
        ds = evolve_directsum(StrategyKind.GHZ_ANCILLA, spec, params, omega, t)
        dense = evolve_dense(spec, params, omega, t)
        assert assert_consistency(ds, dense) < 1e-12

    def test_requires_an_ancilla(self):
        with pytest.raises(ValueError):
            evolve_directsum(
                StrategyKind.GHZ_ANCILLA, ProbeSpec.balanced(2, 0), IDENTITY, 0.0, 0.0
            )

    def test_uncorrelated_has_no_direct_sum(self):
        # N one-qubit probes share no coherence block to build
        with pytest.raises(ValueError, match="no shared coherence block"):
            evolve_directsum(
                StrategyKind.UNCORRELATED, ProbeSpec.balanced(2), IDENTITY, 0.0, 0.0
            )


def pauli_round_trip(rho, n, qubit, s):
    """Apply an extended-Bloch map to one qubit through its Pauli components: the reference."""
    t = rho.reshape((2,) * (2 * n))
    t = np.moveaxis(t, (qubit, n + qubit), (0, 1))
    b00, b01, b10, b11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    v = np.stack([b00 + b11, b01 + b10, 1j * (b01 - b10), b00 - b11])
    w = np.tensordot(s.astype(complex), v, axes=(1, 0))
    out = np.empty_like(t)
    out[0, 0] = 0.5 * (w[0] + w[3])
    out[1, 1] = 0.5 * (w[0] - w[3])
    out[0, 1] = 0.5 * (w[1] - 1j * w[2])
    out[1, 0] = 0.5 * (w[1] + 1j * w[2])
    out = np.moveaxis(out, (0, 1), (qubit, n + qubit))
    return out.reshape(rho.shape)


class TestDenseEvolution:
    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_matches_pauli_round_trip(self, make):
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            for n_anc in range(3):
                spec = random_spec(rng, n, n_anc)
                t, omega = rng.uniform(0.05, 1.5), rng.uniform(-2.0, 2.0)
                params = params_at(make(1.0), t)
                s = superoperator(params, omega, t)
                want = ghz_state(spec).matrix
                for q in range(n):
                    want = pauli_round_trip(want, spec.n_total, q, s)
                got = evolve_dense(spec, params, omega, t).matrix
                assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_off_diagonal_zeros_are_exact(self, make):
        # only the two GHZ corners carry coherence; roundoff elsewhere slows eigh
        spec = random_spec(np.random.default_rng(5), 6)
        dense = evolve_dense(spec, params_at(make(1.0), 0.7), 1.3, 0.7)
        off = dense.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert off[0, -1] != 0.0 and off[-1, 0] != 0.0
        off[0, -1] = off[-1, 0] = 0.0
        assert np.count_nonzero(off) == 0

    def test_time_zero_is_identity(self):
        spec = ProbeSpec.balanced(3, 1)
        dense = evolve_dense(spec, IDENTITY, 0.0, 0.0)
        assert dense.matrix == pytest.approx(ghz_state(spec).matrix, abs=1e-15)

    def test_single_qubit_against_integrator(self):
        from ghzfreq.channel import integrate_master_equation

        spec = ProbeSpec(0.6, 0.8, 1)
        model, omega, t = adc(1.0), 1.3, 0.8
        dense = evolve_dense(spec, params_at(model, t), omega, t)
        rho0 = ghz_state(spec).matrix
        rho_ode = integrate_master_equation(model, omega, t, rho0, 6000)
        assert np.max(np.abs(dense.matrix - rho_ode)) < 1e-8

    def test_amplitude_damping_corner_population(self):
        # the all-zeros configuration decays with every probe's survival factor
        gt = 0.9
        spec = ProbeSpec.balanced(2)
        dense = evolve_dense(spec, params_at(adc(1.0), gt), 0.0, gt)
        assert dense.matrix[0, 0].real == pytest.approx(
            0.5 * math.exp(-2.0 * gt), rel=1e-12
        )

    def test_ancillas_are_untouched(self):
        # with pure dephasing the diagonal is frozen, ancillas included
        spec = ProbeSpec.balanced(2, 1)
        dense = evolve_dense(spec, params_at(pdc(1.0), 1.0), 0.0, 1.0)
        diag = np.diag(dense.matrix).real
        assert diag[0] == pytest.approx(0.5, abs=1e-14)
        assert diag[7] == pytest.approx(0.5, abs=1e-14)
        assert np.sum(diag) == pytest.approx(1.0, abs=1e-13)


class TestConsistencyChecker:
    def test_detects_corrupted_residual(self):
        spec = ProbeSpec.balanced(3)
        params = params_at(adc(1.0), 0.5)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, 0.0, 0.5)
        dense = evolve_dense(spec, params, 0.0, 0.5)
        broken = ds.__class__(
            ds.block,
            ds.residual + math.log(1.01),
            ds.phase_total,
            ds.n_probes,
            ds.n_ancillas,
        )
        assert assert_consistency(broken, dense) > 1e-4

    @pytest.mark.parametrize("n_anc", [0, 2])
    def test_reset_map(self, n_anc):
        # A++ = A-+ = 0: every probe lands in |1>, so (A/2)^0 = 1 must survive A = 0
        reset = ChannelParams(0.0, 0.0, 0.0, -1.0)
        kind = StrategyKind.GHZ_ANCILLA if n_anc else StrategyKind.GHZ_FREE
        for n in range(1, 5):
            spec = random_spec(np.random.default_rng(n), n, n_anc)
            ds = evolve_directsum(kind, spec, reset, 0.7, 0.4)
            assert assert_consistency(ds, evolve_dense(spec, reset, 0.7, 0.4)) <= 1e-12
            assert abs(ds.block_trace() + ds.residual_mass() - 1.0) <= 1e-12

    def test_rejects_qubit_count_mismatch(self):
        spec = ProbeSpec.balanced(3)
        params = params_at(adc(1.0), 0.5)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, 0.0, 0.5)
        dense = evolve_dense(ProbeSpec.balanced(2), params, 0.0, 0.5)
        with pytest.raises(ValueError):
            assert_consistency(ds, dense)
