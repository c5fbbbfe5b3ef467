import collections
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzfreq import channel, state
from ghzfreq.channel import ChannelParams, adc, custom, dpc, params_at, pdc, superoperator
from ghzfreq.state import (
    MAX_DENSE_QUBITS,
    DenseState,
    DirectSumState,
    ProbeSpec,
    StrategyKind,
    assert_consistency,
    coherence_block,
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


def einsum_evolution(spec, params, omega, t):
    """The channel on each probe qubit as one einsum over the matrix's row and
    column index of that qubit: the contraction that `evolve_dense` reorders."""
    n = spec.n_total
    k = state._liouville_tensor(superoperator(params, omega, t))
    rho = ghz_state(spec).matrix
    for q in range(spec.n_probes):
        view = (2**q, 2, 2 ** (n - q - 1))
        rho = np.einsum("ijkl,akbcld->aibcjd", k, rho.reshape(view + view), optimize=True)
        rho = rho.reshape(2**n, 2**n)
    return rho


class TestDenseEvolution:
    # the one case whose entries are not bit-identical to the einsum's, with
    # its measured max |delta|: a different order of the same four products
    EINSUM_MOVES = {("dpc", 1, 0, 0.6): 1.1102230246251565e-16}

    @pytest.mark.parametrize("name, make", [
        ("adc", adc), ("dpc", dpc), ("pdc", pdc), ("custom", lambda g: custom(_rotating_rule, g)),
    ], ids=["adc", "dpc", "pdc", "custom"])
    def test_matches_the_einsum_contraction(self, name, make):
        t = 0.3
        params = params_at(make(1.0), t)
        for n, n_anc in [(10, 0), (9, 1), (2, 2), (8, 0), (6, 1), (1, 0), (3, 4), (5, 0)]:
            for c1 in (0.6, 0.35):
                spec = ProbeSpec(c1, math.sqrt(1.0 - c1 * c1), n, n_anc)
                got = evolve_dense(spec, params, 0.4, t).matrix
                want = einsum_evolution(spec, params, 0.4, t)
                dev = np.max(np.abs(got - want))
                assert dev <= 1e-15
                assert np.array_equal(got == 0.0, want == 0.0)
                moved = self.EINSUM_MOVES.get((name, n, n_anc, c1))
                if moved is None:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                else:
                    assert dev == moved

    def test_peak_memory_is_one_matrix(self):
        # one 2^10 x 2^10 complex matrix is 16 MiB; rho is the whole peak, the
        # support and the density check's tiles add little beside it
        spec, params = ProbeSpec.balanced(10), params_at(dpc(1.0), 0.3)
        tracemalloc.start()
        try:
            evolve_dense(spec, params, 0.7, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 16 * 2**20

    # rows that reach the 4x4 product per call, (N, ancillas) = (10, 0) and (9, 1):
    # the support's rows, not the 4^(n-1) of every entry (2 621 440 at N = 10)
    PRODUCT_ROWS = {"adc": (1052, 538), "dpc": (1554, 1040), "pdc": (40, 36)}

    @pytest.mark.parametrize("make", [adc, dpc, pdc])
    def test_products_run_over_the_support(self, make, monkeypatch):
        shapes, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rows = []
        for n, n_anc in [(10, 0), (9, 1)]:
            shapes.clear()
            evolve_dense(ProbeSpec.balanced(n, n_anc), params_at(make(1.0), 0.3), 0.7, 0.3)
            assert len(shapes) == n  # one product per probe qubit
            assert all(a[1:] == (4,) and b == (4, 4) for a, b in shapes)
            rows.append(sum(a[0] for a, _ in shapes))
        assert tuple(rows) == self.PRODUCT_ROWS[make.__name__]

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

    def _state_and_dense(self):
        spec = ProbeSpec.balanced(3)
        params = params_at(adc(1.0), 0.5)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, 0.0, 0.5)
        return ds, evolve_dense(spec, params, 0.0, 0.5)

    def test_nan_residual_is_not_agreement(self):
        ds, dense = self._state_and_dense()
        broken = ds.__class__(
            ds.block, np.full_like(ds.residual, np.nan), ds.phase_total, ds.n_probes
        )
        assert not assert_consistency(broken, dense) <= 1e-12

    def test_nan_block_entry_is_not_agreement(self):
        # a NaN after the first of the folded entries used to be dropped by max()
        ds, dense = self._state_and_dense()
        block = ds.block.copy()
        block[1, 1] = np.nan
        broken = ds.__class__(block, ds.residual, ds.phase_total, ds.n_probes)
        assert not assert_consistency(broken, dense) <= 1e-12

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


def _short_residual():
    """A free direct sum of 3 probes that lost its last residual class."""
    params = params_at(adc(1.0), 0.5)
    ds = evolve_directsum(StrategyKind.GHZ_FREE, ProbeSpec.balanced(3), params, 0.0, 0.5)
    short = DirectSumState(ds.block, ds.residual[:-1], ds.phase_total, ds.n_probes)
    return assert_consistency(short, evolve_dense(ProbeSpec.balanced(3), params, 0.0, 0.5))


@pytest.mark.parametrize("call, message", [
    (lambda: ProbeSpec(0.6, 0.8, 2, -1), "ancilla count must be >= 0, got -1"),
    (lambda: ProbeSpec.balanced(10**400), f"N overflows double precision at n={10**400}"),
    (lambda: DenseState(np.eye(2) / 2, 2), "matrix shape (2, 2) does not match 2 qubits"),
    (lambda: DenseState(np.array([[0.5, 0.1], [0.0, 0.5]]), 1),
     "density matrix is not Hermitian within 1e-12"),
    (lambda: DenseState(np.eye(2), 1), "density matrix trace (2+0j) is not 1 within 1e-10"),
    (lambda: DenseState(np.diag([math.nan, 0.5]), 1),
     "density matrix is not Hermitian within 1e-12"),
    (_short_residual, "residual entry count does not match the class layout"),
], ids=["spec_ancillas", "spec_n_beyond_the_doubles", "dense_shape", "dense_hermitian",
        "dense_trace", "dense_nan", "residual_count"])
def test_input_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _rotating_rule(t):
    """A CPTP custom map with a noise rotation theta_noise != 0 and eta_perp < 0."""
    g = math.exp(-t)
    return ChannelParams(0.4 + 0.3 * t, -g, g, g - 1.0)


class TestCoherenceBlock:
    """`coherence_block` reads the model's log-space record, for named and custom maps alike."""

    @pytest.mark.parametrize("model", [adc(1.3), custom(_rotating_rule, 1.3)], ids=["adc", "custom"])
    def test_phase_total_is_a_float(self, model):
        spec, omega, t = ProbeSpec(0.6, 0.8, 3), 0.7, 0.45
        block, phase = coherence_block(spec, model, omega, t)
        assert type(phase) is float
        theta = 0.4 + 0.3 * t if model.kind == "custom" else 0.0
        assert phase == 3 * (theta + omega * t)
        params = params_at(model, t)
        ds = evolve_directsum(StrategyKind.GHZ_FREE, spec, params, omega, t)
        assert type(ds.phase_total) is float and ds.phase_total == phase
        eta_n = params.eta_perp**3  # negative for the custom map
        assert block[0, 1] == pytest.approx(0.48 * eta_n * np.exp(-1j * phase), rel=1e-14)

    def test_named_model_reads_no_params_at(self, monkeypatch):
        # an exact work count: a named model's record is written out in logarithms
        calls = collections.Counter()
        original = channel.params_at

        def counted(*args, **kwargs):
            calls["params_at"] += 1
            return original(*args, **kwargs)

        for module in (channel, state):
            if hasattr(module, "params_at"):
                monkeypatch.setattr(module, "params_at", counted)
        coherence_block(ProbeSpec.balanced(4), dpc(1.0), 0.3, 0.2)
        assert calls["params_at"] == 0
        coherence_block(ProbeSpec.balanced(4), custom(_rotating_rule), 0.3, 0.2)
        assert calls["params_at"] == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            coherence_block(ProbeSpec.balanced(2), adc(1.0), 0.0, -0.5)


_GHZ_KINDS = [kind for kind in StrategyKind if kind.correlated]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    rows=st.one_of(
        st.lists(st.tuples(st.sampled_from(_GHZ_KINDS), st.integers(1, 10**12)), min_size=1,
                 max_size=8),
        st.lists(st.tuples(st.just(StrategyKind.UNCORRELATED), st.integers(1, 10**12)),
                 min_size=1, max_size=3),
    ),
    c1=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    phase=st.floats(-math.pi, math.pi),
)
def test_batch_record_rows_are_the_one_probe_records(rows, c1, phase):
    """Row r of `_probe_columns(rows, spec)` is the one-probe `_probe` of
    strategy rows[r][0] on rows[r][1] probes, bit for bit, with log weight
    -inf for a term of the batch that its strategy lacks; P is N or 1 as the
    record says. Both carry the row's identity, (strategy, N) as given."""
    c2 = math.sqrt(1.0 - c1 * c1) * complex(math.cos(phase), math.sin(phase))
    record = state._probe_columns(rows, ProbeSpec(c1, c2, 1))
    assert record.n.shape == record.power.shape == (len(rows), 1)
    assert all(column.shape == (len(rows), 1) for column in record.log_w)
    for r, (kind, n) in enumerate(rows):
        one = state._probe(kind, ProbeSpec(c1, c2, n, kind.default_ancillas))
        assert record.rows[r] == one.rows[0] == (kind, n) and one.rows[0][1] is n
        assert set(one.terms) <= set(record.terms)
        assert record.w == one.w and record.c12 == one.c12
        assert record.n[r, 0] == one.n
        assert record.power[r, 0] == one.power == (n if kind.correlated else 1)
        own = dict(zip(one.terms, one.log_w))
        for term, column in zip(record.terms, record.log_w):
            assert column[r, 0] == own.get(term, -math.inf), (r, term)
