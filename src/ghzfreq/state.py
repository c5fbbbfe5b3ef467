"""Generalized GHZ probe states, the strategies that use them, and their evolution.

The probe c1|0...0> + c2|1...1> evolves into a direct sum: a 2x2 coherence
block on the span of |0...0> and |1...1>, plus a phase-free residual that is
diagonal in the computational basis and degenerate within Hamming classes.
`STRATEGIES` is the one place that says what each strategy is. Read from it
are the coherence block alone (`coherence_block`, O(1) in N) and the whole
direct sum of either GHZ strategy (`evolve_directsum(kind, ...)`). A full
density-matrix evolution (the oracle route, which does not read the table)
and a comparator between the two are also provided.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .channel import (
    ChannelParams,
    NoiseModel,
    _FloatMath,
    _log_channel,
    _log_params,
    is_cptp,
    params_at,
    superoperator,
)

__all__ = [
    "MAX_DENSE_QUBITS",
    "StrategyKind",
    "Strategy",
    "STRATEGIES",
    "ProbeSpec",
    "DirectSumState",
    "DenseState",
    "check_ancillas",
    "ghz_strategy",
    "block_probe",
    "ghz_state",
    "coherence_block",
    "evolve_directsum",
    "evolve_dense",
    "assert_consistency",
]

MAX_DENSE_QUBITS = 12


class StrategyKind(Enum):
    UNCORRELATED = "uncorrelated"
    GHZ_FREE = "ghz_free"
    GHZ_ANCILLA = "ghz_ancilla"


# pole rows, in the order of `channel._log_channel`: A++, A+-, A-+, A--
PP, PM, MP, MM = range(4)
# pole rows of a probe qubit found in |0> and in |1>, on the branch from
# |0...0> (weight 0, |c1|^2) and on the one from |1...1> (weight 1, |c2|^2)
_BRANCH_POLES = ((PP, MM), (MP, PM))


@dataclass(frozen=True)
class Strategy:
    """What one strategy is, as data; `STRATEGIES` holds one per kind.

    default_ancillas: 0 for a strategy that takes no noise-free ancillas;
    else 1, and the strategy needs at least one (the information does not
    depend on how many).
    block_terms: (weight, pole, side) of each term w (A/2)^N of the block
    diagonal, side 0 being |0...0><0...0|; they sum to the closed form's
    block trace r0. No terms: the probe is N one-qubit probes (see
    `block_probe`), each with block trace 1 identically.
    residual: (ancilla bit, first k, last k - N, weights) of each family of
    residual classes, k counting the probe qubits in |0>; class k holds
    sum_w w (A0/2)^k (A1/2)^(N-k), (A0, A1) the branch poles of w, on each
    of C(N, k) configurations, all ancillas in the family's bit.
    route: the `QfiResult.route` of the closed form.
    """

    default_ancillas: int
    block_terms: tuple[tuple[int, int, int], ...]
    residual: tuple[tuple[int, int, int, tuple[int, ...]], ...]
    route: str

    @property
    def correlated(self) -> bool:
        """Whether the N probes share one coherence block."""
        return bool(self.block_terms)

    def admits(self, n_ancillas: int) -> bool:
        return n_ancillas >= 1 if self.default_ancillas else n_ancillas == 0


STRATEGIES = {
    StrategyKind.UNCORRELATED: Strategy(0, (), (), "closed_uncorrelated"),
    # without ancillas both branches land on the same configurations
    StrategyKind.GHZ_FREE: Strategy(
        0, ((0, PP, 0), (0, MM, 1), (1, MP, 0), (1, PM, 1)), ((0, 1, -1, (0, 1)),),
        "closed_ghz",
    ),
    # the ancillas tag each branch, so the cross terms leave the block
    StrategyKind.GHZ_ANCILLA: Strategy(
        1, ((0, PP, 0), (1, PM, 1)), ((0, 0, -1, (0,)), (1, 1, 0, (1,))), "closed_ancilla",
    ),
}


def check_ancillas(kind: StrategyKind, n_ancillas: int) -> None:
    """Raise ValueError unless strategy `kind` admits n_ancillas ancillas."""
    if not STRATEGIES[kind].admits(n_ancillas):
        need = "at least one ancilla" if STRATEGIES[kind].default_ancillas else "no ancillas"
        raise ValueError(f"strategy {kind.value!r} takes {need}, got n_ancillas = {n_ancillas}")


def ghz_strategy(n_ancillas: int) -> StrategyKind:
    """The strategy with a shared coherence block that admits n_ancillas ancillas."""
    return next(k for k, e in STRATEGIES.items() if e.correlated and e.admits(n_ancillas))


@dataclass(frozen=True)
class ProbeSpec:
    """Amplitudes and qubit counts of a generalized GHZ probe.

    n_probes qubits see the channel; n_ancillas are noise-free bystanders
    entangled with them. |c1|^2 + |c2|^2 must be 1.
    """

    c1: complex
    c2: complex
    n_probes: int
    n_ancillas: int = 0

    def __post_init__(self) -> None:
        if self.n_probes < 1:
            raise ValueError(f"need at least one probe qubit, got {self.n_probes}")
        if self.n_ancillas < 0:
            raise ValueError(f"ancilla count must be >= 0, got {self.n_ancillas}")
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|c1|^2 + |c2|^2 = {norm!r} is not 1")

    @property
    def n_total(self) -> int:
        return self.n_probes + self.n_ancillas

    @staticmethod
    def balanced(n_probes: int, n_ancillas: int = 0) -> "ProbeSpec":
        """Equal-weight probe, c1 = c2 = 1/sqrt(2)."""
        amp = 1.0 / math.sqrt(2.0)
        return ProbeSpec(amp, amp, n_probes, n_ancillas)


def block_probe(kind: StrategyKind, spec: ProbeSpec) -> tuple[ProbeSpec, int]:
    """The probe holding one coherence block of `kind` on `spec`, and how many copies:
    (spec, 1) if the probes share one block, else N one-qubit probes."""
    if STRATEGIES[kind].correlated:
        return spec, 1
    return ProbeSpec(spec.c1, spec.c2, 1), spec.n_probes


@dataclass(frozen=True, eq=False)
class DirectSumState:
    """Evolved probe in block (+) residual form.

    block is the 2x2 coherence sector in the {|0...0>, |1...1>} basis.
    residual holds the log of each Hamming class's phase-free population,
    summed over its C(N, k) configurations, in the order of the strategy's
    residual families in `STRATEGIES`. phase_total is the accumulated block phase
    N*(theta_noise + omega*t); its derivative with respect to the encoded
    phase omega*t is n_probes.
    """

    block: np.ndarray
    residual: np.ndarray
    phase_total: float
    n_probes: int
    n_ancillas: int = 0

    @property
    def n_total(self) -> int:
        return self.n_probes + self.n_ancillas

    def block_trace(self) -> float:
        return float(self.block[0, 0].real + self.block[1, 1].real)

    def residual_mass(self) -> float:
        return float(np.exp(np.logaddexp.reduce(self.residual, initial=-np.inf)))


@dataclass(frozen=True, eq=False)
class DenseState:
    """Full density matrix on n_qubits qubits, qubit 0 most significant."""

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        dim = 2**self.n_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {self.n_qubits} qubits"
            )
        if np.abs(self.matrix - self.matrix.conj().T).max() > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} is not 1 within 1e-10")


def _check_cap(n_qubits: int) -> None:
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense representation capped at {MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )


def ghz_state(spec: ProbeSpec) -> DenseState:
    """Density matrix of c1|0...0> + c2|1...1> on all probe and ancilla qubits."""
    n = spec.n_total
    _check_cap(n)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = spec.c1
    psi[-1] = spec.c2
    return DenseState(np.outer(psi, psi.conj()), n)


def _require_cptp(params: ChannelParams) -> None:
    if not is_cptp(params):
        raise ValueError("channel parameters are not CPTP")


def _block_log_terms(terms, log_w, n, log_half) -> Iterator:
    """log(w (A/2)^N) of each block term (i, pole, side), one at a time,
    log_w[i] being its log weight and n the probe count.

    For one probe i is the term's branch and log_w = (log|c1|^2, log|c2|^2).
    Floats or arrays that broadcast: a batch of probes holds log_w and n as
    (rows, 1) columns against log_half over a (rows, points) array of times.
    The closed form sums these into the block trace and the coherence block
    puts each on its side of the diagonal, so both read the same numbers.
    """
    return (log_w[i] + n * log_half[pole] for i, pole, _ in terms)


def _log_weights(spec: ProbeSpec) -> tuple[float, float]:
    """(log|c1|^2, log|c2|^2), -inf for a vanishing amplitude."""
    return _FloatMath.log(abs(spec.c1) ** 2), _FloatMath.log(abs(spec.c2) ** 2)


def _block(terms, spec, params, log_eta, log_half, omega, t) -> tuple[np.ndarray, float]:
    """The coherence block with the given block terms, from log space, and phase_total."""
    log_w = _log_weights(spec)
    diag = [0.0, 0.0]
    for (_, _, side), value in zip(terms, _block_log_terms(terms, log_w, spec.n_probes, log_half)):
        diag[side] += math.exp(value)
    n = spec.n_probes
    phase = n * (params.theta_noise + omega * t)
    eta_n = math.copysign(1.0, params.eta_perp) ** n * math.exp(n * log_eta)
    off = spec.c1 * spec.c2.conjugate() * eta_n * cmath.exp(-1j * phase)
    return np.array([[diag[0], off], [off.conjugate(), diag[1]]], dtype=complex), phase


def coherence_block(
    spec: ProbeSpec, model: NoiseModel, omega: float, t: float
) -> tuple[np.ndarray, float]:
    """The 2x2 coherence block of a GHZ probe evolved for time t, and its phase_total.

    The block carries the phase and costs O(1) in N. Its off-diagonal is
    c1*conj(c2)*eta_perp^N*exp(-i*phase_total), phase_total =
    N*(theta_noise + omega*t); its diagonal holds the block terms w (A/2)^N
    of the spec's strategy (`ghz_strategy`). Every entry is built from
    N*log(A/2) and N*log|eta_perp| (keeping eta_perp's sign), the model's
    exact logarithms that `fisher.log_qfi_phase` sums, so the block and the
    closed-form information agree at any N.
    """
    params = params_at(model, t)
    if model.kind == "custom":
        _require_cptp(params)
        log_eta, log_half = _log_params(params, _FloatMath)
    else:
        log_eta, log_half, _, _ = _log_channel(model, t, _FloatMath, False)
    terms = STRATEGIES[ghz_strategy(spec.n_ancillas)].block_terms
    return _block(terms, spec, params, log_eta, log_half, omega, t)


def _residual_families(kind: StrategyKind, n: int):
    """(ancilla bit, array of k, weights) of each residual family of `kind`, in order."""
    for bit, first, last, weights in STRATEGIES[kind].residual:
        yield bit, np.arange(first, n + last + 1), weights


def _k_log(k: np.ndarray, log_half: float) -> np.ndarray:
    """k log(A/2) per class, 0 where k = 0 also for A = 0, since (A/2)^0 = 1."""
    return np.multiply(k, log_half, out=np.zeros(k.shape), where=k > 0)


def evolve_directsum(
    kind: StrategyKind, spec: ProbeSpec, params: ChannelParams, omega: float, t: float
) -> DirectSumState:
    """Evolve the GHZ probe of strategy `kind` into its block and the residual
    of the table's layout; only the probe qubits see the channel.

    Raises ValueError for the uncorrelated strategy, which has no shared
    block, when the spec's ancilla count does not fit `kind`, and when the
    channel is not CPTP. From the block's exact log(A/2), class k of a family
    has the log mass log C(N, k) + logsumexp_w(log w + k log(A0/2) +
    (N - k) log(A1/2)): one array expression per family, O(N), finite at any N.
    """
    if not STRATEGIES[kind].correlated:
        raise ValueError(f"strategy {kind.value!r} has no shared coherence block")
    check_ancillas(kind, spec.n_ancillas)
    _require_cptp(params)
    log_eta, log_half = _log_params(params, _FloatMath)
    block, phase = _block(STRATEGIES[kind].block_terms, spec, params, log_eta, log_half, omega, t)
    n = spec.n_probes
    log_w = _log_weights(spec)
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # log k!
    residual = np.concatenate([
        np.logaddexp.reduce([
            log_w[i] + _k_log(k, log_half[_BRANCH_POLES[i][0]])
            + _k_log(n - k, log_half[_BRANCH_POLES[i][1]])
            for i in weights
        ], axis=0) + (log_fact[n] - log_fact[k] - log_fact[n - k])
        for _, k, weights in _residual_families(kind, n)
    ])
    return DirectSumState(block, residual, phase, n, spec.n_ancillas)


# Pauli basis (I, X, Y, Z) of the extended Bloch column: rho = (1/2) sum_a v_a P_a
_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


def _liouville_tensor(s: np.ndarray) -> np.ndarray:
    """K[i, j, k, l] with rho'_ij = sum_kl K_ijkl rho_kl for an extended-Bloch map s.

    v_b = tr(P_b rho) = sum_kl (P_b)_lk rho_kl, v' = s v and
    rho' = (1/2) sum_a v'_a P_a. Every entry is a sum of +-s_ab and +-i*s_ab
    terms. A phase-covariant s has s_xx = s_yy and s_xy = -s_yx exactly and
    no entry coupling (r0, rz) with (rx, ry), so the entries of K that should
    vanish are exactly 0.
    """
    return 0.5 * np.einsum("aij,ab,blk->ijkl", _PAULIS, s, _PAULIS)


def evolve_dense(
    spec: ProbeSpec, params: ChannelParams, omega: float, t: float
) -> DenseState:
    """Full-matrix evolution: the channel on each probe qubit, ancillas idle.

    The per-qubit map ``superoperator(params, omega, t)`` is turned once into
    its Liouville tensor K, then contracted with the matrix's row and column
    index of each probe qubit in turn, the matrix viewed as
    (2^q, 2, 2^(n-q-1), 2^q, 2, 2^(n-q-1)). Entries that the channel keeps at
    zero stay exactly 0.0. Independent of the direct-sum bookkeeping above;
    used as the oracle side of consistency checks.
    """
    _require_cptp(params)
    n = spec.n_total
    _check_cap(n)
    k = _liouville_tensor(superoperator(params, omega, t))
    rho = ghz_state(spec).matrix
    for q in range(spec.n_probes):
        view = (2**q, 2, 2 ** (n - q - 1))
        rho = np.einsum("ijkl,akbcld->aibcjd", k, rho.reshape(view + view), optimize=True)
        rho = rho.reshape(2**n, 2**n)
    return DenseState(rho, n)


def assert_consistency(ds: DirectSumState, dense: DenseState) -> float:
    """Max deviation between the direct-sum data and a dense density matrix.

    Compares the four block entries against the dense corners, and each
    residual class's mass over C(N, k) against every dense diagonal
    configuration of its Hamming class. Raises on mismatched qubit counts;
    the caller judges the returned deviation.
    """
    if ds.n_total != dense.n_qubits:
        raise ValueError(
            f"qubit count mismatch: direct sum has {ds.n_total}, dense has {dense.n_qubits}"
        )
    n = ds.n_probes
    na = ds.n_ancillas
    m = dense.matrix
    last = m.shape[0] - 1
    dev = max(
        abs(ds.block[0, 0] - m[0, 0]),
        abs(ds.block[1, 1] - m[last, last]),
        abs(ds.block[0, 1] - m[0, last]),
        abs(ds.block[1, 0] - m[last, 0]),
    )
    classes = [(int(k), bit) for bit, ks, _ in _residual_families(ghz_strategy(na), n) for k in ks]
    if len(classes) != len(ds.residual):
        raise ValueError("residual entry count does not match the class layout")
    anc_suffix = {0: 0, 1: (1 << na) - 1}
    for (k, anc_bit), log_mass in zip(classes, ds.residual):
        pop = math.exp(log_mass) / math.comb(n, k)  # n is at most MAX_DENSE_QUBITS
        for probe_bits in range(1 << n):
            if n - probe_bits.bit_count() != k:
                continue
            idx = (probe_bits << na) | anc_suffix[anc_bit]
            dev = max(dev, abs(pop - m[idx, idx]))
    return float(dev)
