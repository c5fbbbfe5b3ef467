"""Generalized GHZ probe states and their evolution under phase-covariant noise.

The probe c1|0...0> + c2|1...1> evolves into a direct sum: a 2x2 coherence
block on the span of |0...0> and |1...1>, plus a phase-free residual that is
diagonal in the computational basis and degenerate within Hamming classes.
Both that compact representation and a full density-matrix evolution (the
oracle route) are provided, together with a comparator between the two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, a_coefficients, is_cptp, superoperator

__all__ = [
    "MAX_DENSE_QUBITS",
    "ProbeSpec",
    "DirectSumState",
    "DenseState",
    "ghz_state",
    "coherence_block",
    "evolve_directsum_free",
    "evolve_directsum_ancilla",
    "evolve_dense",
    "assert_consistency",
]

MAX_DENSE_QUBITS = 12


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


@dataclass(frozen=True, eq=False)
class DirectSumState:
    """Evolved probe in block (+) residual form.

    block is the 2x2 coherence sector in the {|0...0>, |1...1>} basis.
    residual lists (population, multiplicity) per Hamming class, every
    population phase-free. Ordering convention (k = number of probe
    qubits left in |0>):

      * no ancillas: k = 1 .. N-1
      * with ancillas: first the c1 family (ancillas in |0>) for
        k = 0 .. N-1, then the c2 family (ancillas in |1>) for k = 1 .. N

    phase_total is the accumulated block phase N*(theta_noise + omega*t);
    its derivative with respect to the encoded phase omega*t is n_probes.
    """

    block: np.ndarray
    residual: tuple[tuple[float, int], ...]
    phase_total: float
    n_probes: int
    n_ancillas: int = 0

    @property
    def n_total(self) -> int:
        return self.n_probes + self.n_ancillas

    def block_trace(self) -> float:
        return float(self.block[0, 0].real + self.block[1, 1].real)

    def residual_mass(self) -> float:
        return float(sum(p * m for p, m in self.residual))


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


def _half_power(a: float, n: int) -> float:
    """(a/2)**n, in log space when a > 0 to dodge intermediate extremes."""
    if n == 0:
        return 1.0
    if a <= 0.0:
        # exact zeros (and tiny negatives from roundoff) have no log form
        return 0.0 if a == 0.0 else (a / 2.0) ** n
    return math.exp(n * (math.log(a) - math.log(2.0)))


def _require_cptp(params: ChannelParams) -> None:
    if not is_cptp(params):
        raise ValueError("channel parameters are not CPTP")


def coherence_block(
    spec: ProbeSpec, params: ChannelParams, omega: float, t: float
) -> tuple[np.ndarray, float]:
    """The 2x2 coherence block of an evolved GHZ probe and its phase_total.

    This is the part of the direct sum that carries the phase; building it
    costs O(1) in N. The off-diagonal is
    c1*conj(c2)*eta_perp^N*exp(-i*phase_total) with
    phase_total = N*(theta_noise + omega*t). Without ancillas the diagonal is
    2^-N * (|c1|^2 a_pp^N + |c2|^2 a_mp^N, |c1|^2 a_mm^N + |c2|^2 a_pm^N);
    attached ancillas kill the cross terms, leaving 2^-N |c1|^2 a_pp^N and
    2^-N |c2|^2 a_pm^N.
    """
    _require_cptp(params)
    n = spec.n_probes
    a = a_coefficients(params)
    w1, w2 = abs(spec.c1) ** 2, abs(spec.c2) ** 2
    phase = n * (params.theta_noise + omega * t)
    off = spec.c1 * np.conj(spec.c2) * params.eta_perp**n * cmath.exp(-1j * phase)
    if spec.n_ancillas == 0:
        top = w1 * _half_power(a.a_pp, n) + w2 * _half_power(a.a_mp, n)
        bottom = w1 * _half_power(a.a_mm, n) + w2 * _half_power(a.a_pm, n)
    else:
        top = w1 * _half_power(a.a_pp, n)
        bottom = w2 * _half_power(a.a_pm, n)
    block = np.array([[top, off], [np.conj(off), bottom]], dtype=complex)
    return block, phase


def evolve_directsum_free(
    spec: ProbeSpec, params: ChannelParams, omega: float, t: float
) -> DirectSumState:
    """Evolve an ancilla-free GHZ probe, all qubits through the channel.

    The block comes from `coherence_block`. Residual class k carries
    2^-N * (|c1|^2 a_pp^k a_mm^(N-k) + |c2|^2 a_mp^k a_pm^(N-k)) with
    multiplicity C(N, k).
    """
    if spec.n_ancillas != 0:
        raise ValueError("free evolution takes an ancilla-free spec; use the ancilla builder")
    block, phase = coherence_block(spec, params, omega, t)
    n = spec.n_probes
    a = a_coefficients(params)
    w1, w2 = abs(spec.c1) ** 2, abs(spec.c2) ** 2
    residual = tuple(
        (
            w1 * _half_power(a.a_pp, k) * _half_power(a.a_mm, n - k)
            + w2 * _half_power(a.a_mp, k) * _half_power(a.a_pm, n - k),
            math.comb(n, k),
        )
        for k in range(1, n)
    )
    return DirectSumState(block, residual, phase, n, 0)


def evolve_directsum_ancilla(
    spec: ProbeSpec, params: ChannelParams, omega: float, t: float
) -> DirectSumState:
    """Evolve an ancilla-assisted GHZ probe; only probe qubits see the channel.

    The block comes from `coherence_block`. The residual splits into the two
    ancilla sectors: weights |c1|^2 a_pp^k a_mm^(N-k) for k = 0 .. N-1 and
    |c2|^2 a_mp^k a_pm^(N-k) for k = 1 .. N, each times 2^-N with
    multiplicity C(N, k).
    """
    if spec.n_ancillas < 1:
        raise ValueError("ancilla evolution needs n_ancillas >= 1")
    block, phase = coherence_block(spec, params, omega, t)
    n = spec.n_probes
    a = a_coefficients(params)
    w1, w2 = abs(spec.c1) ** 2, abs(spec.c2) ** 2
    family1 = [
        (w1 * _half_power(a.a_pp, k) * _half_power(a.a_mm, n - k), math.comb(n, k))
        for k in range(0, n)
    ]
    family2 = [
        (w2 * _half_power(a.a_mp, k) * _half_power(a.a_pm, n - k), math.comb(n, k))
        for k in range(1, n + 1)
    ]
    return DirectSumState(block, tuple(family1 + family2), phase, n, spec.n_ancillas)


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


def _residual_classes(ds: DirectSumState) -> list[tuple[int, int, int]]:
    """(k_zeros, ancilla_bit, multiplicity) for each residual entry, in order."""
    n = ds.n_probes
    if ds.n_ancillas == 0:
        return [(k, 0, math.comb(n, k)) for k in range(1, n)]
    fam1 = [(k, 0, math.comb(n, k)) for k in range(0, n)]
    fam2 = [(k, 1, math.comb(n, k)) for k in range(1, n + 1)]
    return fam1 + fam2


def assert_consistency(ds: DirectSumState, dense: DenseState) -> float:
    """Max deviation between the direct-sum data and a dense density matrix.

    Compares the four block entries against the dense corners and every
    residual population against every dense diagonal configuration of its
    Hamming class. Raises on mismatched qubit counts; the caller judges the
    returned deviation.
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
    classes = _residual_classes(ds)
    if len(classes) != len(ds.residual):
        raise ValueError("residual entry count does not match the class layout")
    anc_suffix = {0: 0, 1: (1 << na) - 1}
    for (k, anc_bit, mult), (pop, stored_mult) in zip(classes, ds.residual):
        if mult != stored_mult:
            raise ValueError(f"multiplicity mismatch in class k={k}")
        for probe_bits in range(1 << n):
            if n - probe_bits.bit_count() != k:
                continue
            idx = (probe_bits << na) | anc_suffix[anc_bit]
            dev = max(dev, abs(pop - m[idx, idx]))
    return float(dev)
