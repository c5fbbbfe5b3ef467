"""Generalized GHZ probe states, the strategies that use them, and their evolution.

The probe c1|0...0> + c2|1...1> evolves into a direct sum: a 2x2 coherence
block on the span of |0...0> and |1...1>, plus a phase-free residual that is
diagonal in the computational basis and degenerate within Hamming classes.
Each `StrategyKind` member is the one place that says what its strategy
is: its data lives on the member. From it, `_probe` builds the one record
of a probe that the closed form, the optimizer and the readout read, and
`_probe_columns` the record of a batch: an N column and the amplitudes
that all rows share. A record carries each row's (strategy, N) as the
caller gave it, which names a failing row (`_row_name`). It is the one
place that decides P, the noiseless information being 4 |c1 c2|^2 N P: N
where the N probes share one coherence block, else 1. Read from a record
are the coherence block alone (`coherence_block`, O(1) in N) and the whole
direct sum of either GHZ strategy (`evolve_directsum(kind, ...)`). A full
density-matrix evolution (the oracle route, which reads no strategy data)
and a comparator between the two are also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from ._numpy import np
from .channel import (
    ChannelParams,
    NoiseModel,
    _check_density,
    _check_normal,
    _FloatMath,
    _log_channel,
    _log_params,
    _require_cptp,
    superoperator,
)

__all__ = [
    "MAX_DENSE_QUBITS",
    "StrategyKind",
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


# pole rows, in the order of `channel._log_channel`: A++, A+-, A-+, A--
PP, PM, MP, MM = range(4)
# pole rows of a probe qubit found in |0> and in |1>, on the branch from
# |0...0> (weight 0, |c1|^2) and on the one from |1...1> (weight 1, |c2|^2)
_BRANCH_POLES = ((PP, MM), (MP, PM))


class StrategyKind(Enum):
    """A strategy and what it is, as data on the member; its value is its name.

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

    def __new__(cls, value, default_ancillas, block_terms, residual, route):
        member = object.__new__(cls)
        member._value_ = value
        member.default_ancillas = default_ancillas
        member.block_terms = block_terms
        member.residual = residual
        member.route = route
        return member

    UNCORRELATED = ("uncorrelated", 0, (), (), "closed_uncorrelated")
    # without ancillas both branches land on the same configurations
    GHZ_FREE = (
        "ghz_free", 0, ((0, PP, 0), (0, MM, 1), (1, MP, 0), (1, PM, 1)), ((0, 1, -1, (0, 1)),),
        "closed_ghz",
    )
    # the ancillas tag each branch, so the cross terms leave the block
    GHZ_ANCILLA = (
        "ghz_ancilla", 1, ((0, PP, 0), (1, PM, 1)), ((0, 0, -1, (0,)), (1, 1, 0, (1,))),
        "closed_ancilla",
    )

    @property
    def correlated(self) -> bool:
        """Whether the N probes share one coherence block."""
        return bool(self.block_terms)

    def admits(self, n_ancillas: int) -> bool:
        return n_ancillas >= 1 if self.default_ancillas else n_ancillas == 0


def check_ancillas(kind: StrategyKind, n_ancillas: int) -> None:
    """Raise ValueError unless strategy `kind` admits n_ancillas ancillas."""
    if not kind.admits(n_ancillas):
        need = "at least one ancilla" if kind.default_ancillas else "no ancillas"
        raise ValueError(f"strategy {kind.value!r} takes {need}, got n_ancillas = {n_ancillas}")


def ghz_strategy(n_ancillas: int) -> StrategyKind:
    """The strategy with a shared coherence block that admits n_ancillas ancillas."""
    return next(k for k in StrategyKind if k.correlated and k.admits(n_ancillas))


@dataclass(frozen=True)
class ProbeSpec:
    """Amplitudes and qubit counts of a generalized GHZ probe.

    n_probes qubits see the channel; n_ancillas are noise-free bystanders
    entangled with them. |c1|^2 + |c2|^2 must be 1 and n_probes a normal double.
    """

    c1: complex
    c2: complex
    n_probes: int
    n_ancillas: int = 0

    def __post_init__(self) -> None:
        if self.n_probes < 1:
            raise ValueError(f"need at least one probe qubit, got {self.n_probes}")
        _check_normal([("N", self.n_probes)], lambda _: f"n={self.n_probes}")
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
    if kind.correlated:
        return spec, 1
    return ProbeSpec(spec.c1, spec.c2, 1), spec.n_probes


@dataclass(frozen=True, eq=False)
class DirectSumState:
    """Evolved probe in block (+) residual form.

    block is the 2x2 coherence sector in the {|0...0>, |1...1>} basis.
    residual holds the log of each Hamming class's phase-free population,
    summed over its C(N, k) configurations, in the order of the residual
    families on the strategy's `StrategyKind` member. phase_total is the
    accumulated block phase N*(theta_noise + omega*t); its derivative with
    respect to the encoded phase omega*t is n_probes.
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
        _check_density(self.matrix, "density matrix")


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


class _Probe(NamedTuple):
    """What the coherence block and the closed form read of a probe: floats for
    one probe (`_probe`), or a batch (`_probe_columns`) with (rows, 1) columns
    of log w, N, P and log F0, which broadcast against a (rows, points) array of times."""

    rows: Sequence[tuple[StrategyKind, int]]  # (strategy, N) of each row, N as given
    terms: tuple[tuple[int, int, int], ...]  # block terms (weight, pole, side), see StrategyKind
    w: tuple[float, float]  # (|c1|^2, |c2|^2)
    log_w: tuple  # log w of each term, indexed as terms; -inf for a term w = 0 or absent
    n: int | np.ndarray  # the probe count N
    power: int | np.ndarray  # P: N if the N probes share one block (block terms), else 1
    c12: complex  # c1 conj(c2)
    log_f0: float | np.ndarray  # log F_phase of the noiseless probe, see `_log_noiseless`


def _log_noiseless(w, n, power, xp):
    """log F0 = log(4 |c1 c2|^2 N P), the information F_phase of a noiseless
    probe with weights w = (|c1|^2, |c2|^2), P = N if its N probes share one
    block, else 1. The product overflows from N P = 1.8e308; there its log is
    log(4 |c1 c2|^2 N) + log P."""
    prefactor = 4.0 * w[0] * w[1] * n
    product = prefactor * power
    fits = product < math.inf  # a bool for one probe, else an array
    if fits is True or (fits is not False and fits.all()):
        return xp.log(product)
    return xp.where(fits, xp.log(product), xp.log(prefactor) + xp.log(power))


def _log_weights(spec: ProbeSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """(|c1|^2, |c2|^2) of `spec` and their logs, -inf for a zero weight."""
    w = (abs(spec.c1) ** 2, abs(spec.c2) ** 2)
    return w, (_FloatMath.log(w[0]), _FloatMath.log(w[1]))


def _probe(kind: StrategyKind, spec: ProbeSpec) -> _Probe:
    """The record of `spec` under strategy `kind`, in floats."""
    terms = kind.block_terms
    w, log_w = _log_weights(spec)
    log_w = tuple([log_w[weight] for weight, _, _ in terms])
    n = spec.n_probes
    power = n if terms else 1
    return _Probe(((kind, n),), terms, w, log_w, n, power, spec.c1 * spec.c2.conjugate(),
                  _log_noiseless(w, n, power, _FloatMath))


def _probe_columns(rows: Sequence[tuple[StrategyKind, int]], spec: ProbeSpec) -> _Probe:
    """The record of a batch whose row r is rows[r] = (strategy, N), N probes
    with the amplitudes of `spec`: each row's `_probe` over the block terms
    of all the batch's strategies, joined in declaration order, where a
    term the row's strategy lacks gets the log weight -inf. A batch holds
    either correlated or uncorrelated rows: an uncorrelated row has no block
    term to join.
    """
    kinds = [kind for kind, _ in rows]
    present = [kind for kind in StrategyKind if kind in kinds]
    terms = tuple(dict.fromkeys(term for kind in present for term in kind.block_terms))
    w, log_w = _log_weights(spec)
    # log w of each term (column) under each strategy (row) of the batch
    table = np.array(
        [[log_w[t[0]] if t in kind.block_terms else -math.inf for t in terms] for kind in present]
    )
    columns = table.T[:, [present.index(kind) for kind in kinds], None]
    n = np.array([count for _, count in rows], dtype=float)[:, None]
    power = n if terms else np.ones_like(n)
    with np.errstate(divide="ignore", over="ignore"):  # a zero weight, or N P past the doubles
        log_f0 = _log_noiseless(w, n, power, np)
    return _Probe(rows, terms, w, tuple(columns), n, power,
                  complex(spec.c1 * spec.c2.conjugate()), log_f0)


def _block_log_terms(probe: _Probe, log_half) -> tuple[list, list]:
    """The block terms (pole, side, log w) of `probe` that can be nonzero, and
    the list of log(w (A/2)^N) of each, from the channel's log(A/2) per pole
    (`channel._log_channel`).

    A term whose pole's log(A/2) is the float -inf (adc's A-+, pdc's A-+ and
    A--) adds nothing and is left out. The closed form sums these into the
    block trace, and reads them again for its slope; the coherence block
    puts each on its side of the diagonal, so both read the same numbers.
    """
    n = probe.n
    live = [(pole, side, log_w) for (_, pole, side), log_w in zip(probe.terms, probe.log_w)
            if not (isinstance(log_half[pole], float) and log_half[pole] == -math.inf)]
    return live, [log_w + n * log_half[pole] for pole, _, log_w in live]


def _row_name(strategy: StrategyKind, n: int, kind: str) -> str:
    """The name of a failing row (`_Probe.rows`) under the model of `kind`, for an error."""
    return f"strategy={strategy.value} model={kind} n={n}"


def _block(probe: _Probe, record, omega, t, xp):
    """The coherence block's entries (r00, r11, r01) and phase_total, from log space.

    Floats for one probe (xp = `_FloatMath`), or arrays for a batch of
    probes (xp = numpy). `record` is the channel's log-space record
    (log_eta, log_half, sign, theta) of `channel._log_channel`. r00 and r11
    sum exp(log w + N log(A/2)) over the block terms on their side
    (`_block_log_terms`), and r01 = c12 sign^N exp(N log|eta_perp|)
    exp(-i phase_total), with phase_total = N (theta_noise + omega t).
    """
    log_eta, log_half, sign, theta = record
    n = probe.n
    diag = [0.0, 0.0]
    for (_, side, _), value in zip(*_block_log_terms(probe, log_half)):
        diag[side] = diag[side] + xp.exp(value)
    phase = n * (theta + omega * t)
    if isinstance(phase, float) and not math.isfinite(phase):
        # math.cos would raise a bare "math domain error"; an array phase
        # gives NaN entries instead
        raise ValueError(
            f"the block phase N*(theta_noise + omega*t) = {phase!r} overflows double "
            f"precision at N={n}, theta_noise={theta!r}, omega={omega!r}, t={t!r}"
        )
    eta_n = sign**n * xp.exp(n * log_eta)
    return diag[0], diag[1], probe.c12 * eta_n * (xp.cos(phase) - 1j * xp.sin(phase)), phase


def _block_matrix(probe: _Probe, record, omega, t) -> tuple[np.ndarray, float]:
    """The 2x2 coherence block of one probe (`_block`) and its phase_total."""
    r00, r11, off, phase = _block(probe, record, omega, t, _FloatMath)
    return np.array([[r00, off], [off.conjugate(), r11]], dtype=complex), phase


def coherence_block(
    spec: ProbeSpec, model: NoiseModel, omega: float, t: float
) -> tuple[np.ndarray, float]:
    """The 2x2 coherence block of a GHZ probe evolved for time t, and its phase_total.

    The block carries the phase and costs O(1) in N. Its off-diagonal is
    c1*conj(c2)*eta_perp^N*exp(-i*phase_total), phase_total =
    N*(theta_noise + omega*t), a float; its diagonal holds the block terms
    w (A/2)^N of the spec's strategy (`ghz_strategy`). Every entry is built
    from the model's log-space record (`channel._log_channel`: N*log(A/2),
    N*log|eta_perp|, the sign of eta_perp and theta_noise), the terms that
    `fisher.log_qfi_phase` sums, so the block and the closed-form
    information agree at any N. A custom model that is not finite or not
    CPTP at t raises ValueError.
    """
    if t < 0:
        raise ValueError(f"interrogation time must be >= 0, got {t}")
    record, _, _ = _log_channel(model, t, _FloatMath, False)
    probe = _probe(ghz_strategy(spec.n_ancillas), spec)
    return _block_matrix(probe, record, omega, t)


def _residual_families(kind: StrategyKind, n: int):
    """(ancilla bit, array of k, weights) of each residual family of `kind`, in order."""
    for bit, first, last, weights in kind.residual:
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
    (N - k) log(A1/2)): one array expression per family, O(N), finite at any N,
    its log k! from N + 1 calls of `math.lgamma`.
    """
    if not kind.correlated:
        raise ValueError(f"strategy {kind.value!r} has no shared coherence block")
    check_ancillas(kind, spec.n_ancillas)
    _require_cptp(params)
    record = _log_params(params, _FloatMath)
    probe = _probe(kind, spec)
    block, phase = _block_matrix(probe, record, omega, t)
    log_half = record[1]
    n = spec.n_probes
    log_w = [_FloatMath.log(w) for w in probe.w]  # per branch, as the residual families read it
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float)  # log k!, k = 0..n
    residual = np.concatenate([
        np.logaddexp.reduce([
            log_w[i] + _k_log(k, log_half[_BRANCH_POLES[i][0]])
            + _k_log(n - k, log_half[_BRANCH_POLES[i][1]])
            for i in weights
        ], axis=0) + (log_fact[n] - log_fact[k] - log_fact[n - k])
        for _, k, weights in _residual_families(kind, n)
    ])
    return DirectSumState(block, residual, phase, n, spec.n_ancillas)


def _liouville_tensor(s: np.ndarray) -> np.ndarray:
    """K[i, j, k, l] with rho'_ij = sum_kl K_ijkl rho_kl for an extended-Bloch map s.

    With the Pauli basis P = (I, X, Y, Z) of the extended Bloch column,
    v_b = tr(P_b rho) = sum_kl (P_b)_lk rho_kl, v' = s v and
    rho' = (1/2) sum_a v'_a P_a. Every entry is a sum of +-s_ab and +-i*s_ab
    terms. A phase-covariant s has s_xx = s_yy and s_xy = -s_yx exactly and
    no entry coupling (r0, rz) with (rx, ry), so the entries of K that should
    vanish are exactly 0.
    """
    paulis = np.array(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
        dtype=complex,
    )
    return 0.5 * np.einsum("aij,ab,blk->ijkl", paulis, s, paulis)


def evolve_dense(
    spec: ProbeSpec, params: ChannelParams, omega: float, t: float
) -> DenseState:
    """Full-matrix evolution: the channel on each probe qubit, ancillas idle.

    The per-qubit map ``superoperator(params, omega, t)`` is turned once into
    its Liouville tensor, read as the 4x4 matrix K from a qubit's (row bit,
    column bit) pair to its image. The state is held pair-interleaved and on
    its support: an index array, whose base-4 digit q is qubit q's pair
    (qubit 0 most significant), and a value array of the nonzero entries,
    starting from the four GHZ corners. For each probe qubit the entries that
    agree outside the qubit's digit are gathered into one row of a (rows, 4)
    array, the rows go through one product with K, written transposed, and
    the product's exact nonzeros are kept. After the probes the entries are
    scattered once into rho, each entry's row and column bits read off its
    digits. The route reads only K and the exact zeros of its products, so
    entries that the channel keeps at zero stay exactly 0.0, and a dense K
    gives the same products over a full support. Independent of the
    direct-sum bookkeeping above; used as the oracle side of consistency
    checks.
    """
    _require_cptp(params)
    n = spec.n_total
    _check_cap(n)
    k = _liouville_tensor(superoperator(params, omega, t)).reshape(4, 4)
    amp = np.array([spec.c1, spec.c2], dtype=complex)
    ones = (4**n - 1) // 3  # every digit 1: |0...0><1...1|
    index = np.array([0, ones, 2 * ones, 3 * ones])
    value = np.outer(amp, amp.conj()).ravel()
    digits = np.arange(4)  # a qubit's digit: 2 * row bit + column bit
    for q in range(spec.n_probes):
        shift = 2 * (n - 1 - q)  # qubit q's digit is bits shift and shift + 1
        rest = index & ~(3 << shift)
        order = rest.argsort(kind="stable")  # as fast here as the default, and maps less code
        rest, index, value = rest[order], index[order], value[order]
        opens = np.empty(len(rest), dtype=bool)  # the entry opens a row
        opens[0] = True
        np.not_equal(rest[1:], rest[:-1], out=opens[1:])
        row = opens.cumsum() - 1
        rows = np.zeros((row[-1] + 1, 4), dtype=complex)
        rows[row, (index >> shift) & 3] = value
        product = np.matmul(rows, k.T)
        kept = product != 0.0
        index = (rest[opens][:, None] | (digits << shift))[kept]
        value = product[kept]
    rho = np.zeros((2**n, 2**n), dtype=complex)
    bits = np.unravel_index(index, (2,) * (2 * n))  # (row, column) bit of qubit 0, 1, ...
    rho.reshape((2,) * (2 * n))[bits[0::2] + bits[1::2]] = value
    return DenseState(rho, n)


def assert_consistency(ds: DirectSumState, dense: DenseState) -> float:
    """Max deviation between the direct-sum data and a dense density matrix.

    Compares the four block entries against the dense corners, and each
    residual class's mass over C(N, k) against every dense diagonal
    configuration of its Hamming class. Raises on mismatched qubit counts;
    the caller judges the returned deviation, which is NaN if any entry is.
    """
    if ds.n_total != dense.n_qubits:
        raise ValueError(
            f"qubit count mismatch: direct sum has {ds.n_total}, dense has {dense.n_qubits}"
        )
    n = ds.n_probes
    na = ds.n_ancillas
    m = dense.matrix
    last = m.shape[0] - 1
    devs = [
        abs(ds.block[0, 0] - m[0, 0]),
        abs(ds.block[1, 1] - m[last, last]),
        abs(ds.block[0, 1] - m[0, last]),
        abs(ds.block[1, 0] - m[last, 0]),
    ]
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
            devs.append(abs(pop - m[idx, idx]))
    return float(np.max(devs))  # a NaN deviation propagates, so it never reads as agreement
