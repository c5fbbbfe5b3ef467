"""Frequency estimation with GHZ probes under phase-covariant noise.

The package computes the quantum Fisher information for estimating the
free-evolution frequency of N two-level probes prepared in a generalized
GHZ state, with the probes exposed to amplitude-damping, depolarizing, or
phase-damping noise (or any custom phase-covariant map). Closed-form
results for the entangled, ancilla-assisted, and uncorrelated strategies
sit next to independent brute-force routes (dense density-matrix
evolution, SLD eigendecomposition, master-equation integration) that are
used to cross-check them; `verify.run_verification` runs the whole
comparison suite.
"""

from .channel import (
    CP_TOL,
    ACoefficients,
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
from .fisher import (
    SLD_EIGENVALUE_CUTOFF,
    QfiResult,
    qfi_closed,
    qfi_sld_oracle,
)
from .measurement import (
    GhzObservable,
    UnusableWorkingPointError,
    error_propagation_sensitivity,
    expectation_moments,
    saturation_check,
)
from .optimize import (
    StrategyKind,
    SweepRow,
    Table1Row,
    maximize_f_over_t,
    sensitivity_ratio,
    sweep,
    table1,
    tabulated_f_over_t,
)
from .state import (
    MAX_DENSE_QUBITS,
    DenseState,
    DirectSumState,
    ProbeSpec,
    assert_consistency,
    evolve_dense,
    evolve_directsum,
    ghz_state,
)
from .verify import CheckResult, run_verification

__all__ = [
    "ACoefficients",
    "CP_TOL",
    "ChannelParams",
    "CheckResult",
    "DenseState",
    "DirectSumState",
    "GhzObservable",
    "MAX_DENSE_QUBITS",
    "NoiseModel",
    "ProbeSpec",
    "QfiResult",
    "SLD_EIGENVALUE_CUTOFF",
    "StrategyKind",
    "SweepRow",
    "Table1Row",
    "UnusableWorkingPointError",
    "a_coefficients",
    "adc",
    "affine_apply",
    "assert_consistency",
    "choi_matrix",
    "choi_min_eigenvalue",
    "custom",
    "dpc",
    "error_propagation_sensitivity",
    "evolve_dense",
    "evolve_directsum",
    "expectation_moments",
    "ghz_state",
    "integrate_master_equation",
    "is_cptp",
    "maximize_f_over_t",
    "params_at",
    "pdc",
    "qfi_closed",
    "qfi_sld_oracle",
    "run_verification",
    "saturation_check",
    "sensitivity_ratio",
    "superoperator",
    "sweep",
    "table1",
    "tabulated_f_over_t",
]

__version__ = "0.1.0"
