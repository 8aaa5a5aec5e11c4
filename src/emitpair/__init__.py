"""Driven coupled two-level emitters: spectra, photon correlations, nonclassicality.

Library layers, bottom up: dense Hilbert-space operators and the sparse
superoperator type (:mod:`emitpair.operators`),
pair geometry and dressed structure (:mod:`emitpair.dipole`), master-equation
engine (:mod:`emitpair.liouville`), physical observables
(:mod:`emitpair.observables`), Cauchy-Schwarz / Bell quantifiers
(:mod:`emitpair.nonclassicality`) and the sweep/CLI layer
(:mod:`emitpair.config`, :mod:`emitpair.sweep`, :mod:`emitpair.cli`).
"""

__version__ = "0.4.0"

from .dipole import (
    DipoleCoefficients,
    DressedTriplet,
    EmitterPairConfig,
    dipole_coefficients,
    dressed_triplet,
    effective_coefficients,
    sideband_frequencies,
)
from .liouville import (
    DensityMatrix,
    ModelAssembly,
    SensorSpec,
    SolverError,
    build_assembly,
    build_collapse_channels,
    build_hamiltonian,
    steady_state,
    two_time_correlator,
    vectorize,
)
from .nonclassicality import (
    BellPoint,
    CsiPoint,
    bell_quantifier,
    csi_ratio,
    virtual_sample_point,
)
from .observables import (
    SpectrumResult,
    UndefinedCorrelationError,
    find_local_maxima,
    g1,
    g2_unfiltered,
    sensor_g2,
    sensor_g2_tau,
    spectrum_fourier,
    spectrum_sensor_scan,
)
from .operators import (
    HilbertLayout,
    SparseComplexMatrix,
    embed,
    expectation,
)

__all__ = [
    "__version__",
    "DipoleCoefficients",
    "DressedTriplet",
    "EmitterPairConfig",
    "dipole_coefficients",
    "dressed_triplet",
    "effective_coefficients",
    "sideband_frequencies",
    "DensityMatrix",
    "ModelAssembly",
    "SensorSpec",
    "SolverError",
    "build_assembly",
    "build_collapse_channels",
    "build_hamiltonian",
    "steady_state",
    "two_time_correlator",
    "vectorize",
    "BellPoint",
    "CsiPoint",
    "bell_quantifier",
    "csi_ratio",
    "virtual_sample_point",
    "SpectrumResult",
    "UndefinedCorrelationError",
    "find_local_maxima",
    "g1",
    "g2_unfiltered",
    "sensor_g2",
    "sensor_g2_tau",
    "spectrum_fourier",
    "spectrum_sensor_scan",
    "HilbertLayout",
    "SparseComplexMatrix",
    "embed",
    "expectation",
]
