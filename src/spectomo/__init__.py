"""Spectral-domain single-photon tomography toolkit.

Simulates spectral density matrices of single photons, models a scanning
Mach-Zehnder interferometer (frequency shift + phase in one arm, delay in the
other) with post-selected photon counting, and reconstructs the density
matrix from count records by Fourier inversion of the measured fringe data.
"""

__version__ = "0.3.0"

from .core import (
    FrequencyGrid,
    PureSpectralAmplitude,
    SpectralDensityMatrix,
    ValidationReport,
    density_from_pure,
    frequency_jitter_state,
    gaussian_pure,
    hs_distance,
    hs_overlap,
    load_density_matrix,
    make_grid,
    mix,
    purity,
    save_density_matrix,
    time_jitter_state,
    validate,
)
from .diagnostics import Diagnostic, DiagnosticWarning
from .errors import (
    CalibrationMissingError,
    DataFormatError,
    DegenerateInputError,
    GridMismatchError,
    InsufficientDataError,
    MissingSettingsError,
    SpectralTomographyError,
    VisibilityTooLowError,
)
from .interferometer import (
    InterferometerConfig,
    MeasurementSetting,
    cross_section_transform,
)
from .measurement import (
    MeasurementRecord,
    ScanPlan,
    ScanTable,
    estimate_p_delta,
    plan_scan,
    pool_records,
    read_records,
    simulate_counts,
    write_p_delta_table,
    write_records,
)
from .reconstruction import (
    CrossSectionEstimate,
    ReconstructionResult,
    ReportDocument,
    assemble,
    calibrate_gamma,
    estimate_cross_section,
    invert_cross_section,
    project_physical,
    reconstruct_records,
    report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
