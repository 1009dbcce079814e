"""Sampling, interpolation, and degrees of freedom of bandlimited wave fields."""

__version__ = "0.1.0"

from ._quad import ConvergenceError
from .geometry import (
    EllipseShape,
    Region,
    SpectralSupport,
    Wavenumber,
    WaveVector,
    kz,
    migration_filter,
    rotation_matrix,
    support_contains,
    support_measure,
    wavevector_from_angles,
)
from .lattice import (
    MIRRORS,
    LatticePointSet,
    PeriodicityMatrix,
    SamplingMatrix,
    alias_free,
    density,
    efficiency_gain,
    enumerate_lattice,
    mirror_permutations,
    nyquist_density,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    periodicity_from_sampling,
    sampling_from_periodicity,
)
from .kernels import (
    Kernel,
    bessel_j1,
    jinc,
    kernel_disk,
    kernel_ellipse,
    kernel_oracle,
    kernel_rect,
)
from .scattering import (
    ScatteringScenario,
    VmfCluster,
    psd,
    spectral_factor_sq,
    support_area_at_threshold,
    support_at_threshold,
)
from .statfield import (
    Acf,
    ClarkeAcf,
    EnergyReport,
    FieldRealization,
    NumericAcf,
    acf_clarke,
    acf_numeric,
    average_energy,
    synthesize,
)
from .analysis import (
    AutocorrMatrix,
    DofReport,
    EigenSpectrum,
    MseReport,
    build_autocorr_matrix,
    count_wavenumber_modes,
    dof,
    dof_loss_rect_vs_disk,
    eigen_spectrum,
    mse_experiment,
    mse_experiments,
    mse_sweep,
    power_capture_count,
    reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
