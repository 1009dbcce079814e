"""Sampling, interpolation, and degrees of freedom of bandlimited wave fields.

Each export loads its submodule on first use (PEP 562), so ``import
fieldsamp`` loads no numpy; ``fieldsamp.cli`` relies on that to configure
OpenBLAS before numpy starts it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "_quad": ("ConvergenceError",),
    "geometry": ("EllipseShape", "Region", "SpectralSupport", "Wavenumber", "WaveVector", "kz",
                 "migration_filter", "rotation_matrix", "support_contains", "support_measure",
                 "wavevector_from_angles"),
    "lattice": ("MIRRORS", "LatticePointSet", "PeriodicityMatrix", "SamplingMatrix",
                "alias_free", "density", "efficiency_gain", "enumerate_lattice",
                "mirror_permutations", "nyquist_density", "nyquist_ellipse", "nyquist_hex",
                "nyquist_rect", "periodicity_from_sampling", "sampling_from_periodicity"),
    "kernels": ("Kernel", "bessel_j1", "jinc", "kernel_disk", "kernel_ellipse",
                "kernel_oracle", "kernel_rect"),
    "scattering": ("ScatteringScenario", "VmfCluster", "psd", "spectral_factor_sq",
                   "support_area_at_threshold", "support_at_threshold"),
    "statfield": ("Acf", "ClarkeAcf", "EnergyReport", "FieldRealization", "NumericAcf",
                  "acf_clarke", "acf_numeric", "average_energy", "synthesize"),
    "analysis": ("AutocorrMatrix", "DofReport", "EigenSpectrum", "MseReport",
                 "build_autocorr_matrix", "count_wavenumber_modes", "dof",
                 "dof_loss_rect_vs_disk", "eigen_spectrum", "mse_experiment", "mse_sweep",
                 "power_capture_count", "reconstruct"),
}
# each public name -> the submodule it lives in; a public submodule is its own home
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in _EXPORTS if not module.startswith("_"))

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
