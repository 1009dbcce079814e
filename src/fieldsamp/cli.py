"""Command-line interface: lattices, DoF reports, spectra, and error sweeps.

``main`` checks the flags and loads the scenario (``--scenario``, or the
isotropic one at ``--lambda``) once, then runs the command on it.  A
command returns its CSV/JSON outputs and the values it resolved; ``main``
adds the ``<command>_config.json`` sidecar: the resolved arguments, the
package version, the scenario hash and those values.  A command whose
allocations grow with its arguments first estimates its peak memory from
them and rejects one above half of physical memory.  Files are written
atomically after the computation succeeds.  Exit codes: 0 success, 1
numerical failure, exhausted memory or an output that cannot be written,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# OpenBLAS's idle threads spin 2^28 cycles (about 0.1 s) after every threaded call
# before they sleep, near doubling a job's CPU time; 2^16 is about 30 us.  OpenBLAS
# reads it once, when numpy loads it; a caller's value wins (README "Command line").
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

import numpy as np

from . import __version__
from ._io import write_csv, write_json
from .analysis import (
    _autocorr_peak_bytes,
    _mse_peak_bytes,
    build_autocorr_matrix,
    count_wavenumber_modes,
    dof,
    dof_loss_rect_vs_disk,
    eigen_spectrum,
    mse_sweep,
    power_capture_count,
    reconstruct,
)
from .geometry import EllipseShape, Region, SpectralSupport, Wavenumber
from .kernels import kernel_disk, kernel_ellipse, kernel_rect
from .lattice import (
    _ALIAS_RTOL,
    MIRRORS,
    _ellipse_top,
    density,
    efficiency_gain,
    enumerate_lattice,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    periodicity_from_sampling,
)
from .scattering import (
    _FIT_GRID_N,
    ScatteringScenario,
    _kept_mirrors,
    _threshold_mask,
    support_area_at_threshold,
    support_at_threshold,
)
from .statfield import (_ACF_LEVELS, _NODE_CHUNK, _ROW_CHUNK, ClarkeAcf, FieldRealization,
                        NumericAcf, synthesize)


class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


def _check_args(args) -> None:
    """Reject flag combinations before any work; each flag's own range is its parser type."""
    out = os.path.abspath(args.out)
    while not os.path.exists(out):  # the nearest part of the path that exists
        out = os.path.dirname(out)
    if not os.path.isdir(out):
        raise ConfigError(f"--out {args.out} cannot be made a directory: {out} is a file")
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {args.out} cannot be written: {out} is not writable")
    given = [n for n in ("--a1", "--a2", "--phi-deg")
             if getattr(args, n[2:].replace("-", "_"), None) is not None]
    kind = getattr(args, "scheme", None) or getattr(args, "support", None)
    if given and (kind in ("rect", "hex", "disk") or given[:2] != ["--a1", "--a2"]):
        raise ConfigError(f"{', '.join(given)}: ellipse flags need an ellipse, --a1 and --a2 "
                          f"go together, and --phi-deg needs them")


def _check_memory(need: float, what: str, held: str) -> None:
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # the estimate leaves out the interpreter and the other temporaries, so
    # half of physical memory stays free for them
    if need > 0.5 * have:
        raise ConfigError(f"{what} needs about {need / 2**30:.3g} GiB for {held}, "
                          f"above half of the {have / 2**30:.3g} GiB of physical memory")


def _load_scenario(args) -> ScatteringScenario:
    if getattr(args, "scenario", None):
        try:
            s = ScatteringScenario.from_json(args.scenario)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"invalid scenario file {args.scenario}: {exc}") from exc
        if args.lam is not None and abs(args.lam - s.kn.wavelength) > 1e-12 * s.kn.wavelength:
            raise ConfigError("--lambda conflicts with the wavelength in --scenario")
        return s
    return ScatteringScenario.isotropic(Wavenumber.from_wavelength(args.lam or 1.0))


def _ellipse_shape(args, scenario: ScatteringScenario) -> EllipseShape:
    if args.a1 is not None:
        try:
            return EllipseShape(a1=args.a1, a2=args.a2,
                                phi=math.radians(args.phi_deg or 0.0))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not getattr(args, "scenario", None):
        raise ConfigError("an ellipse support needs --a1/--a2 or --scenario to fit from")
    return _fitted_shape(scenario, args.threshold_db)


def _dof(support: SpectralSupport, region: Region, args):
    """``dof``; a side whose count overflows is a config error naming ``--L``."""
    try:
        return dof(support, region)
    except ValueError as exc:
        raise ConfigError(f"--L {args.L:g}: {exc}") from exc


def _fitted_shape(scenario: ScatteringScenario, threshold_db: float,
                  on_psd: bool = False) -> EllipseShape:
    """``support_at_threshold``; a set too narrow for its grid to resolve is a config error."""
    try:
        return support_at_threshold(scenario, threshold_db, on_psd=on_psd)
    except ValueError as exc:
        raise ConfigError(f"{exc}: within {threshold_db:g} dB of its peak the spectrum is "
                          f"narrower than the fit grid's step, kappa/{_FIT_GRID_N} = "
                          f"{scenario.kn.kappa / _FIT_GRID_N:.6g} rad/m; give --a1/--a2") from exc


def _covering_shape(args, scenario: ScatteringScenario) -> EllipseShape:
    """``_ellipse_shape``; explicit axes must cover the set the fit covers, or it aliases."""
    shape = _ellipse_shape(args, scenario)
    if args.a1 is not None:
        pts, _ = _threshold_mask(scenario, args.threshold_db, on_psd=False)
        base = pts @ shape.inverse_shape_matrix.T
        if np.hypot(base[:, 0], base[:, 1]).max() > scenario.kn.kappa * (1.0 + _ALIAS_RTOL):
            raise ConfigError(f"the --a1/--a2 ellipse misses wavevectors within "
                              f"{args.threshold_db:g} dB of the spectrum's peak")
    return shape


def _scheme_matrix(scheme: str, scenario: ScatteringScenario, args):
    kn = scenario.kn
    if scheme == "rect":
        return nyquist_rect(kn), None
    if scheme == "hex":
        return nyquist_hex(kn), None
    shape = _ellipse_shape(args, scenario)
    return nyquist_ellipse(kn, shape), shape


def _shape_dict(shape: EllipseShape) -> dict:
    return {"a1": shape.a1, "a2": shape.a2,
            "phi_rad": shape.phi, "phi_deg": math.degrees(shape.phi)}


def _db(ratio: float) -> float:
    """A power ratio in decibels; zero, which an exact reconstruction gives, is ``-inf``."""
    return 10.0 * math.log10(ratio) if ratio > 0.0 else float("-inf")


def _write_outputs(outdir: str, outputs: dict) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, payload in outputs.items():
        path = os.path.join(outdir, name)
        if payload[0] == "csv":
            write_csv(path, payload[1], payload[2])
        else:
            write_json(path, payload[1])


# -- lattice ---------------------------------------------------------------


def cmd_lattice(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    kn = scenario.kn
    q, shape = _scheme_matrix(args.scheme, scenario, args)
    region = Region(side=args.L * kn.wavelength)
    # per point, 120 bytes for the point and its share of the candidates (the
    # circumscribed ellipse holds about pi/2 of the points; CSV rows are written
    # as formatted): max RSS grew 88-93 a point between two sides of rect, hex and
    # a thin tilted ellipse, and is 100 over the interpreter's at hex L = 200; and
    # per candidate row, 256 bytes for its arrays and the up to 5 candidates past
    # its chord, the most for a thin ellipse (250, at L = 5e5 and 1e6, a2 = 1e-9)
    rows = 2 * _ellipse_top(q.q, math.sqrt(0.5) * region.side) + 1
    _check_memory(120.0 * region.area / abs(q.det) + 256.0 * rows, f"--L {args.L:g}",
                  "its points and candidates")
    pts = enumerate_lattice(q, region)
    p = periodicity_from_sampling(q)
    mu = density(q)
    summary = {
        "scheme": args.scheme,
        "lambda": kn.wavelength,
        "L_over_lambda": args.L,
        "n_points": len(pts),
        "sampling_matrix": q.q.tolist(),
        "periodicity_matrix": p.p.tolist(),
        "density": mu,
        "gain_vs_rect_half_lambda": efficiency_gain(mu, density(nyquist_rect(kn))),
        "gain_vs_hex": efficiency_gain(mu, density(nyquist_hex(kn))),
    }
    if shape is not None:
        summary["ellipse"] = _shape_dict(shape)
    rows = ((int(n[0]), int(n[1]), x[0], x[1])
            for n, x in zip(pts.indices, pts.positions))
    return {
        "lattice_points.csv": ("csv", ["nx", "ny", "x", "y"], rows),
        "lattice_summary.json": ("json", summary),
    }, {"resolved_sampling_matrix": q.q.tolist()}


# -- dof -------------------------------------------------------------------


def cmd_dof(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    kn = scenario.kn
    region = Region(side=args.L * kn.wavelength)
    shape = _ellipse_shape(args, scenario) if args.support == "ellipse" else None
    support = SpectralSupport(args.support, kn, shape)
    report = _dof(support, region, args)
    # per mode of the area formula, 64 bytes for its candidates (max RSS grew
    # 56-57 a mode between two sides of the disk and of a thin tilted
    # ellipse); and per row of the mode ellipse, whose radius kappa L / (2 pi)
    # is --L, 256 bytes as for the lattice (240 measured)
    rows = 2 * _ellipse_top(support.to_base, args.L) + 1
    _check_memory(64.0 * report.dof_real + 256.0 * rows, f"--L {args.L:g}",
                  "its wavenumber mode candidates")
    out = {
        "support": args.support,
        "lambda": kn.wavelength,
        "L_over_lambda": args.L,
        "dof_real": report.dof_real,
        "dof_count": report.dof_count,
        "mode_count": count_wavenumber_modes(support, region),
        "dof_loss_rect_vs_disk": dof_loss_rect_vs_disk(),
    }
    if shape is not None:
        out["ellipse"] = _shape_dict(shape)
        if args.a1 is None:
            area = support_area_at_threshold(scenario, args.threshold_db)
            out["dof_direct_area"] = region.area * area / (2.0 * math.pi) ** 2
    return {"dof.json": ("json", out)}, {}


# -- acf -------------------------------------------------------------------


def cmd_acf(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    lam = scenario.kn.wavelength
    n = int(round(args.rmax / args.step))
    # one node chunk's exponential table, 16 (n + 1) bytes a node, and the
    # finest level's rule, 64 bytes a node; fitted to max RSS at --rmax 30 and 45
    nt, nf = _ACF_LEVELS[-1]
    _check_memory(16.0 * (n + 1) * _NODE_CHUNK + 64.0 * nt * nf, f"--rmax {args.rmax:g}",
                  "the quadrature's exponential table and nodes")
    rs = np.arange(n + 1) * args.step * lam
    disp = np.column_stack([rs, np.zeros_like(rs)])
    # the displacements are the 1-D lattice step*lambda*I at indices (m, 0)
    index = np.column_stack([np.arange(n + 1), np.zeros(n + 1, dtype=int)])
    vals = NumericAcf(scenario).eval_lattice(args.step * lam * np.eye(2), index)
    clarke = ClarkeAcf(scenario.kn).eval_many(disp).real
    rows = ((r / lam, v.real, v.imag, abs(v), c)
            for r, v, c in zip(rs, vals, clarke))
    return {"acf.csv": ("csv", ["r_over_lambda", "re", "im", "abs", "clarke"], rows)}, {}


# -- eigs ------------------------------------------------------------------


def cmd_eigs(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    """The autocorrelation eigen-spectrum on a lattice, and its power-capture counts.

    The memory guard runs before any lattice is enumerated.  It sizes the
    largest mirror block from the mirrors that keep the ACF -- all of them for
    the sinc ACF, those that keep the scenario for a numeric one -- and the
    lattice (``analysis._autocorr_peak_bytes``).
    """
    kn = scenario.kn
    q, shape = _scheme_matrix(args.scheme, scenario, args)
    region = Region(side=args.L * kn.wavelength)
    use_clarke = args.acf == "clarke" or (
        args.acf == "auto" and all(c.alpha == 0.0 for c in scenario.clusters))
    kept = set(MIRRORS) if use_clarke else _kept_mirrors(scenario)
    # and 2 KiB a point for the difference table and its temporaries: max RSS
    # over the block term grew 1.8 KiB a point between hex L = 30 and 40
    n_points = region.area / abs(q.det)
    _check_memory(_autocorr_peak_bytes(n_points, q, kept) + 2048.0 * n_points,
                  f"--L {args.L:g}", "an autocorrelation block")
    pts = enumerate_lattice(q, region)
    acf = ClarkeAcf(kn) if use_clarke else NumericAcf(scenario)
    spectrum = eigen_spectrum(build_autocorr_matrix(pts, acf))
    top = spectrum.values[0]
    cum = np.cumsum(spectrum.values) / spectrum.total
    rows = (
        (rank + 1, v, _db(v / top), c)
        for rank, (v, c) in enumerate(zip(spectrum.values, cum))
    )
    support = SpectralSupport("disk" if args.scheme == "hex" else args.scheme, kn, shape)
    summary = {
        "scheme": args.scheme,
        "acf": "clarke" if use_clarke else "numeric",
        "L_over_lambda": args.L,
        "n_points": len(pts),
        "dof_formula_disk": dof(SpectralSupport.disk(kn), region).dof_real,
        "dof_formula_support": dof(support, region).dof_real,
        "count_997": power_capture_count(spectrum, 0.997),
        "count_999": power_capture_count(spectrum, 0.999),
    }
    if shape is not None:
        summary["ellipse"] = _shape_dict(shape)
    return {
        "eigs.csv": ("csv", ["rank", "eigenvalue", "eigenvalue_db", "cumulative_fraction"], rows),
        "eigs_summary.json": ("json", summary),
    }, {}


# -- reconstruct -----------------------------------------------------------


def cmd_reconstruct(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    kn = scenario.kn
    lam = kn.wavelength
    region = Region(side=args.L * lam)
    shape = _covering_shape(args, scenario)
    q_ny, kern_ny = nyquist_ellipse(kn, shape), kernel_ellipse(kn, shape)
    q_half, kern_half = nyquist_rect(kn), kernel_rect(kn)
    n_seg = int(round(args.segment / (1.0 / 16.0)))
    # the larger (half-wavelength) interpolation matrix, 8 bytes an entry, and
    # 176 bytes per sample; both fitted to max RSS at sides of 200 and 300.
    # synthesize's waves, 96 bytes each (max RSS at 1e6 and 2e6 waves), and
    # its two phase blocks of _ROW_CHUNK x _NODE_CHUNK values
    n_ny, n_half = region.area / abs(q_ny.det), region.area / abs(q_half.det)
    _check_memory(8.0 * (n_seg + 1) * n_half + 176.0 * (n_ny + n_half)
                  + 96.0 * args.n_waves + 16.0 * _ROW_CHUNK * _NODE_CHUNK,
                  f"--L {args.L:g} with --segment {args.segment:g}",
                  "its samples and interpolation matrices")
    pts_ny = enumerate_lattice(q_ny, region)
    pts_half = enumerate_lattice(q_half, region)

    xs = (np.arange(n_seg + 1) - n_seg / 2.0) * lam / 16.0
    seg = np.column_stack([xs, np.zeros_like(xs)])

    all_pos = np.vstack([pts_ny.positions, pts_half.positions, seg])
    field = synthesize(scenario, all_pos, seed=args.seed, n_waves=args.n_waves)
    n1, n2 = len(pts_ny), len(pts_half)
    f_ny = FieldRealization(pts_ny.positions, field.values[:n1], field.seed,
                            field.n_waves, field.scenario_hash)
    f_half = FieldRealization(pts_half.positions, field.values[n1:n1 + n2],
                              field.seed, field.n_waves, field.scenario_hash)
    true = field.values[n1 + n2:]
    hat_ny = reconstruct(f_ny, q_ny, kern_ny, seg)
    hat_half = reconstruct(f_half, q_half, kern_half, seg)

    rows = ((x, t.real, a.real, b.real)
            for x, t, a, b in zip(xs, true, hat_ny, hat_half))
    summary = {
        "ellipse": _shape_dict(shape),
        "n_samples_nyquist": n1,
        "n_samples_half_lambda": n2,
        "sample_saving": 1.0 - n1 / n2,
        "rms_error_nyquist": float(np.sqrt(np.mean(np.abs(true - hat_ny) ** 2))),
        "rms_error_half_lambda": float(np.sqrt(np.mean(np.abs(true - hat_half) ** 2))),
    }
    return {
        "reconstruct.csv": ("csv", ["x", "re_true", "re_hat_nyquist", "re_hat_halflambda"], rows),
        "reconstruct_summary.json": ("json", summary),
    }, {"ellipse": _shape_dict(shape)}


# -- mse-sweep -------------------------------------------------------------


def cmd_mse_sweep(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    kn = scenario.kn
    lam, sides = kn.wavelength, args.L_list
    shape = _covering_shape(args, scenario)
    schemes = [
        ("ellipse_nyquist", nyquist_ellipse(kn, shape), kernel_ellipse(kn, shape)),
        ("rect_matched", nyquist_rect(Wavenumber.from_wavelength(lam / shape.a1)),
         kernel_rect(kn, scale=shape.a1)),
        ("hex", nyquist_hex(kn), kernel_disk(kn)),
        ("rect_half_lambda", nyquist_rect(kn), kernel_rect(kn)),
    ]
    pairs = [(q, kern) for _, q, kern in schemes]
    largest = Region(side=max(sides) * lam)
    _check_memory(_mse_peak_bytes(scenario, pairs, largest, args.realizations, args.n_waves),
                  f"--L-list side {max(sides):g}", "its grid, samples and interpolation rows")
    per_side = mse_sweep(scenario, pairs, [Region(side=side * lam) for side in sides],
                         n_realizations=args.realizations, seed=args.seed,
                         n_waves=args.n_waves)
    rows = [(side, name, _db(rep.normalized))
            for side, reports in zip(sides, per_side)
            for (name, _, _), rep in zip(schemes, reports)]
    return {"mse_sweep.csv": ("csv", ["L_over_lambda", "scheme", "normalized_mse_db"], rows)}, {
        "ellipse": _shape_dict(shape), "schemes": [name for name, _, _ in schemes]}


# -- support-fit -----------------------------------------------------------


def cmd_support_fit(args, scenario: ScatteringScenario) -> tuple[dict, dict]:
    kn = scenario.kn
    disk_area = math.pi * kn.kappa ** 2
    out = {"threshold_db": args.threshold_db, "lambda": kn.wavelength}
    for label, on_psd in (("factor", False), ("psd", True)):
        shape = _fitted_shape(scenario, args.threshold_db, on_psd)
        area = support_area_at_threshold(scenario, args.threshold_db, on_psd=on_psd)
        entry = _shape_dict(shape)
        entry["measured_area"] = area
        entry["measured_area_fraction_of_disk"] = area / disk_area
        if args.L is not None:
            region = Region(side=args.L * kn.wavelength)
            support = SpectralSupport.ellipse(kn, shape)
            entry["dof_formula"] = _dof(support, region, args).dof_real
            entry["dof_direct_area"] = region.area * area / (2.0 * math.pi) ** 2
        out[label] = entry
    return {"support_fit.json": ("json", out)}, {}


# -- parser ----------------------------------------------------------------


def _checked(parse, ok, domain: str, name: str = ""):
    """A parser type: ``parse``'s value, or a usage error naming ``domain``.  Its name is
    ``name``, else ``parse``'s; argparse quotes it for unparsable text ("invalid float value")."""
    def check(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value

    check.__name__ = name or parse.__name__
    return check


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and positive")
_negative = _checked(float, lambda v: math.isfinite(v) and v < 0.0, "finite and negative")
_count = _checked(int, lambda v: v >= 1, "at least 1")
_natural = _checked(int, lambda v: v >= 0, "non-negative")
_sides = _checked(lambda text: [_positive(v) for v in text.split(",") if v.strip()], bool,
                  "a non-empty comma-separated list", name="float")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, as every other is."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fieldsamp",
        description="Sampling lattices, degrees of freedom, and reconstruction "
                    "error for spatially bandlimited wave fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=False, threshold=False, mc=False):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--lambda", dest="lam", type=_positive, default=None,
                       help="wavelength (default 1; ignored if --scenario sets it)")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        if scheme:
            p.add_argument("--a1", type=float, default=None,
                           help="explicit ellipse major semi-axis factor")
            p.add_argument("--a2", type=float, default=None,
                           help="explicit ellipse minor semi-axis factor")
            p.add_argument("--phi-deg", type=float, default=None,
                           help="explicit ellipse orientation in degrees")
        if threshold:
            p.add_argument("--threshold-db", type=_negative, default=-20.0,
                           help="support fit threshold in dB (default -20)")
        if mc:
            p.add_argument("--seed", type=_natural, default=42, help="RNG seed (default 42)")
            p.add_argument("--n-waves", type=_count, default=1024,
                           help="plane waves per realization (default 1024)")

    p = sub.add_parser("lattice", help="enumerate a sampling lattice over a region")
    common(p, scheme=True, threshold=True)
    p.add_argument("--scheme", choices=["rect", "hex", "ellipse"], required=True)
    p.add_argument("--L", type=_positive, required=True, help="region side in wavelengths")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("dof", help="degrees-of-freedom report for a support")
    common(p, scheme=True, threshold=True)
    p.add_argument("--support", choices=["disk", "rect", "ellipse"], default="disk")
    p.add_argument("--L", type=_positive, required=True, help="region side in wavelengths")
    p.set_defaults(func=cmd_dof)

    p = sub.add_parser("acf", help="autocorrelation profile along the x axis")
    common(p)
    p.add_argument("--rmax", type=_positive, default=3.0,
                   help="maximum displacement in wavelengths (default 3)")
    p.add_argument("--step", type=_positive, default=0.0625,
                   help="displacement step in wavelengths (default 1/16)")
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("eigs", help="autocorrelation eigenvalue spectrum on a lattice")
    common(p, scheme=True, threshold=True)
    p.add_argument("--scheme", choices=["rect", "hex", "ellipse"], required=True)
    p.add_argument("--L", type=_positive, required=True, help="region side in wavelengths")
    p.add_argument("--acf", choices=["auto", "clarke", "numeric"], default="auto")
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("reconstruct",
                       help="reconstruct one realization on a segment, two schemes")
    common(p, scheme=True, threshold=True, mc=True)
    p.add_argument("--L", type=_positive, default=40.0, help="region side in wavelengths")
    p.add_argument("--segment", type=_positive, default=6.0,
                   help="evaluation segment length in wavelengths (default 6)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("mse-sweep",
                       help="reconstruction MSE versus region size for four schemes")
    common(p, scheme=True, threshold=True, mc=True)
    p.add_argument("--L-list", type=_sides, default="2,4,8,16,20",
                   help="comma-separated region sides in wavelengths")
    p.add_argument("--realizations", type=_count, default=500)
    p.add_argument("--workers", type=_count, default=1,
                   help="at least 1; changes neither the results nor the execution, "
                        "since BLAS already threads the matrix products (default 1)")
    p.set_defaults(func=cmd_mse_sweep)

    p = sub.add_parser("support-fit", help="fit the spectral support of a scenario")
    common(p, threshold=True)
    p.add_argument("--L", type=_positive, default=None,
                   help="optional region side in wavelengths for DoF reporting")
    p.set_defaults(func=cmd_support_fit)

    return parser


def _fail(kind: str, exc: BaseException) -> None:
    sys.stderr.write(json.dumps({"kind": kind, "error": str(exc)}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        # an overflow or a NaN made on the way is a numeric failure, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            scenario = _load_scenario(args)
            outputs, resolved = args.func(args, scenario)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        config.update(version=__version__, scenario_hash=scenario.scenario_hash, **resolved)
        outputs[f"{args.command.replace('-', '_')}_config.json"] = ("json", config)
        _write_outputs(args.out, outputs)
    except ConfigError as exc:
        _fail("config", exc)
        return 2
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        _fail("numeric", exc)
        return 1
    except (MemoryError, OSError) as exc:  # OSError: an output that cannot be written
        _fail("resource", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
