"""End-to-end command-line checks, through subprocess invocations except
where a failure has to be injected into the running process."""

import errno
import json
import math
import os

import numpy as np
import pytest

from fieldsamp import (
    Region,
    ScatteringScenario,
    Wavenumber,
    acf_clarke,
    density,
    enumerate_lattice,
    nyquist_hex,
    support_at_threshold,
)
from fieldsamp import analysis, cli
from fieldsamp._io import _atomic_write
from helpers import broadside_json, max_rss, run_cli, run_python, two_cluster_json, write_scenario

KN = Wavenumber.from_wavelength(1.0)


@pytest.fixture()
def scen2(tmp_path):
    return write_scenario(tmp_path / "two_cluster.json", two_cluster_json())


@pytest.fixture()
def scen40(tmp_path):
    return write_scenario(tmp_path / "broadside40.json", broadside_json(40.0))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestUsage:
    def test_help(self, tmp_path):
        assert run_cli(["--help"], tmp_path).returncode == 0

    def test_missing_subcommand(self, tmp_path):
        res = run_cli([], tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "config"

    def test_unknown_scheme(self, tmp_path):
        res = run_cli(["lattice", "--scheme", "oct", "--L", "4"], tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "config"

    @pytest.mark.parametrize("args", [
        ["lattice", "--scheme", "hex", "--L", "abc"],
        ["lattice", "--L", "4"],
        ["lattice", "--scheme", "hex", "--L", "4", "--bogus", "1"],
        # argparse reads a negative exponent as an option
        ["support-fit", "--threshold-db", "-1e-3"],
    ], ids=["non-number", "missing-scheme", "unknown-flag", "negative-exponent"])
    def test_usage_errors_are_config_errors(self, args, tmp_path):
        res = run_cli(args, tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "config"

    def test_config_errors_report_json_on_stderr(self, tmp_path):
        res = run_cli(["lattice", "--scheme", "hex", "--L", "4",
                       "--scenario", "missing.json"], tmp_path)
        assert res.returncode == 2
        doc = json.loads(res.stderr)  # exactly one JSON document
        assert doc["kind"] == "config"
        assert "missing.json" in doc["error"]

    @pytest.mark.parametrize("args", [
        ["lattice", "--scheme", "hex", "--L", "-3"],
        ["lattice", "--scheme", "hex", "--L", "4", "--lambda", "0"],
        ["lattice", "--scheme", "ellipse", "--L", "4"],
        ["lattice", "--scheme", "ellipse", "--L", "4", "--a1", "0.5"],
        ["dof", "--L", "10", "--support", "ellipse"],
        ["support-fit", "--threshold-db", "5"],
        ["mse-sweep", "--realizations", "0"],
        ["reconstruct", "--seed", "-1"],
        ["mse-sweep", "--a1", "0.5", "--a2", "0.4", "--L-list", "2,-4"],
        ["mse-sweep", "--a1", "0.5", "--a2", "0.4", "--L-list", "2,nan"],
        # an ellipse narrower than the isotropic spectrum would alias it
        ["reconstruct", "--a1", "0.8", "--a2", "0.5", "--phi-deg", "37",
         "--L", "12", "--segment", "3"],
        # ellipse flags the command would ignore; s.json is a two-cluster scenario
        ["lattice", "--scheme", "ellipse", "--L", "4", "--scenario", "s.json",
         "--phi-deg", "60"],
        ["lattice", "--scheme", "hex", "--L", "4", "--a1", "0.5", "--a2", "0.4"],
        ["eigs", "--scheme", "rect", "--L", "4", "--phi-deg", "30"],
        ["dof", "--L", "4", "--support", "disk", "--a1", "0.5", "--a2", "0.4"],
        ["dof", "--L", "4", "--support", "rect", "--phi-deg", "30"],
        # blocks larger than physical memory, rejected before the lattice is enumerated
        ["eigs", "--scheme", "hex", "--L", "100000"],
        # quadrature tables larger than physical memory, rejected before any allocation
        ["acf", "--rmax", "1e9"],
        # candidate boxes, mode boxes and interpolation matrices larger than
        # physical memory, rejected before any allocation
        ["lattice", "--scheme", "hex", "--L", "100000"],
        ["dof", "--L", "1e6"],
        ["reconstruct", "--a1", "1", "--a2", "1", "--L", "1e5"],
    ])
    def test_bad_flag_values_exit_two(self, args, tmp_path):
        write_scenario(tmp_path / "s.json", two_cluster_json())
        res = run_cli(args, tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["kind"] == "config"

    def test_oversized_mse_sweep_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        # the estimate comes from the arguments alone: no lattice is enumerated
        def never(*args, **kwargs):
            raise AssertionError("called before the memory check")

        monkeypatch.setattr(cli, "enumerate_lattice", never)
        monkeypatch.setattr(cli, "mse_sweep", never)
        out = tmp_path / "out"
        rc = cli.main(["mse-sweep", "--a1", "1", "--a2", "1", "--L-list", "2,100000",
                       "--out", str(out)])
        assert rc == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "config"
        assert "physical memory" in doc["error"]
        assert not out.exists()

    def test_oversized_wave_count_rejected_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # a group holds all its realizations' waves, so the wave count alone can
        # exceed physical memory at a small side
        def never(*args, **kwargs):
            raise AssertionError("called before the memory check")

        monkeypatch.setattr(analysis, "_draw_waves", never)
        out = tmp_path / "out"
        rc = cli.main(["mse-sweep", "--a1", "1", "--a2", "1", "--L-list", "2",
                       "--n-waves", "10000000000", "--out", str(out)])
        assert rc == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "config"
        assert "physical memory" in doc["error"]
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken.txt", os.path.join("taken.txt", "sub")])
    def test_out_naming_a_file_rejected_before_any_work(self, out, tmp_path, monkeypatch,
                                                        capsys):
        def never(*args, **kwargs):
            raise AssertionError("called before the --out check")

        monkeypatch.setattr(cli, "mse_sweep", never)
        monkeypatch.setattr(cli, "_load_scenario", never)
        taken = tmp_path / "taken.txt"
        taken.write_text("kept")
        rc = cli.main(["mse-sweep", "--L-list", "2", "--realizations", "2", "--n-waves", "16",
                       "--out", str(tmp_path / out)])
        assert rc == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "config"
        assert "--out" in doc["error"] and "is a file" in doc["error"]
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("args, allocating", [
        (["lattice", "--scheme", "hex", "--L", "100000"], "enumerate_lattice"),
        (["lattice", "--scheme", "ellipse", "--a1", "0.9", "--a2", "0.01", "--phi-deg", "45",
          "--L", "200000"], "enumerate_lattice"),
        # 3 points but 2.2e8 candidate rows
        (["lattice", "--scheme", "ellipse", "--a1", "0.9", "--a2", "1e-10", "--phi-deg", "45",
          "--L", "1e8"], "enumerate_lattice"),
        (["dof", "--L", "1e6"], "count_wavenumber_modes"),
        (["dof", "--support", "ellipse", "--a1", "0.5", "--a2", "0.5", "--L", "1e6"],
         "count_wavenumber_modes"),
        (["reconstruct", "--a1", "1", "--a2", "1", "--L", "1e5"], "enumerate_lattice"),
        (["reconstruct", "--a1", "1", "--a2", "1", "--L", "400", "--segment", "1e4"],
         "enumerate_lattice"),
    ], ids=["lattice-hex", "lattice-thin-ellipse", "lattice-rows", "dof-disk", "dof-ellipse",
            "reconstruct-side", "reconstruct-segment"])
    def test_oversized_grids_rejected_before_any_allocation(self, args, allocating, tmp_path,
                                                             monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("called before the memory check")

        monkeypatch.setattr(cli, allocating, never)
        out = tmp_path / "out"
        assert cli.main(args + ["--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "config"
        assert "physical memory" in doc["error"]
        assert not out.exists()

    def test_memory_guard_leaves_headroom(self, tmp_path, monkeypatch, capsys):
        # --rmax 1000 needs about 7.81 GiB, just below 7.84 GiB of physical
        # memory: the process would be killed before it finished
        def never(*args, **kwargs):
            raise AssertionError("called before the memory check")

        page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(cli.os, "sysconf", lambda name: round(7.84 * 2**30 / page)
                            if name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(cli.np, "arange", never)
        monkeypatch.setattr(cli, "NumericAcf", never)
        out = tmp_path / "out"
        assert cli.main(["acf", "--rmax", "1000", "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "config"
        assert "physical memory" in doc["error"]
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"lambda": 1.0, "clusters": 5},
        {"lambda": 1.0, "clusters": [7]},
        {"lambda": None, "clusters": [{"weight": 1.0, "theta_deg": 0.0, "phi_deg": 0.0,
                                       "alpha": 1.0}]},
        {"lambda": 1.0, "clusters": [{"weight": None, "theta_deg": 0.0, "phi_deg": 0.0,
                                      "alpha": 1.0}]},
    ], ids=["clusters-number", "cluster-number", "lambda-null", "weight-null"])
    def test_scenario_of_the_wrong_types_is_a_config_error(self, doc, tmp_path):
        write_scenario(tmp_path / "bad.json", doc)
        res = run_cli(["acf", "--scenario", "bad.json"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["kind"] == "config"

    def test_invalid_scenario_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 1.0, "clusters": [{"weight": 2.0,'
                       ' "theta_deg": 0, "phi_deg": 0, "alpha": 1}]}')
        res = run_cli(["acf", "--scenario", bad.name], tmp_path)
        assert res.returncode == 2

    def test_lambda_conflict_with_scenario(self, tmp_path, scen2):
        res = run_cli(["acf", "--scenario", scen2, "--lambda", "2.0"], tmp_path)
        assert res.returncode == 2


class TestOutWrites:
    def test_unwritable_out_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("called before the --out check")

        monkeypatch.setattr(cli, "_load_scenario", never)
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        out = tmp_path / "out" / "sub"
        assert cli.main(["dof", "--L", "2", "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "config"
        assert "--out" in doc["error"] and f"{tmp_path} is not writable" in doc["error"]
        assert not (tmp_path / "out").exists()

    def test_out_that_cannot_be_made_is_one_resource_line(self, tmp_path, monkeypatch,
                                                          capsys):
        out = tmp_path / "out"

        def makedirs(*args, **kwargs):
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", str(out))

        monkeypatch.setattr(cli.os, "makedirs", makedirs)
        assert cli.main(["dof", "--L", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["kind"] == "resource"
        assert not out.exists()

    def test_failed_write_keeps_earlier_files_whole(self, tmp_path, monkeypatch, capsys):
        # dof.json is written before the sidecar, whose write fails
        write_json = cli.write_json

        def failing(path, obj):
            if path.endswith("_config.json"):
                raise OSError(errno.ENOSPC, "No space left on device", path)
            write_json(path, obj)

        monkeypatch.setattr(cli, "write_json", failing)
        out = tmp_path / "out"
        assert cli.main(["dof", "--L", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["kind"] == "resource" and "No space left" in doc["error"]
        assert [p.name for p in out.iterdir()] == ["dof.json"]
        assert read_json(out / "dof.json")["dof_count"] == 13  # ceil(4 pi)

    def test_atomic_write_failing_midway_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("old\n")

        def rows():
            yield "new,1\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            _atomic_write(target, rows())
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no .tmp-* left


class TestLattice:
    def test_hex_summary_and_points(self, tmp_path):
        res = run_cli(["lattice", "--scheme", "hex", "--L", "10",
                       "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        summary = read_json(tmp_path / "out" / "lattice_summary.json")
        assert summary["n_points"] == 367
        assert summary["density"] == pytest.approx(density(nyquist_hex(KN)),
                                                   rel=1e-12)
        assert summary["gain_vs_rect_half_lambda"] == pytest.approx(
            1.0 - math.sqrt(3.0) / 2.0, abs=1e-12)
        lines = (tmp_path / "out" / "lattice_points.csv").read_text().splitlines()
        assert lines[0] == "nx,ny,x,y"
        assert len(lines) == 368
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=10.0))
        first = lines[1].split(",")
        assert [int(first[0]), int(first[1])] == list(pts.indices[0])

    @pytest.mark.parametrize("args, lam, own", [
        (["--scheme", "hex"], "1", "gain_vs_hex"),
        (["--scheme", "rect"], "0.001", "gain_vs_rect_half_lambda"),
        (["--scheme", "ellipse", "--a1", "1", "--a2", "1"], "123.4", "gain_vs_hex"),
    ], ids=["hex", "rect", "circle"])
    def test_gain_against_its_own_lattice_is_zero(self, tmp_path, args, lam, own):
        # the references are the package's own rect and hex lattices
        res = run_cli(["lattice", *args, "--L", "2", "--lambda", lam, "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert read_json(tmp_path / "out" / "lattice_summary.json")[own] == 0.0

    def test_ellipse_from_scenario(self, tmp_path, scen2):
        res = run_cli(["lattice", "--scheme", "ellipse", "--L", "10",
                       "--scenario", scen2, "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        summary = read_json(tmp_path / "out" / "lattice_summary.json")
        assert summary["ellipse"]["a1"] == pytest.approx(0.4877037402682134,
                                                         rel=1e-12)
        # sparser than hex by the axis product
        assert summary["gain_vs_hex"] == pytest.approx(
            1.0 - summary["ellipse"]["a1"] * summary["ellipse"]["a2"], rel=1e-9)

    def test_explicit_axes(self, tmp_path):
        res = run_cli(["lattice", "--scheme", "ellipse", "--L", "8",
                       "--a1", "0.8", "--a2", "0.5", "--phi-deg", "30",
                       "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        summary = read_json(tmp_path / "out" / "lattice_summary.json")
        assert summary["ellipse"]["phi_deg"] == pytest.approx(30.0, rel=1e-12)

    def test_tiny_negative_orientation_written_as_zero(self, tmp_path):
        # phi % 2pi rounds -1e-14 degrees up to 2pi itself
        res = run_cli(["lattice", "--scheme", "ellipse", "--L", "2", "--a1", "0.8",
                       "--a2", "0.5", "--phi-deg=-1e-14", "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        ellipse = read_json(tmp_path / "out" / "lattice_summary.json")["ellipse"]
        assert ellipse["phi_deg"] == 0.0 and ellipse["phi_rad"] == 0.0

    def test_scenario_with_a_tiny_negative_azimuth(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", {"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": 10.0, "phi_deg": -1e-14, "alpha": 50.0}]})
        res = run_cli(["lattice", "--scheme", "ellipse", "--L", "2", "--scenario", scen,
                       "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr


class TestDof:
    def test_disk_report(self, tmp_path):
        res = run_cli(["dof", "--L", "10", "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        doc = read_json(tmp_path / "out" / "dof.json")
        assert doc["dof_real"] == pytest.approx(100.0 * math.pi, rel=1e-12)
        assert doc["dof_count"] == 315
        assert doc["mode_count"] == 317
        assert doc["dof_loss_rect_vs_disk"] == pytest.approx(1.0 - math.pi / 4.0,
                                                             abs=1e-12)


    @pytest.mark.parametrize("side", ["1e160", "1e300"])
    @pytest.mark.parametrize("command", ["dof", "support-fit"])
    def test_overflowing_side_is_a_config_error(self, command, side, tmp_path):
        # the region's area, and so its degrees of freedom, overflow to inf
        res = run_cli([command, "--L", side, "--out", "out"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert len(res.stderr.splitlines()) == 1
        doc = json.loads(res.stderr)
        assert doc["kind"] == "config" and f"--L {float(side):g}" in doc["error"]
        assert not (tmp_path / "out").exists()


class TestAcf:
    def test_isotropic_matches_clarke_column(self, tmp_path):
        res = run_cli(["acf", "--rmax", "0.5", "--step", "0.125",
                       "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "out" / "acf.csv").read_text().splitlines()
        assert lines[0] == "r_over_lambda,re,im,abs,clarke"
        assert len(lines) == 6
        for row in lines[1:]:
            r, re, im, mag, clarke = (float(v) for v in row.split(","))
            assert clarke == pytest.approx(acf_clarke((r, 0.0), KN), abs=1e-12)
            assert re == pytest.approx(clarke, abs=1e-6)
            assert abs(im) < 1e-9


class TestEigs:
    def test_summary_fields_and_determinism(self, tmp_path):
        args = ["eigs", "--scheme", "hex", "--L", "4", "--out", "out"]
        assert run_cli(args, tmp_path).returncode == 0
        first = (tmp_path / "out" / "eigs.csv").read_bytes()
        summary = read_json(tmp_path / "out" / "eigs_summary.json")
        assert summary["n_points"] == 59
        assert summary["count_997"] == 59
        assert summary["acf"] == "clarke"
        assert summary["dof_formula_disk"] == pytest.approx(16.0 * math.pi,
                                                            rel=1e-12)
        assert run_cli(args, tmp_path).returncode == 0
        assert (tmp_path / "out" / "eigs.csv").read_bytes() == first

    def test_numeric_acf_selected_for_anisotropic(self, tmp_path, scen40):
        res = run_cli(["eigs", "--scheme", "hex", "--L", "2",
                       "--scenario", scen40, "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert read_json(tmp_path / "out" / "eigs_summary.json")["acf"] == "numeric"

    def test_numeric_acf_byte_identical_across_runs(self, tmp_path, scen2):
        args = ["eigs", "--scheme", "hex", "--L", "4", "--scenario", scen2,
                "--out", "out"]
        res = run_cli(args, tmp_path)
        assert res.returncode == 0, res.stderr
        assert read_json(tmp_path / "out" / "eigs_summary.json")["acf"] == "numeric"
        first = (tmp_path / "out" / "eigs.csv").read_bytes()
        assert run_cli(args, tmp_path).returncode == 0
        assert (tmp_path / "out" / "eigs.csv").read_bytes() == first

    @pytest.mark.parametrize("scenario, side, g", [
        ("scen40", 40, 4),
        ("scen2", 40, 2),
        ("scen2", 80, 2),  # 1.8 GiB, where counting no flip gave 7.3 GiB
    ])
    def test_memory_estimate_counts_the_kept_flips(self, scenario, side, g, request,
                                                   tmp_path, monkeypatch):
        # a zenith-only spectrum is radial, so its table splits into the
        # lattice's four blocks; the two clusters keep the y flip alone
        needs = []

        def record(need, what, held):
            needs.append(need)
            raise cli.ConfigError("stop before any lattice is enumerated")

        def never(*args, **kwargs):
            raise AssertionError("called before the memory check")

        monkeypatch.setattr(cli, "_check_memory", record)
        monkeypatch.setattr(cli, "enumerate_lattice", never)
        rc = cli.main(["eigs", "--scheme", "hex", "--L", str(side), "--acf", "numeric",
                       "--scenario", request.getfixturevalue(scenario),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        n = side ** 2 / abs(nyquist_hex(KN).det)  # wavelength 1
        assert needs == [pytest.approx(16.0 * (n / g) ** 2 + 2048.0 * n)]

    def test_memory_error_reports_resource_json(self, tmp_path, monkeypatch, capsys):
        def exhausted(points, acf):
            raise MemoryError("Unable to allocate 1.1 GiB")

        monkeypatch.setattr(cli, "build_autocorr_matrix", exhausted)
        out = tmp_path / "out"
        rc = cli.main(["eigs", "--scheme", "hex", "--L", "2", "--out", str(out)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"kind": "resource", "error": "Unable to allocate 1.1 GiB"}
        assert not out.exists() or not any(out.iterdir())


class TestReconstruct:
    def test_segment_outputs(self, tmp_path, scen40):
        res = run_cli(["reconstruct", "--scenario", scen40, "--L", "10",
                       "--segment", "4", "--n-waves", "128", "--out", "out"],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        summary = read_json(tmp_path / "out" / "reconstruct_summary.json")
        assert 0.0 < summary["rms_error_nyquist"] < 0.5
        assert 0.0 < summary["rms_error_half_lambda"] < 0.5
        assert summary["n_samples_nyquist"] < summary["n_samples_half_lambda"]
        assert 0.0 < summary["sample_saving"] < 1.0
        lines = (tmp_path / "out" / "reconstruct.csv").read_text().splitlines()
        assert lines[0] == "x,re_true,re_hat_nyquist,re_hat_halflambda"
        assert len(lines) == 4 * 16 + 2  # 16 points per wavelength, inclusive

    def test_explicit_axes_covering_the_spectrum(self, tmp_path, scen40):
        # the alpha=40 spectrum fits in a1 = 0.47, so a 0.8 x 0.5 ellipse covers it
        res = run_cli(["reconstruct", "--scenario", scen40, "--a1", "0.8",
                       "--a2", "0.5", "--L", "10", "--segment", "4", "--out", "out"],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        summary = read_json(tmp_path / "out" / "reconstruct_summary.json")
        assert summary["ellipse"]["a1"] == 0.8
        assert 0.0 < summary["rms_error_nyquist"] < 0.5

    @pytest.mark.parametrize("theta_deg, phi_deg, alpha, threshold", [
        (math.degrees(1.5), math.degrees(0.3), 5.0, -3.0),
        (math.degrees(1.5), math.degrees(0.3), 5.0, -20.0),
        (math.degrees(0.9), 0.0, 3.0, -3.0),
    ], ids=["theta1.5-3dB", "theta1.5-20dB", "theta0.9-3dB"])
    def test_fitted_axes_pass_the_coverage_check(self, tmp_path, theta_deg, phi_deg,
                                                 alpha, threshold):
        # near-horizon clusters whose fit caps the major axis at the disk
        scen = write_scenario(tmp_path / "horizon.json", {
            "lambda": 1.0,
            "clusters": [{"weight": 1.0, "theta_deg": theta_deg,
                          "phi_deg": phi_deg, "alpha": alpha}],
        })
        shape = support_at_threshold(ScatteringScenario.from_json(scen), threshold)
        res = run_cli(["reconstruct", "--scenario", scen, "--a1", repr(shape.a1),
                       "--a2", repr(shape.a2),
                       "--phi-deg", repr(math.degrees(shape.phi)),
                       "--threshold-db", threshold, "--L", "4", "--segment", "2",
                       "--n-waves", "64", "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr


class TestSupportFit:
    def test_both_conventions_reported(self, tmp_path, scen40):
        res = run_cli(["support-fit", "--scenario", scen40, "--L", "10",
                       "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        doc = read_json(tmp_path / "out" / "support_fit.json")
        assert doc["factor"]["a1"] == pytest.approx(0.46575207997388485, rel=1e-12)
        assert doc["psd"]["a1"] == pytest.approx(0.47169905660283024, rel=1e-12)
        assert doc["factor"]["dof_formula"] == pytest.approx(
            100.0 * math.pi * doc["factor"]["a1"] * doc["factor"]["a2"], rel=1e-12)

    @pytest.mark.parametrize("lam", [1e-300, 1e300])
    def test_extreme_wavelength_is_a_numeric_failure(self, tmp_path, lam):
        # kappa^2 overflows at 1e-300 and the disk area is zero at 1e300: each
        # is one JSON line, not a traceback, and nothing is written
        scen = write_scenario(tmp_path / "s.json", broadside_json(40.0, lam=lam))
        res = run_cli(["support-fit", "--scenario", scen, "--out", "out"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr)["kind"] == "numeric"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["support-fit"],
        ["mse-sweep", "--L-list", "1", "--realizations", "2", "--n-waves", "8"],
        ["lattice", "--scheme", "ellipse", "--L", "2"],
        ["dof", "--support", "ellipse", "--L", "2"],
    ], ids=["support-fit", "mse-sweep", "lattice", "dof"])
    def test_spectrum_too_narrow_to_fit_is_a_config_error(self, args, tmp_path):
        # a zenith cluster at alpha = 1e6 is valid, but within 20 dB of its peak
        # it is narrower than the kappa/200 fit grid, which keeps its centre
        # point alone: the remedy is on the input side, explicit axes
        scen = write_scenario(tmp_path / "needle.json", broadside_json(1e6))
        res = run_cli(args + ["--scenario", scen, "--out", "out"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert len(res.stderr.splitlines()) == 1
        doc = json.loads(res.stderr)
        assert doc["kind"] == "config"
        assert "-20 dB" in doc["error"] and "kappa/200" in doc["error"]
        assert "--a1/--a2" in doc["error"]
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="degenerate"):  # the library's own error
            support_at_threshold(ScatteringScenario.from_json(scen))

    def test_tilted_needle_fails_in_its_normalization(self, tmp_path):
        # tilted, the same cluster fails before any fit: its normalization
        # quadrature does not converge, which stays a numeric failure
        scen = write_scenario(tmp_path / "needle.json", {"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": 30.0, "phi_deg": 0.0, "alpha": 1e6}]})
        res = run_cli(["support-fit", "--scenario", scen, "--out", "out"], tmp_path)
        assert res.returncode == 1, res.stderr
        doc = json.loads(res.stderr)
        assert doc["kind"] == "numeric" and "did not reach tol" in doc["error"]
        assert not (tmp_path / "out").exists()


class TestMseSweep:
    def test_workers_do_not_change_bytes(self, tmp_path, scen40):
        base = ["mse-sweep", "--scenario", scen40, "--L-list", "2",
                "--realizations", "4", "--n-waves", "32", "--out"]
        assert run_cli(base + ["a", "--workers", "1"], tmp_path).returncode == 0
        assert run_cli(base + ["b", "--workers", "2"], tmp_path).returncode == 0
        a = (tmp_path / "a" / "mse_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "mse_sweep.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        assert lines[0] == "L_over_lambda,scheme,normalized_mse_db"
        assert len(lines) == 5  # four schemes for the single region size
        schemes = [row.split(",")[1] for row in lines[1:]]
        assert schemes == ["ellipse_nyquist", "rect_matched", "hex",
                           "rect_half_lambda"]

    def test_exact_reconstruction_written_as_minus_infinity(self, tmp_path):
        # below half a wavelength the grid is its centre point and a rect
        # lattice holds only the origin, so the reconstruction there is exact
        base = ["mse-sweep", "--a1", "1", "--a2", "1", "--realizations", "8",
                "--n-waves", "32", "--out"]
        res = run_cli(base + ["a", "--L-list", "1,0.4"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert run_cli(base + ["b", "--L-list", "1"], tmp_path).returncode == 0
        lines = (tmp_path / "a" / "mse_sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [r[2] for r in rows if r[0] == "0.4" and r[1].startswith("rect")] == [
            "-inf", "-inf"]
        assert all(math.isfinite(float(r[2])) for r in rows if not r[1].startswith("rect"))
        assert lines[:5] == (tmp_path / "b" / "mse_sweep.csv").read_text().splitlines()


class TestTinyConcentration:
    @pytest.mark.parametrize("args", [
        ["support-fit", "--L", "2"],
        ["acf", "--rmax", "0.5"],
        ["eigs", "--scheme", "hex", "--L", "2"],
        ["reconstruct", "--L", "2", "--segment", "1", "--n-waves", "8"],
        ["mse-sweep", "--L-list", "1", "--realizations", "2", "--n-waves", "8"],
        ["lattice", "--scheme", "ellipse", "--L", "2"],
        ["dof", "--support", "ellipse", "--L", "2"],
    ], ids=["support-fit", "acf", "eigs", "reconstruct", "mse-sweep", "lattice", "dof"])
    @pytest.mark.parametrize("theta_deg, alpha", [(10.0, 1e-17), (0.0, 1e-300)],
                             ids=["tilted", "zenith"])
    def test_near_isotropic_cluster_runs(self, args, theta_deg, alpha, tmp_path):
        # a valid cluster whose concentration rounds 1 - exp(-alpha) to zero
        scen = write_scenario(tmp_path / "s.json", {"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": theta_deg, "phi_deg": 0.0, "alpha": alpha}]})
        res = run_cli(args + ["--scenario", scen, "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""


class TestGuards:
    @pytest.mark.parametrize("args", [
        ["lattice", "--scheme", "hex", "--L", "200"],
        ["lattice", "--scheme", "ellipse", "--a1", "0.9", "--a2", "0.01", "--phi-deg", "45",
         "--L", "3000"],
        ["dof", "--L", "800"],
        # the isotropic scenario takes the quadrature, whose node chunks each
        # fill one exponential table over the 241 displacements
        ["acf", "--rmax", "15"],
        ["eigs", "--scheme", "hex", "--L", "40", "--acf", "clarke"],
        ["reconstruct", "--a1", "1", "--a2", "1", "--L", "100", "--n-waves", "256"],
        ["mse-sweep", "--scenario", "broadside40.json", "--L-list", "8,16",
         "--realizations", "128", "--n-waves", "64"],
    ], ids=["lattice-hex", "lattice-thin-ellipse", "dof", "acf", "eigs", "reconstruct",
            "mse-sweep"])
    def test_memory_estimate_bounds_max_rss(self, args, tmp_path, scen40, monkeypatch, capsys):
        # the guard's estimate, added to what the interpreter and the imports
        # hold, must cover the whole run: a change that grows the job's memory
        # has to grow the estimate too
        estimates = []

        def record(need, what, held):
            estimates.append(need)
            raise cli.ConfigError("stop after the estimate")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_check_memory", record)
        assert cli.main(args + ["--out", "none"]) == 2
        capsys.readouterr()
        rc, base = max_rss(["-c", "import fieldsamp.cli"], tmp_path)
        assert rc == 0
        rc, rss = max_rss(["-m", "fieldsamp", *args, "--out", "out"], tmp_path)
        assert rc == 0
        assert rss <= base + estimates[0], (rss / 2**20, base / 2**20, estimates[0] / 2**20)


class TestNumericFailures:
    @pytest.mark.parametrize("args", [
        ["lattice", "--scheme", "hex", "--L", "4", "--scenario", "far.json"],
        ["eigs", "--scheme", "hex", "--L", "4", "--scenario", "far.json"],
        ["acf", "--scenario", "far.json"],
        ["lattice", "--scheme", "hex", "--L", "4", "--lambda", "1e200"],
        ["eigs", "--scheme", "hex", "--L", "4", "--lambda", "1e200"],
        ["lattice", "--scheme", "ellipse", "--L", "4", "--a1", "1e-300", "--a2", "1e-300"],
    ], ids=["lattice-far", "eigs-far", "acf-far", "lattice-lambda", "eigs-lambda",
            "tiny-axes"])
    def test_overflow_is_one_numeric_line(self, args, tmp_path):
        # far.json is a scenario at wavelength 1e300; under -W error a numpy
        # overflow warning would be a traceback
        write_scenario(tmp_path / "far.json", broadside_json(40.0, lam=1e300))
        res = run_cli(args + ["--out", "out"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr)["kind"] == "numeric"
        assert not (tmp_path / "out").exists()


# The seeded hostile-input sweep.  Each command runs small; one case makes one
# flag, or one field of a scenario, a boundary value.  Every flag is passed as
# --flag=value, so that a negative exponent such as -1e-3 is read as a value.
BOUNDARY = ["0", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "-1e-3"]
# each command's small flags, and the flags a case may make hostile; a flag case
# gives unit axes, and a scenario case drops them so that its ellipse is fitted
SWEEP = {
    "lattice": ({"--scheme": "ellipse", "--L": "2", "--a1": "1", "--a2": "1"},
                ["--L", "--lambda", "--a1", "--a2", "--phi-deg"]),
    "dof": ({"--support": "ellipse", "--L": "2", "--a1": "1", "--a2": "1"},
            ["--L", "--lambda", "--a1", "--a2", "--phi-deg"]),
    "acf": ({"--rmax": "0.5", "--step": "0.125"}, ["--rmax", "--step", "--lambda"]),
    "eigs": ({"--scheme": "hex", "--L": "2"}, ["--L", "--lambda"]),
    "reconstruct": ({"--a1": "1", "--a2": "1", "--L": "2", "--segment": "1", "--n-waves": "8"},
                    ["--L", "--segment", "--seed", "--n-waves", "--lambda", "--a1", "--phi-deg",
                     "--threshold-db"]),
    "mse-sweep": ({"--a1": "1", "--a2": "1", "--L-list": "1", "--realizations": "2",
                   "--n-waves": "8"},
                  ["--L-list", "--realizations", "--workers", "--seed", "--n-waves", "--lambda",
                   "--a2", "--threshold-db"]),
    "support-fit": ({"--L": "2"}, ["--L", "--threshold-db", "--lambda"]),
}


def hostile_cases():
    """The sweep's ``(argv, scenario document or None)`` cases: 32 flag cases, 16 scenario ones."""
    rng = np.random.default_rng(2109)
    cases = []
    for i in range(48):
        command = str(rng.choice(sorted(SWEEP)))
        small, hostile = SWEEP[command]
        if i < 32:
            flag = str(rng.choice(hostile))
            if flag == "--realizations":  # a huge count is admitted by design, and runs for hours
                values = ["0", "-1", "1", "2"]
            elif flag in ("--seed", "--n-waves", "--workers"):
                values = BOUNDARY + [str(10**12)]
            else:
                values = BOUNDARY
            args, doc = {**small, flag: str(rng.choice(values))}, None
        else:
            cluster = {"weight": 1.0, "theta_deg": 10.0, "phi_deg": 30.0, "alpha": 40.0}
            doc = {"lambda": 1.0, "clusters": [cluster]}
            field = str(rng.choice(["lambda", "weight", "theta_deg", "phi_deg", "alpha"]))
            (doc if field == "lambda" else cluster)[field] = float(rng.choice(BOUNDARY))
            args = {k: v for k, v in small.items() if k not in ("--a1", "--a2")}
            args["--scenario"] = "s.json"
        cases.append(([command, *(f"{k}={v}" for k, v in args.items())], doc))
    return cases


class TestFailureContract:
    def test_hostile_inputs_keep_the_contract(self, tmp_path):
        # exit 0 with nothing on stderr and byte-identical reruns; exit 1 with one
        # numeric or resource JSON line, or exit 2 with one config line, and no --out
        kinds = {1: ("numeric", "resource"), 2: ("config",)}
        broken = []
        for i, (argv, doc) in enumerate(hostile_cases()):
            outputs = []
            for rerun in ("a", "b"):
                cwd = tmp_path / f"{rerun}{i}"
                cwd.mkdir()
                if doc is not None:
                    write_scenario(cwd / "s.json", doc)
                res = run_cli(argv + ["--out=out"], cwd)
                out = cwd / "out"
                if res.returncode == 0:
                    if res.stderr:
                        broken.append((argv, doc, res.stderr))
                    outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
                    continue
                try:
                    kind = json.loads(res.stderr)["kind"]
                except (ValueError, KeyError, TypeError):
                    kind = None
                if kind not in kinds.get(res.returncode, ()) or out.exists():
                    broken.append((argv, doc, res.returncode, res.stderr))
                break
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                broken.append((argv, doc, "reran to other bytes"))
        assert not broken


# the names fieldsamp exports, by home module, besides the six public submodules
EXPORTS = {
    "_quad": "ConvergenceError",
    "geometry": "EllipseShape Region SpectralSupport Wavenumber WaveVector kz migration_filter"
                " rotation_matrix support_contains support_measure wavevector_from_angles",
    "lattice": "MIRRORS LatticePointSet PeriodicityMatrix SamplingMatrix alias_free density"
               " efficiency_gain enumerate_lattice mirror_permutations nyquist_density"
               " nyquist_ellipse nyquist_hex nyquist_rect periodicity_from_sampling"
               " sampling_from_periodicity",
    "kernels": "Kernel bessel_j1 jinc kernel_disk kernel_ellipse kernel_oracle kernel_rect",
    "scattering": "ScatteringScenario VmfCluster psd spectral_factor_sq"
                  " support_area_at_threshold support_at_threshold",
    "statfield": "Acf ClarkeAcf EnergyReport FieldRealization NumericAcf acf_clarke acf_numeric"
                 " average_energy synthesize",
    "analysis": "AutocorrMatrix DofReport EigenSpectrum MseReport build_autocorr_matrix"
                " count_wavenumber_modes dof dof_loss_rect_vs_disk eigen_spectrum"
                " mse_experiment mse_sweep power_capture_count reconstruct",
}


class TestImports:
    def test_package_import_loads_no_numpy(self, tmp_path):
        res = run_python(["-c", "import os, sys, fieldsamp; print('numpy' in sys.modules,"
                          " os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"],
                         tmp_path, env={"OPENBLAS_THREAD_TIMEOUT": None})
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False", "None"]

    def test_exports_resolve_to_their_home_modules(self):
        import importlib
        import fieldsamp
        submodules = [m for m in EXPORTS if not m.startswith("_")]
        assert len(fieldsamp.__all__) == 68
        assert sorted(fieldsamp.__all__) == sorted(
            [*submodules, *(n for names in EXPORTS.values() for n in names.split())])
        assert set(fieldsamp.__all__) <= set(dir(fieldsamp))
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"fieldsamp.{module}")
            if module in submodules:
                assert getattr(fieldsamp, module) is home
            for name in names.split():
                assert getattr(fieldsamp, name) is getattr(home, name)
        with pytest.raises(AttributeError):
            fieldsamp.no_such_name

    @pytest.mark.parametrize("given, seen", [(None, "16"), ("28", "28")])
    def test_cli_sets_a_short_blas_spin_unless_given(self, tmp_path, given, seen):
        res = run_python(["-c", "import os, fieldsamp.cli;"
                          " print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"],
                         tmp_path, env={"OPENBLAS_THREAD_TIMEOUT": given})
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == [seen]

    def test_runs_leave_numpy_ma_unimported(self, tmp_path, scen40):
        # np.unique without an index output imports numpy.ma (numpy 2.x), about
        # 1 MB of traced memory; at 8 wavelengths the hex quadrant rows take
        # the period build, whose np.unique asks for the first indices
        code = "\n".join([
            "import sys",
            "from fieldsamp import cli",
            f"assert cli.main(['mse-sweep', '--scenario', {scen40!r}, '--L-list', '2,8',"
            " '--realizations', '2', '--n-waves', '16', '--out', 'm']) == 0",
            "assert cli.main(['eigs', '--scheme', 'hex', '--L', '4', '--acf', 'numeric',"
            f" '--scenario', {scen40!r}, '--out', 'e']) == 0",
            "print('numpy.ma' in sys.modules)",
        ])
        res = run_python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False"]
        probe = run_python(["-c", "import sys, numpy as np; np.unique(np.zeros((3, 2)), axis=0);"
                            " print('numpy.ma' in sys.modules)"], tmp_path)
        assert probe.stdout.split() == ["True"]


class TestSidecars:
    def test_config_written_with_resolved_values(self, tmp_path, scen40):
        res = run_cli(["eigs", "--scheme", "hex", "--L", "2",
                       "--scenario", scen40, "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        cfg = read_json(tmp_path / "out" / "eigs_config.json")
        assert cfg["command"] == "eigs"
        assert cfg["L"] == 2.0
        assert cfg["version"]
        assert len(cfg["scenario_hash"]) == 64

    @pytest.mark.parametrize("args, resolved", [
        (["lattice", "--scheme", "ellipse", "--L", "2"], ["resolved_sampling_matrix"]),
        (["dof", "--support", "ellipse", "--L", "2"], []),
        (["acf", "--rmax", "0.25"], []),
        (["eigs", "--scheme", "rect", "--L", "2"], []),
        (["reconstruct", "--L", "2", "--segment", "1", "--n-waves", "16"], ["ellipse"]),
        (["mse-sweep", "--L-list", "1", "--realizations", "2", "--n-waves", "16"],
         ["ellipse", "schemes"]),
        (["support-fit"], []),
    ], ids=["lattice", "dof", "acf", "eigs", "reconstruct", "mse-sweep", "support-fit"])
    def test_every_command_names_its_scenario(self, args, resolved, tmp_path, scen40):
        res = run_cli(args + ["--scenario", scen40, "--out", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        cfg = read_json(tmp_path / "out" / f"{args[0].replace('-', '_')}_config.json")
        assert cfg["command"] == args[0]
        assert cfg["version"]
        assert cfg["scenario_hash"] == ScatteringScenario.from_json(scen40).scenario_hash
        assert set(cfg) == set(vars(cli.build_parser().parse_args(args))) - {"func"} | {
            "version", "scenario_hash", *resolved}
        if args[0] == "mse-sweep":  # the resolved sides, not the flag's text
            assert cfg["L_list"] == [1.0]


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, scen40, scen2):
        # eigs.csv does depend on the thread count (README): the eigensolver's
        # round-off does; no output depends on the idle spin, OpenBLAS's own
        # default 28 against the CLI's 16.  The second eigs job is the
        # directional-eigs benchmark's.
        runs = {"1": {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_THREAD_TIMEOUT": None},
                "2": {"OPENBLAS_NUM_THREADS": "2", "OPENBLAS_THREAD_TIMEOUT": None},
                "2s": {"OPENBLAS_NUM_THREADS": "2", "OPENBLAS_THREAD_TIMEOUT": "28"}}
        outputs = {}
        for label, env in runs.items():
            for args, out in ((["mse-sweep", "--scenario", scen40, "--L-list", "2,8",
                                "--realizations", "16", "--n-waves", "128"], "m"),
                              (["eigs", "--scheme", "hex", "--L", "20"], "e"),
                              (["eigs", "--scheme", "hex", "--L", "12", "--acf", "numeric",
                                "--scenario", scen2], "d")):
                res = run_cli(args + ["--out", label + out], tmp_path, env=env)
                assert res.returncode == 0, res.stderr
            outputs[label] = [(tmp_path / (label + out) / name).read_bytes()
                              for out, name in (("m", "mse_sweep.csv"),
                                                ("e", "eigs_summary.json"),
                                                ("d", "eigs_summary.json"),
                                                ("e", "eigs.csv"),
                                                ("d", "eigs.csv"))]
        assert outputs["1"][:3] == outputs["2"][:3]
        assert outputs["2s"] == outputs["2"]

    def test_other_commands_do_not_depend_on_the_thread_count(self, tmp_path, scen40, scen2):
        jobs = [["lattice", "--scheme", "ellipse", "--L", "20", "--scenario", scen2],
                ["dof", "--support", "ellipse", "--L", "20", "--scenario", scen2],
                ["acf", "--rmax", "3", "--scenario", scen2],
                ["acf", "--rmax", "6", "--step", "0.03125", "--scenario", scen40],
                ["reconstruct", "--L", "40", "--scenario", scen40],
                ["reconstruct", "--L", "20", "--scenario", scen2],
                ["support-fit", "--L", "20", "--scenario", scen2]]
        outputs = {}
        for threads in ("1", "2"):
            # the same --out under each thread count, so the sidecars match too
            cwd = tmp_path / threads
            cwd.mkdir()
            for i, args in enumerate(jobs):
                res = run_cli(args + ["--out", str(i)], cwd,
                              env={"OPENBLAS_NUM_THREADS": threads})
                assert res.returncode == 0, res.stderr
            outputs[threads] = {str(p.relative_to(cwd)): p.read_bytes()
                                for p in sorted(cwd.rglob("*")) if p.is_file()}
        assert len(outputs["1"]) == 17
        assert outputs["1"] == outputs["2"]
