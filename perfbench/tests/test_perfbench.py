"""Tests of the benchmark's own logic: spans, output checks, sample statistics."""

import copy
import math
import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import MB, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = checks.load_reference()


def span(i, name, start, end, parent=None, count=0):
    return Span(id=i, name=name, start=start, end=end, parent=parent, count=count)


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(0, "analysis.mse", 0.0, 10.0),
        span(1, "kernels.eval", 1.0, 3.0, parent=0),
        span(2, "kernels.eval", 2.0, 4.0, parent=0),   # overlaps the first child
        span(3, "kernels.eval", 9.0, 12.0, parent=0),  # runs past the parent's end
        span(4, "inner", 1.5, 2.5, parent=1),          # a grandchild counts once
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span(0, "scattering.fit", 0.0, 0.5),
        span(1, "lattice.enumerate", 0.5, 0.6, count=40),
        span(2, "analysis.mse", 1.0, 11.0),
        span(3, "kernels.eval", 1.0, 3.0, parent=2, count=100),
        span(4, "kernels.eval", 3.0, 4.0, parent=2, count=50),
        span(5, "lattice.enumerate", 11.0, 11.25, count=60),
        span(6, "analysis.mse", 12.0, 14.0),
        span(7, "kernels.eval", 12.0, 12.5, parent=6, count=400),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, untraced_s=10.0, traced_s=11.0).items()}
    assert m["lattice.enumerate_s"] == pytest.approx(0.35)
    assert m["lattice.points"] == 100
    assert m["kernels.eval_s"] == pytest.approx(3.5)
    assert m["kernels.evals"] == 550
    assert m["kernels.matrix_mb"] == pytest.approx(400 * 8 / MB)
    assert m["analysis.mse_s"] == pytest.approx(12.0)
    assert m["analysis.mse_self_s"] == pytest.approx(12.0 - 3.5)
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    for absent in ("statfield.acf_eval_s", "statfield.acf_disps", "analysis.autocorr_s",
                   "analysis.eigen_n", "statfield.synth_terms"):
        assert m[absent] == 0


def test_nested_span_peaks_survive_the_child_resetting_the_peak():
    tracer = Tracer()
    tracemalloc.start()
    try:
        with tracer.span("outer") as outer:
            before = bytearray(2 * 2 ** 20)
            with tracer.span("inner") as inner:
                scratch = bytearray(8 * 2 ** 20)
                del scratch
            del before
    finally:
        tracemalloc.stop()
    assert 8.0 <= inner.peak_mb < 9.0
    assert 10.0 <= outer.peak_mb < 11.0
    assert inner.parent == outer.id and outer.parent is None


# -- output checks ---------------------------------------------------------------


def eigs_table(ref):
    vals = ref["eigenvalues"]
    total = math.fsum(vals)
    cum, acc = [], 0.0
    for v in vals:
        acc += v
        cum.append(acc / total)
    db = [10.0 * math.log10(v / vals[0]) if v > 0.0 else -math.inf for v in vals]
    return dict(ref, eigenvalue_db=db, cumulative_fraction=cum)


def reference_table(name):
    ref = copy.deepcopy(REFERENCE["tables"][name])
    return ref if WORKLOADS[name].kind == "mse" else eigs_table(ref)


def write_cli_outputs(outdir, name, table):
    """Write a table in the CLI's output format (shortest round-trip floats)."""
    os.makedirs(outdir)
    if WORKLOADS[name].kind == "mse":
        lines = ["L_over_lambda,scheme,normalized_mse_db"]
        lines += [f"{s!r},{scheme},{db!r}" for s, scheme, db in table["rows"]]
        with open(os.path.join(outdir, "mse_sweep.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    lines = ["rank,eigenvalue,eigenvalue_db,cumulative_fraction"]
    lines += [f"{i + 1},{v!r},{d!r},{c!r}" for i, (v, d, c) in enumerate(
        zip(table["eigenvalues"], table["eigenvalue_db"], table["cumulative_fraction"]))]
    with open(os.path.join(outdir, "eigs.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(outdir, "eigs_summary.json"), "w") as fh:
        fh.write('{"n_points": %d, "count_997": %d, "count_999": %d}'
                 % (table["n_points"], table["count_997"], table["count_999"]))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_accepts_the_recorded_outputs(tmp_path, name):
    outdir = str(tmp_path / name)
    write_cli_outputs(outdir, name, reference_table(name))
    table = checks.read_table(WORKLOADS[name].kind, outdir)
    assert checks.check(WORKLOADS[name], table, REFERENCE["seed"], REFERENCE) == []


@pytest.mark.parametrize("name", ["mse-sweep", "mse-oneshot"])
def test_mse_round_off_passes_and_a_changed_draw_fails(name):
    wl, seed = WORKLOADS[name], REFERENCE["seed"]
    reordered = reference_table(name)
    for row in reordered["rows"]:
        row[2] += 10.0 * math.log10(1.0 + 1e-13)  # a reordered sum moves the MSE by ~1 ulp
    assert checks.check(wl, reordered, seed, REFERENCE) == []

    redrawn = reference_table(name)
    redrawn["rows"][-1][2] += 0.01  # one changed wave draw moves a figure by ~1e-2 dB
    assert checks.check(wl, redrawn, seed, REFERENCE)
    # other seeds draw other waves, so the reference values do not apply there
    assert checks.check(wl, redrawn, seed + 1, REFERENCE) == []


def test_mse_must_fall_with_L_at_any_seed():
    table = reference_table("mse-sweep")
    rows = table["rows"]
    # swap the L=2 and L=16 figures of one scheme
    first = next(r for r in rows if r[0] == 2.0 and r[1] == "hex")
    last = next(r for r in rows if r[0] == 16.0 and r[1] == "hex")
    first[2], last[2] = last[2], first[2]
    problems = checks.check(WORKLOADS["mse-sweep"], table, REFERENCE["seed"] + 1, REFERENCE)
    assert any("hex MSE rises" in p for p in problems)


def test_mse_must_be_finite_and_cover_every_cell():
    wl, seed = WORKLOADS["mse-oneshot"], REFERENCE["seed"] + 1
    table = reference_table("mse-oneshot")
    table["rows"][0][2] = math.nan
    assert checks.check(wl, table, seed, REFERENCE)
    table = reference_table("mse-oneshot")
    del table["rows"][1]
    assert checks.check(wl, table, seed, REFERENCE)


@pytest.mark.parametrize("name", ["dof-spectrum", "directional-eigs"])
def test_eigs_perturbations_fail(name):
    wl, seed = WORKLOADS[name], REFERENCE["seed"]
    n = REFERENCE["tables"][name]["n_points"]
    tol = n * checks.ACF_ENTRY_TOL[wl.acf]

    within = reference_table(name)
    within["eigenvalues"][0] += 0.5 * tol
    within["eigenvalues"][1] -= 0.5 * tol  # keeps the trace
    assert checks.check(wl, within, seed, REFERENCE) == []

    beyond = reference_table(name)
    beyond["eigenvalues"][0] += 2.0 * tol
    beyond["eigenvalues"][1] -= 2.0 * tol
    assert any("differ from the reference" in p for p in checks.check(wl, beyond, seed, REFERENCE))

    counts = reference_table(name)
    counts["count_999"] += 1
    assert any("count_999" in p for p in checks.check(wl, counts, seed, REFERENCE))

    trace = reference_table(name)
    trace["eigenvalues"][0] += 1e-3 * n
    assert any("sum to" in p for p in checks.check(wl, trace, seed, REFERENCE))

    negative = reference_table(name)
    negative["eigenvalues"][-1] = -1e-3
    assert checks.check(wl, negative, seed, REFERENCE)


# -- sample statistics -----------------------------------------------------------


@pytest.mark.parametrize("n, p", [(1, None), (9, None), (39, None), (40, 75.0),
                                  (100, 90.0), (199, 90.0), (200, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, p):
    assert run.tail_percentile(n) == p


def test_summary_reports_median_count_and_tail_only_when_backed():
    few = run.summarize([3.0, 1.0, 2.0, 10.0])
    assert few == {"median": 2.5, "n": 4}
    many = run.summarize([float(v) for v in range(1, 41)])
    assert many == {"median": 20.5, "n": 40, "p75": 30.0}
