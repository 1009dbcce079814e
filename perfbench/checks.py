"""Output checks for every benchmark job.

A job passes when its tables hold the properties that do not depend on the
seed and, where the reference in ``reference.json`` applies, agree with
the tables recorded from a known-good build.  MSE tables depend on the
seed, so they meet the reference only at its seed; eigen-spectra take no
seed and meet it always.
"""

from __future__ import annotations

import csv
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# 1e-8 dB is a relative MSE change of 2e-9: round-off from a reordered sum
# stays far below it, while one changed wave draw among 100 realizations
# moves a figure by about 1e-2 dB.
MSE_DB_TOL = 1e-8
# Per-entry error allowed in the autocorrelation matrix.  By Weyl's
# inequality each eigenvalue then moves by at most N times this.  The sinc
# ACF is closed form, so only round-off is allowed; the numeric ACF is
# allowed its own quadrature tolerance (NumericAcf's default, 1e-6).
ACF_ENTRY_TOL = {"clarke": 1e-12, "numeric": 1e-6}
# The eigenvalues sum to the trace, N, up to round-off and the clamping of
# tiny negative eigenvalues.
TRACE_REL_TOL = 1e-9


def read_table(kind: str, outdir: str) -> dict:
    """Parse a job's output files into the table the checks compare."""
    if kind == "mse":
        with open(os.path.join(outdir, "mse_sweep.csv"), newline="") as fh:
            rows = [[float(r["L_over_lambda"]), r["scheme"], float(r["normalized_mse_db"])]
                    for r in csv.DictReader(fh)]
        return {"rows": rows}
    with open(os.path.join(outdir, "eigs.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(outdir, "eigs_summary.json")) as fh:
        summary = json.load(fh)
    return {
        "n_points": summary["n_points"],
        "count_997": summary["count_997"],
        "count_999": summary["count_999"],
        "eigenvalues": [float(r["eigenvalue"]) for r in rows],
        "eigenvalue_db": [float(r["eigenvalue_db"]) for r in rows],
        "cumulative_fraction": [float(r["cumulative_fraction"]) for r in rows],
    }


def reference_entry(table: dict, kind: str) -> dict:
    """The part of a table kept as reference."""
    if kind == "mse":
        return {"rows": table["rows"]}
    return {k: table[k] for k in ("n_points", "count_997", "count_999", "eigenvalues")}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_mse(table: dict, ref: dict, compare: bool) -> list[str]:
    """Problems with an MSE table; ``compare`` also matches the reference values."""
    rows = table["rows"]
    keys = [(r[0], r[1]) for r in rows]
    if keys != [(r[0], r[1]) for r in ref["rows"]]:
        return [f"MSE rows {keys} differ from the reference's (L, scheme) pairs"]
    problems = [f"non-finite MSE at L={r[0]} {r[1]}: {r[2]}" for r in rows if not math.isfinite(r[2])]
    curves: dict[str, list[tuple[float, float]]] = {}
    for side, scheme, db in rows:
        curves.setdefault(scheme, []).append((side, db))
    for scheme, curve in curves.items():
        curve.sort()
        for (s0, d0), (s1, d1) in zip(curve, curve[1:]):
            if d1 > d0:
                problems.append(f"{scheme} MSE rises from L={s0:g} ({d0:.6f} dB) "
                                f"to L={s1:g} ({d1:.6f} dB)")
    if compare:
        for (side, scheme, db), (_, _, want) in zip(rows, ref["rows"]):
            if not abs(db - want) <= MSE_DB_TOL:
                problems.append(f"MSE at L={side:g} {scheme} is {db!r} dB, "
                                f"reference {want!r} dB (tolerance {MSE_DB_TOL:g})")
    return problems


def check_eigs(table: dict, ref: dict, acf: str) -> list[str]:
    """Problems with an eigen-spectrum table, reference values included."""
    vals = table["eigenvalues"]
    n = table["n_points"]
    if n != ref["n_points"] or len(vals) != n:
        return [f"{len(vals)} eigenvalues over {n} points; reference has {ref['n_points']} points"]
    problems = []
    if not all(math.isfinite(v) and v >= 0.0 for v in vals):
        problems.append("eigenvalues must be finite and non-negative")
    if any(b > a for a, b in zip(vals, vals[1:])):
        problems.append("eigenvalues are not in descending order")
    if not all(math.isfinite(c) for c in table["cumulative_fraction"]):
        problems.append("non-finite cumulative fraction")
    if not all(math.isfinite(d) or (v == 0.0 and d == -math.inf)
               for v, d in zip(vals, table["eigenvalue_db"])):
        problems.append("eigenvalue_db is non-finite where the eigenvalue is not zero")
    total = math.fsum(vals)
    if not abs(total - n) <= TRACE_REL_TOL * n:
        problems.append(f"eigenvalues sum to {total!r}, not N={n}")
    for key in ("count_997", "count_999"):
        if table[key] != ref[key]:
            problems.append(f"{key} is {table[key]}, reference {ref[key]}")
    tol = n * ACF_ENTRY_TOL[acf]
    worst = max(abs(a - b) for a, b in zip(vals, ref["eigenvalues"]))
    if not worst <= tol:
        problems.append(f"eigenvalues differ from the reference by up to {worst:.3e} "
                        f"(tolerance {tol:.3e})")
    return problems


def check(wl, table: dict, seed: int, reference: dict) -> list[str]:
    """Every problem with one job's outputs; an empty list means it passed."""
    ref = reference["tables"][wl.name]
    if wl.kind == "mse":
        return check_mse(table, ref, compare=seed == reference["seed"])
    return check_eigs(table, ref, wl.acf)
