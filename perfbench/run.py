"""fieldsamp benchmark: real CLI jobs end to end, library layers by a traced replay.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mse-sweep --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one summary each
    python3 perfbench/run.py --record                # rewrite reference.json

With ``--trace 0`` the run first times fresh interpreters importing
``fieldsamp.cli`` (``setup_s``), then runs the workload's CLI job, one
fresh process at a time, until ``--seconds`` would be exceeded; it always
runs at least one.  Each job is timed from spawn to exit, its CPU time and
peak RSS come from ``os.wait4``, and its outputs are checked.  With
``--trace 1`` the run replays the job through the library API instead and
reports per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import Span, layer_metrics  # noqa: E402
from workloads import WORKLOADS, nproc, write_scenario  # noqa: E402

DEFAULT_SEED = 42
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 120.0  # keeps a run with a hung job under 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


# -- statistics ----------------------------------------------------------------


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of ``n`` samples beyond it, if any."""
    for p in TAIL_PERCENTILES:
        if n - _rank(n, p) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(len(values), p) - 1]


def summarize(values) -> dict:
    """Median and sample count, plus the tail percentile when enough samples back it."""
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


# -- processes -----------------------------------------------------------------


def job_env() -> dict:
    """The caller's environment with an absolute ``src`` first on PYTHONPATH.

    Thread variables are passed through as found, never set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, env, cwd, log_path, timeout=JOB_TIMEOUT_S) -> dict:
    """Run one child to completion: wall time from spawn to exit, and its rusage."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}


def measure_setup(env, work) -> list[float]:
    """Wall times of fresh interpreters importing the CLI, after one untimed warm-up."""
    argv = [sys.executable, "-c", "import fieldsamp.cli"]
    log = os.path.join(work, "setup.log")
    times = []
    for i in range(SETUP_REPEATS + 1):
        r = run_process(argv, env, work, log)
        if r["returncode"] != 0:
            raise RuntimeError(f"importing fieldsamp.cli failed: {_tail(log)}")
        if i:
            times.append(r["wall_s"])
    return times


def _tail(path, lines=5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().splitlines()[-lines:])


def run_cli_job(wl, scenario_path, seed, env, work, tag) -> tuple[dict, dict | None, str | None]:
    """Run one CLI job; returns its measurements and its output table, or why there is none."""
    outdir = os.path.join(work, tag)
    log = outdir + ".log"
    argv = [sys.executable, "-m", "fieldsamp", *wl.argv(scenario_path, seed), "--out", outdir]
    r = run_process(argv, env, work, log)
    if r["returncode"] != 0:
        return r, None, f"exit code {r['returncode']}: {_tail(log)}"
    try:
        return r, checks.read_table(wl.kind, outdir), None
    except (OSError, KeyError, ValueError) as exc:
        return r, None, f"unreadable outputs: {exc}"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


# -- runs ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    env = {"seed": seed, "nproc": nproc(), "blas": blas.get("name"),
           "blas_version": blas.get("version"), "numpy": numpy.__version__,
           "python": platform.python_version()}
    env.update({v: os.environ.get(v) for v in THREAD_VARS})
    return env


def untraced_run(wl, seed, seconds, work, reference) -> dict:
    env = job_env()
    setup = measure_setup(env, work)
    scenario_path = write_scenario(wl, work)
    jobs, problems = [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        r, table, error = run_cli_job(wl, scenario_path, seed, env, work, f"job{attempted}")
        bad = [error] if error else checks.check(wl, table, seed, reference)
        attempted += 1
        if bad:
            problems += [f"job {attempted}: {p}" for p in bad]
        else:
            jobs.append(r)
        expected = statistics.median(j["wall_s"] for j in jobs) if jobs else r["wall_s"]
        if time.perf_counter() - start + expected > seconds:
            break
    samples = {
        "setup_s": (setup, "s"),
        "job_s": ([j["wall_s"] for j in jobs], "s"),
        "cpu_s": ([j["cpu_s"] for j in jobs], "s"),
        "peak_rss_mb": ([j["rss_mb"] for j in jobs], "MB"),
    }
    return {"attempted": attempted, "failed": attempted - len(jobs),
            "problems": problems, "samples": samples}


def traced_result(wl, seed, work, reference) -> dict:
    """Replay the job in two fresh processes, untraced then traced."""
    env = job_env()
    scenario_path = write_scenario(wl, work)
    replays, problems, failed = [], [], 0
    for trace in (0, 1):
        out = os.path.join(work, f"replay{trace}.json")
        log = os.path.join(work, f"replay{trace}.log")
        argv = [sys.executable, os.path.join(HERE, "replay.py"), "--workload", wl.name,
                "--seed", str(seed), "--trace", str(trace), "--out", out]
        if scenario_path is not None:
            argv += ["--scenario", scenario_path]
        r = run_process(argv, env, work, log)
        if r["returncode"] != 0:
            raise RuntimeError(f"replay with --trace {trace} failed: {_tail(log)}")
        with open(out) as fh:
            replays.append(json.load(fh))
        bad = checks.check(wl, replays[-1]["table"], seed, reference)
        failed += bool(bad)
        problems += [f"replay {trace + 1}: {p}" for p in bad]
    spans = [Span(**s) for s in replays[1]["spans"]]
    with open(os.path.join(STATE, f"trace-{wl.name}-seed{seed}.json"), "w") as fh:
        json.dump(replays[1]["spans"], fh)
    metrics = layer_metrics(spans, replays[0]["replay_s"], replays[1]["replay_s"])
    return {"attempted": len(replays), "failed": failed, "problems": problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(wl, res) -> dict:
    """Print the human-readable summary and return the result object."""
    for p in res["problems"]:
        print(f"{wl.name}: FAILED {p}", file=sys.stderr)
    metrics = res.get("metrics")
    if metrics is None:
        metrics = {}
        for name, (values, unit) in res["samples"].items():
            if not values:
                continue
            s = summarize(values)
            metrics[name] = {"value": s["median"], "unit": unit}
            extra = "".join(f" {k}={v!r}" for k, v in s.items() if k.startswith("p"))
            print(f"{wl.name} {name} median={s['median']!r} {unit} n={s['n']}{extra}")
        print(f"{wl.name} failed_frac={res['failed'] / res['attempted']!r} "
              f"({res['failed']}/{res['attempted']} jobs)")
    else:
        for name, m in metrics.items():
            print(f"{wl.name} {name}={m['value']!r} {m['unit']}")
    return {"correct": res["failed"] == 0 and bool(metrics), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def record_reference(work) -> None:
    """Run each workload's job once at the default seed and store its tables."""
    env = job_env()
    tables = {}
    for wl in WORKLOADS.values():
        scenario_path = write_scenario(wl, work)
        _, table, error = run_cli_job(wl, scenario_path, DEFAULT_SEED, env, work, wl.name)
        if error:
            raise RuntimeError(f"{wl.name}: {error}")
        tables[wl.name] = checks.reference_entry(table, wl.kind)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "tables": tables}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current build")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fieldsamp", "__init__.py")):
        print(f"fieldsamp sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    os.makedirs(STATE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        if args.record:
            record_reference(work)
            return 0
        print(json.dumps({"env": environment(args.seed)}))
        reference = checks.load_reference()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        correct = True
        for name in names:
            wl = WORKLOADS[name]
            if args.trace:
                res = traced_result(wl, args.seed, work, reference)
            else:
                res = untraced_run(wl, args.seed, args.seconds, work, reference)
            result = report(wl, res)
            correct = correct and result["correct"]
            print(json.dumps(result), flush=True)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
