"""The benchmark's traced replay still runs on the package under test.

``perfbench/replay.py`` calls the library API directly (``mse_experiment``
with ``workers``, an ``Acf`` subclass, ``Kernel(support, peak, fn)``), so a
library change can break it where no CLI test looks.  Each workload's
replay runs once in a fresh process, and its table must pass the
benchmark's own output checks against the recorded reference.  So must
each workload's CLI job, the outputs the benchmark itself checks.
"""

import json
import os
import sys

import pytest

from helpers import run_cli, run_python

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402

SEED = 42


@pytest.mark.parametrize("name, trace", [(name, 0) for name in WORKLOADS]
                         + [("dof-spectrum", 1)])
def test_replay_table_passes_the_benchmark_checks(tmp_path, name, trace):
    wl, out = WORKLOADS[name], tmp_path / "replay.json"
    argv = [os.path.join(PERFBENCH, "replay.py"), "--workload", name, "--seed", SEED,
            "--trace", trace, "--out", out]
    scenario = write_scenario(wl, str(tmp_path))
    if scenario is not None:
        argv += ["--scenario", scenario]
    res = run_python(argv, tmp_path)
    assert res.returncode == 0, res.stderr
    result = json.loads(out.read_text())
    assert checks.check(wl, result["table"], SEED, checks.load_reference()) == []
    assert bool(result["spans"]) == bool(trace)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_cli_job_passes_the_benchmark_checks(tmp_path, name):
    # the benchmark checks the CLI's outputs, whose MSE sweep shares one build
    # across cells and so agrees with the replay's per-cell MSE only to round-off
    wl, out = WORKLOADS[name], tmp_path / "out"
    res = run_cli([*wl.argv(write_scenario(wl, str(tmp_path)), SEED), "--out", out], tmp_path)
    assert res.returncode == 0, res.stderr
    table = checks.read_table(wl.kind, str(out))
    assert checks.check(wl, table, SEED, checks.load_reference()) == []
