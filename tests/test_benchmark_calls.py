"""The benchmark's worker still drives the package: every workload of
perfbench, run once with its layer tracing on, ends with no failed verdict.

A renamed or re-signed entry point (catalog.run_check, run_suite,
spectrum.default_study) or a missing patch target of the tracer (such as
spectrum.eig_banded) fails a verdict or crashes the worker.  The worker
prints one JSON line and writes no file.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["proofs", "cli_all", "spectrum"])
def test_perfbench_workload_passes_traced(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), "--src", "src",
         "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    assert result["layers"]
