"""Golden reports: the exact engine's output, byte for byte.

Each file under tests/golden/ is one ``verify --format json`` report with
its timings removed (``report.strip_elapsed``): every suite, in one spin
mode, under one ``--mu`` lens.  ``scans.txt`` holds the summary lines of
the ``inverse`` and ``spin-potential`` commands.  Only exact engine output
goes in, never an oracle residual or a spectrum float, so any change to
the engine's arithmetic, normal form or printing that moves a status, a
witness or a basis fails here.

    python tests/test_golden.py

rewrites the files from the current code; do that only for a change that
is meant to alter the reports, and say so where the change is recorded.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from so4atom import cli, report

GOLDEN = Path(__file__).resolve().parent / "golden"
SPINS = ("abstract", "half")
LENSES = (None, "symbolic", "0", "1", "all")
SCANS = ("inverse", "spin-potential")


def _name(spin, mu):
    return "verify-%s-mu-%s.json" % (spin, mu or "declared")


def verify_report(spin, mu, tmp_dir):
    out = Path(tmp_dir) / "report.json"
    argv = ["verify", "--spin", spin, "--format", "json", "--out", str(out)]
    if mu is not None:
        argv += ["--mu", mu]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return report.strip_elapsed(out.read_text(encoding="utf-8"))


def scan_lines():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for name in SCANS:
            cli.main([name])
    return buf.getvalue()


@pytest.mark.parametrize("mu", LENSES, ids=lambda m: m or "declared")
@pytest.mark.parametrize("spin", SPINS)
def test_verify_report_is_golden(spin, mu, tmp_path):
    want = (GOLDEN / _name(spin, mu)).read_text(encoding="utf-8")
    assert verify_report(spin, mu, tmp_path) == want


def test_scan_lines_are_golden():
    assert scan_lines() == (GOLDEN / "scans.txt").read_text(encoding="utf-8")


def _rewrite():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for spin in SPINS:
            for mu in LENSES:
                (GOLDEN / _name(spin, mu)).write_text(verify_report(spin, mu, tmp),
                                                      encoding="utf-8")
    (GOLDEN / "scans.txt").write_text(scan_lines(), encoding="utf-8")


if __name__ == "__main__":
    _rewrite()
    sys.exit(0)
