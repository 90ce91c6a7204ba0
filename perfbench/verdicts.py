"""Known answers, and the scoring of each verdict against them.

The answers are transcribed from the acceptance gate
(tests/test_acceptance.py), never read back from the code under test: the
sizes and exact zeros of so3 and so4, the theorem chain, the refuted
mutations, the two scan bases, the oracle tolerance for kept identities
the spectrum tolerance, and the number of sectors in the default study.
A scoring function returns a list of
Verdict; a numeric verdict carries its margin, the ratio of its error to
its tolerance.
"""

from collections import namedtuple

Verdict = namedtuple("Verdict", "ok label margin")

SUITE_SIZES = {"so3": 22, "so4": 14}            # test_01
EXACT_ZERO_SUITES = ("so3", "so4")              # test_01: status pass, symbolic zero
THEOREM_CORE = (                                # test_03
    "J_recast", "JJ_cov_xy", "JPi_cov_xy", "Jr_cov_xy", "JS_cov_xy",
    "RxR_master", "RR_closure", "V_from_constraint", "J_Ham", "R_Ham",
)
SCAN_BASES = {                                  # test_02, test_04
    "inverse": ("r^-1",),
    "spin": ("r^-1", "(r.S)*r^-2"),
}
ORACLE_TOL = 1e-8                               # test_05: kept identities
SPECTRUM_TOL = 1e-3                             # test_06, test_07
SECTORS_PER_STUDY = 10          # default_study: mu=0 l=0..3, mu=1 j=1/2,3/2 at three k2


def suite(name, results):
    """Results of one suite at its declared mu policies, one mode."""
    out = []
    if name in SUITE_SIZES:
        want = SUITE_SIZES[name]
        out.append(Verdict(len(results) == want, "%s has %d checks" % (name, want), None))
    for r in results:
        if name in EXACT_ZERO_SUITES:
            ok = r.status == "pass" and r.symbolic_zero is True
        else:
            ok = r.ok is True
        out.append(Verdict(ok, "%s %s %s" % (name, r.check_id, r.status), None))
    return out


def theorem_lens(mu, results):
    """theorem under an explicit mu lens: no declared claim may fail.

    A lens may skip a check or report it failing at the lens while its
    declared claim holds; at mu=1 the core chain must pass outright, and at
    mu=0 all but at most one of it.
    """
    out = []
    for r in results:
        ok = r.ok is None if r.status == "skipped" else r.ok is True
        if mu == "1" and r.check_id in THEOREM_CORE:
            ok = ok and r.status == "pass"
        if mu == "0" and r.check_id in THEOREM_CORE:
            ok = ok and r.status in ("pass", "skipped")
        out.append(Verdict(ok, "theorem mu=%s %s %s" % (mu, r.check_id, r.status), None))
    if mu == "0":
        passing = sum(1 for r in results if r.check_id in THEOREM_CORE and r.status == "pass")
        out.append(Verdict(passing >= len(THEOREM_CORE) - 1, "theorem mu=0 passes %d of %d "
                           "core checks" % (passing, len(THEOREM_CORE)), None))
    if mu == "symbolic":
        ok = any(r.status == "fail" and r.ok for r in results)
        out.append(Verdict(ok, "theorem mu=symbolic records a lens failure", None))
    return out


def mutation(check_id, result):
    """A planted wrong variant must be refuted."""
    return [Verdict(result.ok is False, "mutation %s %s" % (check_id, result.status), None)]


def scan(kind, sol):
    want = SCAN_BASES[kind]
    ok = (sol.basis_text == want and sol.dimension == len(want) and sol.verified
          and not sol.hidden_pairs and not sol.conflicting_pairs)
    return [Verdict(ok, "%s scan basis %s" % (kind, sol.basis_text), None)]


def residual(report):
    """A kept identity's oracle residual, against the acceptance tolerance."""
    margin = report.max_rel_residual / ORACLE_TOL
    return [Verdict(margin < 1.0, "oracle %s %.3e" % (report.check_id,
                                                       report.max_rel_residual), margin)]


def sector(rows, matched):
    """One spectrum sector: matched, and every row inside the tolerance."""
    margin = max((row.rel_error for row in rows), default=0.0) / SPECTRUM_TOL
    ok = bool(matched) and bool(rows) and margin <= 1.0
    label = "sector %s: %d rows" % (rows[0].sector_j if rows else "?", len(rows))
    return [Verdict(ok, label, margin)]


def exit_code(code):
    return [Verdict(code == 0, "so4atom all exit code %r" % (code,), None)]


def expect(kind, got, want):
    """Each of `want` expected calls that did not happen is a failed
    verdict; calls beyond `want` add one more."""
    out = [Verdict(False, "missing %s %d of %d" % (kind, i + 1, want), None)
           for i in range(got, want)]
    if got > want:
        out.append(Verdict(False, "%d %s calls, expected %d" % (got, kind, want), None))
    return out


def crashed(exc):
    """An exception in a workload counts as one failed verdict."""
    return [Verdict(False, "exception %s: %s" % (type(exc).__name__, exc), None)]


def tally(verdicts):
    """(attempted, failed, worst margin among passing numeric verdicts)."""
    failed = sum(1 for v in verdicts if not v.ok)
    margins = [v.margin for v in verdicts if v.ok and v.margin is not None]
    return len(verdicts), failed, max(margins, default=0.0)
