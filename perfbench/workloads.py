"""The three workloads, each one closed-loop pass by a single caller.

proofs    every suite in both spin modes at its declared mu, theorem under
          the mu=0, 1 and symbolic lenses, every catalog mutation refuted
          symbolically, and both Laurent scans.  Deterministic.
cli_all   ``so4atom all --seed S`` through ``cli.main``.
spectrum  ``spectrum.default_study()`` at the CLI defaults.  Deterministic.

Each returns the list of verdicts scored against the known answers in
verdicts.py; missing_calls() adds a failed verdict for each expected call
that never happened.  A Probe times every verdict: one run_check, oracle
residual, scan (constraint build plus solve), or spectrum sector (every
solve_lowest since the last match, plus match_spectrum).  It wraps only
those few entry points, so its cost is a few microseconds per verdict of a
millisecond or more.
"""

import contextlib
import io
import time

import verdicts as V

MODES = ("abstract", "half")
LENSES = ("0", "1", "symbolic")


class Probe:
    """Latency of each verdict, and what each verdict call returned."""

    def __init__(self):
        self.latencies_ms = []
        self.checks = []        # CheckResult per catalog.run_check
        self.residuals = []     # ResidualReports that oracle.run_battery returned
        self.scans = []         # (kind, SolutionSpace)
        self.sectors = []       # (rows, matched)
        self._systems = {}      # id(system) -> (system, kind, build seconds)
        self._solve_s = 0.0     # solve_lowest time awaiting its match_spectrum

    def _timed(self, fn, done):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            done(args, result, clock() - start)
            return result

        return wrapper

    def _emit(self, seconds):
        self.latencies_ms.append(seconds * 1e3)

    def install(self, so4, patches):
        catalog, oracle, ansatz, spectrum = so4.catalog, so4.oracle, so4.ansatz, so4.spectrum

        def check_done(args, result, dt):
            self._emit(dt)
            self.checks.append(result)

        def battery_done(args, result, dt):
            self.residuals.extend(result)

        def built(kind):
            def done(args, system, dt):
                self._systems[id(system)] = (system, kind, dt)
            return done

        def solve_done(args, sol, dt):
            _system, kind, build_s = self._systems.pop(id(args[0]))
            self._emit(build_s + dt)
            self.scans.append((kind, sol))

        def lowest_done(args, result, dt):
            self._solve_s += dt

        def match_done(args, result, dt):
            self._emit(self._solve_s + dt)
            self._solve_s = 0.0
            self.sectors.append(result)

        patches.replace(catalog, "run_check", lambda f: self._timed(f, check_done))
        # a residual is timed one by one but scored from the battery's reports,
        # so a batched battery that stops calling residual is still scored
        patches.replace(oracle, "residual", lambda f: self._timed(
            f, lambda args, result, dt: self._emit(dt)))
        patches.replace(oracle, "run_battery", lambda f: self._timed(f, battery_done))
        patches.replace(ansatz, "build_inverse_constraints",
                        lambda f: self._timed(f, built("inverse")))
        patches.replace(ansatz, "build_spin_constraints",
                        lambda f: self._timed(f, built("spin")))
        patches.replace(ansatz.ConstraintSystem, "solve", lambda f: self._timed(f, solve_done))
        patches.replace(spectrum, "solve_lowest", lambda f: self._timed(f, lowest_done))
        patches.replace(spectrum, "match_spectrum", lambda f: self._timed(f, match_done))


def proofs(so4, seed, probe):
    """The seed is recorded by the caller but unused: nothing here is random."""
    catalog, ansatz = so4.catalog, so4.ansatz
    out = []
    for mode in MODES:
        for name in catalog.SUITE_NAMES:
            out += V.suite(name, catalog.run_suite(name, mode=mode))
    for mu in LENSES:
        out += V.theorem_lens(mu, catalog.run_suite("theorem", mu=mu))
    for name in catalog.SUITE_NAMES:
        suite = catalog.get_suite(name)
        env = suite.env(so4.operators.SpinMode.ABSTRACT)
        for mut in catalog.mutations_for(name):
            broken = catalog.apply_mutation(suite.spec(mut.check_id), mut)
            out += V.mutation(mut.check_id, catalog.run_check(broken, env))
    out += V.scan("inverse", ansatz.build_inverse_constraints().solve())
    out += V.scan("spin", ansatz.build_spin_constraints().solve())
    return out


def cli_all(so4, seed, probe):
    """The CLI's printed report goes to a buffer; verdicts come from the
    exit code and from what each verdict call returned."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = so4.cli.main(["all", "--seed", str(seed)])
    out = V.exit_code(code)
    for name in so4.catalog.SUITE_NAMES:
        out += V.suite(name, [r for r in probe.checks if r.suite == name])
    for report in probe.residuals:
        out += V.residual(report)
    for kind, sol in probe.scans:
        out += V.scan(kind, sol)
    for rows, matched in probe.sectors:
        out += V.sector(rows, matched)
    return out


def spectrum(so4, seed, probe):
    """The seed is recorded by the caller but unused: nothing here is random."""
    rows, ok = so4.spectrum.default_study()
    out = [V.Verdict(ok and bool(rows), "default study: %d rows" % len(rows), None)]
    for sector_rows, matched in probe.sectors:
        out += V.sector(sector_rows, matched)
    return out


def missing_calls(name, so4, probe):
    """A failed verdict per expected call that never happened, so a bypassed
    entry point fails the gate.  Scored after the timed section with the
    wrappers removed: the battery list loads suites, which must neither
    count in the trace nor warm a cache inside the timed section."""
    out = []
    if name in ("cli_all", "spectrum"):
        out += V.expect("spectrum sector", len(probe.sectors), V.SECTORS_PER_STUDY)
    if name == "cli_all":
        out += V.expect("oracle residual", len(probe.residuals),
                        len(so4.oracle.default_battery()))
    return out


WORKLOADS = {"proofs": proofs, "cli_all": cli_all, "spectrum": spectrum}
