"""Command line front end.

    so4atom verify [--suite NAME] [--mu REGIME] [--spin MODE]
    so4atom oracle [--suite NAME] [--points N (1..1000)] [--seed N] [--tol X]
    so4atom inverse
    so4atom spin-potential
    so4atom spectrum [--j J] [--k1 X] [--k2 X] [--grid-n N] [--rmax X] ...
    so4atom all

Exit codes: 0 everything passed, 1 some check failed, 2 the request itself
was malformed, such as a flag the command does not read.  A config file
(--config, flat key=value lines, '#' comments) seeds the options; explicit
flags win; a flag and a config value are cast and checked alike, before
any work.  SO4ATOM_DATA_DIR redirects suite loading.  Reports go to --out
in --format (json or md; csv is the spectrum table); every command echoes
its resolved configuration.  An --out that cannot be written is a usage
error.  `all` prints only its summary lines; --out or --format there, from
a flag or from the config file, is a usage error.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial

from .errors import So4AtomError, UsageError
from .lang import MU_POLICIES
from .operators import SpinMode
from . import ansatz, catalog, report

__all__ = ["RunConfig", "main"]

# the oracle's cost grows linearly with --points: 1000 points per state take
# about 10 s and 110 MB, so a larger count is refused before any work
MAX_POINTS = 1000


@dataclass
class RunConfig:
    suite: str = "all"
    mu: str = None
    spin: str = "abstract"
    seed: int = 42
    points: int = 20
    tol: float = None        # oracle defaults to 1e-8, spectrum to 1e-3
    j: str = None
    k1: float = -1.0
    k2: float = 0.2
    grid_n: int = 1000       # spectrum.DEFAULT_GRID_N; importing it would load numpy
    rmax: float = 200.0
    levels: int = 8
    format: str = None
    out: str = None

    def echo(self, keys):
        return {key: getattr(self, key) for key in keys}


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc) from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("config line %d is not key=value" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FIELD_TYPES:
            raise UsageError("unknown config key %r on line %d" % (key, lineno))
        cast = _FIELD_TYPES[key]
        try:
            values[key] = cast(value)
        except ValueError as exc:
            raise UsageError("config key %r: %s" % (key, exc)) from exc
    return values


# the flags each command reads besides --format, --out and --config; a
# config file may still carry keys for the other commands
_READS = {
    "verify": ("suite", "mu", "spin"),
    "oracle": ("suite", "seed", "points", "tol"),
    "inverse": (),
    "spin-potential": (),
    "spectrum": ("j", "k1", "k2", "grid_n", "rmax", "levels", "tol"),
    "all": tuple(_FIELD_TYPES),
}


def _build_config(args):
    cfg = RunConfig()
    flags = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None}
    reads = _READS[args.command] + ("format", "out")
    unread = ["--" + key.replace("_", "-") for key in flags if key not in reads]
    if unread:
        raise UsageError("%s does not read %s" % (args.command, ", ".join(unread)))
    given = _parse_config_file(args.config) if args.config else {}
    given.update(flags)
    for key, value in given.items():
        setattr(cfg, key, value)
    if "k2" in given and cfg.j is None and args.command in ("spectrum", "all"):
        raise UsageError("k2 needs j: without j the spectrum sweeps k2 over 0, 0.2 and 0.4")
    for key in ("k1", "k2", "rmax"):
        if not math.isfinite(getattr(cfg, key)):
            raise UsageError("%s must be a finite number, got %r" % (key, getattr(cfg, key)))
    modes = [m.value for m in SpinMode]
    if cfg.spin not in modes:
        raise UsageError("spin must be one of %s, not %r" % (", ".join(modes), cfg.spin))
    if cfg.mu is not None and cfg.mu not in MU_POLICIES:
        raise UsageError("mu must be one of %s, not %r" % (", ".join(MU_POLICIES), cfg.mu))
    formats = ("json", "md", "csv") if args.command == "spectrum" else ("json", "md")
    if cfg.format is not None and cfg.format not in formats:
        raise UsageError("format must be %s for %s, not %r"
                         % (" or ".join(formats), args.command, cfg.format))
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise UsageError("cannot write report file %s: no such directory" % cfg.out)
    if not 1 <= cfg.points <= MAX_POINTS:
        raise UsageError("points must be at least 1 and at most %d, got %d"
                         % (MAX_POINTS, cfg.points))
    if cfg.tol is not None and not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise UsageError("tol must be a finite number above 0, got %r" % cfg.tol)
    if cfg.j is not None:
        _parse_j(cfg.j)
    if args.command in ("spectrum", "all"):
        # spectrum's own bounds, checked before `all` runs anything else; a
        # j sector has two channels, the study's mu=0 sectors one
        from . import spectrum
        spectrum.CouplingParams(k1=cfg.k1, k2=cfg.k2)
        spectrum._check_grid(cfg.grid_n, cfg.rmax)
        spectrum._check_count(cfg.levels, cfg.grid_n, 1 if cfg.j is None else 2)
    return cfg


def _parse_j(text):
    try:
        j = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("cannot parse --j %r" % text) from exc
    if j < Fraction(1, 2) or (2 * j) % 2 != 1:
        raise UsageError("j must be a positive half-odd integer")
    return j


def _suites_requested(cfg):
    if cfg.suite == "all":
        return list(catalog.SUITE_NAMES)
    name = cfg.suite.replace("-", "_")
    if name not in catalog.SUITE_NAMES:
        raise UsageError("unknown suite %r" % cfg.suite)
    return [name]


def _finish(payload, cfg):
    if cfg.out or cfg.format:
        report.emit(report.render(payload, cfg.format or "json"), cfg.out)


def cmd_verify(cfg):
    entries = []
    ok_count = fail_count = 0
    for name in _suites_requested(cfg):
        results = catalog.run_suite(name, mode=cfg.spin, mu=cfg.mu)
        passed = sum(1 for r in results if r.ok is True)
        failed = sum(1 for r in results if r.ok is False)
        skipped = sum(1 for r in results if r.status == "skipped")
        ok_count += passed
        fail_count += failed
        extra = (", %d skipped" % skipped) if skipped else ""
        print("verify %s: %d pass, %d fail%s" % (name, passed, failed, extra))
        entries.extend(report.check_entry(r) for r in results if r.status != "skipped")
    payload = report.build_payload("verify", cfg.echo(_READS["verify"]), entries)
    payload["summary"] = {"pass": ok_count, "fail": fail_count}
    _finish(payload, cfg)
    return 1 if fail_count else 0


def cmd_oracle(cfg):
    from . import oracle
    tol = cfg.tol if cfg.tol is not None else 1e-8
    if cfg.suite == "all":
        pairs = oracle.default_battery()
    else:
        name = _suites_requested(cfg)[0]
        pairs = tuple((name, spec.check_id)
                      for spec in catalog.get_suite(name).checks
                      if spec.relation == "==")
    states = oracle.default_states(5, cfg.seed)
    reports = oracle.run_battery(pairs, states=states,
                                 points_per_state=cfg.points, seed=cfg.seed)
    worst = {}
    failures = 0
    for (suite_name, _check_id), rep in zip(pairs, reports):
        worst[suite_name] = max(worst.get(suite_name, 0.0), rep.max_rel_residual)
        if rep.max_rel_residual >= tol:
            failures += 1
    for name in sorted(worst):
        verdict = "pass" if worst[name] < tol else "FAIL"
        print("oracle %s: max rel residual %.3e [%s] (seed %d)"
              % (name, worst[name], verdict, cfg.seed))
    entries = [report.residual_entry(rep, tol) for rep in reports]
    payload = report.build_payload(
        "oracle", cfg.echo(_READS["oracle"]) | {"tol": tol}, entries)
    _finish(payload, cfg)
    return 1 if failures else 0


# each scan command: the ansatz builder of its window (looked up when the
# command runs), and the basis its solution space must have
_SCANS = {
    "inverse": ("build_inverse_constraints", ("r^-1",)),
    "spin-potential": ("build_spin_constraints", ("r^-1", "(r.S)*r^-2")),
}


def _scan_command(name, cfg):
    build, want_text = _SCANS[name]
    sol = getattr(ansatz, build)().solve()
    good = (sol.basis_text == want_text and sol.verified
            and not sol.hidden_pairs and not sol.conflicting_pairs)
    basis = ", ".join(sol.basis_text) or "none"
    print("%s: solution space dim %d {%s}, re-verified %s [%s]"
          % (name, sol.dimension, basis, sol.verified, "pass" if good else "FAIL"))
    entry = {"id": "%s_window_scan" % name.replace("-", "_"),
             "status": "pass" if good else "fail", "elapsed_ms": 0.0}
    if not good:
        entry["witness_text"] = "basis {%s}" % basis
    _finish(report.build_payload(name, {}, [entry]), cfg)
    return 0 if good else 1


def cmd_spectrum(cfg):
    from . import spectrum
    tol = cfg.tol if cfg.tol is not None else 1e-3
    params = spectrum.CouplingParams(k1=cfg.k1, k2=cfg.k2)
    if cfg.j is not None:
        sector = spectrum.RadialSector(1, j=_parse_j(cfg.j))
        result = spectrum.solve_lowest(sector, params, cfg.grid_n, cfg.rmax, cfg.levels)
        rows, ok = spectrum.match_spectrum(result, tol=tol)
    else:
        rows, ok = spectrum.default_study(params, cfg.grid_n, cfg.rmax, cfg.levels, tol=tol)
    worst = max((r.rel_error for r in rows), default=0.0)
    print("spectrum: %d matched levels, worst rel error %.3e [%s]"
          % (len(rows), worst, "pass" if ok else "FAIL"))
    fmt = cfg.format or "csv"
    if fmt == "csv":
        text = report.spectrum_csv(rows)
        if cfg.out:
            report.emit(text, cfg.out)
        elif cfg.format:
            print(text, end="")
    else:
        entries = [report.level_entry(r, tol) for r in rows]
        payload = report.build_payload(
            "spectrum", cfg.echo(_READS["spectrum"]) | {"tol": tol}, entries)
        report.emit(report.render(payload, fmt), cfg.out)
    return 0 if ok else 1


def cmd_all(cfg):
    given = ["--" + key for key in ("format", "out") if getattr(cfg, key) is not None]
    if given:
        raise UsageError("all writes no report file; drop %s" % ", ".join(given))
    return max(handler(cfg) for name, handler in _HANDLERS.items() if name != "all")


_HANDLERS = {
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    **{name: partial(_scan_command, name) for name in _SCANS},
    "spectrum": cmd_spectrum,
    "all": cmd_all,
}


def _make_parser():
    parser = argparse.ArgumentParser(prog="so4atom", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        # values are cast as a config file's are and checked in _build_config
        for key, cast in _FIELD_TYPES.items():
            p.add_argument("--" + key.replace("_", "-"), type=cast)
        p.add_argument("--config")
    return parser


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        return _HANDLERS[args.command](cfg)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except So4AtomError as exc:
        print("failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
