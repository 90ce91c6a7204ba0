"""Command line front end.

    so4atom verify [--suite NAME] [--mu REGIME] [--spin MODE]
    so4atom oracle [--suite NAME] [--points N] [--seed N] [--tol X]
    so4atom inverse
    so4atom spin-potential
    so4atom spectrum [--j J] [--k1 X] [--k2 X] [--grid-n N] [--rmax X] ...
    so4atom all

Exit codes: 0 everything passed, 1 some check failed, 2 the request itself
was malformed.  A config file (--config, flat key=value lines, '#' comments)
seeds the options; explicit flags win.  SO4ATOM_DATA_DIR redirects suite
loading.  Reports go to --out in --format (json or md; csv is the spectrum
table), and every command echoes the configuration it resolved.  `all`
prints only its summary lines; --out or --format there, from a flag or
from the config file, is a usage error.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import So4AtomError, UsageError
from . import ansatz, catalog, oracle, report, spectrum

__all__ = ["RunConfig", "main"]


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
    grid_n: int = 4000
    rmin: float = 0.0
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


def _build_config(args):
    cfg = RunConfig()
    given = _parse_config_file(args.config) if args.config else {}
    given.update((f.name, getattr(args, f.name)) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None)
    for key, value in given.items():
        setattr(cfg, key, value)
    if "k2" in given and cfg.j is None and args.command in ("spectrum", "all"):
        raise UsageError("k2 needs j: without j the spectrum sweeps k2 over 0, 0.2 and 0.4")
    for key in ("k1", "k2", "rmin", "rmax"):
        if not math.isfinite(getattr(cfg, key)):
            raise UsageError("%s must be a finite number, got %r" % (key, getattr(cfg, key)))
    if cfg.spin not in ("abstract", "half"):
        raise UsageError("spin must be abstract or half")
    if cfg.mu not in (None, "symbolic", "0", "1", "all"):
        raise UsageError("mu must be symbolic, 0, 1, or all")
    if cfg.points < 1:
        raise UsageError("points must be at least 1, got %d" % cfg.points)
    if cfg.tol is not None and not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise UsageError("tol must be a finite number above 0, got %r" % cfg.tol)
    return cfg


def _suites_requested(cfg):
    if cfg.suite == "all":
        return list(catalog.SUITE_NAMES)
    name = cfg.suite.replace("-", "_")
    if name not in catalog.SUITE_NAMES:
        raise UsageError("unknown suite %r" % cfg.suite)
    return [name]


def _finish(payload, cfg, default_fmt="json"):
    fmt = cfg.format or default_fmt
    if cfg.out or cfg.format:
        report.emit(report.render(payload, fmt), cfg.out)


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
    payload = report.build_payload(
        "verify", cfg.echo(("suite", "mu", "spin")), entries)
    payload["summary"] = {"pass": ok_count, "fail": fail_count}
    _finish(payload, cfg)
    return 1 if fail_count else 0


def cmd_oracle(cfg):
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
    for rep in reports:
        suite_name = next(s for s, cid in pairs if cid == rep.check_id)
        worst[suite_name] = max(worst.get(suite_name, 0.0), rep.max_rel_residual)
        if rep.max_rel_residual >= tol:
            failures += 1
    for name in sorted(worst):
        verdict = "pass" if worst[name] < tol else "FAIL"
        print("oracle %s: max rel residual %.3e [%s] (seed %d)"
              % (name, worst[name], verdict, cfg.seed))
    entries = [report.residual_entry(rep, tol) for rep in reports]
    payload = report.build_payload(
        "oracle", cfg.echo(("suite", "seed", "points")) | {"tol": tol}, entries)
    _finish(payload, cfg)
    return 1 if failures else 0


def _scan_command(name, system, want_dim, want_text):
    sol = system.solve()
    good = (sol.dimension == want_dim and sol.basis_text == want_text
            and sol.verified and not sol.hidden_pairs and not sol.conflicting_pairs)
    basis = ", ".join(sol.basis_text) or "none"
    print("%s: solution space dim %d {%s}, re-verified %s [%s]"
          % (name, sol.dimension, basis, sol.verified, "pass" if good else "FAIL"))
    entry = {"id": "%s_window_scan" % name.replace("-", "_"),
             "status": "pass" if good else "fail", "elapsed_ms": 0.0}
    if not good:
        entry["witness_text"] = "basis {%s}" % basis
    return entry, (0 if good else 1)


def cmd_inverse(cfg):
    entry, code = _scan_command("inverse", ansatz.build_inverse_constraints(),
                                1, ("r^-1",))
    payload = report.build_payload("inverse", {}, [entry])
    _finish(payload, cfg)
    return code


def cmd_spin_potential(cfg):
    entry, code = _scan_command("spin-potential", ansatz.build_spin_constraints(),
                                2, ("r^-1", "(r.S)*r^-2"))
    payload = report.build_payload("spin-potential", {}, [entry])
    _finish(payload, cfg)
    return code


def cmd_spectrum(cfg):
    tol = cfg.tol if cfg.tol is not None else 1e-3
    params = spectrum.CouplingParams(k1=cfg.k1, k2=cfg.k2)
    if cfg.j is not None:
        try:
            j = Fraction(cfg.j)
        except ValueError as exc:
            raise UsageError("cannot parse --j %r" % cfg.j) from exc
        sector = spectrum.RadialSector(1, j=j)
        result = spectrum.solve_lowest(sector, params, cfg.grid_n, cfg.rmax,
                                       cfg.levels, cfg.rmin)
        rows, ok = spectrum.match_spectrum(result, tol=tol)
    else:
        rows, ok = spectrum.default_study(params, cfg.grid_n, cfg.rmax,
                                          cfg.levels, r_min=cfg.rmin, tol=tol)
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
        entries = [{"id": "%s %s level%d" % (r.sector_j, r.channel, r.level_index),
                    "status": "pass" if r.rel_error <= tol else "fail",
                    "residual": r.rel_error, "elapsed_ms": 0.0} for r in rows]
        payload = report.build_payload(
            "spectrum", cfg.echo(("j", "k1", "k2", "grid_n", "rmin", "rmax",
                                  "levels")) | {"tol": tol}, entries)
        report.emit(report.render(payload, fmt), cfg.out)
    return 0 if ok else 1


def cmd_all(cfg):
    given = ["--" + key for key in ("format", "out") if getattr(cfg, key) is not None]
    if given:
        raise UsageError("all writes no report file; drop %s" % ", ".join(given))
    return max(handler(cfg) for handler in (cmd_verify, cmd_oracle, cmd_inverse,
                                            cmd_spin_potential, cmd_spectrum))


_HANDLERS = {
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "inverse": cmd_inverse,
    "spin-potential": cmd_spin_potential,
    "spectrum": cmd_spectrum,
    "all": cmd_all,
}


def _make_parser():
    parser = argparse.ArgumentParser(prog="so4atom", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--suite")
        p.add_argument("--mu", choices=("symbolic", "0", "1", "all"))
        p.add_argument("--spin", choices=("abstract", "half"))
        p.add_argument("--seed", type=int)
        p.add_argument("--points", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--j")
        p.add_argument("--k1", type=float)
        p.add_argument("--k2", type=float)
        p.add_argument("--grid-n", type=int, dest="grid_n")
        p.add_argument("--rmin", type=float)
        p.add_argument("--rmax", type=float)
        p.add_argument("--levels", type=int)
        p.add_argument("--format", choices=("json", "md", "csv"))
        p.add_argument("--out")
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
