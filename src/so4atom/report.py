"""Result serialization: JSON, a markdown mirror, CSV for spectrum tables.

Output is byte-stable for a fixed seed and configuration except for the
elapsed_ms fields, which is what the determinism test strips before
comparing runs.
"""

import io
import json
import math

from . import __version__
from .errors import UsageError

__all__ = [
    "check_entry",
    "residual_entry",
    "level_entry",
    "build_payload",
    "render",
    "render_json",
    "render_markdown",
    "spectrum_csv",
    "strip_elapsed",
    "emit",
]

# the characters of a witness a report shows; catalog renders one more
WITNESS_LIMIT = 400


def check_entry(result):
    """One row of the checks array from a catalog result."""
    entry = {"id": result.check_id, "status": result.status}
    if result.witness:
        text = result.witness
        if len(text) > WITNESS_LIMIT:
            text = text[:WITNESS_LIMIT] + "... (%d terms)" % result.residual_terms
        entry["witness_text"] = text
    entry["elapsed_ms"] = round(result.elapsed_ms, 3)
    return entry


def residual_entry(report, tol):
    status = "pass" if report.max_rel_residual < tol else "fail"
    return {"id": report.check_id, "status": status,
            "residual": report.max_rel_residual, "elapsed_ms": 0.0}


def level_entry(row, tol):
    """One spectrum level: its error, that error over tol, and the
    solver's own estimate of it.  Its status is the sector verdict's
    (LevelRow.passes)."""
    return {"id": "%s %s level%d" % (row.sector_j, row.channel, row.level_index),
            "status": "pass" if row.passes(tol) else "fail",
            "residual": row.rel_error, "margin": row.rel_error / tol,
            "est_error": row.est_error, "elapsed_ms": 0.0}


def build_payload(command, config, entries):
    passed = sum(1 for e in entries if e["status"] == "pass")
    failed = sum(1 for e in entries if e["status"] == "fail")
    return {
        "tool_version": __version__,
        "command": command,
        "config": dict(config),
        "checks": list(entries),
        "summary": {"pass": passed, "fail": failed},
    }


def render_json(payload):
    return json.dumps(payload, indent=2) + "\n"


def render_markdown(payload):
    out = io.StringIO()
    out.write("# %s report\n\n" % payload["command"])
    out.write("tool_version: %s\n\n" % payload["tool_version"])
    if payload["config"]:
        out.write("## config\n\n")
        for key in payload["config"]:
            out.write("- %s: %s\n" % (key, payload["config"][key]))
        out.write("\n")
    out.write("## checks\n\n")
    out.write("| id | status | residual | witness |\n")
    out.write("|---|---|---|---|\n")
    for e in payload["checks"]:
        residual = "%.3e" % e["residual"] if "residual" in e else ""
        witness = e.get("witness_text", "").replace("|", "\\|")
        out.write("| %s | %s | %s | %s |\n" % (e["id"], e["status"], residual, witness))
    s = payload["summary"]
    out.write("\n**%d pass, %d fail**\n" % (s["pass"], s["fail"]))
    return out.getvalue()


def spectrum_csv(rows):
    """One line per level.  E_computed has 10 significant digits: the 11th
    and 12th carry stebz's bisection noise, which depends on how many levels
    were solved, so they moved with --levels.  rel_error is read from the
    printed E_computed, so a level prints the same row whatever the count."""
    out = io.StringIO()
    out.write("sector_j,channel,level_index,E_computed,E_predicted,"
              "n_label,branch,rel_error\n")
    for r in rows:
        e_computed = "%.10g" % r.e_computed
        rel_error = r.rel_error if math.isinf(r.rel_error) else \
            abs(float(e_computed) - r.e_predicted) / abs(r.e_predicted)
        out.write("%s,%s,%d,%s,%.12g,%s,%s,%.6e\n" % (
            r.sector_j, r.channel, r.level_index, e_computed,
            r.e_predicted, r.n_label, r.branch, rel_error))
    return out.getvalue()


def strip_elapsed(payload_text):
    """JSON text with timing removed, for byte-stability comparisons."""
    data = json.loads(payload_text)
    for entry in data.get("checks", ()):
        entry.pop("elapsed_ms", None)
    return json.dumps(data, indent=2) + "\n"


def emit(text, out_path=None):
    if not out_path:
        print(text, end="")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write report file %s: %s"
                         % (out_path, exc.strerror or exc)) from exc


def render(payload, fmt):
    if fmt == "json":
        return render_json(payload)
    if fmt == "md":
        return render_markdown(payload)
    raise UsageError("csv output is reserved for spectrum tables")
