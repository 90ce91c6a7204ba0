"""Which public functions the traced run wraps, and the per-layer metrics.

Every wrapper sits on a module or class attribute that so4atom's own code
looks up at call time, so internal calls are seen too:

* ``OperatorExpr.__mul__`` rather than the kernel's ``expr_mul``, so the
  count survives a change of kernel;
* ``catalog.get_suite`` at the module attribute, so a suite cache added
  behind it is still counted;
* ``eig_banded`` and ``eigh_tridiagonal`` as ``spectrum`` binds them.

The metrics and their units come from BENCHMARK.json.  PREDICTIONS says,
per layer, which end-to-end metric a change to that layer should move and
on which workload, so a later change can cite it by name.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PREDICTIONS = {
    "operators": "wall_s on proofs, a little on cli_all, nothing on spectrum; "
                 "a memo cache trades against peak_rss_mb",
    "lang": "wall_s on proofs (elaboration) and cli_all (parse plus tokenize); "
            "setup_s if parsing moves to import time",
    "catalog": "wall_s on cli_all, where every oracle check reloads its suite",
    "ansatz": "wall_s on proofs, where both Laurent scans run",
    "oracle": "wall_s on cli_all; nothing on proofs or spectrum",
    "spectrum": "wall_s on spectrum and about 15% of cli_all; min_headroom must not fall",
    "cli": "wall_s on cli_all only",
    "unattributed_s": "none; wall time of the traced pass covered by no span",
    "trace_overhead_s": "none; traced minus untraced wall_s in the same run",
}

# the metrics are those BENCHMARK.json names; a per-layer metric's layer is
# the part of its name before the first dot, and the two metrics without a
# dot account for the trace itself
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# metrics that must repeat exactly for a given workload and seed
EXACT = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "ratio"))


def _first_two(args, kwargs):
    return args[0], args[1]


def _suite_name(args, kwargs):
    return args[0] if args else kwargs["name"]


class _StateKey:
    """Value key for a (state, point, order) call: TestState holds dicts and
    is unhashable, so its repr stands in.  States are kept alive with their
    repr so an id is never reused while the trace lives."""

    def __init__(self):
        self._seen = {}

    def __call__(self, args, kwargs):
        state, point, order = args
        hit = self._seen.get(id(state))
        if hit is None:
            hit = self._seen[id(state)] = (state, repr(state))
        return hit[1], tuple(point), order


def _terms(result):
    return result.term_count() if hasattr(result, "term_count") else 0


def install(tracer, so4, patches):
    """Wrap each layer's public functions; patches.undo() restores them."""
    ops, lang, catalog = so4.operators, so4.lang, so4.catalog
    ansatz, oracle, spectrum, cli = so4.ansatz, so4.oracle, so4.spectrum, so4.cli
    span = tracer.span

    patches.replace(ops.OperatorExpr, "__mul__", lambda f: span(
        "operators.mul", f, key=_first_two, size=_terms))
    patches.replace(ops.OperatorExpr, "substitute", lambda f: span("operators.substitute", f))
    patches.replace(ops.OperatorExpr, "is_zero", lambda f: span("operators.is_zero", f))
    patches.replace(lang, "parse_identity_file", lambda f: span("lang.parse", f))
    patches.replace(lang, "parse_expr", lambda f: span("lang.parse", f))
    patches.replace(lang, "tokenize", lambda f: tracer.counter("lang.tokenize", f))
    patches.replace(lang, "elaborate", lambda f: span("lang.elaborate", f))
    patches.replace(catalog, "get_suite", lambda f: span(
        "catalog.get_suite", f, key=_suite_name))
    patches.replace(catalog, "run_check", lambda f: span("catalog.run_check", f))
    patches.replace(ansatz.ConstraintSystem, "solve", lambda f: span("ansatz.solve", f))
    patches.replace(oracle, "state_jets", lambda f: span(
        "oracle.state_jets", f, key=_StateKey()))
    patches.replace(oracle, "residual", lambda f: span(
        "oracle.residual", f, count=lambda a, r: r.num_points))
    patches.replace(spectrum, "eig_banded", lambda f: span(
        "spectrum.eig_banded", f, count=lambda a, r: a[0].shape[1]))
    patches.replace(spectrum, "eigh_tridiagonal", lambda f: span(
        "spectrum.eigh_tridiagonal", f, count=lambda a, r: len(a[0])))
    patches.replace(spectrum, "match_spectrum", lambda f: span("spectrum.match", f))
    patches.replace(cli, "main", lambda f: span("cli", f))


def metrics(per, counts, unattributed):
    """Per-layer metric values of one traced pass (overhead is filled in by
    the caller, which also has the untraced passes)."""

    def field(name, key, default=0):
        return per.get(name, {}).get(key, default)

    out = {}
    for metric in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if metric == "operators.mul.peak_terms":
            out[metric] = field("operators.mul", "peak")
        elif metric == "oracle.points":
            out[metric] = counts.get("oracle.residual", 0)
        elif metric == "spectrum.grid_points":
            out[metric] = counts.get("spectrum.eig_banded", 0) \
                + counts.get("spectrum.eigh_tridiagonal", 0)
        elif metric == "lang.tokenize.calls":
            out[metric] = counts.get("lang.tokenize", 0)
        elif metric == "unattributed_s":
            out[metric] = unattributed
        elif metric == "trace_overhead_s":
            continue
        else:
            out[metric] = field(head, tail)
    return out
