"""Scoring against known answers, and the layer wrappers on the real package."""

import dataclasses
import os
import time

import pytest

import layers
import verdicts as V
import worker
import workloads
from conftest import ROOT
from spans import Patches, Tracer


@pytest.fixture(scope="module")
def so4():
    namespace, _seconds = worker.import_so4atom(os.path.join(ROOT, "src"))
    return namespace


def test_planted_kept_mutation_raises_failed(so4):
    """A mutated spec scored as kept must count as a failed verdict."""
    catalog = so4.catalog
    real = catalog.run_check

    def scored_as_kept(spec, *args, **kwargs):
        result = real(spec, *args, **kwargs)
        if spec.check_id.endswith("__mut"):
            result = dataclasses.replace(result, status="pass", ok=True)
        return result

    patches = Patches()
    patches.replace(catalog, "run_check", lambda f: scored_as_kept)
    try:
        planted = worker.run_pass(so4, "proofs", 0, trace=0)
    finally:
        patches.undo()
    mutations = sum(len(catalog.mutations_for(n)) for n in catalog.SUITE_NAMES)
    assert planted["failed"] == mutations
    assert all(label.startswith("mutation ") for label in planted["failures"])

    clean = worker.run_pass(so4, "proofs", 0, trace=0)
    assert clean["failed"] == 0
    assert clean["attempted"] == planted["attempted"]
    assert clean["worst_margin"] == 0.0


def test_numeric_verdicts_carry_margins():
    Report = dataclasses.make_dataclass("Report", ["check_id", "max_rel_residual"])
    (kept,) = V.residual(Report("x", 5e-9))
    assert kept.ok and kept.margin == pytest.approx(0.5)
    (lost,) = V.residual(Report("x", 2e-8))
    assert not lost.ok
    Row = dataclasses.make_dataclass("Row", ["sector_j", "rel_error"])
    (ok,) = V.sector([Row("j=1/2", 9.39e-4)], True)
    assert ok.ok and ok.margin == pytest.approx(0.939)
    (unmatched,) = V.sector([Row("j=1/2", 1e-5)], False)
    assert not unmatched.ok
    assert V.tally([kept, lost, ok]) == (3, 1, pytest.approx(0.939))


def test_scan_and_exit_code_answers():
    Sol = dataclasses.make_dataclass(
        "Sol", ["basis_text", "dimension", "verified", "hidden_pairs", "conflicting_pairs"])
    assert V.scan("spin", Sol(("r^-1", "(r.S)*r^-2"), 2, True, (), ()))[0].ok
    assert not V.scan("inverse", Sol(("r^-1", "r^-2"), 2, True, (), ()))[0].ok
    assert not V.scan("inverse", Sol(("r^-1",), 1, False, (), ()))[0].ok
    assert V.exit_code(0)[0].ok and not V.exit_code(1)[0].ok


def test_layer_counters_on_the_package(so4):
    tracer = Tracer()
    patches = Patches()
    layers.install(tracer, so4, patches)
    try:
        for name in ("so3", "so3", "so4", "so3"):
            so4.catalog.get_suite(name)
        reg = so4.operators.SymbolRegistry()
        x = so4.operators.OperatorExpr.generator(reg, "pos", 0)
        p = so4.operators.OperatorExpr.generator(reg, "mom", 0)
        for _ in range(3):
            x * p
        p * x
    finally:
        patches.undo()
    per, counts, _ = tracer.summary(0.0, 0.0)
    found = layers.metrics(per, counts, 0.0)
    assert found["catalog.get_suite.calls"] == 4
    assert found["catalog.get_suite.distinct_ratio"] == 0.5
    assert found["operators.mul.calls"] == 4
    assert found["operators.mul.distinct_ratio"] == 0.5
    assert found["operators.mul.peak_terms"] == 2      # p x = x p - i hbar
    assert found["lang.parse.calls"] >= 3
    assert so4.catalog.get_suite.__name__ == "get_suite"


def test_missing_calls_are_failed_verdicts(so4):
    assert V.expect("sector", 10, 10) == []
    short = V.expect("sector", 7, 10)
    assert len(short) == 3 and not any(v.ok for v in short)
    (extra,) = V.expect("sector", 11, 10)
    assert not extra.ok
    # a pass that never reached the oracle or the spectrum fails once per call
    found = workloads.missing_calls("cli_all", so4, workloads.Probe())
    assert len(found) == V.SECTORS_PER_STUDY + len(so4.oracle.default_battery())
    assert V.tally(found)[1] == len(found)
    assert workloads.missing_calls("proofs", so4, workloads.Probe()) == []


def test_theorem_at_mu0_needs_all_but_one_core_check():
    Result = dataclasses.make_dataclass("Result", ["check_id", "status", "ok"])
    core = list(V.THEOREM_CORE)
    one_skipped = [Result(c, "skipped", None) for c in core[:1]] \
        + [Result(c, "pass", True) for c in core[1:]]
    assert V.tally(V.theorem_lens("0", one_skipped))[1] == 0
    two_skipped = [Result(c, "skipped", None) for c in core[:2]] \
        + [Result(c, "pass", True) for c in core[2:]]
    assert V.tally(V.theorem_lens("0", two_skipped))[1] == 1


def test_sector_latency_sums_every_solve_before_its_match(so4):
    spectrum = so4.spectrum
    patches = Patches()
    patches.replace(spectrum, "solve_lowest", lambda f: lambda *a: time.sleep(0.02))
    patches.replace(spectrum, "match_spectrum", lambda f: lambda *a: ([], True))
    probe = workloads.Probe()
    probe.install(so4, patches)
    try:
        spectrum.solve_lowest()
        spectrum.solve_lowest()
        spectrum.match_spectrum(None)
    finally:
        patches.undo()
    (latency,) = probe.latencies_ms
    assert latency >= 40.0
    assert probe.sectors == [([], True)]
