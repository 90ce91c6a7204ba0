"""Report shaping and serialization."""

import json

import pytest

from so4atom import catalog, oracle, report
from so4atom.errors import UsageError
from so4atom.operators import SpinMode


@pytest.fixture(scope="module")
def so3_results():
    return catalog.run_suite("so3")


def test_check_entry_minimal(so3_results):
    entry = report.check_entry(so3_results[0])
    assert set(entry) == {"id", "status", "elapsed_ms"}
    assert entry["status"] == "pass"


def test_check_entry_witness_truncated():
    suite = catalog.get_suite("spectrum_algebra")
    (mut,) = [m for m in catalog.mutations_for("spectrum_algebra")
              if m.check_id == "R2_expansion"]
    broken = catalog.apply_mutation(suite.spec(mut.check_id), mut)
    result = catalog.run_check(broken, suite.env(SpinMode.ABSTRACT))
    entry = report.check_entry(result)
    assert entry["status"] == "fail"
    assert len(entry["witness_text"]) <= 460
    assert "terms)" in entry["witness_text"]


def test_residual_entry_threshold():
    suite = catalog.get_suite("so3")
    rep = oracle.residual(suite.spec("l_cross_l"), points_per_state=3)
    good = report.residual_entry(rep, 1e-8)
    assert good["status"] == "pass"
    bad = report.residual_entry(rep, 0.0)
    assert bad["status"] == "fail"


def test_payload_summary_counts(so3_results):
    entries = [report.check_entry(r) for r in so3_results]
    payload = report.build_payload("verify", {"suite": "so3"}, entries)
    assert payload["summary"] == {"pass": 22, "fail": 0}
    assert payload["tool_version"]
    assert payload["command"] == "verify"


def test_render_json_round_trips(so3_results):
    entries = [report.check_entry(r) for r in so3_results[:3]]
    payload = report.build_payload("verify", {}, entries)
    text = report.render_json(payload)
    assert text.endswith("\n")
    assert json.loads(text) == payload


def test_render_markdown_table(so3_results):
    entries = [report.check_entry(r) for r in so3_results[:2]]
    payload = report.build_payload("verify", {"suite": "so3"}, entries)
    text = report.render_markdown(payload)
    assert "| id | status |" in text
    assert "| l_cross_l | pass |" in text


def test_render_rejects_csv_for_checks(so3_results):
    payload = report.build_payload("verify", {}, [])
    with pytest.raises(UsageError):
        report.render(payload, "csv")


def test_strip_elapsed_only_touches_timing(so3_results):
    entries = [report.check_entry(r) for r in so3_results[:2]]
    payload = report.build_payload("verify", {}, entries)
    stripped = report.strip_elapsed(report.render_json(payload))
    assert "elapsed_ms" not in stripped
    assert "l_cross_l" in stripped


def test_spectrum_csv_shape():
    from so4atom import spectrum

    sec = spectrum.RadialSector(0, l=0)
    res = spectrum.solve_lowest(sec, grid_n=1000, r_max=100.0, count=2)
    rows, _ = spectrum.match_spectrum(res, tol=1.0)
    text = report.spectrum_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ("sector_j,channel,level_index,E_computed,"
                       "E_predicted,n_label,branch,rel_error")
    assert len(lines) == len(rows) + 1
    assert lines[1].startswith("l=0,single,0,")
