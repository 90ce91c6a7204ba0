"""Identity catalog: statuses, lenses, mutations, packaged files."""

import collections
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from so4atom import catalog, lang
from so4atom.errors import UsageError
from so4atom.operators import OperatorExpr, SpinMode, VecExpr


def status_table(results):
    return dict(collections.Counter(r.status for r in results))


def ok_count(results):
    return sum(1 for r in results if r.ok is True)


# -- suite verdicts, pinned exactly ----------------------------------------

EXPECTED = {
    "so3": {"pass": 22},
    "so4": {"pass": 14},
    "inverse": {"pass": 10},
    "theorem": {"pass": 51, "pass_at_mu_0_and_1": 43},
    "spectrum_algebra": {"pass": 8, "pass_at_mu_0_and_1": 13},
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_statuses(name):
    results = catalog.run_suite(name)
    assert status_table(results) == EXPECTED[name]
    assert all(r.ok for r in results)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_statuses_spin_half(name):
    # the quotient must certify exactly the same table
    results = catalog.run_suite(name, mode="half")
    assert status_table(results) == EXPECTED[name]
    assert all(r.ok for r in results)


def test_results_sorted_and_unique():
    results = catalog.run_suite("theorem")
    ids = [r.check_id for r in results]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_spectrum_algebra_includes_derived_chain():
    ids = {r.check_id for r in catalog.run_suite("spectrum_algebra")}
    for required in (
        "WW_su2",
        "KK_su2",
        "WK_commute",
        "Rprime_closure",
        "R2_prime_eigenform",
        "WK_sum_bilinear",
        "Casimir_sum_eigenform",
        "WK_diff_reduction",
    ):
        assert required in ids


# -- the mu lens ------------------------------------------------------------


def test_theorem_under_mu_lenses():
    sym = catalog.run_suite("theorem", mu="symbolic")
    assert status_table(sym) == {"fail": 43, "pass": 37, "skipped": 14}
    assert ok_count(sym) == 80  # lens failures keep their declared-policy ok

    at0 = catalog.run_suite("theorem", mu="0")
    assert status_table(at0) == {"pass": 82, "skipped": 12}
    assert ok_count(at0) == 82

    at1 = catalog.run_suite("theorem", mu="1")
    assert status_table(at1) == {"pass": 92, "skipped": 2}
    assert ok_count(at1) == 92

    both = catalog.run_suite("theorem", mu="all")
    assert status_table(both) == {
        "pass_at_mu_0_and_1": 43,
        "pass": 42,
        "pass_at_mu_1": 7,
        "pass_at_mu_0": 2,
    }
    assert ok_count(both) == 94


def test_skipped_results_have_no_verdict():
    sym = catalog.run_suite("theorem", mu="symbolic")
    for r in sym:
        if r.status == "skipped":
            assert r.ok is None
            assert not r.witness


def test_lens_failure_carries_witness():
    sym = catalog.run_suite("theorem", mu="symbolic")
    failed = [r for r in sym if r.status == "fail"]
    assert failed
    # a residual proportional to mu*(mu-1) survives the symbolic lens
    assert all(r.witness for r in failed)
    assert all(r.ok for r in failed)


@pytest.mark.parametrize("mu", ["0", "1", "all"])
def test_each_mu_value_substituted_once_per_check(monkeypatch, mu):
    # the lens status, the declared verdict and the witness share one
    # substitution per mu value
    values = []
    substitute = OperatorExpr.substitute

    def counted(self, name, value):
        values.append(value)
        return substitute(self, name, value)

    def counted_vec(self, name, value):
        values.append(value)
        return self.map(lambda c: substitute(c, name, value))

    monkeypatch.setattr(OperatorExpr, "substitute", counted)
    monkeypatch.setattr(VecExpr, "substitute", counted_vec)
    suite = catalog.get_suite("theorem")
    for spec in suite.checks:
        if spec.mode is None and catalog._compatible(spec.mu_policy, mu):
            values.clear()
            catalog.run_check(spec, requested_mu=mu)
            assert len(values) == len(set(values)), spec.check_id


# -- mutation battery -------------------------------------------------------


def all_mutations():
    out = []
    for name in catalog.SUITE_NAMES:
        out.extend(catalog.mutations_for(name))
    return out


def test_nine_mutations_registered():
    muts = all_mutations()
    assert len(muts) == 9
    per_suite = collections.Counter(m.suite for m in muts)
    assert set(per_suite) == set(catalog.SUITE_NAMES)


@pytest.mark.parametrize("mutation", all_mutations(),
                         ids=lambda m: "%s_%s" % (m.suite, m.check_id))
def test_mutation_is_caught(mutation):
    suite = catalog.get_suite(mutation.suite)
    spec = suite.spec(mutation.check_id)
    broken = catalog.apply_mutation(spec, mutation)
    assert broken.check_id.endswith("__mut")
    result = catalog.run_check(broken, suite.env(SpinMode.ABSTRACT))
    assert result.ok is False
    assert result.witness, "a refuted identity must exhibit terms"


def test_mutation_battery_has_hard_failures():
    hard = 0
    for mutation in all_mutations():
        suite = catalog.get_suite(mutation.suite)
        broken = catalog.apply_mutation(suite.spec(mutation.check_id), mutation)
        if catalog.run_check(broken, suite.env(SpinMode.ABSTRACT)).status == "fail":
            hard += 1
    assert hard >= 8


def test_apply_mutation_requires_unique_hit():
    suite = catalog.get_suite("so3")
    spec = suite.spec("l_cross_l")
    bogus = catalog.Mutation("so3", "l_cross_l", "no such text", "zzz", "qqq")
    with pytest.raises(UsageError):
        catalog.apply_mutation(spec, bogus)


def test_original_checks_still_pass_after_mutation_runs():
    # mutation application must not leak into the cached suite
    mutation = all_mutations()[0]
    suite = catalog.get_suite(mutation.suite)
    broken = catalog.apply_mutation(suite.spec(mutation.check_id), mutation)
    catalog.run_check(broken, suite.env(SpinMode.ABSTRACT))
    clean = catalog.run_check(suite.spec(mutation.check_id), suite.env(SpinMode.ABSTRACT))
    assert clean.ok is True


# -- the per-mode difference record -------------------------------------------


def test_lenses_read_recorded_differences(monkeypatch):
    # once the declared run has elaborated every check, a lens only changes
    # the mu substitution applied to the recorded difference
    catalog.run_suite("theorem")
    calls = []
    elaborate = lang.elaborate

    def counted(node, env):
        calls.append(node)
        return elaborate(node, env)

    monkeypatch.setattr(lang, "elaborate", counted)
    for mu in ("0", "1", "symbolic"):
        catalog.run_suite("theorem", mu=mu)
    assert calls == []


def without_timing(results):
    return [dataclasses.replace(r, elapsed_ms=0.0) for r in results]


@pytest.mark.parametrize("mode", ["abstract", "half"])
def test_recorded_results_match_a_cold_suite(mode):
    # a suite from load_suite is not the shared one, so run_check never
    # reads a record for it and elaborates every check afresh
    cold = catalog.load_suite("theorem")
    catalog.run_suite("theorem", mode=mode)
    for mu in (None, "symbolic", "0", "1", "all"):
        warm = catalog.run_suite("theorem", mode=mode, mu=mu)
        assert without_timing(warm) == without_timing(
            catalog.run_suite("theorem", mode=mode, mu=mu, suite=cold)), mu


@pytest.mark.parametrize("mutation", all_mutations(),
                         ids=lambda m: "%s_%s" % (m.suite, m.check_id))
def test_mutation_refuted_after_its_clean_check_is_recorded(mutation):
    suite = catalog.get_suite(mutation.suite)
    env = suite.env(SpinMode.ABSTRACT)
    spec = suite.spec(mutation.check_id)
    assert catalog.run_check(spec, env).ok is True
    size = len(suite._diffs)
    broken = catalog.apply_mutation(spec, mutation)
    assert catalog.run_check(broken, env).ok is False
    assert len(suite._diffs) == size
    assert catalog.run_check(spec, env).ok is True


def test_hand_built_env_is_never_read_from_the_record():
    suite = catalog.get_suite("so4")
    env = suite.env(SpinMode.ABSTRACT)
    spec = suite.spec("RxR_eq_H_l")
    assert catalog.run_check(spec, env).ok is True
    size = len(suite._diffs)
    hand = lang.ElabEnv(env.registry, env.mode, dict(env.bindings))
    hand.bindings["H"] = hand.bindings["H"].scaled(Fraction(2))
    assert catalog.run_check(spec, hand).ok is False
    assert len(suite._diffs) == size
    assert catalog.run_check(spec, env).ok is True


# -- packaged identity files ------------------------------------------------


def packaged_text(name):
    return (Path(catalog.data_dir()) / ("%s.ident" % name)).read_text()


def test_load_suite_from_directory(tmp_path):
    src = packaged_text("so3")
    (tmp_path / "so3.ident").write_text(src)
    suite = catalog.load_suite("so3", tmp_path)
    results = catalog.run_suite("so3", suite=suite)
    assert status_table(results) == EXPECTED["so3"]


def test_data_dir_override(tmp_path, monkeypatch):
    (tmp_path / "so4.ident").write_text(packaged_text("so4"))
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    assert Path(catalog.data_dir()) == tmp_path


def test_get_suite_shared_per_data_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("SO4ATOM_DATA_DIR", raising=False)
    packaged = catalog.get_suite("so3")
    assert catalog.get_suite("so3") is packaged
    # a data dir holding a one-check so3 gives a separate suite from that file
    text = packaged_text("so3")
    head = text[:text.index("\n", text.index("check l_cross_l")) + 1]
    (tmp_path / "so3.ident").write_text(head)
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    local = catalog.get_suite("so3")
    assert local is not packaged
    assert [c.check_id for c in local.checks] == ["l_cross_l"]
    assert catalog.get_suite("so3") is local
    monkeypatch.delenv("SO4ATOM_DATA_DIR")
    assert catalog.get_suite("so3") is packaged


def test_suite_env_requires_spin_mode():
    suite = catalog.get_suite("so3")
    for mode in ("abstract", "half", None):
        with pytest.raises(UsageError):
            suite.env(mode)
    assert suite.env(SpinMode.ABSTRACT) is suite.env(SpinMode.ABSTRACT)


@pytest.mark.parametrize("mode", ["Half", "HALF", "spin-1/2", None])
def test_unknown_spin_mode_rejected(mode):
    spec = catalog.get_suite("so3").checks[0]
    with pytest.raises(UsageError):
        catalog.run_check(spec, mode=mode)
    with pytest.raises(UsageError):
        catalog.run_suite("so3", mode=mode)
    assert catalog.run_check(spec, mode="half").mode == "half"


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        catalog.get_suite("nope")
    with pytest.raises(UsageError):
        catalog.run_suite("nope")


# -- recorded findings -------------------------------------------------------


def test_field_strength_finding_recorded():
    (finding,) = catalog.findings()
    assert finding.finding_id == "field_strength_prefactor"
    assert "PiPi_field_printed" in finding.deviating_checks
    assert "PiPi_field" in finding.engine_checks


def test_finding_checks_behave_as_recorded():
    (finding,) = catalog.findings()
    suite = catalog.get_suite("theorem")
    by_id = {r.check_id: r for r in catalog.run_suite("theorem")}
    for cid in finding.engine_checks:
        assert by_id[cid].ok is True
    for cid in finding.deviating_checks:
        # the printed form only survives at mu=0; at mu=1 it provably
        # differs from what the engine derives, and both facts are checked
        assert by_id[cid].ok is True
        spec = suite.spec(cid)
        assert (spec.relation, spec.mu_policy) in (("==", "0"), ("!=", "1"))
