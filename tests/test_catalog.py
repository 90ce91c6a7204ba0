"""Identity catalog: statuses, lenses, mutations, packaged files."""

import collections
import dataclasses
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from so4atom import _kernel, catalog, lang, oracle
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
    "theorem": {"pass": 54, "pass_at_mu_0_and_1": 43},
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


@pytest.mark.parametrize("mode", ["abstract", "half"])
@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_run_suite_reports_exactly_the_suite_files_checks(name, mode):
    # one source per suite: every result comes from a check line of its file
    text = (Path(catalog.data_dir()) / ("%s.ident" % name)).read_text()
    ids = [c.check_id for c in lang.parse_identity_file(text).checks
           if c.mode in (None, mode)]
    assert [r.check_id for r in catalog.run_suite(name, mode=mode)] == sorted(ids)


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
    assert status_table(sym) == {"fail": 43, "pass": 37, "skipped": 17}
    assert ok_count(sym) == 80  # lens failures keep their declared-policy ok

    at0 = catalog.run_suite("theorem", mu="0")
    assert status_table(at0) == {"pass": 83, "skipped": 14}
    assert ok_count(at0) == 83

    at1 = catalog.run_suite("theorem", mu="1")
    assert status_table(at1) == {"pass": 94, "skipped": 3}
    assert ok_count(at1) == 94

    both = catalog.run_suite("theorem", mu="all")
    assert status_table(both) == {
        "pass_at_mu_0_and_1": 43,
        "pass": 42,
        "pass_at_mu_1": 9,
        "pass_at_mu_0": 3,
    }
    assert ok_count(both) == 97


EIGENFORM_CHECKS = ("WW_su2", "KK_su2", "WK_commute", "Rprime_closure",
                    "R2_prime_eigenform", "WK_sum_bilinear", "Casimir_sum_eigenform")


@pytest.mark.parametrize("mode", ["abstract", "half"])
@pytest.mark.parametrize("mu", [None, "symbolic", "0", "1", "all"])
def test_su2_split_checks_follow_the_lens(mode, mu):
    by_id = {r.check_id: r for r in catalog.run_suite("spectrum_algebra", mode=mode, mu=mu)}
    for cid in EIGENFORM_CHECKS:
        r = by_id[cid]
        assert (r.status, r.ok, r.symbolic_zero, r.mu_policy) == \
            ("pass", True, True, "symbolic"), cid
        assert r.requested_mu == (mu or "declared")
    # WW - KK = t*mu*(h*rS) needs mu: it holds at mu=0 and mu=1 only
    diff = by_id["WK_diff_reduction"]
    assert diff.ok is True and diff.symbolic_zero is False
    want = {None: "pass_at_mu_0_and_1", "all": "pass_at_mu_0_and_1",
            "0": "pass", "1": "pass", "symbolic": "fail"}[mu]
    assert diff.status == want
    assert bool(diff.witness) == (mu == "symbolic")
    assert diff.requested_mu == (mu or "declared")


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


def test_mutations_registered():
    muts = all_mutations()
    assert len(muts) == 12
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


# -- the per-mode elaboration memo --------------------------------------------


def test_lenses_read_recorded_differences(monkeypatch):
    # once the declared run has filled the memo, a lens takes no product,
    # no commutator and no substitution: each side is one memo lookup and
    # the mu zero tests build nothing.  Once a lens has run, its zero tests
    # are recorded: running it again takes no zero test and no subtraction,
    # but for the difference a witness is rendered from, which is not kept
    suite = catalog.get_suite("theorem")
    for mode in ("abstract", "half"):
        catalog.run_suite("theorem", mode=mode)
    sizes = {mode: len(suite.env(mode).memo) for mode in SpinMode}
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_kernel, "expr_mul", counted("expr_mul", _kernel.expr_mul))
    monkeypatch.setattr(_kernel, "expr_comm", counted("expr_comm", _kernel.expr_comm))
    monkeypatch.setattr(OperatorExpr, "substitute",
                        counted("substitute", OperatorExpr.substitute))
    lenses = [(mode, mu) for mode in ("abstract", "half")
              for mu in ("0", "1", "symbolic", "all")]
    for mode, mu in lenses:
        catalog.run_suite("theorem", mode=mode, mu=mu)
    assert calls == []
    assert {mode: len(suite.env(mode).memo) for mode in SpinMode} == sizes

    monkeypatch.setattr(_kernel, "sc_sub_raw", counted("sc_sub_raw", _kernel.sc_sub_raw))
    monkeypatch.setattr(_kernel, "expr_zero_at",
                        counted("expr_zero_at", _kernel.expr_zero_at))
    run_check = catalog.run_check

    def checked(spec, env=None, requested_mu=None):
        del calls[:]
        result = run_check(spec, env, requested_mu)
        assert "expr_zero_at" not in calls, spec.check_id
        assert result.witness or calls == [], spec.check_id
        return result

    monkeypatch.setattr(catalog, "run_check", checked)
    witnessed = 0
    for mode, mu in lenses:
        witnessed += sum(bool(r.witness)
                         for r in catalog.run_suite("theorem", mode=mode, mu=mu))
    assert witnessed


def test_a_symbolic_zero_takes_no_subtraction(monkeypatch):
    # lhs == rhs decides a symbolic zero on the memoised sides: the first
    # run of such a check, with its sides elaborated but no zero test yet
    # recorded, builds no difference
    subtractions = []
    sub = _kernel.sc_sub_raw
    monkeypatch.setattr(_kernel, "sc_sub_raw",
                        lambda *args: subtractions.append(args) or sub(*args))
    zeros = 0
    for name in catalog.SUITE_NAMES:
        suite = catalog.load_suite(name)
        for mode in SpinMode:
            env = suite.env(mode)
            for spec in suite.checks:
                if spec.mode not in (None, mode.value):
                    continue
                catalog._sides(spec, env)
                assert id(spec) not in env.facts
                del subtractions[:]
                if catalog.run_check(spec, env).symbolic_zero:
                    zeros += 1
                    assert subtractions == [], (name, spec.check_id)
    assert zeros > 100


def without_timing(results):
    return [dataclasses.replace(r, elapsed_ms=0.0) for r in results]


def test_a_loaded_suite_keeps_its_own_memo(monkeypatch):
    # the memo rides on the suite's env, so a Suite held by the caller
    # takes each product once, like the shared one
    suite = catalog.load_suite("theorem")
    first = catalog.run_suite("theorem", suite=suite)
    assert suite.env(SpinMode.ABSTRACT).memo
    products = []
    mul = _kernel.expr_mul

    def counted(*args):
        products.append(args)
        return mul(*args)

    monkeypatch.setattr(_kernel, "expr_mul", counted)
    again = catalog.run_suite("theorem", suite=suite)
    assert products == []
    assert without_timing(again) == without_timing(first)


@pytest.mark.parametrize("mode", ["abstract", "half"])
def test_recorded_results_match_a_cold_suite(mode):
    # a suite from load_suite is not the shared one: its checks fill and
    # read its own memo and facts, from empty, never the shared suite's.
    # Whichever lens runs first records a check's zero tests, the lenses
    # before the declared pass or after it, and every later lens reports
    # what a cold suite reports
    lenses = ["symbolic", "0", "1", "all"]
    cold = {(name, mu): without_timing(catalog.run_suite(
                name, mode=mode, mu=mu, suite=catalog.load_suite(name)))
            for name in catalog.SUITE_NAMES for mu in lenses + [None]}
    for order in (lenses + [None] + lenses, [None] + lenses):
        for name in catalog.SUITE_NAMES:
            warm = catalog.load_suite(name)
            for mu in order:
                got = catalog.run_suite(name, mode=mode, mu=mu, suite=warm)
                assert without_timing(got) == cold[name, mu], (name, mu)
            facts = warm.env(SpinMode(mode)).facts
            assert {spec.check_id for spec, _ in facts.values()} == \
                {r.check_id for r in catalog.run_suite(name, mode=mode, suite=warm)}
            assert all(spec is warm.spec(spec.check_id) for spec, _ in facts.values())


def raw_value(value):
    parts = value.components if isinstance(value, VecExpr) else (value,)
    return [p.raw_terms() for p in parts]


def cold_env(name, mode):
    """A memo-free env of a fresh suite, built directly in mode."""
    return dataclasses.replace(catalog.load_suite(name).env(mode), memo=None)


def is_leaf(node):
    return isinstance(node, (lang.Num, lang.Sym, lang.VecBuiltin))


@pytest.mark.parametrize("mode", list(SpinMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_memoised_differences_match_a_cold_elaboration(name, mode):
    # every check and every mutation of the suite, after the declared runs
    # have filled the memo, against a memo-free elaboration in a fresh suite.
    # The abstract pass runs first, so the half env is the quotient of the
    # abstract one (its source is the abstract memo): a half difference
    # reads each compound side from the abstract memo and fills no memo of
    # its own
    suite = catalog.load_suite(name)
    catalog.run_suite(name, suite=suite)
    catalog.run_suite(name, mode=mode.value, suite=suite)
    specs = list(suite.checks) + [catalog.apply_mutation(suite.spec(m.check_id), m)
                                  for m in catalog.mutations_for(name)]
    abstract = suite.env(SpinMode.ABSTRACT)
    env = suite.env(mode)
    cold = cold_env(name, mode)
    memo = abstract.memo
    assert memo
    for spec in specs:
        catalog._difference(spec, abstract)
        warm = catalog._difference(spec, env)
        assert raw_value(warm) == raw_value(catalog._difference(spec, cold)), spec.check_id
        for side in (spec.lhs, spec.rhs):
            assert is_leaf(side) or side in memo
    if mode is SpinMode.SPIN_HALF:
        assert env.source is memo
        assert env.memo == {}


@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_half_results_do_not_depend_on_the_abstract_pass(name):
    # a half env made from the abstract one reports exactly what a half env
    # elaborated on its own reports, under every lens
    direct = catalog.load_suite(name)
    quotient = catalog.load_suite(name)
    catalog.run_suite(name, suite=quotient)
    for mu in (None, "symbolic", "0", "1", "all"):
        want = catalog.run_suite(name, mode="half", mu=mu, suite=direct)
        got = catalog.run_suite(name, mode="half", mu=mu, suite=quotient)
        assert without_timing(got) == without_timing(want), mu
    assert direct.env(SpinMode.SPIN_HALF).source is None
    assert quotient.env(SpinMode.SPIN_HALF).source is quotient.env(SpinMode.ABSTRACT).memo


@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_half_mutations_match_a_cold_half_elaboration(name):
    # the abstract memo holds the clean sides but not a mutant's, so a
    # mutant is elaborated under the quotient bindings and must still agree
    suite = catalog.load_suite(name)
    catalog.run_suite(name, suite=suite)
    env = suite.env(SpinMode.SPIN_HALF)
    cold = cold_env(name, SpinMode.SPIN_HALF)
    for mutation in catalog.mutations_for(name):
        broken = catalog.apply_mutation(suite.spec(mutation.check_id), mutation)
        want = raw_value(catalog._difference(broken, cold))
        assert raw_value(catalog._difference(broken, env)) == want, mutation.check_id
        # and once the abstract memo holds the mutant, its image agrees too
        catalog._difference(broken, suite.env(SpinMode.ABSTRACT))
        assert raw_value(catalog._difference(broken, env)) == want, mutation.check_id
        result = catalog.run_check(broken, env)
        assert (result.ok, result.mode) == (False, "half")


HALF_ONLY = """
let q = dot(S,S)
check half_div_let : (hbar^2*r_x)/q == (4/3)*r_x mode=half
check half_div_inline : [l_x, r_y]/dot(S,S) == (4/3)*(i*r_z/hbar) mode=half
"""


@pytest.mark.parametrize("abstract_fails", [False, True], ids=["built", "failed"])
def test_half_only_division_after_the_abstract_env(tmp_path, monkeypatch, abstract_fails):
    # dividing by dot(S,S) elaborates only in the quotient, where it is the
    # scalar 3*hbar^2/4: it never reaches the abstract memo and is elaborated
    # directly, whether the abstract env was built first or failed to build
    # (a let that does not elaborate is a usage error naming its line)
    text = packaged_text("so3") + HALF_ONLY
    if abstract_fails:
        text += "let u = r_x/dot(S,S)\n"
    (tmp_path / "so3.ident").write_text(text)
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    if abstract_fails:
        line = text.count("\n")
        with pytest.raises(UsageError, match=r"so3\.ident line %d: division" % line):
            catalog.run_suite("so3")
    else:
        assert status_table(catalog.run_suite("so3")) == EXPECTED["so3"]
    results = {r.check_id: r for r in catalog.run_suite("so3", mode="half")}
    assert len(results) == EXPECTED["so3"]["pass"] + 2
    assert all(r.status == "pass" and r.ok for r in results.values())
    env = catalog.get_suite("so3").env(SpinMode.SPIN_HALF)
    assert (env.source is None) is abstract_fails


def test_a_half_check_runs_in_its_half_env():
    # the env says the mode: a check declared mode=half runs under the half
    # env and reports it, and is refused under the abstract one
    suite = catalog.Suite("so3", packaged_text("so3") + HALF_ONLY)
    catalog.run_suite("so3", suite=suite)
    half = suite.env(SpinMode.SPIN_HALF)
    assert half.source is suite.env(SpinMode.ABSTRACT).memo
    for check_id in ("half_div_let", "half_div_inline"):
        spec = suite.spec(check_id)
        result = catalog.run_check(spec, half)
        assert (result.status, result.ok, result.mode) == ("pass", True, "half")
        with pytest.raises(UsageError, match="declared for mode=half"):
            catalog.run_check(spec, suite.env(SpinMode.ABSTRACT))


def counted_products(monkeypatch):
    calls = []
    for name in ("expr_mul", "expr_comm"):
        fn = getattr(_kernel, name)
        monkeypatch.setattr(_kernel, name,
                            lambda *args, _fn=fn: calls.append(args) or _fn(*args))
    return calls


@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_half_mutant_reads_the_abstract_memo_at_every_depth(monkeypatch, name):
    # a mutant's top node is not in the abstract memo, but its untouched
    # subtrees are: under the quotient env none of them is elaborated again,
    # so the mutants take fewer products than under a cold half env (a
    # fresh suite's, with its own memo), for the same values
    suite = catalog.load_suite(name)
    catalog.run_suite(name, suite=suite)
    env = suite.env(SpinMode.SPIN_HALF)
    assert env.source is suite.env(SpinMode.ABSTRACT).memo
    cold = catalog.load_suite(name).env(SpinMode.SPIN_HALF)
    assert cold.source is None
    calls = counted_products(monkeypatch)
    taken = {"cold": 0, "quotient": 0}
    for mutation in catalog.mutations_for(name):
        broken = catalog.apply_mutation(suite.spec(mutation.check_id), mutation)
        assert broken.lhs not in env.source or broken.rhs not in env.source
        for which, under in (("cold", cold), ("quotient", env)):
            del calls[:]
            value = raw_value(catalog._difference(broken, under))
            taken[which] += len(calls)
            if which == "cold":
                want = value
        assert value == want, mutation.check_id
    assert taken["quotient"] < taken["cold"]
    assert not any(node in env.source for node in env.memo)


def test_run_suite_rejects_a_suite_of_another_name():
    theorem = catalog.get_suite("theorem")
    with pytest.raises(UsageError, match="theorem"):
        catalog.run_suite("so3", mu="0", suite=theorem)
    assert {r.suite for r in catalog.run_suite("theorem", mu="0", suite=theorem)} \
        == {"theorem"}


@pytest.mark.parametrize("mutation", all_mutations(),
                         ids=lambda m: "%s_%s" % (m.suite, m.check_id))
def test_mutation_refuted_after_its_clean_check_is_recorded(mutation):
    suite = catalog.get_suite(mutation.suite)
    env = suite.env(SpinMode.ABSTRACT)
    spec = suite.spec(mutation.check_id)
    assert catalog.run_check(spec, env).ok is True
    memo = env.memo
    clean = {side: memo[side] for side in (spec.lhs, spec.rhs) if side in memo}
    # every compound side is recorded; a bare name or number never is
    assert clean
    assert all(isinstance(side, (lang.Num, lang.Sym, lang.VecBuiltin)) or side in clean
               for side in (spec.lhs, spec.rhs))
    broken = catalog.apply_mutation(spec, mutation)
    assert catalog.run_check(broken, env).ok is False
    # the mutant's own subtrees may join the memo; the clean entries stay
    assert all(memo[side] is value for side, value in clean.items())
    assert catalog.run_check(spec, env).ok is True


def test_hand_built_env_is_never_read_from_the_record():
    suite = catalog.get_suite("so4")
    env = suite.env(SpinMode.ABSTRACT)
    spec = suite.spec("RxR_eq_H_l")
    assert catalog.run_check(spec, env).ok is True
    memo = env.memo
    size = len(memo)
    clean = {side: memo[side] for side in (spec.lhs, spec.rhs)}
    hand = lang.ElabEnv(env.registry, env.mode, dict(env.bindings))
    hand.bindings["H"] = hand.bindings["H"].scaled(Fraction(2))
    assert hand.memo is None
    assert catalog.run_check(spec, hand).ok is False
    assert len(memo) == size
    assert all(memo[side] is value for side, value in clean.items())
    assert catalog.run_check(spec, env).ok is True


def test_facts_are_read_only_by_their_own_spec_and_env():
    # the record is keyed by the spec object: a hand-built env keeps none,
    # and a mutant, run after its clean check, is a new spec with its own
    suite = catalog.load_suite("so4")
    env = suite.env(SpinMode.ABSTRACT)
    spec = suite.spec("RxR_eq_H_l")
    assert catalog.run_check(spec, env).symbolic_zero is True
    clean = env.facts[id(spec)]
    assert clean == (spec, {"symbolic": True})
    hand = lang.ElabEnv(env.registry, env.mode, dict(env.bindings))
    hand.bindings["H"] = hand.bindings["H"].scaled(Fraction(2))
    result = catalog.run_check(spec, hand)
    assert (result.symbolic_zero, result.ok, hand.facts) == (False, False, None)
    mutation, = (m for m in catalog.mutations_for("so4") if m.check_id == spec.check_id)
    broken = catalog.apply_mutation(spec, mutation)
    result = catalog.run_check(broken, env)
    assert (result.symbolic_zero, result.ok) == (False, False)
    assert env.facts[id(broken)][0] is broken
    assert env.facts[id(spec)] is clean and clean[1] == {"symbolic": True}
    # an equal spec that is another object has an entry of its own too
    twin = dataclasses.replace(spec)
    assert twin == spec and twin is not spec
    assert catalog.run_check(twin, env).ok is True
    assert env.facts[id(twin)][0] is twin
    assert len(env.facts) == 3


def test_spin_mode_member_reads_as_its_name():
    # run_suite reads a mode name or member; run_check reports its env's mode
    suite = catalog.get_suite("so3")
    spec = suite.checks[0]
    assert catalog.run_check(spec, suite.env(SpinMode.SPIN_HALF)).mode == "half"
    assert catalog.run_check(spec).mode == "abstract"
    assert without_timing(catalog.run_suite("so3", mode=SpinMode.SPIN_HALF)) == \
        without_timing(catalog.run_suite("so3", mode="half"))
    # a check declared for one mode runs under that mode's env only
    half_only = dataclasses.replace(spec, mode="half")
    assert catalog.run_check(half_only, suite.env(SpinMode.SPIN_HALF)).ok is True
    for env in (suite.env(SpinMode.ABSTRACT), None):
        with pytest.raises(UsageError):
            catalog.run_check(half_only, env)


# -- packaged identity files ------------------------------------------------


def packaged_text(name):
    return (Path(catalog.data_dir()) / ("%s.ident" % name)).read_text()


def test_load_suite_from_directory(tmp_path):
    src = packaged_text("so3")
    (tmp_path / "so3.ident").write_text(src)
    suite = catalog.load_suite("so3", tmp_path)
    results = catalog.run_suite("so3", suite=suite)
    assert status_table(results) == EXPECTED["so3"]


# -- one source per let: use lines ----------------------------------------

# (the lending file, its shared let's text and a slip in it, and the checks
# the slip flips in each suite that reads the let)
SHARED_SLIPS = {
    "theorem": ("let h = k1*r^-1", "let h = k1*r^-2", {
        "theorem": {"RR_closure", "R_Ham", "V_from_constraint", "h_constraint",
                    "h_constraint_inner", "reduced_gate", "reduced_off"},
        "spectrum_algebra": {"R2_expansion"},
    }),
    "so3": ("kappa*r^-1", "kappa*r^-2", {
        "so3": set(),
        "so4": {"RxR_eq_H_l", "H_R_conserved", "R2_identity"},
    }),
}


def data_copy(tmp_path, name=None, old=None, new=None):
    """A copy of the packaged data, with old replaced by new in name's file."""
    data = tmp_path / "data"
    shutil.copytree(catalog._PACKAGED_DATA, data)
    if name is not None:
        path = data / ("%s.ident" % name)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return data


def test_no_let_is_copied_between_suite_files():
    # a let two suites share lives in one file and is lent by a use line
    first, copies = {}, []
    for name in catalog.SUITE_NAMES:
        for d in lang.parse_identity_file(packaged_text(name)).definitions:
            key = (d.name, d.expr)
            if key in first:
                copies.append((d.name, first[key], name))
            first.setdefault(key, name)
    assert copies == []


@pytest.mark.parametrize("user,lender", [("spectrum_algebra", "theorem"), ("so4", "so3")])
def test_a_use_line_lends_the_shared_suites_lets_first(user, lender):
    lent = catalog.get_suite(lender).definitions
    own = lang.parse_identity_file(packaged_text(user)).definitions
    for suite in (catalog.get_suite(user), catalog.load_suite(user)):
        assert all(a is b for a, b in zip(suite.definitions, lent))
        assert suite.definitions[len(lent):] == own


@pytest.mark.parametrize("route", ["load_suite", "data_dir"])
@pytest.mark.parametrize("lender", sorted(SHARED_SLIPS))
def test_a_slip_in_a_shared_let_reaches_every_suite_that_reads_it(
        tmp_path, monkeypatch, lender, route):
    old, new, flips = SHARED_SLIPS[lender]
    data = data_copy(tmp_path, lender, old, new)
    if route == "data_dir":
        monkeypatch.setenv("SO4ATOM_DATA_DIR", str(data))
    for name, want in flips.items():
        suite = catalog.load_suite(name, data) if route == "load_suite" else None
        results = catalog.run_suite(name, suite=suite)
        assert {r.check_id for r in results if not r.ok} == want, name


def test_the_oracle_reads_the_slip_in_a_lent_let(tmp_path, monkeypatch):
    def r2_expansion():
        spec = catalog.get_suite("spectrum_algebra").spec("R2_expansion")
        return oracle.residual(spec, points_per_state=3).max_rel_residual

    monkeypatch.delenv("SO4ATOM_DATA_DIR", raising=False)
    assert r2_expansion() < 1e-8
    old, new, _ = SHARED_SLIPS["theorem"]
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(data_copy(tmp_path, "theorem", old, new)))
    assert r2_expansion() > 1e-3


@pytest.mark.parametrize(
    "name,old,bad,fragment",
    [
        ("so4", "use so3", "use nope", "use of unknown suite 'nope'"),
        # so4 itself uses so3, and uses that lead back are refused too
        ("inverse", "let f_m3", "use so4", "suite 'so4' cannot be used"),
        ("so3", "let H", "use so4", "suite 'so4' cannot be used"),
        ("so3", "let H", "use so3", "suite 'so3' cannot be used"),
        ("spectrum_algebra", "let Sr", "let h = 0", "let 'h' redefines the let theorem lends"),
    ],
)
def test_a_bad_use_is_a_usage_error_at_its_line(tmp_path, name, old, bad, fragment):
    # the bad line goes in after the first use line, or before the first let
    new = old + "\n" + bad if old.startswith("use") else bad + "\n" + old
    data = data_copy(tmp_path, name, old, new)
    path = data / ("%s.ident" % name)
    line = path.read_text().splitlines().index(bad) + 1
    with pytest.raises(UsageError, match="line %d: " % line) as exc:
        catalog.load_suite(name, data)
    assert str(path) in str(exc.value)
    assert fragment in str(exc.value)
    # a refused use leaves nothing half loaded behind
    assert None not in catalog._SUITES.values()


def test_two_suites_may_not_lend_one_name(tmp_path):
    data = data_copy(tmp_path, "inverse", "let f_m3", "let H = 1\nlet f_m3")
    path = data / "so4.ident"
    path.write_text(path.read_text().replace("use so3", "use so3\nuse inverse"))
    line = path.read_text().splitlines().index("use inverse") + 1
    with pytest.raises(UsageError, match="so4.ident line %d: so3 and inverse both lend 'H'"
                       % line):
        catalog.load_suite("so4", data)


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
    # run_suite is the one entry point that reads a mode name
    with pytest.raises(UsageError):
        catalog.run_suite("so3", mode=mode)
    assert {r.mode for r in catalog.run_suite("so3", mode="half")} == {"half"}


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
