"""Numeric oracle: operators acting on smooth spinor test states."""

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from so4atom import catalog, cli, lang, operators, oracle
from so4atom.errors import UsageError
from so4atom.jets import Jet
from so4atom.lang import parse_expr


def act(text, point, order):
    """text acting on the seed-5 state at one point, through the oracle's walk."""
    state = oracle.default_states(1, seed=5)[0]
    psi = Jet(order, oracle.state_jets(state, point, order).coeffs[:, None, :, None])
    walk = oracle._Walk(catalog.get_suite("so3"), oracle.DEFAULT_BINDINGS, (0,))
    x = [Jet.variable(order, u, np.full((1, 1, 1), c)) for u, c in enumerate(point)]
    walk.at(np.array([point]), x[0] * x[0] + x[1] * x[1] + x[2] * x[2], {}, psi)
    coeff, jet = walk.apply(parse_expr(text), None, psi, 0)
    return coeff * jet.value()[0, :, 0]


def test_default_states_deterministic():
    a = oracle.default_states(5, seed=42)
    b = oracle.default_states(5, seed=42)
    assert len(a) == 5
    for sa, sb in zip(a, b):
        assert sa == sb
    c = oracle.default_states(5, seed=43)
    assert a[0] != c[0]


def test_sample_points_stay_off_origin():
    state = oracle.default_states(1, seed=7)[0]
    pts = oracle.sample_points(state, 50, random.Random(3))
    for p in pts:
        assert 0.2 < (p[0] ** 2 + p[1] ** 2 + p[2] ** 2) ** 0.5 <= 3.0


def test_apply_momentum_is_derivative():
    # <p_x psi> must equal -i hbar d/dx of the sampled state
    state = oracle.default_states(1, seed=5)[0]
    point = (0.6, -0.4, 0.8)
    hbar = oracle.DEFAULT_BINDINGS["hbar"]
    got = act("p_x", point, 1)
    step = 1e-5
    up = oracle.state_jets(state, (point[0] + step, point[1], point[2]), 0).value()
    dn = oracle.state_jets(state, (point[0] - step, point[1], point[2]), 0).value()
    for comp in (0, 1):
        fd = (up[comp] - dn[comp]) / (2 * step)
        assert got[comp] == pytest.approx(-1j * hbar * fd, rel=1e-6, abs=1e-9)


def test_apply_position_is_multiplication():
    state = oracle.default_states(1, seed=5)[0]
    point = (0.6, -0.4, 0.8)
    got = act("r_x * rpow(-2)", point, 0)
    base = oracle.state_jets(state, point, 0).value()
    r2 = sum(c * c for c in point)
    for comp in (0, 1):
        assert got[comp] == pytest.approx(point[0] / r2 * base[comp], rel=1e-9)


def test_apply_needs_enough_jet_order():
    with pytest.raises(UsageError):
        act("dot(p, p)", (0.5, 0.5, 0.5), 1)


def test_passing_check_residual_tiny():
    suite = catalog.get_suite("so4")
    spec = suite.spec("R2_identity")
    report = oracle.residual(spec, points_per_state=6)
    assert report.max_rel_residual < 1e-8
    assert report.num_points > 0


def test_single_product_left_side_scaled_beneath_the_product():
    # (mu/M)*((...)*rS) == 0 is one product: scaled by itself it would read
    # roundoff over roundoff, about 1
    spec = catalog.get_suite("theorem").spec("h_constraint")
    report = oracle.residual(spec)
    assert report.max_abs_residual < 1e-12
    assert report.max_rel_residual <= 1e-12


def test_oracle_runs_without_the_engine(monkeypatch):
    # the oracle reads the syntax trees itself: with the engine's product
    # and elaboration disabled, every kept identity must still hold
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle consulted the symbolic engine")

    monkeypatch.setattr(operators.OperatorExpr, "__mul__", refuse)
    monkeypatch.setattr(lang, "elaborate", refuse)
    states = oracle.default_states(2, seed=42)
    pairs = [p for p in oracle.default_battery() if p[0] in ("so3", "so4")]
    reports = oracle.run_battery(pairs, states=states, points_per_state=4)
    assert len(reports) == len(pairs)
    for rep in reports:
        assert rep.max_rel_residual < 1e-8, rep.check_id


def test_mutated_check_residual_large():
    suite = catalog.get_suite("theorem")
    (mut,) = [m for m in catalog.mutations_for("theorem")
              if m.check_id == "V_from_constraint"]
    broken = catalog.apply_mutation(suite.spec(mut.check_id), mut)
    report = oracle.residual(broken, points_per_state=6)
    assert report.max_rel_residual > 1e-3


def test_residual_deterministic_across_runs():
    suite = catalog.get_suite("theorem")
    spec = suite.spec("RxR_master")
    a = oracle.residual(spec, points_per_state=5, seed=11)
    b = oracle.residual(spec, points_per_state=5, seed=11)
    assert a.max_abs_residual == b.max_abs_residual
    assert a.max_rel_residual == b.max_rel_residual


def test_default_battery_covers_all_suites():
    pairs = oracle.default_battery()
    suites = {s for s, _ in pairs}
    assert suites == set(catalog.SUITE_NAMES)
    # only equalities make sense numerically
    for suite_name, cid in pairs:
        assert catalog.get_suite(suite_name).spec(cid).relation == "=="


def test_run_battery_all_pass():
    states = oracle.default_states(2, seed=42)
    pairs = [p for p in oracle.default_battery() if p[0] in ("so3", "so4")]
    reports = oracle.run_battery(pairs, states=states, points_per_state=4)
    assert len(reports) == len(pairs)
    for rep in reports:
        assert rep.max_rel_residual < 1e-8, rep.check_id


def test_oracle_walks_every_equation_of_every_suite_file():
    # a name the oracle cannot bind, or a walk that cannot evaluate a check,
    # shows here before it reaches a battery
    pairs = [(name, spec.check_id) for name in catalog.SUITE_NAMES
             for spec in catalog.get_suite(name).checks if spec.relation == "=="]
    reports = oracle.run_battery(pairs, states=oracle.default_states(1, seed=42),
                                 points_per_state=3)
    assert len(reports) == len(pairs)
    for rep in reports:
        assert rep.max_rel_residual < 1e-8, rep.check_id


def test_check_whose_sides_both_vanish_reads_zero(tmp_path, monkeypatch, capsys):
    text = (Path(catalog.data_dir()) / "so3.ident").read_text()
    (tmp_path / "so3.ident").write_text(text + "check zero_both : 0*l == 0\n")
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    report = oracle.residual(catalog.get_suite("so3").spec("zero_both"), points_per_state=3)
    assert (report.max_abs_residual, report.max_rel_residual) == (0.0, 0.0)
    assert cli.main(["oracle", "--suite", "so3", "--points", "3"]) == 0
    assert "oracle so3:" in capsys.readouterr().out


def test_check_on_a_bare_let_name_reads_its_body(tmp_path, monkeypatch, capsys):
    # the name's body is the left side's summands; read as one summand, a
    # vanishing body would be roundoff divided by roundoff
    text = (Path(catalog.data_dir()) / "so3.ident").read_text()
    (tmp_path / "so3.ident").write_text(
        text + "let Z = [l_x, r_x]\ncheck alias_zero : Z == 0\n")
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    report = oracle.residual(catalog.get_suite("so3").spec("alias_zero"), points_per_state=3)
    assert report.max_rel_residual < 1e-12
    assert cli.main(["oracle", "--suite", "so3", "--points", "3"]) == 0
    assert "oracle so3:" in capsys.readouterr().out


def test_empty_sample_rejected():
    spec = catalog.get_suite("so3").spec("l_cross_l")
    pairs = [("so3", "l_cross_l")]
    for points in (0, -3):
        with pytest.raises(UsageError):
            oracle.residual(spec, points_per_state=points)
        with pytest.raises(UsageError):
            oracle.run_battery(pairs, points_per_state=points)
    with pytest.raises(UsageError):
        oracle.residual(spec, states=[])
    with pytest.raises(UsageError):
        oracle.run_battery(pairs, states=[])


def test_run_battery_builds_each_jet_once(monkeypatch):
    calls = Counter()
    build = oracle.state_jets

    def counting(state, point, order):
        calls[repr(state), tuple(point), order] += 1
        return build(state, point, order)

    monkeypatch.setattr(oracle, "state_jets", counting)
    monkeypatch.setattr(oracle, "_SAMPLE", None)
    states = oracle.default_states(2, seed=5)
    pairs = [p for p in oracle.default_battery() if p[0] in ("so3", "so4")]
    reports = oracle.run_battery(pairs, states=states, points_per_state=3, seed=5)
    assert len(reports) == len(pairs)
    assert calls and max(calls.values()) == 1
    orders = {order for _state, _point, order in calls}
    assert len(calls) == len(states) * 3 * len(orders)


def test_run_battery_applies_each_let_body_to_the_sample_once(monkeypatch):
    # a let body reached again at the sample state, by any check of its
    # suite, reads the jet the first reach made.  A body one suite lends to
    # another is applied once by each suite (per lens set); a suite's let
    # names tell theorem and spectrum_algebra apart
    applied, reaches = Counter(), []
    apply = oracle._Walk.apply

    def counting(self, node, axis, psi, need):
        if psi is self.state:
            if self.info(node)[3][0] == "alias":
                reaches.append(node)
            if any(node is body for body in self.defs.values()):
                applied[tuple(self.defs), id(node), axis, need, tuple(self.lenses.ravel())] += 1
        return apply(self, node, axis, psi, need)

    monkeypatch.setattr(oracle._Walk, "apply", counting)
    monkeypatch.setattr(oracle, "_SAMPLE", None)
    reports = oracle.run_battery(states=oracle.default_states(2, seed=5), points_per_state=2)
    assert len(reports) == len(oracle.default_battery())
    assert applied and max(applied.values()) == 1
    assert len(reaches) > len(applied)


def test_the_memo_cannot_be_seen_from_outside(monkeypatch):
    # each report of the default battery equals its check run alone, from a
    # fresh sample and no kept walk, float for float, and in any order
    monkeypatch.setattr(oracle, "_SAMPLE", None)
    pairs = oracle.default_battery()
    reports = oracle.run_battery()
    assert len(reports) == len(pairs) == 77
    for (name, cid), report in zip(pairs, reports):
        monkeypatch.setattr(oracle, "_SAMPLE", None)
        monkeypatch.setattr(oracle, "_WALKS", {})
        assert oracle.residual(catalog.get_suite(name).spec(cid)) == report
    assert oracle.run_battery(pairs[::-1]) == reports[::-1]


def test_the_memo_follows_the_suite_object(tmp_path, monkeypatch):
    # one process, one sample: a suite read from other files brings its own
    # let bodies, and the packaged suite brings its own back
    packaged = catalog.data_dir()
    text = (Path(packaged) / "theorem.ident").read_text()
    let_v = "let V = h + mu*((rS*rS)*rpow(-4))/(2*M)\n"
    assert text.count(let_v) == 1
    (tmp_path / "theorem.ident").write_text(
        text.replace(let_v, "let V = h + mu*((rS*rS)*rpow(-4))/M\n"))

    def r_ham():
        return oracle.residual(catalog.get_suite("theorem").spec("R_Ham")).max_rel_residual

    assert r_ham() < 1e-8
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    assert r_ham() > 1e-3
    monkeypatch.setenv("SO4ATOM_DATA_DIR", packaged)
    assert r_ham() < 1e-8


@pytest.mark.parametrize("points", [2.5, float("nan"), 3.0])
def test_a_fractional_sample_size_is_a_usage_error(points):
    # 2.5 drew 3 points a state and reported 30 points; nan failed in np.stack
    spec = catalog.get_suite("so3").spec("l_cross_l")
    with pytest.raises(UsageError, match="an integer"):
        oracle.residual(spec, points_per_state=points)
    with pytest.raises(UsageError, match="an integer"):
        oracle.run_battery([("so3", "l_cross_l")], points_per_state=points)


def test_run_battery_builds_each_radial_factor_once(monkeypatch):
    # every |r|^m factor jet of a battery is one fractional power per
    # (exponent, order), shared by every check that reads it
    calls = Counter()
    power = Jet.fractional_power

    def counting(self, exponent):
        calls[exponent, self.order] += 1
        return power(self, exponent)

    monkeypatch.setattr(Jet, "fractional_power", counting)
    monkeypatch.setattr(oracle, "_SAMPLE", None)
    reports = oracle.run_battery(states=oracle.default_states(1, seed=42),
                                 points_per_state=2)
    assert len(reports) == len(oracle.default_battery())
    assert len(calls) > 1
    assert max(calls.values()) == 1


@pytest.mark.parametrize("pairs", [(), []])
def test_empty_battery_runs_no_check(monkeypatch, pairs):
    # only pairs=None means the default battery
    monkeypatch.setattr(oracle, "residual", lambda *a, **k: pytest.fail("ran a check"))
    assert oracle.run_battery(pairs) == []
