"""Numeric oracle: operators acting on smooth spinor test states."""

import random
from collections import Counter

import numpy as np
import pytest

from so4atom import catalog, lang, operators, oracle
from so4atom.errors import UsageError
from so4atom.jets import Jet
from so4atom.lang import parse_expr


def act(text, point, order):
    """text acting on the seed-5 state at one point, through the oracle's walk."""
    state = oracle.default_states(1, seed=5)[0]
    psi = oracle.state_jets(state, point, order)
    walk = oracle._Walk(catalog.get_suite("so3"), oracle.DEFAULT_BINDINGS, (0,))
    x = [Jet.variable(order, u, np.full((1, 1, 1), c)) for u, c in enumerate(point)]
    walk.at(np.array([point]), x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    coeff, jet = walk.apply(parse_expr(text), None, Jet(order, psi.coeffs[:, None, :, None]), 0)
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
