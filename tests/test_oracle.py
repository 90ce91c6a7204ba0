"""Numeric oracle: operators acting on smooth spinor test states."""

import random
from collections import Counter, OrderedDict
from fractions import Fraction

import pytest

from so4atom import catalog, oracle
from so4atom.errors import UsageError
from so4atom.lang import ElabEnv, elaborate, parse_expr
from so4atom.operators import SpinMode
from so4atom.scalars import SymbolRegistry


def env():
    return ElabEnv(SymbolRegistry(), SpinMode.ABSTRACT, {})


def ev(text, e=None):
    return elaborate(parse_expr(text), e or env())


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
    px = ev("p_x")
    got = oracle.apply(px, state, point)
    step = 1e-5
    up = oracle.state_jets(state, (point[0] + step, point[1], point[2]), 0)
    dn = oracle.state_jets(state, (point[0] - step, point[1], point[2]), 0)
    for comp in (0, 1):
        fd = (up[comp].value() - dn[comp].value()) / (2 * step)
        assert got[comp] == pytest.approx(-1j * hbar * fd, rel=1e-6, abs=1e-9)


def test_apply_position_is_multiplication():
    state = oracle.default_states(1, seed=5)[0]
    point = (0.6, -0.4, 0.8)
    rx = ev("r_x * rpow(-2)")
    got = oracle.apply(rx, state, point)
    base = oracle.state_jets(state, point, 0)
    r2 = sum(c * c for c in point)
    for comp in (0, 1):
        assert got[comp] == pytest.approx(point[0] / r2 * base[comp].value(), rel=1e-9)


def test_apply_needs_enough_jet_order():
    state = oracle.default_states(1, seed=5)[0]
    expr = ev("dot(p, p)")
    with pytest.raises(UsageError):
        oracle.apply(expr, state, (0.5, 0.5, 0.5), order=1)


def test_passing_check_residual_tiny():
    suite = catalog.get_suite("so4")
    spec = suite.spec("R2_identity")
    report = oracle.residual(spec, points_per_state=6)
    assert report.max_rel_residual < 1e-8
    assert report.num_points > 0


def test_identical_routes_give_exact_zero():
    # both sides normalize to the same canonical form, so the compiled
    # rows coincide and the difference is exactly 0.0
    suite = catalog.get_suite("so3")
    spec = suite.spec("l_cross_l")
    report = oracle.residual(spec, points_per_state=4)
    assert report.max_abs_residual == 0.0


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


def test_batched_evaluation_matches_pointwise_apply():
    # the shared table is built at the largest order a check needs; apply
    # builds its own jets at each operator's order, one point at a time
    states = oracle.default_states(1, seed=9)
    for suite_name, cid in oracle.default_battery():
        suite = catalog.get_suite(suite_name)
        spec = suite.spec(cid)
        env = suite.env(SpinMode.ABSTRACT)
        sides = [elaborate(spec.lhs, env), elaborate(spec.rhs, env)]
        for mu in oracle._mu_values(spec.mu_policy):
            ops = [part.substitute("mu", Fraction(mu))
                   for side in sides for part in oracle._components(side)]
            order = max(oracle._momentum_order(op) for op in ops)
            table = oracle._point_table(states, 2, 9, order)
            for op in ops:
                rows = oracle._compile(op, oracle.DEFAULT_BINDINGS)
                values, largest = oracle._eval_compiled(rows, table)
                for i, point in enumerate(table.points.tolist()):
                    want = oracle.apply(op, states[0], tuple(point))
                    gap = abs(values[i] - want).max()
                    assert gap <= 1e-12 * largest[i], (cid, mu, i, gap)


def test_run_battery_builds_each_jet_once(monkeypatch):
    calls = Counter()
    build = oracle.state_jets

    def counting(state, point, order):
        calls[repr(state), tuple(point), order] += 1
        return build(state, point, order)

    monkeypatch.setattr(oracle, "state_jets", counting)
    monkeypatch.setattr(oracle, "_TABLES", OrderedDict())
    states = oracle.default_states(2, seed=5)
    pairs = [p for p in oracle.default_battery() if p[0] in ("so3", "so4")]
    reports = oracle.run_battery(pairs, states=states, points_per_state=3, seed=5)
    assert len(reports) == len(pairs)
    assert calls and max(calls.values()) == 1
    orders = {order for _state, _point, order in calls}
    assert len(calls) == len(states) * 3 * len(orders)
