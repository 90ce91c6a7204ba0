"""Numeric confirmation of catalog identities on random wavefunctions.

Every canonical monomial acts concretely: position factors multiply, the
radial power becomes |r|^m, each momentum factor is -i*hbar times the
corresponding derivative, and spin components act as hbar/2 times Pauli
matrices on a two-component spinor.  Derivatives come from exact Taylor
jets of the test state (polynomial times Gaussian), so there is no
finite-difference error anywhere; the only noise left is float roundoff,
which is why a passing identity sits around 1e-15 and the tolerance is a
comfortable 1e-8.

Every check of a battery samples the same points, so each point's jets are
built once per order into a shared table, and an identity is evaluated over
all points at once, one monomial row at a time.  apply() keeps the plain
point-by-point evaluation as the reference.

Reports are deterministic for a given seed.  Relative residuals are
normalized by the largest single-monomial contribution of the left side at
the same point, so massive cancellations are scored honestly.
"""

import random
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import UsageError
from .jets import Jet, _keys
from .operators import SpinMode, VecExpr
from . import catalog, lang

__all__ = [
    "DEFAULT_BINDINGS",
    "TestState",
    "ResidualReport",
    "default_states",
    "sample_points",
    "state_jets",
    "apply",
    "residual",
    "default_battery",
    "run_battery",
]

DEFAULT_BINDINGS = {"hbar": 1.0, "M": 1.0, "kappa": 1.0, "k1": -1.0, "k2": 0.2}

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_QUAD_KEYS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
              (2, 0, 0), (0, 2, 0), (0, 0, 2),
              (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class TestState:
    """Polynomial times Gaussian, one polynomial per spinor component."""
    gaussian_width: float
    center: tuple
    poly_coeffs: tuple     # two dicts {(i,j,k): complex}, total degree <= 2
    spinor: tuple          # two complex weights, not both zero


@dataclass(frozen=True)
class ResidualReport:
    check_id: str
    num_points: int
    max_abs_residual: float
    max_rel_residual: float
    seed: int


def default_states(count=5, seed=42):
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        width = rng.uniform(0.7, 1.5)
        center = tuple(rng.uniform(-0.5, 0.5) for _ in range(3))
        polys = []
        for _comp in range(2):
            polys.append({key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for key in _QUAD_KEYS})
        while True:
            spinor = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            if max(abs(spinor[0]), abs(spinor[1])) > 0.3:
                break
        states.append(TestState(width, center, tuple(polys), spinor))
    return states


def sample_points(state, count, rng):
    """Directions uniform on the sphere, radii in a shell clear of the origin."""
    lo = max(0.5, 0.3 * state.gaussian_width)
    points = []
    while len(points) < count:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        norm = sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if norm < 1e-9:
            continue
        radius = rng.uniform(lo, 3.0)
        points.append(tuple(radius * c / norm for c in v))
    return points


def state_jets(state, point, order):
    """Taylor jets of both spinor components around the point."""
    quad = Jet.constant(order, 0.0)
    for u in range(3):
        d = Jet.variable(order, u, point[u]) - Jet.constant(order, state.center[u])
        quad = quad + d * d
    gauss = quad.scale(-1.0 / (2.0 * state.gaussian_width ** 2)).exp()
    return tuple(
        (Jet.from_poly(order, state.poly_coeffs[comp], point) * gauss)
        .scale(state.spinor[comp])
        for comp in range(2)
    )


def _spin_matrix(spin_word, hbar):
    mat = np.eye(2, dtype=complex)
    for u in range(3):
        if spin_word[u]:
            base = (hbar / 2.0) * _SIGMA[u]
            for _ in range(spin_word[u]):
                mat = mat @ base
    return mat


def _compile(expr, bindings):
    """Freeze an operator expression into plain numeric monomial data."""
    hbar = bindings["hbar"]
    rows = []
    for m in expr.monomials():
        coeff = m.coeff.evaluate(bindings)
        degree = sum(m.mom_exps)
        factor = coeff * (-1j * hbar) ** degree
        rows.append((factor, m.pos_exps, m.rad_exp, m.mom_exps,
                     _spin_matrix(m.spin_word, hbar)))
    return rows


class _PointTable:
    """Sample points with every jet partial up to one order, one row per point.

    partials[i, comp, col] is jets[comp].partial(alpha) at points[i], for the
    alpha that columns maps to col.
    """

    def __init__(self, points, jets, order):
        self.points = np.array(points, dtype=float).reshape(-1, 3)
        self.radii = np.sqrt((self.points ** 2).sum(axis=1))
        self.columns = {alpha: col for col, alpha in enumerate(_keys(order))}
        self.partials = np.array(
            [[[comp.partial(alpha) for alpha in self.columns] for comp in pair]
             for pair in jets], dtype=complex).reshape(len(points), 2, len(self.columns))

    def __len__(self):
        return len(self.radii)


def _eval_compiled(rows, table):
    """Values (n, 2) and largest single-row magnitudes (n,) over the table."""
    total = np.zeros((len(table), 2), dtype=complex)
    largest = np.zeros(len(table))
    for factor, pos, rad, alpha, mat in rows:
        scale = np.full(len(table), factor, dtype=complex)
        if pos != (0, 0, 0):
            x, y, z = table.points.T
            scale *= x ** pos[0] * y ** pos[1] * z ** pos[2]
        if rad:
            scale *= table.radii ** rad
        deriv = table.partials[:, :, table.columns[alpha]]
        term = scale[:, None] * (deriv @ mat.T)
        total += term
        np.maximum(largest, np.abs(term).sum(axis=1), out=largest)
    return total, largest


def _momentum_order(expr):
    if isinstance(expr, VecExpr):
        return max(c.momentum_order() for c in expr.components)
    return expr.momentum_order()


def apply(expr, state, point, bindings=None, mu=None, order=None):
    """Act with expr on the state's wavefunction; returns a complex 2-vector."""
    merged = dict(DEFAULT_BINDINGS)
    if bindings:
        merged.update(bindings)
    if mu is not None:
        expr = expr.substitute("mu", Fraction(mu))
    need = _momentum_order(expr)
    if order is None:
        order = need
    elif order < need:
        raise UsageError("jet order %d below the momentum degree %d" % (order, need))
    if isinstance(expr, VecExpr):
        raise UsageError("apply acts with one component at a time")
    jets = state_jets(state, point, order)
    radius = sqrt(point[0] ** 2 + point[1] ** 2 + point[2] ** 2)
    value = np.zeros(2, dtype=complex)
    for factor, pos, rad, alpha, mat in _compile(expr, merged):
        scale = factor
        if pos != (0, 0, 0):
            scale *= point[0] ** pos[0] * point[1] ** pos[1] * point[2] ** pos[2]
        if rad:
            scale *= radius ** rad
        value += scale * (mat @ np.array([jets[0].partial(alpha), jets[1].partial(alpha)]))
    return value


def _components(expr, like=None):
    if isinstance(expr, VecExpr):
        return list(expr.components)
    if like is not None and isinstance(like, VecExpr):
        # scalar zero standing in for a vector right-hand side
        return [expr, expr, expr]
    return [expr]


def _mu_values(policy):
    if policy == "0":
        return (0,)
    if policy == "1":
        return (1,)
    return (0, 1)


def _state_key(state):
    # poly dicts keep their insertion order: it fixes the jets' summation order
    return (state.gaussian_width, state.center,
            tuple(tuple(poly.items()) for poly in state.poly_coeffs), state.spinor)


# every check of a battery samples the same points: keep the last few tables
_TABLES = OrderedDict()
_TABLE_LIMIT = 16


def _point_table(states, points_per_state, seed, order):
    """The shared table for states x points_per_state points drawn from seed."""
    key = (tuple(_state_key(s) for s in states), points_per_state, seed, order)
    table = _TABLES.get(key)
    if table is None:
        rng = random.Random(seed)
        points, jets = [], []
        for state in states:
            for point in sample_points(state, points_per_state, rng):
                points.append(point)
                jets.append(state_jets(state, point, order))
        table = _TABLES[key] = _PointTable(points, jets, order)
        if len(_TABLES) > _TABLE_LIMIT:
            _TABLES.popitem(last=False)
    else:
        _TABLES.move_to_end(key)
    return table


def _check_sample(states, points_per_state):
    if points_per_state < 1:
        raise UsageError("points per state must be at least 1, got %r" % points_per_state)
    if not states:
        raise UsageError("the oracle needs at least one test state")


def residual(spec, states=None, points_per_state=20, seed=42, bindings=None):
    """Max residual of one identity over states x points, both couplings."""
    merged = dict(DEFAULT_BINDINGS)
    if bindings:
        merged.update(bindings)
    if states is None:
        states = default_states(5, seed)
    _check_sample(states, points_per_state)
    suite = catalog.get_suite(spec.suite)
    env = suite.env(SpinMode.ABSTRACT)
    lhs = lang.elaborate(spec.lhs, env)
    rhs = lang.elaborate(spec.rhs, env)
    lhs_parts = _components(lhs, like=rhs)
    rhs_parts = _components(rhs, like=lhs)
    if len(lhs_parts) != len(rhs_parts):
        raise UsageError("check %s mixes vector and scalar sides" % spec.check_id)

    max_abs = 0.0
    max_rel = 0.0
    num_points = 0
    for mu in _mu_values(spec.mu_policy):
        sides = []
        order = 0
        for le, re in zip(lhs_parts, rhs_parts):
            le = le.substitute("mu", Fraction(mu))
            re = re.substitute("mu", Fraction(mu))
            order = max(order, _momentum_order(le), _momentum_order(re))
            sides.append((_compile(le, merged), _compile(re, merged)))
        table = _point_table(states, points_per_state, seed, order)
        num_points += len(table)
        for lrows, rrows in sides:
            lval, lmax = _eval_compiled(lrows, table)
            rval, _ = _eval_compiled(rrows, table)
            gap = np.abs(lval - rval).sum(axis=1)
            rel = np.divide(gap, lmax, out=gap.copy(), where=lmax > 0)
            max_abs = max(max_abs, float(gap.max()))
            max_rel = max(max_rel, float(rel.max()))
    return ResidualReport(spec.check_id, num_points, max_abs, max_rel, seed)


# checks the numeric battery runs by default: every equation from the two
# spin-free suites, and a representative slice of the larger two
_BATTERY_EXTRA = {
    "theorem": (
        "J_recast", "JJ_cov_xy", "JPi_cov_xy", "JPixJ_cov_xy", "Jr_cov_xy",
        "JS_cov_xy", "RxR_master", "V_from_constraint", "h_constraint_inner",
        "RR_closure", "J_Ham", "R_Ham", "J_Pisq", "J2_Ham", "Jz_Ham",
        "Pi_r_cc_xx", "Pi_rinv", "Pi_rinv2", "PiPi_field", "Pi_comm_Pisq",
        "PiJ_anticross", "Pi_rS_lemma", "PiPi_field_printed", "Pi_Pisq_printed",
    ),
    "spectrum_algebra": (
        "Sr_conserved", "J_dot_R", "R_dot_J", "R2_expansion", "JR_cov_xy",
    ),
}


def default_battery():
    """(suite, check_id) pairs for the standard numeric sweep."""
    pairs = []
    for name in ("so3", "so4", "inverse"):
        for spec in catalog.get_suite(name).checks:
            if spec.relation == "==":
                pairs.append((name, spec.check_id))
    for name in ("theorem", "spectrum_algebra"):
        suite = catalog.get_suite(name)
        for cid in _BATTERY_EXTRA[name]:
            suite.spec(cid)
            pairs.append((name, cid))
    return tuple(pairs)


def run_battery(pairs=None, states=None, points_per_state=20, seed=42, bindings=None):
    pairs = pairs or default_battery()
    if states is None:
        states = default_states(5, seed)
    _check_sample(states, points_per_state)
    reports = []
    for suite_name, cid in pairs:
        spec = catalog.get_suite(suite_name).spec(cid)
        reports.append(residual(spec, states=states,
                                points_per_state=points_per_state,
                                seed=seed, bindings=bindings))
    return reports
