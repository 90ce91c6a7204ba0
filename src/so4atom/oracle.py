"""Numeric confirmation of catalog identities on random wavefunctions.

The oracle never consults the symbolic engine.  It walks a check's syntax
tree, and the suite's let bodies, right to left over a batched spinor jet:
the Taylor coefficients of a test state (polynomial times Gaussian) at every
sample point.  p_u = -i*hbar d/du shifts coefficients and lowers the jet
order by one; r_u, r^m, rpow(m) and unitr() multiply by jets of the position
and of |r|^m; S_u is hbar/2 times a Pauli matrix on the spinor axis;
[A, B] = A(B psi) - B(A psi), a bare r against a vector meaning |r|; dot,
cross and idx act per component.  Each sub-walk keeps only the jet order its
consumer needs.  A check read at both couplings mu = 0 and 1 is walked once:
mu scales a lens axis of the jets.  Derivatives are exact, so a passing
identity sits at float roundoff, about 1e-15, far below the tolerance of
1e-8.  One sample table per battery holds the state jets at the highest
order any check needs.

The relative residual at a point is |lhs - rhs|, a 1-norm over the spinor,
divided by the largest such norm among the left side's top-level summands:
the tree split at +, - and unary minus, constant factors kept on each
summand, idx distributed, dot split into its three products, a cross
component into its two and [A, B] into AB and BA.  Where every summand
vanishes, the gap stands as it is.  Reports are deterministic for a seed.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import sqrt
from operator import add, mul, sub, truediv

import numpy as np

from .errors import LangError, UsageError
from .jets import Jet
from .lang import Apply, BinOp, Commutator, Index, Neg, Num, Sym, VecBuiltin
from . import catalog, lang

__all__ = [
    "DEFAULT_BINDINGS",
    "TestState",
    "ResidualReport",
    "default_states",
    "sample_points",
    "state_jets",
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

_AXES = ("x", "y", "z")
_BUILTINS = {name: VecBuiltin(name) for name in ("r", "p", "S", "l")}
_R = _BUILTINS["r"]
_RADIUS = Apply("rpow", (Num(Fraction(1)),))
_UNIT = BinOp("*", _R, Apply("rpow", (Num(Fraction(-1)),)))
_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}


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
    """Taylor jet of the state around point; spinor components on the last axis."""
    d = [Jet.variable(order, u, point[u] - c) for u, c in enumerate(state.center)]
    gauss = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).scale(-0.5 / state.gaussian_width ** 2)
    polys = [Jet.from_poly(order, poly, point).coeffs * weight
             for poly, weight in zip(state.poly_coeffs, state.spinor)]
    return Jet(order, np.stack(polys, axis=-1)) * Jet(order, gauss.exp().coeffs[:, None])


# the battery in progress: its (states, points per state, seed), its sample
# points (n, 3), the state jets there, coefficients (K, 1, 2, n) with a lens
# axis that mu widens, and |r|^2
_SAMPLE = None


def _sample(states, points_per_state, seed, order):
    global _SAMPLE
    key = (list(states), points_per_state, seed)
    if _SAMPLE is None or _SAMPLE[0] != key or _SAMPLE[2].order < order:
        rng = random.Random(seed)
        pairs = [(s, p) for s in states for p in sample_points(s, points_per_state, rng)]
        psi = np.stack([state_jets(s, p, order).coeffs for s, p in pairs], axis=-1)
        points = np.array([p for _s, p in pairs])
        x = [Jet.variable(order, u, points[None, None, :, u]) for u in range(3)]
        _SAMPLE = (key, points, Jet(order, psi[:, None]),
                   x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return _SAMPLE[1:]


def _exponent(node, span):
    n = lang._as_exponent(node)
    if n is None:
        raise LangError("exponent must be an integer literal", span)
    return n


def _radial(node):
    """m for rpow(m) and r^m, else None."""
    if isinstance(node, Apply) and node.func == "rpow" and len(node.args) == 1:
        return _exponent(node.args[0], node.span)
    if isinstance(node, BinOp) and node.op == "^" and node.lhs == _R:
        return _exponent(node.rhs, node.span)
    return None


class _Walk:
    """Acts with a suite's syntax trees on a batched spinor jet, right to left.

    apply(node, axis, psi, need) applies node (its component axis, if a
    vector) to psi, to jet order need; psi must reach need plus node's
    momentum order.  A summand is (coefficient, jet): constants, signs,
    -i*hbar and hbar/2 stay scalars until summands of different coefficients
    meet.  act() gives node's top-level summands, which the normaliser reads.
    Shape, momentum order, constant value and the way to act are kept per
    node for the walk; jets are not kept.
    """

    def __init__(self, suite, bindings, mus):
        self.defs = {d.name: d.expr for d in suite.definitions}
        # under one lens mu folds like any constant; under two it scales a lens axis
        self.consts = dict(bindings, i=1j, mu=mus[0])
        if len(mus) > 1:
            del self.consts["mu"]
        self.lenses = np.array(mus, dtype=float).reshape(-1, 1, 1)
        self._info = {}

    def at(self, points, radius2):
        """Act at these points (n, 3), whose |r|^2 jet is radius2."""
        self.points, self.radius2 = points, radius2
        return self

    def _alias(self, node):
        """(tree, axis) that a name or unitr() stands for, or (None, value)."""
        if not isinstance(node, Sym):
            return (_UNIT, None) if isinstance(node, Apply) and node.func == "unitr" else None
        base, _, axis = node.name.rpartition("_")
        if node.name in self.defs:
            return self.defs[node.name], None
        if axis in _AXES and (base in self.defs or base in _BUILTINS):
            return self.defs.get(base, _BUILTINS.get(base)), _AXES.index(axis)
        if node.name in self.consts:
            return None, complex(self.consts[node.name])
        raise LangError("unbound name %r" % node.name, node.span)

    def info(self, node):
        """(is a vector, momentum order, constant value or None, how to act)."""
        key = id(node)
        if key not in self._info:
            self._info[key] = self._describe(node)
        return self._info[key]

    def order(self, spec):
        return max(self.info(spec.lhs)[1], self.info(spec.rhs)[1])

    def _describe(self, node):
        if isinstance(node, Sym) and node.name == "mu" and "mu" not in self.consts:
            return False, 0, None, ("mu",)
        alias, m = self._alias(node), _radial(node)
        if alias and alias[0] is None or isinstance(node, Num):
            return False, 0, alias[1] if alias else complex(node.value), ("const",)
        if alias:
            vec, order, value, _how = self.info(alias[0])
            return vec and alias[1] is None, order, value, ("alias",) + alias
        if m is not None:
            return False, 0, None, ("radial", m / 2)
        if isinstance(node, VecBuiltin):
            return True, int(node.name in ("p", "l")), None, (node.name,)
        if isinstance(node, Neg):
            vec, order, value, _how = self.info(node.operand)
            return vec, order, None if value is None else -value, ("scale", node.operand, -1.0)
        if isinstance(node, Index):
            return False, self.info(node.target)[1], None, \
                ("index", node.target, _AXES.index(node.axis))
        if isinstance(node, BinOp) and node.op == "^":
            n = _exponent(node.rhs, node.span)
            _vec, order, value, _how = self.info(node.lhs)
            if value is None and n < 0:
                raise LangError("only constants and r take negative powers", node.span)
            return False, order * n, None if value is None else value ** n, \
                ("power", node.lhs, n, order)
        a, b = self._sides(node)
        (avec, aorder, aval, _a), (bvec, border, bval, _b) = self.info(a), self.info(b)
        if not isinstance(node, BinOp):
            how = node.func if isinstance(node, Apply) else "bracket"
            return avec or bvec if how == "bracket" else how == "cross", aorder + border, \
                None, (how, a, b)
        if node.op == "/" and not bval:
            raise LangError("division only by nonzero constants", node.span)
        value = None if aval is None or bval is None else _ARITHMETIC[node.op](aval, bval)
        order = {"*": aorder + border, "/": aorder}.get(node.op, max(aorder, border))
        if node.op in ("+", "-"):
            how = ("sum", a, b, node.op == "-")
        elif bval is not None or aval is not None:
            how = ("scale", b, aval) if bval is None else \
                ("scale", a, bval if node.op == "*" else 1.0 / bval)
        else:
            how = ("pair", a, b)
        return avec or bvec, order, value, how

    def _sides(self, node):
        """The operands; in a bracket against a vector, a bare r is |r|."""
        if isinstance(node, Apply):
            if node.func not in ("dot", "cross") or len(node.args) != 2:
                raise LangError("bad call of %r" % node.func, node.span)
            return node.args
        a, b = node.lhs, node.rhs
        if isinstance(node, Commutator) and self.info(a)[0] and self.info(b)[0]:
            if _R not in (a, b):
                raise LangError("commutator of two vectors; take components", node.span)
            a, b = (_RADIUS, b) if a == _R else (a, _RADIUS)
        return a, b

    def apply(self, node, axis, psi, need):
        """node (its component axis) applied to psi as one summand: a
        coefficient and a jet of order need, or (0, None)."""
        _vec, _order, value, (how, *args) = self.info(node)
        hbar = self.consts["hbar"]
        if value is not None:
            return value, psi.truncate(need)
        if how == "alias":
            return self.apply(args[0], axis if args[1] is None else args[1], psi, need)
        if how == "radial" and not need:   # at order 0, a plain factor |r|^m per point
            return 1.0, psi.truncate(0).scale(self.radius2.value() ** args[0])
        if how == "radial":
            return 1.0, self.radius2.truncate(need).fractional_power(args[0]) * psi.truncate(need)
        if how in ("p", "l") and psi.order <= need:
            raise UsageError("jet order %d is too low for %s at order %d" % (psi.order, how, need))
        if how == "p":
            return -1j * hbar, psi.truncate(need + 1).diff(axis)
        if how == "l":   # (r x p)_axis = -i hbar (r x grad)_axis
            return -1j * hbar, psi.truncate(need + 1).cross_grad(axis, self.points.T)
        if how == "S":
            return 0.5 * hbar, Jet(need, _SIGMA[axis] @ psi.truncate(need).coeffs)
        if how == "r":
            return 1.0, psi.truncate(need).times_variable(axis, self.points[:, axis])
        if how == "mu":
            return 1.0, psi.truncate(need).scale(self.lenses)
        if how == "power":
            base, n, order = args
            coeff = 1.0
            for left in range(n - 1, -1, -1):
                factor, psi = self.apply(base, axis, psi, need + left * order)
                coeff *= factor
                if not coeff:
                    return 0.0, None
            return coeff, psi
        return _combine(self.act(node, axis, psi, need))

    def _pair(self, a, j, b, k, psi, need, sign=1.0):
        """A_j (B_k psi) as one summand."""
        inner_coeff, inner = self.apply(b, k, psi, need + self.info(a)[1])
        if not inner_coeff:
            return 0.0, None
        coeff, outer = self.apply(a, j, inner, need)
        return sign * coeff * inner_coeff, outer

    def act(self, node, axis, psi, need):
        """The top-level summands of node applied to psi, as apply() gives each."""
        _vec, _order, value, (how, *args) = self.info(node)
        if value is not None or how not in ("index", "scale", "sum", "pair", "bracket",
                                            "dot", "cross"):
            return [self.apply(node, axis, psi, need)]
        if how == "index":
            return self.act(args[0], args[1], psi, need)
        if how == "scale":
            parts = self.act(args[0], axis, psi, need) if args[1] else []
            return [(args[1] * c, jet) for c, jet in parts]
        if how == "sum":
            rhs = self.act(args[1], axis, psi, need)
            return self.act(args[0], axis, psi, need) + \
                ([(-c, jet) for c, jet in rhs] if args[2] else rhs)
        a, b = args
        if how == "pair":
            return [self._pair(a, axis, b, axis, psi, need)]
        if how == "bracket":
            return [self._pair(a, axis, b, axis, psi, need),
                    self._pair(b, axis, a, axis, psi, need, -1.0)]
        if how == "dot":
            return [self._pair(a, u, b, u, psi, need) for u in range(3)]
        j, k = (axis + 1) % 3, (axis + 2) % 3
        return [self._pair(a, j, b, k, psi, need), self._pair(a, k, b, j, psi, need, -1.0)]

    def gaps(self, lhs, rhs, psi):
        """Per component: |lhs - rhs| and the largest lhs summand, per point."""
        lvec, rvec = self.info(lhs)[0], self.info(rhs)[0]
        for axis in (0, 1, 2) if lvec or rvec else (None,):
            parts = [c * jet.value() for c, jet in self.act(lhs, axis, psi, 0) if c]
            norms = [np.abs(part).sum(axis=-2) for part in parts] or [np.zeros(len(self.points))]
            coeff, jet = self.apply(rhs, axis, psi, 0)
            gap = sum(parts) - (coeff * jet.value() if coeff else 0.0)
            yield np.abs(gap).sum(axis=-2), reduce(np.maximum, norms)


def _combine(terms):
    """The sum of (coefficient, jet) terms as one; terms whose coefficients
    are equal or opposite add or subtract without scaling a jet."""
    coeff, total = 0.0, None
    for c, jet in terms:
        if not c:
            continue
        if total is None:
            coeff, total = c, jet
        elif c == coeff or c == -coeff:
            total = total + jet if c == coeff else total - jet
        else:
            total = total + jet.scale(c / coeff)
    return coeff, total


def _mu_values(policy):
    if policy == "0":
        return (0,)
    if policy == "1":
        return (1,)
    return (0, 1)


def _check_sample(states, points_per_state):
    if points_per_state < 1:
        raise UsageError("points per state must be at least 1, got %r" % points_per_state)
    if not states:
        raise UsageError("the oracle needs at least one test state")


def residual(spec, states=None, points_per_state=20, seed=42, bindings=None):
    """Max residual of one identity over states x points, both couplings."""
    merged = dict(DEFAULT_BINDINGS, **(bindings or {}))
    if states is None:
        states = default_states(5, seed)
    _check_sample(states, points_per_state)
    suite = catalog.get_suite(spec.suite)
    mus = _mu_values(spec.mu_policy)
    walk = _Walk(suite, merged, mus)
    points, psi, radius2 = _sample(states, points_per_state, seed, walk.order(spec))
    max_abs, max_rel = 0.0, 0.0
    # every lens at once: a check that never reads mu stays one lens wide
    for gap, largest in walk.at(points, radius2).gaps(spec.lhs, spec.rhs, psi):
        gap, largest = np.broadcast_arrays(gap, largest)
        rel = np.divide(gap, largest, out=gap.copy(), where=largest > 0)
        max_abs = max(max_abs, float(gap.max()))
        max_rel = max(max_rel, float(rel.max()))
    return ResidualReport(spec.check_id, len(points) * len(mus), max_abs, max_rel, seed)


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
    specs = [catalog.get_suite(name).spec(cid) for name, cid in pairs]
    # one sample table for the battery, at the highest order any check needs
    top = max(_Walk(catalog.get_suite(s.suite), DEFAULT_BINDINGS, (0,)).order(s) for s in specs)
    _sample(states, points_per_state, seed, top)
    return [residual(spec, states=states, points_per_state=points_per_state,
                     seed=seed, bindings=bindings)
            for spec in specs]
