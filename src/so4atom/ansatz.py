"""Radial ansatz scans.

Two questions are answered exactly over a Laurent window:

* which single power-law profile f keeps the Runge-Lenz construction both
  closed and conserved (answer: only 1/r), and
* which scalar-plus-spin profile xi satisfies the covariant constraint
  [Pi, xi] == i*hbar*(r/r^2)*xi that the closure calculation forces on the
  Hamiltonian's potential core (answer: span of 1/r and (r.S)/r^2).

Both residuals are linear in the unknown coefficients.  Each coefficient
of the residual's term dicts (one per component and operator word, taken
in sorted word order) is a row that must vanish.  solve() splits each row
by its monomial in the physical symbols (hbar, M, ...), eliminates the
resulting equations exactly over the Gaussian rationals and reads the null
space off the free unknowns, so solutions of any number of terms are
found; a row that is not linear in the unknowns is an error.  The basis is
re-substituted through the full construction as a separate check.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _kernel as K
from .errors import DomainError, UsageError
from .scalars import ScalarCoeff, SymbolRegistry
from . import operators as ops
from .operators import OperatorExpr, SpinMode

__all__ = [
    "DEFAULT_INVERSE_WINDOW",
    "DEFAULT_SCALAR_WINDOW",
    "DEFAULT_SPIN_WINDOW",
    "AnsatzTerm",
    "ConstraintSystem",
    "SolutionSpace",
    "build_inverse_constraints",
    "build_spin_constraints",
]

DEFAULT_INVERSE_WINDOW = tuple(range(-4, 3))
DEFAULT_SCALAR_WINDOW = tuple(range(-3, 2))
DEFAULT_SPIN_WINDOW = tuple(range(-4, 1))


def _suffix(n):
    if n == 0:
        return "0"
    return ("m%d" if n < 0 else "p%d") % abs(n)


@dataclass(frozen=True)
class AnsatzTerm:
    """One unknown direction: name * r^exponent, times (r.S) when spin."""
    name: str
    exponent: int
    spin: bool

    @property
    def text(self):
        body = "r^%d" % self.exponent
        return "(r.S)*%s" % body if self.spin else body


def _make_ansatz(prefix, window, spin=False):
    if not window:
        raise UsageError("exponent window is empty")
    return tuple(AnsatzTerm("%s_%s" % (prefix, _suffix(n)), n, spin)
                 for n in sorted(set(window)))


@dataclass(frozen=True)
class SolutionSpace:
    basis: tuple            # dicts name -> constant ScalarCoeff, one per free unknown
    basis_text: tuple       # human-readable profile per direction
    hidden_pairs: tuple     # unknowns of each direction with more than one term
    conflicting_pairs: tuple  # always (): a linear residual has no conflicts
    verified: bool          # re-substitution of the basis came back zero

    @property
    def dimension(self):
        return len(self.basis)


def _eliminate(row, col, pivot):
    """row minus row[col] times the pivot row, whose entry at col is 1; rows
    are sparse {column: Gaussian rational}."""
    if col not in row:
        return row
    a, b, d = row[col]
    out = dict(row)
    for k, g in pivot.items():
        s = K.g_add(out.get(k, (0, 0, 1)), K.g_mul((-a, -b, d), g))
        if s[0] or s[1]:
            out[k] = s
        else:
            del out[k]
    return out


class ConstraintSystem:
    """Residual of one ansatz family, with exact solve over the window."""

    def __init__(self, terms, registry, build_residual):
        self.terms = terms
        self.unknowns = tuple(t.name for t in terms)
        self.registry = registry
        self._build_residual = build_residual
        symbolic = {nm: ScalarCoeff.symbol(registry, nm) for nm in self.unknowns}
        self.residual = build_residual(symbolic)

    def _equations(self):
        """Each row split by its monomial in the physical symbols, as sparse
        rows {column of the unknown: Gaussian rational}."""
        column = {self.registry.index(nm): j for j, nm in enumerate(self.unknowns)}
        for axis, comp in zip("xyz", self.residual.components):
            words = comp.raw_terms()
            for sig in sorted(words):
                split = {}
                for key, g in words[sig].items():
                    hits = [(idx, e) for idx, e in key if idx in column]
                    if len(hits) != 1 or hits[0][1] != 1:
                        raise DomainError("row %s %s is not linear in the unknowns: %s"
                                          % (axis, sig, ScalarCoeff(self.registry, words[sig])))
                    physical = tuple(p for p in key if p[0] not in column)
                    split.setdefault(physical, {})[column[hits[0][0]]] = g
                yield from split.values()

    def solve(self):
        names = self.unknowns
        pivots = {}             # pivot column -> row in reduced echelon form
        for eq in self._equations():
            for col, prow in pivots.items():
                eq = _eliminate(eq, col, prow)
            if eq:
                col = min(eq)
                inv = K.g_inv(eq[col])
                eq = {c: K.g_mul(g, inv) for c, g in eq.items()}
                pivots = {pc: _eliminate(prow, col, eq) for pc, prow in pivots.items()}
                pivots[col] = eq
        terms = self.terms
        free = [f for f in range(len(names)) if f not in pivots]
        basis, texts = [], []
        for f in free:
            vec = {f: ScalarCoeff.one(self.registry)}
            vec.update((pc, -ScalarCoeff(self.registry, {(): prow[f]}))
                       for pc, prow in pivots.items() if f in prow)
            cols = sorted(vec)
            basis.append({names[c]: vec[c] for c in cols})
            texts.append(" + ".join(terms[c].text if vec[c].is_one()
                                    else "(%s)*%s" % (vec[c], terms[c].text) for c in cols))
        hidden = tuple(tuple(vec) for vec in basis if len(vec) > 1)
        verified = self._reverify([names[f] for f in free], basis)
        return SolutionSpace(tuple(basis), tuple(texts), hidden, (), verified)

    def _reverify(self, free, basis):
        """Rebuild the residual at the general solution, each direction
        scaled by its own free unknown, and demand an exact zero through
        the full construction again."""
        assignment = {nm: ScalarCoeff.zero(self.registry) for nm in self.unknowns}
        for name, vec in zip(free, basis):
            for nm, c in vec.items():
                assignment[nm] = assignment[nm] + c * ScalarCoeff.symbol(self.registry, name)
        return self._build_residual(assignment).is_zero()


def _radial_profile(reg, mode, assignment, terms):
    out = OperatorExpr.from_scalar(ScalarCoeff.zero(reg), mode)
    for t in terms:
        coeff = assignment.get(t.name)
        if coeff is None:
            continue
        out = out + OperatorExpr.radial_power(reg, t.exponent, mode).scaled(coeff)
    return out


def build_inverse_constraints(window=DEFAULT_INVERSE_WINDOW):
    """Conservation constraints for R = (p x l - l x p)/2M + f*r.

    f runs over the window with unknown coefficients; each power feeds the
    potential the closure bracket extracts for it, so the only freedom left
    is f itself, and [R, H] must vanish.  Linear in the unknowns: the one
    product of two profiles, [f*r, V], is zero.
    """
    terms = _make_ansatz("c", window)
    reg = SymbolRegistry(extra=tuple(t.name for t in terms))
    mode = SpinMode.ABSTRACT
    p = ops.momentum_vec(reg, mode)
    l = ops.orbital_vec(reg, mode)
    rvec = ops.position_vec(reg, mode)
    minv = ScalarCoeff.symbol(reg, "M", -1)
    kinetic = ops.dot(p, p).scaled(Fraction(1, 2)).scaled(minv)
    double_cross = (ops.cross(p, l) - ops.cross(l, p)).scaled(Fraction(1, 2)).scaled(minv)

    def residual(assignment):
        f = _radial_profile(reg, mode, assignment, terms)
        # extracted potential: coefficient (n+3)/2 per power n
        extracted = {t.name: assignment[t.name] * Fraction(t.exponent + 3, 2)
                     for t in terms if t.name in assignment}
        V = _radial_profile(reg, mode, extracted, terms)
        R = double_cross + f * rvec
        H = kinetic + V
        return ops.commutator(R, H)

    return ConstraintSystem(terms, reg, residual)


def build_spin_constraints(scalar_window=DEFAULT_SCALAR_WINDOW,
                           spin_window=DEFAULT_SPIN_WINDOW):
    """The covariant constraint on the potential core at full coupling.

    xi = sum a_n r^n + sum b_m r^m (r.S) must satisfy
    [Pi, xi] == i*hbar*(r/r^2)*xi with Pi = p - (r x S)/r^2.  Linear in the
    unknowns.
    """
    scalar_terms = _make_ansatz("a", scalar_window)
    spin_terms = _make_ansatz("b", spin_window, spin=True)
    reg = SymbolRegistry(extra=tuple(t.name for t in scalar_terms + spin_terms))
    mode = SpinMode.ABSTRACT
    p = ops.momentum_vec(reg, mode)
    S = ops.spin_vec(reg, mode)
    rvec = ops.position_vec(reg, mode)
    rm2 = OperatorExpr.radial_power(reg, -2, mode)
    Pi = p - ops.cross(rvec, S) * rm2
    rS = ops.dot(rvec, S)
    ihbar = ScalarCoeff.imag_unit(reg) * ScalarCoeff.symbol(reg, "hbar")

    def residual(assignment):
        xi = _radial_profile(reg, mode, assignment, scalar_terms)
        xi = xi + _radial_profile(reg, mode, assignment, spin_terms) * rS
        return ops.commutator(Pi, xi) - (rm2 * (rvec * xi)).scaled(ihbar)

    return ConstraintSystem(scalar_terms + spin_terms, reg, residual)
