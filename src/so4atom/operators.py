"""Noncommutative operator algebra on a canonical monomial basis.

Generators: three positions r_u, a radial power r^m (any integer m),
three momenta p_u, three spin components S_u.  Canonical monomials are

    r_x^px r_y^py r_z^pz  r^rad  p_x^mx p_y^my p_z^mz  S_x^sx S_y^sy S_z^sz

with exact scalar coefficients (:class:`so4atom.scalars.ScalarCoeff`).  An
expression stores one flat kernel term dict: a packed int key per word
times scalar monomial (see ``_kernel``), mapped to a Gaussian rational;
``words()`` decodes it to ``{signature 10-tuple: ScalarCoeff}``.
The defining relations:

    [r_u, p_v] = i hbar delta_uv        [S_u, S_v] = i hbar eps_uvw S_w
    [p_u, r^m] = -i hbar m r^(m-2) r_u  (spin commutes with r, p, r^m)

Positions and radial powers commute with each other and satisfy
r^2 = r_x^2 + r_y^2 + r_z^2.  Every expression is stored in the complete
normal form of that quotient with r inverted: each r_x exponent is at
most 1.  Products emit it (``_kernel.expr_mul`` and ``expr_comm`` end in
the rewrite r_x^2 r^m -> r^(m+2) - r_y^2 r^m - r_z^2 r^m); every other
operation keeps it.  So two expressions are equal as operators exactly
when their term dicts are equal, ``==`` and ``hash`` are mathematical and
the zero test is an emptiness check.  A radial power r^m stays a single
term.  Evaluation at r = 0 is never attempted; negative radial powers are
formal Laurent data.

Spin has two modes.  Abstract: spin words are free modulo the su(2)
relations only.  Spin-1/2: words carry the extra relation
S_u S_v = (hbar^2/4) delta_uv + (i hbar/2) eps_uvw S_w, so total spin
degree stays <= 1.  ``reduce_spin_half`` is the quotient map between
them, an algebra homomorphism: it commutes with sums, scaling,
products, commutators and mu specialisation.  So a half-mode value is
the quotient image of the abstract value when one is at hand
(``lang.elaborate`` reads one from a half env's ``ElabEnv.source``),
and is elaborated directly in half mode otherwise.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache

from so4atom import _kernel as K
from so4atom.errors import DomainError, UsageError
from so4atom.scalars import ScalarCoeff, SymbolRegistry, exact, substitute_raw  # noqa: F401 (perfbench reads SymbolRegistry here)

# every field of a word but the radial power's
_NOT_RADIAL = (0, 1, 2, 4, 5, 6, 7, 8, 9)


class SpinMode(enum.Enum):
    ABSTRACT = "abstract"
    SPIN_HALF = "half"

    @classmethod
    def _missing_(cls, value):
        raise UsageError("mode must be abstract or half, not %r" % (value,))


def _check_compat(a, b):
    if a.registry is not b.registry:
        raise UsageError("operands belong to different symbol registries")
    if a.mode is not b.mode:
        raise UsageError("operands have different spin modes")


def scalar_raw(terms):
    """The coefficient of a nonempty term dict whose only word is the
    identity (the dict itself), else None."""
    if not terms:
        return None
    for k in terms:
        if k & K.SIG_MASK != K.ID_WORD:
            return None
    return terms


class OperatorExpr:
    """Finite sum of canonical monomials.  Immutable by convention."""

    __slots__ = ("registry", "mode", "_terms")

    def __init__(self, registry, mode, terms):
        """Store ``terms`` as given.  The caller guarantees the invariant:
        the quotient normal form (every r_x exponent at most 1), no zero
        coefficient, and a dict that nothing mutates later."""
        self.registry = registry
        self.mode = mode
        self._terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, registry, mode=SpinMode.ABSTRACT):
        return cls(registry, mode, {})

    @classmethod
    def from_scalar(cls, coeff: ScalarCoeff, mode=SpinMode.ABSTRACT):
        if coeff.is_zero():
            return cls.zero(coeff.registry, mode)
        return cls(coeff.registry, mode, dict(coeff.raw()))

    @classmethod
    def one(cls, registry, mode=SpinMode.ABSTRACT):
        return cls.from_scalar(ScalarCoeff.one(registry), mode)

    @classmethod
    def generator(cls, registry, kind, axis=None, mode=SpinMode.ABSTRACT):
        """kind in {'pos', 'mom', 'spin'} with axis 0..2."""
        offset = {"pos": 0, "mom": 4, "spin": 7}[kind]
        sig = [0] * K.SIG_FIELDS
        sig[offset + axis] = 1
        return cls(registry, mode, {K.pack(sig): (1, 0, 1)})

    @classmethod
    def radial_power(cls, registry, m, mode=SpinMode.ABSTRACT):
        if m == 0:
            return cls.one(registry, mode)
        return cls(registry, mode, {exact(K.pack, (0, 0, 0, m, 0, 0, 0, 0, 0, 0)): (1, 0, 1)})

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = OperatorExpr.from_scalar(
                ScalarCoeff.from_rational(self.registry, other), self.mode
            )
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        _check_compat(self, other)
        return OperatorExpr(self.registry, self.mode, K.sc_add_raw(self._terms, other._terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = OperatorExpr.from_scalar(
                ScalarCoeff.from_rational(self.registry, other), self.mode
            )
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        _check_compat(self, other)
        return OperatorExpr(self.registry, self.mode, K.sc_sub_raw(self._terms, other._terms))

    def __neg__(self):
        return OperatorExpr(self.registry, self.mode, K.sc_neg_raw(self._terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(ScalarCoeff.from_rational(self.registry, other))
        if isinstance(other, ScalarCoeff):
            return self.scaled(other)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        _check_compat(self, other)
        # a scalar commutes with every generator, so either order just scales
        scalar = scalar_raw(other._terms)
        if scalar is not None:
            return self._scaled_raw(scalar)
        scalar = scalar_raw(self._terms)
        if scalar is not None:
            return other._scaled_raw(scalar)
        raw = exact(K.expr_mul, self._terms, other._terms, self.mode is SpinMode.SPIN_HALF)
        return OperatorExpr(self.registry, self.mode, raw)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(ScalarCoeff.from_rational(self.registry, other))
        if isinstance(other, ScalarCoeff):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, coeff):
        if isinstance(coeff, (int, Fraction)):
            coeff = ScalarCoeff.from_rational(self.registry, coeff)
        if coeff.registry is not self.registry:
            raise UsageError("operands belong to different symbol registries")
        return self._scaled_raw(coeff.raw())

    def _scaled_raw(self, raw):
        if not raw:
            return OperatorExpr.zero(self.registry, self.mode)
        return OperatorExpr(self.registry, self.mode, exact(K.sc_mul_raw, self._terms, raw))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise UsageError("operator powers must be integers")
        if n < 0:
            return self.try_invert() ** (-n)
        out = OperatorExpr.one(self.registry, self.mode)
        for _ in range(n):
            out = out * self
        return out

    def try_invert(self) -> "OperatorExpr":
        """Inverse of a single-monomial expression whose word involves at
        most the radial power (anything else has no inverse here)."""
        if K.word_count(self._terms) != 1:
            raise DomainError("only single-term expressions are invertible")
        sig = K.word_fields(next(iter(self._terms)))
        if any(sig[i] for i in _NOT_RADIAL):
            raise DomainError(
                "inverse exists only for scalar multiples of radial powers"
            )
        if len(self._terms) != 1:
            raise DomainError("only single-monomial scalars are invertible")
        return OperatorExpr(self.registry, self.mode, exact(K.invert_raw, self._terms))

    # -- substitution -------------------------------------------------

    def substitute(self, name, value) -> "OperatorExpr":
        return OperatorExpr(self.registry, self.mode,
                            substitute_raw(self._terms, self.registry, name, value))

    def zero_at(self, name, value) -> bool:
        """``self.substitute(name, value).is_zero()`` for ``value`` 0 or 1,
        without building the substituted expression; the same DomainError
        where ``substitute`` raises one."""
        try:
            return K.expr_zero_at(self._terms, self.registry.index(name), value)
        except ZeroDivisionError:
            raise DomainError(f"substituting 0 for {name!r} hits a negative power") from None

    # -- spin reduction -----------------------------------------------

    def reduce_spin_half(self) -> "OperatorExpr":
        if self.mode is SpinMode.SPIN_HALF:
            return self
        return OperatorExpr(self.registry, SpinMode.SPIN_HALF, exact(K.reduce_half, self._terms))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self):
        """The number of distinct operator words."""
        return K.word_count(self._terms)

    def raw_terms(self):
        return self._terms

    def words(self):
        """``{signature: ScalarCoeff}``: the coefficient of each word."""
        return {K.word_fields(w): ScalarCoeff(self.registry, c)
                for w, c in K.by_word(self._terms).items()}

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return (
            self.registry is other.registry
            and self.mode is other.mode
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        coeffs = self.words()
        for sig in sorted(coeffs):
            c = coeffs[sig]
            word = _word_text(sig)
            cs = str(c)
            if len(c.raw()) > 1 or ("+" in cs and not cs.startswith("(")):
                cs = f"({cs})"
            parts.append(f"{cs}*{word}" if word else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"OperatorExpr({self})"


@cache
def _word_text(sig):
    """A word's printed form, such as ``x r^-2 px Sz``; '' for the identity."""
    glyphs = ("x", "y", "z", None, "px", "py", "pz", "Sx", "Sy", "Sz")
    word = []
    for i, g in enumerate(glyphs):
        if i == 3:
            if sig[3]:
                word.append(f"r^{sig[3]}" if sig[3] != 1 else "r")
            continue
        if sig[i]:
            word.append(f"{g}^{sig[i]}" if sig[i] != 1 else g)
    return " ".join(word)


# ---------------------------------------------------------------------------
# Vectors: triples of operator expressions


class VecExpr:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    @property
    def components(self):
        return (self.x, self.y, self.z)

    def component(self, axis):
        if axis in ("x", "y", "z"):
            axis = "xyz".index(axis)
        return self.components[axis]

    @property
    def registry(self):
        return self.x.registry

    @property
    def mode(self):
        return self.x.mode

    def map(self, fn):
        return VecExpr(fn(self.x), fn(self.y), fn(self.z))

    def __add__(self, other):
        if not isinstance(other, VecExpr):
            return NotImplemented
        return VecExpr(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, VecExpr):
            return NotImplemented
        return VecExpr(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return self.map(lambda c: -c)

    def __mul__(self, other):
        # vector times operator, componentwise on the right
        if isinstance(other, VecExpr):
            raise UsageError("use cross() or dot() for vector-vector products")
        return self.map(lambda c: c * other)

    def __rmul__(self, other):
        if isinstance(other, VecExpr):
            raise UsageError("use cross() or dot() for vector-vector products")
        if isinstance(other, (int, Fraction, ScalarCoeff)):
            return self.map(lambda c: c * other)
        return self.map(lambda c: other * c)

    def scaled(self, coeff):
        return self.map(lambda c: c.scaled(coeff))

    def substitute(self, name, value):
        return self.map(lambda c: c.substitute(name, value))

    def zero_at(self, name, value):
        # every component is tested, so a DomainError anywhere surfaces
        return all([c.zero_at(name, value) for c in self.components])

    def reduce_spin_half(self):
        return self.map(lambda c: c.reduce_spin_half())

    def is_zero(self):
        return self.x.is_zero() and self.y.is_zero() and self.z.is_zero()

    def __str__(self):
        return f"({self.x}, {self.y}, {self.z})"


# ---------------------------------------------------------------------------
# Spec-level operations


def commutator(a, b):
    """[a, b] = a*b - b*a.  Vector arguments distribute componentwise on
    that side.  Two operators go to the kernel's ``expr_comm`` in one
    pass, which cancels the two orders of each monomial pair against each
    other before scaling, so no ``OperatorExpr.__mul__`` is taken.  Any
    other argument is a UsageError."""
    if isinstance(a, VecExpr) and isinstance(b, VecExpr):
        raise UsageError("commutator of two vectors is not defined; take components")
    if isinstance(a, VecExpr):
        return a.map(lambda c: commutator(c, b))
    if isinstance(b, VecExpr):
        return b.map(lambda c: commutator(a, c))
    if not (isinstance(a, OperatorExpr) and isinstance(b, OperatorExpr)):
        raise UsageError("commutator takes operators or vectors")
    _check_compat(a, b)
    raw = exact(K.expr_comm, a._terms, b._terms, a.mode is SpinMode.SPIN_HALF)
    return OperatorExpr(a.registry, a.mode, raw)


def cross(a: VecExpr, b: VecExpr) -> VecExpr:
    """Componentwise cross product; factors of a stay left of b."""
    return VecExpr(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


def dot(a: VecExpr, b: VecExpr) -> OperatorExpr:
    return a.x * b.x + a.y * b.y + a.z * b.z


# ---------------------------------------------------------------------------
# Generator shorthands


def position_vec(reg, mode=SpinMode.ABSTRACT):
    return VecExpr(*(OperatorExpr.generator(reg, "pos", u, mode) for u in range(3)))


def momentum_vec(reg, mode=SpinMode.ABSTRACT):
    return VecExpr(*(OperatorExpr.generator(reg, "mom", u, mode) for u in range(3)))


def spin_vec(reg, mode=SpinMode.ABSTRACT):
    return VecExpr(*(OperatorExpr.generator(reg, "spin", u, mode) for u in range(3)))


def orbital_vec(reg, mode=SpinMode.ABSTRACT):
    return cross(position_vec(reg, mode), momentum_vec(reg, mode))


def radial_power(reg, m, mode=SpinMode.ABSTRACT):
    return OperatorExpr.radial_power(reg, m, mode)


def unit_radial_vec(reg, mode=SpinMode.ABSTRACT):
    rinv = radial_power(reg, -1, mode)
    return position_vec(reg, mode) * rinv
