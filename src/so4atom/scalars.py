"""Exact scalar arithmetic: Gaussian rationals times Laurent monomials.

Every coefficient in the operator engine lives in the commutative ring
Q(i)[s, 1/s, ...] over a registered, totally ordered set of symbols
(hbar, masses, couplings, ansatz unknowns).  Values are exact; no
floating point enters on the symbolic path.
"""

from __future__ import annotations

import keyword
import re
from fractions import Fraction

from so4atom import _kernel as K
from so4atom.errors import DomainError, UsageError

BUILTIN_SYMBOLS = ("hbar", "M", "kappa", "k1", "k2", "mu")

# Names claimed by the expression language: generators, axes, the
# imaginary unit and function heads.  Registering these as scalar
# symbols would shadow them.
RESERVED_NAMES = frozenset(
    {"i", "r", "p", "S", "l", "x", "y", "z", "cross", "dot", "unitr", "rpow", "idx"}
)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

HBAR_INDEX = 0

_ZERO_WORD = (0,) * K.SIG_FIELDS


class SymbolRegistry:
    """Ordered collection of commuting scalar symbols.

    The built-in symbols occupy the first indices in a fixed order, so
    raw exponent keys are comparable across every registry.  Growth is
    append-only: registering a new symbol never invalidates existing
    coefficients.
    """

    def __init__(self, extra=()):
        self._names = list(BUILTIN_SYMBOLS)
        self._index = {n: i for i, n in enumerate(self._names)}
        self._texts = {}
        for name in extra:
            self.register(name)

    def register(self, name: str) -> None:
        if not _NAME_RE.match(name) or keyword.iskeyword(name):
            raise UsageError(f"invalid symbol name {name!r}")
        if name in RESERVED_NAMES:
            raise UsageError(f"symbol name {name!r} is reserved by the expression language")
        if name in self._index:
            raise UsageError(f"symbol {name!r} already registered")
        self._index[name] = len(self._names)
        self._names.append(name)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UsageError(f"unknown symbol {name!r}") from None

    def name(self, idx: int) -> str:
        return self._names[idx]

    def monomial_text(self, key) -> str:
        """The printed form of a sparse key, such as ``hbar^2*M``; kept,
        since a registry only grows and a name never changes."""
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = "*".join(
                self._names[i] + (f"^{e}" if e != 1 else "") for i, e in key)
        return text

    @property
    def names(self):
        return tuple(self._names)

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self._names)


def _check_same_registry(a, b):
    if a.registry is not b.registry:
        raise UsageError("operands belong to different symbol registries")


def exact(fn, *args):
    """``fn(*args)`` for a kernel function, with an exponent that leaves
    its packed field (the kernel's OverflowError) as a DomainError."""
    try:
        return fn(*args)
    except OverflowError as exc:
        raise DomainError(str(exc)) from None


def substitute_raw(terms, registry, name, value):
    """A term dict with symbol ``name`` replaced by the rational ``value``."""
    idx = registry.index(name)
    value = Fraction(value)
    unit = K.symbol_unit(idx)
    out = {}
    for key, g in terms.items():
        e = K.exponent(key, idx)
        if e:
            if value == 0:
                if e < 0:
                    raise DomainError(f"substituting 0 for {name!r} hits a negative power")
                continue
            v = value**e
            g = K.g_mul(g, K.g_norm(v.numerator, 0, v.denominator))
            key -= e * unit
        K.acc_raw(out, key, g)
    return out


class ScalarCoeff:
    """Immutable exact scalar: a Q(i)-linear combination of Laurent
    monomials in registered symbols.

    The raw form is a kernel term dict whose keys all carry the identity
    word: packed exponent keys (``_kernel.pack((0,)*10, key)`` of a sparse
    ``(index, exponent)`` key) mapped to Gaussian rational triples
    ``(a, b, d)`` = (a + b i)/d.
    """

    __slots__ = ("registry", "_terms")

    def __init__(self, registry, terms):
        self.registry = registry
        self._terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, registry):
        return cls(registry, {})

    @classmethod
    def one(cls, registry):
        return cls(registry, {K.ID_WORD: (1, 0, 1)})

    @classmethod
    def imag_unit(cls, registry):
        return cls(registry, {K.ID_WORD: (0, 1, 1)})

    @classmethod
    def from_rational(cls, registry, value):
        value = Fraction(value)
        if value == 0:
            return cls(registry, {})
        return cls(registry, {K.ID_WORD: K.g_norm(value.numerator, 0, value.denominator)})

    @classmethod
    def from_gauss(cls, registry, re_part, im_part):
        re_part = Fraction(re_part)
        im_part = Fraction(im_part)
        den = re_part.denominator * im_part.denominator
        a = re_part.numerator * im_part.denominator
        b = im_part.numerator * re_part.denominator
        if a == 0 and b == 0:
            return cls(registry, {})
        return cls(registry, {K.ID_WORD: K.g_norm(a, b, den)})

    @classmethod
    def symbol(cls, registry, name, power=1):
        idx = registry.index(name)
        if power == 0:
            return cls.one(registry)
        return cls(registry, {exact(K.pack, _ZERO_WORD, ((idx, power),)): (1, 0, 1)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        _check_same_registry(self, other)
        return ScalarCoeff(self.registry, K.sc_add_raw(self._terms, other._terms))

    def __sub__(self, other):
        _check_same_registry(self, other)
        return ScalarCoeff(self.registry, K.sc_sub_raw(self._terms, other._terms))

    def __neg__(self):
        return ScalarCoeff(self.registry, K.sc_neg_raw(self._terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarCoeff.from_rational(self.registry, other)
        if not isinstance(other, ScalarCoeff):
            return NotImplemented
        _check_same_registry(self, other)
        return ScalarCoeff(self.registry, exact(K.sc_mul_raw, self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise UsageError("scalar powers must be integers")
        if n < 0:
            return self.invert() ** (-n)
        out = ScalarCoeff.one(self.registry)
        for _ in range(n):
            out = out * self
        return out

    def invert(self) -> "ScalarCoeff":
        if len(self._terms) != 1:
            raise DomainError("only single-monomial scalars are invertible")
        return ScalarCoeff(self.registry, exact(K.invert_raw, self._terms))

    # -- substitution -------------------------------------------------

    def substitute(self, name, value) -> "ScalarCoeff":
        """Replace a symbol by an exact rational value."""
        return ScalarCoeff(self.registry, substitute_raw(self._terms, self.registry, name, value))

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {K.ID_WORD: (1, 0, 1)}

    def evaluate(self, bindings) -> complex:
        """Numeric value given per-symbol complex bindings."""
        total = 0j
        for key, (a, b, d) in self._terms.items():
            v = complex(a, b) / d
            for idx, e in K.scalar_key(key):
                name = self.registry.name(idx)
                try:
                    base = bindings[name]
                except KeyError:
                    raise UsageError(f"no numeric binding for symbol {name!r}") from None
                v *= base**e
            total += v
        return total

    def raw(self):
        return self._terms

    # -- comparison / display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarCoeff):
            return NotImplemented
        return self.registry is other.registry and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for key, (a, b, d) in sorted((K.scalar_key(k), g) for k, g in self._terms.items()):
            if b == 0:
                num = str(a) if d == 1 else f"{a}/{d}"
            elif a == 0:
                num = f"{b}i" if d == 1 else f"({b}i)/{d}"
            else:
                num = f"({a}{'+' if b > 0 else ''}{b}i)/{d}" if d != 1 else f"({a}{'+' if b > 0 else ''}{b}i)"
            syms = self.registry.monomial_text(key)
            if not syms:
                parts.append(num)
            elif num == "1":
                parts.append(syms)
            elif num == "-1":
                parts.append(f"-{syms}")
            else:
                parts.append(f"{num}*{syms}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ScalarCoeff({self})"
