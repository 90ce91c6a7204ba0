"""Exact coefficient arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom.errors import DomainError, UsageError
from so4atom.scalars import ScalarCoeff, SymbolRegistry


@pytest.fixture
def reg():
    return SymbolRegistry()


def sym(reg, name, power=1):
    return ScalarCoeff.symbol(reg, name, power)


def rat(reg, value):
    return ScalarCoeff.from_rational(reg, Fraction(value))


def test_builtin_symbols_fixed_order(reg):
    assert reg.names[:6] == ("hbar", "M", "kappa", "k1", "k2", "mu")
    assert reg.index("hbar") == 0
    with pytest.raises(UsageError):
        reg.index("nope")


def test_register_rejects_bad_names(reg):
    with pytest.raises(UsageError):
        reg.register("2x")
    with pytest.raises(UsageError):
        reg.register("hbar")
    with pytest.raises(UsageError):
        reg.register("dot")  # reserved by the expression language


def test_zero_one_identities(reg):
    zero = ScalarCoeff.zero(reg)
    one = ScalarCoeff.one(reg)
    x = sym(reg, "k1") + rat(reg, Fraction(2, 3))
    assert (x + zero) == x
    assert (x * one) == x
    assert (x * zero).is_zero()
    assert (x - x).is_zero()
    assert zero.is_zero() and not zero.is_one()
    assert one.is_one() and not one.is_zero()


def test_imag_unit_squares_to_minus_one(reg):
    i = ScalarCoeff.imag_unit(reg)
    assert (i * i + ScalarCoeff.one(reg)).is_zero()


def test_gaussian_rational_arithmetic(reg):
    # (1 + 2i)/3 * its inverse == 1, exactly
    g = ScalarCoeff.from_gauss(reg, Fraction(1, 3), Fraction(2, 3))
    assert (g * g.invert()).is_one()
    assert g.evaluate({}) == pytest.approx((1 + 2j) / 3)


def test_invert_monomial_and_failure(reg):
    h2 = sym(reg, "hbar", 2)
    assert (h2 * h2.invert()).is_one()
    s = sym(reg, "hbar") + sym(reg, "M")
    with pytest.raises(DomainError):
        s.invert()
    with pytest.raises(DomainError):
        ScalarCoeff.zero(reg).invert()


def test_substitute_rational(reg):
    expr = sym(reg, "mu", 2) * sym(reg, "k1") + sym(reg, "mu")
    at2 = expr.substitute("mu", Fraction(2))
    assert at2 == sym(reg, "k1") * rat(reg, 4) + rat(reg, 2)
    assert expr.substitute("mu", 0).is_zero()


def test_substitute_zero_negative_power_rejected(reg):
    inv = sym(reg, "mu").invert()
    with pytest.raises(DomainError):
        inv.substitute("mu", 0)


def test_evaluate_complex(reg):
    expr = sym(reg, "hbar", 2) * ScalarCoeff.imag_unit(reg) + rat(reg, Fraction(3, 4))
    assert expr.evaluate({"hbar": 2.0}) == pytest.approx(0.75 + 4j)


def test_evaluate_missing_binding(reg):
    with pytest.raises(UsageError):
        sym(reg, "k1").evaluate({})


def test_mixed_registry_rejected():
    a = SymbolRegistry()
    b = SymbolRegistry()
    with pytest.raises(UsageError):
        ScalarCoeff.one(a) + ScalarCoeff.one(b)


# property checks: the coefficient ring really is a commutative ring

_names = st.sampled_from(("hbar", "M", "k1", "k2", "mu"))


@st.composite
def coeffs(draw, reg):
    total = ScalarCoeff.zero(reg)
    for _ in range(draw(st.integers(0, 3))):
        term = ScalarCoeff.from_gauss(
            reg,
            Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))),
            Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))),
        )
        for _ in range(draw(st.integers(0, 2))):
            term = term * ScalarCoeff.symbol(reg, draw(_names), draw(st.integers(1, 2)))
        total = total + term
    return total


_REG = SymbolRegistry()


@settings(max_examples=60, deadline=None)
@given(coeffs(_REG), coeffs(_REG), coeffs(_REG))
def test_ring_axioms(a, b, c):
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)
    assert ((a + b) + c) == (a + (b + c))
    assert ((a * b) * c) == (a * (b * c))
    assert (a * (b + c)) == (a * b + a * c)
    assert (a + (-a)).is_zero()


@settings(max_examples=60, deadline=None)
@given(coeffs(_REG))
def test_evaluate_is_ring_hom(a):
    bindings = {"hbar": 1.3, "M": 0.7, "k1": -1.1, "k2": 0.4, "mu": 1.9}
    square = (a * a).evaluate(bindings)
    val = a.evaluate(bindings)
    assert square == pytest.approx(val * val, rel=1e-12, abs=1e-12)
