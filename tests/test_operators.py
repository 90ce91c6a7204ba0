"""Normal-ordered operator algebra.

Unit checks pin the canonical commutation relations and the quotient
normal form; the hypothesis block drives the ring through random words
with rational and multi-term symbolic scales, in both spin modes, and
confirms associativity, Jacobi, the direct commutator against the two
products it replaces, the laws of equality, that the spin-1/2 quotient
map commutes with products, commutators, sums, negation, scaling and mu
specialisation, and that every operation returns the stored normal form
without touching its operands.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom.errors import DomainError, UsageError
from so4atom.operators import (
    OperatorExpr,
    SpinMode,
    commutator,
    cross,
    dot,
    momentum_vec,
    orbital_vec,
    position_vec,
    radial_power,
    spin_vec,
    unit_radial_vec,
)
from so4atom.scalars import ScalarCoeff, SymbolRegistry


@pytest.fixture
def reg():
    return SymbolRegistry()


def ihbar(reg):
    return ScalarCoeff.imag_unit(reg) * ScalarCoeff.symbol(reg, "hbar")


def test_canonical_commutators(reg):
    r = position_vec(reg)
    p = momentum_vec(reg)
    assert commutator(r.x, p.x) == OperatorExpr.from_scalar(ihbar(reg))
    assert commutator(r.x, p.y).is_zero()
    assert commutator(r.x, r.y).is_zero()
    assert commutator(p.x, p.y).is_zero()


def test_radial_power_relations(reg):
    r2 = radial_power(reg, 2)
    rm2 = radial_power(reg, -2)
    assert (r2 * rm2) == OperatorExpr.one(reg)
    x = position_vec(reg)
    # one normal form: equal operators compare and hash equal
    assert (dot(x, x) - r2).is_zero()
    assert dot(x, x) == r2 and hash(dot(x, x)) == hash(r2)
    rm1 = radial_power(reg, -1)
    lhs = x.x * x.x * rm1
    rhs = radial_power(reg, 1) - x.y * x.y * rm1 - x.z * x.z * rm1
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert x.x * x.x == r2 - x.y * x.y - x.z * x.z


def test_momentum_past_radial(reg):
    p = momentum_vec(reg)
    rm1 = radial_power(reg, -1)
    lhs = commutator(p.x, rm1)
    want = (position_vec(reg).x * radial_power(reg, -3)).scaled(ihbar(reg))
    assert lhs == want


def test_orbital_momentum_algebra(reg):
    l = orbital_vec(reg)
    assert commutator(l.x, l.y) == l.z.scaled(ihbar(reg))
    assert commutator(l.x, dot(l, l)).is_zero()
    # l is transverse: l.r == r.l == 0
    r = position_vec(reg)
    assert dot(l, r).is_zero()
    assert dot(r, l).is_zero()


def test_spin_algebra_abstract(reg):
    S = spin_vec(reg)
    assert commutator(S.x, S.y) == S.z.scaled(ihbar(reg))
    assert commutator(S.x, dot(S, S)).is_zero()


def test_spin_half_quotient(reg):
    S = spin_vec(reg, SpinMode.SPIN_HALF)
    h2 = ScalarCoeff.symbol(reg, "hbar", 2)
    quarter = ScalarCoeff.from_rational(reg, Fraction(1, 4))
    # S_x^2 == hbar^2/4 and S.S == 3 hbar^2 / 4
    assert (S.x * S.x) == OperatorExpr.from_scalar(h2 * quarter, SpinMode.SPIN_HALF)
    want = OperatorExpr.from_scalar(
        h2 * ScalarCoeff.from_rational(reg, Fraction(3, 4)), SpinMode.SPIN_HALF
    )
    assert dot(S, S) == want


def test_reduce_spin_half_is_multiplicative(reg):
    S = spin_vec(reg)
    prod = (S.x * S.y) * S.z
    reduced = prod.reduce_spin_half()
    Sh = spin_vec(reg, SpinMode.SPIN_HALF)
    assert reduced == (Sh.x * Sh.y) * Sh.z


def test_reduce_spin_half_leaves_its_operand_alone(reg):
    # S_x^2 reduces onto the identity word, whose coefficient the operand
    # stores too; the reduction must add into a copy
    S = spin_vec(reg)
    x = OperatorExpr.one(reg) + S.x * S.x
    before = copy.deepcopy(x.raw_terms())
    quarter = ScalarCoeff.from_rational(reg, Fraction(1, 4))
    want = ScalarCoeff.one(reg) + ScalarCoeff.symbol(reg, "hbar", 2) * quarter
    assert x.reduce_spin_half() == OperatorExpr.from_scalar(want, SpinMode.SPIN_HALF)
    assert x.raw_terms() == before


def test_unit_radial_vector_normalized(reg):
    n = unit_radial_vec(reg)
    assert dot(n, n) == OperatorExpr.one(reg)


def test_cross_product_noncommutative(reg):
    r = position_vec(reg)
    p = momentum_vec(reg)
    # only mismatched axes pair up, so r x p == -(p x r) exactly
    assert (cross(r, p).x + cross(p, r).x).is_zero()
    assert cross(r, r).is_zero()
    # but a self-cross of noncommuting components survives: l x l == i hbar l
    l = orbital_vec(reg)
    assert cross(l, l).x == l.x.scaled(ihbar(reg))


def test_try_invert(reg):
    r3 = radial_power(reg, 3).scaled(ScalarCoeff.symbol(reg, "M"))
    inv = r3.try_invert()
    assert (r3 * inv) == OperatorExpr.one(reg)
    p = momentum_vec(reg)
    with pytest.raises(DomainError):
        p.x.try_invert()
    with pytest.raises(DomainError):
        (r3 + OperatorExpr.one(reg)).try_invert()


def test_commutator_rejects_non_operators(reg):
    r = position_vec(reg)
    with pytest.raises(UsageError):
        commutator(r.x, 2)
    with pytest.raises(UsageError):
        commutator(ScalarCoeff.one(reg), r)
    with pytest.raises(UsageError):
        commutator(r, r)


def test_substitute_mu(reg):
    mu = ScalarCoeff.symbol(reg, "mu")
    expr = OperatorExpr.one(reg).scaled(mu * mu) + OperatorExpr.one(reg).scaled(mu)
    at0 = expr.substitute("mu", Fraction(0))
    assert at0.is_zero()
    at1 = expr.substitute("mu", Fraction(1))
    assert at1 == OperatorExpr.one(reg).scaled(ScalarCoeff.from_rational(reg, 2))


# -- Pauli matrix oracle ----------------------------------------------------
# Spin words in the quotient must match literal (hbar/2) sigma products.

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _word_matrix(word, hbar=1.0):
    out = np.eye(2, dtype=complex)
    for axis, count in enumerate(word):
        for _ in range(count):
            out = out @ ((hbar / 2) * _SIGMA[axis])
    return out


def _expr_matrix(expr, hbar=1.0):
    out = np.zeros((2, 2), dtype=complex)
    for sig, coeff in expr.raw_terms().items():
        assert sig[:7] == (0,) * 7
        out += ScalarCoeff(expr.registry, coeff).evaluate({"hbar": hbar}) \
            * _word_matrix(sig[7:], hbar)
    return out


@pytest.mark.parametrize("wa", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)])
@pytest.mark.parametrize("wb", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])
def test_spin_half_products_match_pauli(reg, wa, wb):
    def word(exps):
        out = OperatorExpr.one(reg, SpinMode.SPIN_HALF)
        S = spin_vec(reg, SpinMode.SPIN_HALF)
        for axis, comp in zip(range(3), (S.x, S.y, S.z)):
            for _ in range(exps[axis]):
                out = out * comp
        return out

    a, b = word(wa), word(wb)
    ma, mb = _word_matrix(wa, 0.83), _word_matrix(wb, 0.83)
    assert np.allclose(_expr_matrix(a * b, hbar=0.83), ma @ mb, atol=1e-13)
    assert np.allclose(_expr_matrix(commutator(a, b), hbar=0.83), ma @ mb - mb @ ma,
                       atol=1e-13)


@pytest.mark.parametrize("mode", list(SpinMode))
def test_scalar_factor_scales_in_either_order(reg, mode):
    # a scalar-only operator commutes with everything, so a product with it
    # on either side is the same operator as scaling by its coefficient
    r = position_vec(reg, mode)
    p = momentum_vec(reg, mode)
    S = spin_vec(reg, mode)
    expr = r.x * p.y * S.z + radial_power(reg, -1, mode) * p.x - S.x * S.y
    coeff = ScalarCoeff.symbol(reg, "k1") + ScalarCoeff.from_gauss(reg, Fraction(1, 2), 1)
    scalar = OperatorExpr.from_scalar(coeff, mode)
    want = expr.scaled(coeff)
    assert expr * scalar == want
    assert scalar * expr == want
    assert scalar * scalar == OperatorExpr.from_scalar(coeff * coeff, mode)
    assert expr * OperatorExpr.one(reg, mode) == expr
    assert (expr * OperatorExpr.zero(reg, mode)).is_zero()


# -- hypothesis: structural laws over random words --------------------------

_REG = SymbolRegistry()


def _gens(mode):
    r = position_vec(_REG, mode)
    p = momentum_vec(_REG, mode)
    S = spin_vec(_REG, mode)
    return (
        r.x, r.y, r.z, p.x, p.y, p.z, S.x, S.y, S.z,
        radial_power(_REG, -1, mode),
        radial_power(_REG, 2, mode),
    )


_ABSTRACT = _gens(SpinMode.ABSTRACT)
_HALF = _gens(SpinMode.SPIN_HALF)

_word = st.lists(st.integers(0, len(_ABSTRACT) - 1), min_size=1, max_size=4)


def _sym(name, power=1):
    return ScalarCoeff.symbol(_REG, name, power)


# Multi-term symbolic scales with non-unit and complex denominators, so
# the laws also cover the general scalar paths, not only one-term Fractions.
_SYMBOLIC = (
    _sym("k1") + _sym("hbar") * ScalarCoeff.from_rational(_REG, Fraction(1, 3)),
    ScalarCoeff.from_gauss(_REG, Fraction(1, 2), Fraction(1, 2)),
    _sym("M", -1) - ScalarCoeff.from_gauss(_REG, 0, Fraction(2, 7)) * _sym("k2") * _sym("hbar", 2),
    _sym("mu") * _sym("kappa") + ScalarCoeff.from_rational(_REG, Fraction(-5, 6)),
)

_scale = st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from(_SYMBOLIC))


def _build(gens, word, scale):
    """The word's product, scaled by ``scale/3`` for an int, else by ``scale``."""
    out = gens[word[0]]
    for idx in word[1:]:
        out = out * gens[idx]
    if isinstance(scale, int):
        scale = ScalarCoeff.from_rational(_REG, Fraction(scale, 3))
    return out.scaled(scale)


@settings(max_examples=40, deadline=None)
@given(_word, _word, _word, st.integers(-3, 3), _scale)
def test_associativity_random_words(wa, wb, wc, num, scale):
    for gens in (_ABSTRACT, _HALF):
        a = _build(gens, wa, num or 1)
        b = _build(gens, wb, scale)
        c = _build(gens, wc, 2)
        assert ((a * b) * c) == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(_word, _word, _word, _scale)
def test_jacobi_random_words(wa, wb, wc, scale):
    for gens in (_ABSTRACT, _HALF):
        a = _build(gens, wa, 1)
        b = _build(gens, wb, scale)
        c = _build(gens, wc, 1)
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert total.is_zero()


@settings(max_examples=40, deadline=None)
@given(_word, _word, _scale, _scale)
def test_commutator_is_difference_of_products(wa, wb, sa, sb):
    # the kernel's direct commutator against the two products it replaces
    for gens in (_ABSTRACT, _HALF):
        a = _build(gens, wa, sa)
        b = _build(gens, wb, sb)
        assert commutator(a, b) == a * b - b * a
        assert commutator(a, b) == -commutator(b, a)
        assert commutator(a, a).is_zero()


@settings(max_examples=40, deadline=None)
@given(_word, _word)
def test_distributivity_random_words(wa, wb):
    a = _build(_ABSTRACT, wa, 1)
    b = _build(_ABSTRACT, wb, 2)
    c = _build(_ABSTRACT, wb[::-1], 1)
    assert (a * (b + c)) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_word, _word, st.integers(-3, 3))
def test_equality_is_mathematical(wa, wb, num):
    a = _build(_ABSTRACT, wa, num or 1)
    b = _build(_ABSTRACT, wb, 1)
    assert (a == b) == (a - b).is_zero()
    if a == b:
        assert hash(a) == hash(b)
    # equal values built along different paths hash equal
    assert hash((a * b) * a) == hash(a * (b * a))
    # r_x^2 and r^2 - r_y^2 - r_z^2 are one operator, as a right or a left factor
    rx, ry, rz = _ABSTRACT[0:3]
    r2 = radial_power(_REG, 2)
    left = a * (rx * rx)
    right = a * (r2 - ry * ry - rz * rz)
    assert left == right and hash(left) == hash(right)
    assert (rx * rx) * b == (r2 - ry * ry - rz * rz) * b


@settings(max_examples=40, deadline=None)
@given(_word, _word)
def test_quotient_commutes_with_product(wa, wb):
    # reducing after multiplying == multiplying the reduced factors
    a_abs = _build(_ABSTRACT, wa, 1)
    b_abs = _build(_ABSTRACT, wb, 1)
    a_half = _build(_HALF, wa, 1)
    b_half = _build(_HALF, wb, 1)
    assert (a_abs * b_abs).reduce_spin_half() == a_half * b_half


# mu-dependent scales, each vanishing at mu=0, at mu=1, at both or at neither,
# so the zero tests below meet both answers
_MU = ScalarCoeff.symbol(_REG, "mu")
_ONE = ScalarCoeff.one(_REG)
_mu_scale = st.sampled_from((_ONE, _MU, _MU - _ONE, _MU * (_MU - _ONE), _MU + _ONE))


def _pair(word, scale):
    """The same operand in the free spin algebra and in the quotient."""
    return _build(_ABSTRACT, word, scale), _build(_HALF, word, scale)


@settings(max_examples=40, deadline=None)
@given(_word, _word, _scale, _scale)
def test_quotient_commutes_with_commutator(wa, wb, sa, sb):
    # expr_comm is a kernel path of its own, not two expr_mul calls
    (a_abs, a_half), (b_abs, b_half) = _pair(wa, sa), _pair(wb, sb)
    assert commutator(a_abs, b_abs).reduce_spin_half() == commutator(a_half, b_half)


@settings(max_examples=40, deadline=None)
@given(_word, _word, _scale, _scale, _scale)
def test_quotient_commutes_with_linear_operations(wa, wb, sa, sb, c):
    (a_abs, a_half), (b_abs, b_half) = _pair(wa, sa), _pair(wb, sb)
    assert (a_abs + b_abs).reduce_spin_half() == a_half + b_half
    assert (a_abs - b_abs).reduce_spin_half() == a_half - b_half
    assert (-a_abs).reduce_spin_half() == -a_half
    assert a_abs.scaled(c).reduce_spin_half() == a_half.scaled(c)


@settings(max_examples=40, deadline=None)
@given(_word, _word, _scale, _mu_scale, st.integers(0, 1))
def test_quotient_commutes_with_mu_specialisation(wa, wb, sa, mu_scale, v):
    # a half verdict tests the image of the abstract difference at mu = v
    (a_abs, a_half), (b_abs, b_half) = _pair(wa, sa), _pair(wb, 1)
    x_abs = a_abs.scaled(mu_scale) + b_abs
    x_half = a_half.scaled(mu_scale) + b_half
    assert x_abs.substitute("mu", v).reduce_spin_half() == x_half.substitute("mu", v)
    assert x_abs.reduce_spin_half().zero_at("mu", v) == x_half.zero_at("mu", v)
    y_abs, y_half = a_abs.scaled(mu_scale), a_half.scaled(mu_scale)
    assert y_abs.reduce_spin_half().zero_at("mu", v) == y_half.zero_at("mu", v)
    assert y_half.zero_at("mu", v) == y_half.substitute("mu", v).is_zero()


def _assert_normal_form(x):
    # the stored invariant: every r_x exponent at most 1, no empty coefficient
    terms = x.raw_terms()
    assert all(sig[0] <= 1 for sig in terms), x
    assert all(terms.values()), x


@settings(max_examples=40, deadline=None)
@given(_word, _word, _scale, st.one_of(st.just(0), _scale), st.integers(0, 1))
def test_every_operation_returns_the_normal_form(wa, wb, sa, sb, mu):
    for gens in (_ABSTRACT, _HALF):
        a = _build(gens, wa, sa)
        b = _build(gens, wb, 1)
        total = a + b
        before = [copy.deepcopy(x.raw_terms()) for x in (a, b, total)]
        results = (
            a * b, b * a, commutator(a, b), total, a - b, a - a, -a,
            a.scaled(sb), a.scaled(ScalarCoeff.zero(_REG)),
            a.substitute("mu", mu), (a * b).substitute("mu", mu),
            a.reduce_spin_half(), total.reduce_spin_half(),
        )
        for x in results:
            _assert_normal_form(x)
        assert a.scaled(0).raw_terms() == {}
        assert (a * 0).raw_terms() == {}
        # no operation mutates a coefficient its operands store
        assert [x.raw_terms() for x in (a, b, total)] == before
