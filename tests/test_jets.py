"""Truncated Taylor jets used by the numeric oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom.jets import Jet, alpha_factorial


def test_constant_and_variable():
    c = Jet.constant(3, 2.5)
    assert c.value() == 2.5
    assert c.partial((1, 0, 0)) == 0.0
    x = Jet.variable(3, 0, 1.25)
    assert x.value() == 1.25
    assert x.partial((1, 0, 0)) == 1.0
    assert x.partial((2, 0, 0)) == 0.0


def test_alpha_factorial():
    assert alpha_factorial((0, 0, 0)) == 1
    assert alpha_factorial((2, 1, 3)) == 2 * 1 * 6


def test_product_leibniz():
    x = Jet.variable(4, 0, 2.0)
    y = Jet.variable(4, 1, 3.0)
    f = x * x * y  # x^2 y
    assert f.value() == pytest.approx(12.0)
    assert f.partial((1, 0, 0)) == pytest.approx(2 * 2.0 * 3.0)   # 2xy
    assert f.partial((2, 0, 0)) == pytest.approx(2 * 3.0)         # 2y
    assert f.partial((1, 1, 0)) == pytest.approx(2 * 2.0)         # 2x
    assert f.partial((2, 1, 0)) == pytest.approx(2.0)
    assert f.partial((3, 0, 0)) == 0.0


def test_polynomial_jet():
    # p(x,y,z) = 1 + 2z + 3z^2 + x*y around (0.1, -0.2, 0.5)
    coeffs = {(0, 0, 0): 1.0, (0, 0, 1): 2.0, (0, 0, 2): 3.0, (1, 1, 0): 1.0}
    p = Jet.from_poly(3, coeffs, (0.1, -0.2, 0.5))
    u = 0.5
    assert p.value() == pytest.approx(1 + 2 * u + 3 * u * u + 0.1 * -0.2)
    assert p.partial((0, 0, 1)) == pytest.approx(2 + 6 * u)
    assert p.partial((0, 0, 2)) == pytest.approx(6.0)
    assert p.partial((1, 1, 0)) == pytest.approx(1.0)


def test_exp_matches_closed_form():
    x = Jet.variable(4, 0, 0.3)
    y = Jet.variable(4, 1, -0.2)
    g = (x * x + y).scale(-1.0).exp()  # exp(-(x^2+y))
    x0, y0 = 0.3, -0.2
    val = math.exp(-(x0 * x0 + y0))
    assert g.value() == pytest.approx(val)
    assert g.partial((1, 0, 0)) == pytest.approx(-2 * x0 * val)
    assert g.partial((0, 1, 0)) == pytest.approx(-val)
    assert g.partial((2, 0, 0)) == pytest.approx((4 * x0 * x0 - 2) * val)


def test_fractional_power():
    x = Jet.variable(3, 0, 1.2)
    y = Jet.variable(3, 1, 0.7)
    r2 = x * x + y * y + Jet.constant(3, 0.25)
    r = r2.fractional_power(Fraction(1, 2))
    x0, y0 = 1.2, 0.7
    r0 = math.sqrt(x0 * x0 + y0 * y0 + 0.25)
    assert r.value() == pytest.approx(r0)
    assert r.partial((1, 0, 0)) == pytest.approx(x0 / r0)
    rm3 = r2.fractional_power(Fraction(-3, 2))
    assert rm3.value() == pytest.approx(r0 ** -3)
    assert rm3.partial((0, 1, 0)) == pytest.approx(-3 * y0 * r0 ** -5)


def test_fractional_power_zero_base_rejected():
    z = Jet.variable(2, 0, 0.0)
    with pytest.raises(ValueError):
        (z * z).fractional_power(Fraction(-1, 2))


def test_partials_match_finite_differences():
    # criterion-level property at a fixed interior point
    step = 1e-4

    def f(x, y, z):
        return math.exp(-0.5 * (x * x + y * y + z * z)) * (1 + x * y + z)

    def jet_at(x, y, z, order=3):
        jx = Jet.variable(order, 0, x)
        jy = Jet.variable(order, 1, y)
        jz = Jet.variable(order, 2, z)
        gauss = (jx * jx + jy * jy + jz * jz).scale(-0.5).exp()
        poly = Jet.constant(order, 1.0) + jx * jy + jz
        return gauss * poly

    p = (0.4, -0.3, 0.6)
    jet = jet_at(*p)
    fd_x = (f(p[0] + step, p[1], p[2]) - f(p[0] - step, p[1], p[2])) / (2 * step)
    fd_yz = (
        f(p[0], p[1] + step, p[2] + step)
        - f(p[0], p[1] + step, p[2] - step)
        - f(p[0], p[1] - step, p[2] + step)
        + f(p[0], p[1] - step, p[2] - step)
    ) / (4 * step * step)
    assert jet.partial((1, 0, 0)) == pytest.approx(fd_x, abs=1e-6)
    assert jet.partial((0, 1, 1)) == pytest.approx(fd_yz, abs=1e-6)


def test_truncation_order_respected():
    x = Jet.variable(2, 0, 1.0)
    cube = x * x * x
    # an order-2 jet of x^3 at x = 1 knows 3x^2 and 6x, but no third derivative
    assert cube.order == 2
    assert cube.partial((2, 0, 0)) == pytest.approx(6.0)
    assert cube.partial((3, 0, 0)) == 0.0
    assert cube.partial((0, 0, 0)) == pytest.approx(1.0)
    slope = cube.partial((1, 0, 0))
    assert cube.diff(0).order == 1
    assert cube.diff(0).partial((0, 0, 0)) == pytest.approx(slope)
    assert cube.diff(0).partial((2, 0, 0)) == 0.0


# --- properties on random polynomial-times-Gaussian jets --------------------

_coord = st.floats(-1.5, 1.5)
_coeff = st.complex_numbers(max_magnitude=2.0)
_monomial = st.tuples(*(st.integers(0, 2),) * 3)


@st.composite
def poly_gauss(draw, order, point):
    """A jet of polynomial times Gaussian around point, batched over 2 columns."""
    columns = []
    for _ in range(2):
        poly = draw(st.dictionaries(_monomial, _coeff, min_size=1, max_size=6))
        width = draw(st.floats(0.6, 2.0))
        quad = sum((Jet.variable(order, u, point[u]) * Jet.variable(order, u, point[u])
                    for u in range(3)), Jet.constant(order, 0.0))
        gauss = quad.scale(-0.5 / width ** 2).exp()
        columns.append((Jet.from_poly(order, poly, point) * gauss).coeffs)
    return Jet(order, np.stack(columns, axis=-1))


@st.composite
def jet_triple(draw):
    order = draw(st.integers(0, 4))
    point = draw(st.tuples(_coord, _coord, _coord))
    return order, [draw(poly_gauss(order, point)) for _ in range(3)]


def close(a, b):
    scale = max(np.abs(a.coeffs).max(), np.abs(b.coeffs).max(), 1.0)
    return a.order == b.order and np.allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(jet_triple())
def test_product_commutes_and_associates(case):
    _order, (f, g, h) = case
    assert close(f * g, g * f)
    assert close((f * g) * h, f * (g * h))


@settings(max_examples=40, deadline=None)
@given(jet_triple(), st.integers(0, 2))
def test_derivative_obeys_leibniz_and_lowers_order(case, axis):
    order, (f, g, _h) = case
    if order == 0:
        with pytest.raises(ValueError):
            f.diff(axis)
        return
    assert f.diff(axis).order == order - 1
    assert close((f * g).diff(axis), f.diff(axis) * g + f * g.diff(axis))


@settings(max_examples=40, deadline=None)
@given(jet_triple(), st.integers(0, 4))
def test_prefix_of_product_is_product_of_prefixes(case, low):
    order, (f, g, _h) = case
    low = min(low, order)
    cut = (f * g).truncate(low)
    assert cut.order == low
    assert np.array_equal(cut.coeffs, (f.truncate(low) * g.truncate(low)).coeffs)


@settings(max_examples=40, deadline=None)
@given(jet_triple(), st.integers(0, 2), _coord)
def test_times_variable_is_the_product_with_a_variable(case, axis, base):
    order, (f, _g, _h) = case
    assert close(f.times_variable(axis, base), Jet.variable(order, axis, np.full(1, base)) * f)


@settings(max_examples=40, deadline=None)
@given(jet_triple(), st.integers(0, 2), st.tuples(_coord, _coord, _coord))
def test_cross_grad_is_position_cross_gradient(case, axis, base):
    order, (f, _g, _h) = case
    if order == 0:
        return
    j, k = (axis + 1) % 3, (axis + 2) % 3
    want = f.diff(k).times_variable(j, base[j]) - f.diff(j).times_variable(k, base[k])
    assert close(f.cross_grad(axis, base), want)
