"""The raw kernel: Gaussian rationals, exponent keys and the product table.

The Gaussian-rational operations are checked against a ``Fraction``
reference and for their canonical form; the hbar bump against the general
key bump; the zero test at mu = 0 or 1 against substitution; and the
module's own promises (no package imports, no table built at import)
directly.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from so4atom import _kernel as K
from so4atom import scalars
from so4atom.errors import DomainError
from so4atom.operators import OperatorExpr, SpinMode

_ints = st.integers(-60, 60)
_dens = st.integers(-40, 40).filter(bool)


def _ref(a, b, d):
    return (Fraction(a, d), Fraction(b, d))


def _canonical(g):
    a, b, d = g
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert g == (0, 0, 1)


@st.composite
def _gauss(draw):
    return K.g_norm(draw(_ints), draw(_ints), draw(_dens))


@settings(max_examples=200, deadline=None)
@given(_ints, _ints, _dens)
def test_g_norm_is_canonical_and_exact(a, b, d):
    g = K.g_norm(a, b, d)
    _canonical(g)
    assert _ref(*g) == _ref(a, b, d)


@settings(max_examples=200, deadline=None)
@given(_gauss(), _gauss())
def test_g_add_and_g_mul_match_fractions(x, y):
    (xr, xi), (yr, yi) = _ref(*x), _ref(*y)
    s = K.g_add(x, y)
    p = K.g_mul(x, y)
    _canonical(s)
    _canonical(p)
    assert _ref(*s) == (xr + yr, xi + yi)
    assert _ref(*p) == (xr * yr - xi * yi, xr * yi + xi * yr)
    # Q(i) is a field: a product of nonzero values is never zero
    if x != (0, 0, 1) and y != (0, 0, 1):
        assert p != (0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(_gauss())
def test_g_inv_matches_fractions(x):
    if x == (0, 0, 1):
        return
    inv = K.g_inv(x)
    _canonical(inv)
    assert K.g_mul(x, inv) == (1, 0, 1)
    re, im = _ref(*x)
    n = re * re + im * im
    assert _ref(*inv) == (re / n, -im / n)


def test_g_inv_of_zero_raises():
    try:
        K.g_inv((0, 0, 1))
    except ZeroDivisionError:
        return
    raise AssertionError("inverse of zero did not raise")


_keys = st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool), max_size=4).map(
    lambda d: tuple(sorted(d.items()))
)


@settings(max_examples=200, deadline=None)
@given(_keys, st.integers(-3, 3).filter(bool))
def test_hbar_bump_is_a_head_edit(key, delta):
    got = K.k_bump_hbar(key, delta)
    assert got == K.k_bump(key, K.HBAR_INDEX, delta)
    assert list(got) == sorted(got)
    assert all(e for _, e in got)
    want = dict(key)
    want[K.HBAR_INDEX] = want.get(K.HBAR_INDEX, 0) + delta
    assert dict(got) == {s: e for s, e in want.items() if e}


def test_hbar_bump_removes_a_cancelled_exponent():
    assert K.k_bump_hbar(((0, 2), (3, 1)), -2) == ((3, 1),)
    assert K.k_bump_hbar(((0, 1),), -1) == ()
    assert K.k_bump_hbar(((2, 1),), 1) == ((0, 1), (2, 1))


def test_kernel_hbar_index_is_the_registry_one():
    assert K.HBAR_INDEX == scalars.HBAR_INDEX
    assert scalars.BUILTIN_SYMBOLS[K.HBAR_INDEX] == "hbar"
    # the head edit relies on hbar having the smallest index
    assert K.HBAR_INDEX == 0


def test_kernel_imports_nothing_from_the_package():
    tree = ast.parse(Path(K.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in _kernel"
            assert not (node.module or "").startswith("so4atom")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("so4atom") for a in node.names)


def test_no_table_is_built_at_import():
    code = (
        "import so4atom.cli, so4atom.catalog, so4atom.oracle, so4atom.ansatz\n"
        "from so4atom import _kernel as K\n"
        "assert K._STEPS == ({}, {}), K._STEPS\n"
    )
    src = str(Path(K.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src})


def test_table_entry_fuses_momentum_and_spin():
    # p_x S_x * r_x S_y = r_x p_x S_x S_y - i hbar S_x S_y, and in the
    # spin-1/2 quotient S_x S_y = (i hbar / 2) S_z
    steps = K._step((1, 0, 0), (1, 0, 0), 0, (1, 0, 0), (0, 1, 0), True)
    assert sorted(steps) == sorted([
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 2),
        (1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 2, 1),
    ])


# -- the zero test at a value of mu -------------------------------------------

_REG = scalars.SymbolRegistry()
_MU = _REG.index("mu")
# small units, so that coefficients that meet at mu=1 often cancel
_units = st.sampled_from([(1, 0, 1), (-1, 0, 1), (2, 0, 1), (-2, 0, 1),
                          (0, 1, 1), (0, -1, 1), (1, 0, 2), (-1, 0, 2)])
_bases = st.dictionaries(st.sampled_from([0, 1, 2, 3, 4]), st.integers(-2, 2).filter(bool),
                         max_size=2).map(lambda d: tuple(sorted(d.items())))


@st.composite
def _coeff(draw):
    """A nonzero coefficient: per base key, a few powers of mu in -2..3,
    often a pair that cancels once mu is 1."""
    out = {}
    for base in draw(st.lists(_bases, min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            e1, e2 = draw(st.lists(st.integers(-2, 3), min_size=2, max_size=2, unique=True))
            a, b, d = draw(_units)
            powers = {e1: (a, b, d), e2: (-a, -b, d)}
        else:
            powers = draw(st.dictionaries(st.integers(-2, 3), _units, min_size=1, max_size=3))
        for e, g in powers.items():
            out[K.k_bump(base, _MU, e)] = g
    return out


_sigs = st.tuples(st.integers(0, 1), st.integers(0, 2), st.just(0), st.integers(-2, 1),
                  st.integers(0, 1), st.just(0), st.just(0), st.just(0), st.just(0),
                  st.integers(0, 1))
_terms = st.dictionaries(_sigs, _coeff(), max_size=3)


def _substituted_zero(terms, v):
    """substitute(mu, v).is_zero(), or the DomainError it raised."""
    try:
        return OperatorExpr(_REG, SpinMode.ABSTRACT, terms).substitute("mu", v).is_zero()
    except DomainError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(_terms, st.sampled_from([0, 1]))
def test_zero_at_agrees_with_substitution(terms, v):
    want = _substituted_zero(terms, v)
    expr = OperatorExpr(_REG, SpinMode.ABSTRACT, terms)
    if isinstance(want, DomainError):
        assert v == 0
        with pytest.raises(ZeroDivisionError):
            K.expr_zero_at(terms, _MU, v)
        with pytest.raises(DomainError) as exc:
            expr.zero_at("mu", v)
        assert str(exc.value) == str(want)
    else:
        assert K.expr_zero_at(terms, _MU, v) is want
        assert expr.zero_at("mu", v) is want


def test_zero_at_one_sums_across_keys():
    # (mu - mu^-2) r vanishes at mu=1 only once its two keys meet
    terms = {(0, 0, 0, 1, 0, 0, 0, 0, 0, 0): {((_MU, 1),): (1, 0, 1), ((_MU, -2),): (-1, 0, 1)}}
    assert K.expr_zero_at(terms, _MU, 1) is True
    # at 0 the mu^-2 key raises even after a term that survives was seen
    terms = {(0, 0, 0, 0, 0, 0, 0, 0, 0, 0): {(): (1, 0, 1)}, **terms}
    assert K.expr_zero_at(terms, _MU, 1) is False
    with pytest.raises(ZeroDivisionError):
        K.expr_zero_at(terms, _MU, 0)
