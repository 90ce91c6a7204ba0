"""Expression language: tokenizer, parser, elaborator, identity files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom import lang
from so4atom.errors import LangError
from so4atom.operators import SpinMode
from so4atom.scalars import SymbolRegistry


def fresh_env(mode=SpinMode.ABSTRACT, extra=()):
    return lang.ElabEnv(SymbolRegistry(extra), mode, {})


def ev(text, env=None):
    env = env or fresh_env()
    return lang.elaborate(lang.parse_expr(text), env)


# -- parsing ---------------------------------------------------------------


def test_round_trip_through_to_text():
    texts = [
        "[l_x, r_y] - i*hbar*r_z",
        "dot(p, p) / (2*M) - kappa * r^-1",
        "cross(l, l) - i*hbar*l",
        "mu * (dot(r,S) * rpow(-2))",
        "-(2*i*hbar/M) * H",
        "(a + b)^2",
    ]
    env = fresh_env(extra=("a", "b"))
    env.bindings["H"] = ev("dot(p,p)/(2*M)", env)
    for text in texts:
        node = lang.parse_expr(text)
        again = lang.parse_expr(lang.to_text(node))
        assert (lang.elaborate(node, env) - lang.elaborate(again, env)).is_zero()


def test_precedence_and_unary_minus():
    env = fresh_env()
    assert ev("2*hbar + 3*hbar - 5*hbar", env).is_zero()
    assert ev("-hbar^2 - hbar^2", env).is_zero()  # unary - binds before ^
    assert ev("2^3 - 8", env).is_zero()
    assert ev("6/2/3 - 1", env).is_zero()  # division left-associates


def test_power_requires_literal_exponent():
    with pytest.raises(LangError):
        ev("2^2^2")
    with pytest.raises(LangError):
        ev("r^(1+1)")


def test_vector_atoms_and_indexing():
    env = fresh_env()
    val = ev("r_x * p_y - p_y * r_x", env)  # commuting axes
    assert val.is_zero()
    assert not ev("r_x * p_x - p_x * r_x", env).is_zero()


def test_commutator_and_builtins():
    env = fresh_env()
    assert ev("[r_x, p_x] - i*hbar", env).is_zero()
    assert ev("dot(r, r) - rpow(2)", env).is_zero()
    assert ev("[l, dot(l, l)]", env).is_zero()


def test_vector_scalar_mixing():
    env = fresh_env()
    v = ev("2 * r + r", env)
    assert (v - ev("3 * r", env)).is_zero()
    # bare vector*vector must name its contraction
    with pytest.raises(LangError) as exc:
        ev("r * S", env)
    assert "dot" in str(exc.value)


def test_spin_mode_consistency():
    # elaborating in the quotient == elaborating abstractly then reducing
    reg = SymbolRegistry()
    for text in ("dot(S, S)", "cross(S, S) - i*hbar*S", "dot(r,S)*dot(r,S)"):
        abstract = ev(text, lang.ElabEnv(reg, SpinMode.ABSTRACT, {}))
        half = ev(text, lang.ElabEnv(reg, SpinMode.SPIN_HALF, {}))
        assert (abstract.reduce_spin_half() - half).is_zero()


# -- errors carry spans ----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["r^", "r $ p", "dot(r)", "[p_x]", "(r", "1 +", "cross(r, p, l)", "q_x"],
)
def test_parse_or_elab_errors_have_spans(text):
    env = fresh_env()
    with pytest.raises(LangError) as exc:
        lang.elaborate(lang.parse_expr(text), env)
    span = exc.value.span
    assert isinstance(span, tuple) and len(span) == 2
    assert 0 <= span[0] <= span[1] <= len(text)


@pytest.mark.parametrize("text, span", [
    ("p_x^-1", (0, 6)),                    # no inverse beyond radial powers
    ("(k1 + hbar)^-2", (1, 14)),           # a two-monomial scalar
    ("(r_x + 1)^-1", (1, 12)),             # a two-term operator
    ("2*r^-2 + p_x^-1", (9, 15)),
    ("r_x / (k1 + hbar)", (0, 16)),
    ("r / 0", (0, 5)),
])
def test_non_invertible_power_or_divisor_reports_its_node(text, span):
    with pytest.raises(LangError) as exc:
        ev(text)
    assert exc.value.span == span


def test_unknown_symbol_reports_name():
    with pytest.raises(LangError) as exc:
        ev("nope * hbar")
    assert "nope" in str(exc.value)


# -- identity files --------------------------------------------------------

_SAMPLE = """\
# comment line

let H = dot(p,p)/(2*M) - kappa*r^-1

check a : [H, l] == 0
check b : cross(l,l) == i*hbar*l  mu=symbolic
check c : dot(S,S) != 0  mode=half
"""


def test_parse_identity_file_structure():
    parsed = lang.parse_identity_file(_SAMPLE)
    assert [d.name for d in parsed.definitions] == ["H"]
    assert [c.check_id for c in parsed.checks] == ["a", "b", "c"]
    by_id = {c.check_id: c for c in parsed.checks}
    assert by_id["a"].relation == "=="
    assert by_id["c"].relation == "!="
    assert by_id["c"].mode == "half"
    assert by_id["b"].mu == "symbolic"
    assert by_id["a"].lhs_source == "[H, l]"
    assert by_id["a"].rhs_source == "0"


def test_identity_file_spans_are_absolute():
    bad = "let H = dot(p,p)\ncheck a : [H l] == 0\n"
    with pytest.raises(LangError) as exc:
        lang.parse_identity_file(bad)
    start, end = exc.value.span
    assert bad[start:end].strip() in ("l", "[H l]", "]")
    assert start > bad.index("check")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("check a : 1 == 0\ncheck a : 2 == 0\n", "duplicate check"),
        ("let H = 1\nlet H = 2\n", "duplicate definition"),
        ("let dot = 1\n", "reserved"),
        ("frobnicate\n", "must start with"),
        ("check a : 1 == 0  mu=7\n", "mu"),
    ],
)
def test_identity_file_rejects(text, fragment):
    with pytest.raises(LangError) as exc:
        lang.parse_identity_file(text)
    assert fragment in str(exc.value)


def test_elaborate_definitions_resolves_in_order():
    parsed = lang.parse_identity_file(
        "let A = dot(p,p)\nlet B = A + hbar^2\ncheck x : B - A == hbar^2\n"
    )
    env = lang.elaborate_definitions(
        parsed.definitions, SymbolRegistry(), SpinMode.ABSTRACT
    )
    assert "A" in env.bindings and "B" in env.bindings
    check = parsed.checks[0]
    diff = lang.elaborate(check.lhs, env) - lang.elaborate(check.rhs, env)
    assert diff.is_zero()


# -- round-trip property ---------------------------------------------------

_ATOMS = ("hbar", "M", "kappa", "r_x", "p_y", "S_z", "rpow(-1)", "dot(r,p)", "2", "i")


@st.composite
def expr_text(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(_ATOMS))
    op = draw(st.sampled_from(("+", "-", "*")))
    a = draw(expr_text(depth=depth + 1))
    b = draw(expr_text(depth=depth + 1))
    if draw(st.booleans()):
        return "(%s %s %s)" % (a, op, b)
    return "%s %s %s" % (a, op, b)


@settings(max_examples=60, deadline=None)
@given(expr_text())
def test_to_text_round_trip_property(text):
    env = fresh_env()
    node = lang.parse_expr(text)
    again = lang.parse_expr(lang.to_text(node))
    va = lang.elaborate(node, env)
    vb = lang.elaborate(again, env)
    assert (va - vb).is_zero()
