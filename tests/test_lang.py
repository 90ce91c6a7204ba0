"""Expression language: tokenizer, parser, elaborator, identity files."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom import lang
from so4atom.errors import LangError
from so4atom.operators import SpinMode, scalar_raw
from so4atom.scalars import SymbolRegistry


def fresh_env(mode=SpinMode.ABSTRACT, extra=()):
    return lang.ElabEnv(SymbolRegistry(extra), mode, {})


def ev(text, env=None):
    env = env or fresh_env()
    return lang.elaborate(lang.parse_expr(text), env)


# -- parsing ---------------------------------------------------------------


def _through_check_source(text, env):
    """Elaborate text directly and after a round trip through the source
    text a check line keeps, which stands in for a printer."""
    (check,) = lang.parse_identity_file("check t : %s == 0\n" % text).checks
    assert check.lhs_source == text.strip()
    direct = lang.elaborate(lang.parse_expr(text), env)
    again = lang.elaborate(lang.parse_expr(check.lhs_source), env)
    assert (direct - again).is_zero()
    assert (direct - lang.elaborate(check.lhs, env)).is_zero()


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
        _through_check_source(text, env)


def test_precedence_and_unary_minus():
    env = fresh_env()
    assert ev("2*hbar + 3*hbar - 5*hbar", env).is_zero()
    # unary - binds before ^, so a minus applied to a power is refused and
    # each reading must be spelled out
    with pytest.raises(LangError, match="unary minus of a power"):
        ev("-hbar^2 - hbar^2", env)
    assert ev("(-hbar)^2 - hbar^2", env).is_zero()
    assert ev("-(hbar^2) + hbar^2", env).is_zero()
    assert ev("2^3 - 8", env).is_zero()
    assert ev("6/2/3 - 1", env).is_zero()  # division left-associates
    assert ev("2^-1 - 1/2", env).is_zero()  # a minus after ^ is the exponent's


@pytest.mark.parametrize("text, span, spellings", [
    ("t^2/2", (0, 5), ("(t^2)/2", "t^(2/2)")),
    ("hbar^2/4", (0, 8), ("(hbar^2)/4", "hbar^(2/4)")),
    ("4/2^2", (0, 5), ("(4/2)^2", "4/(2^2)")),
    ("-t^2", (0, 4), ("-(t^2)", "(-t)^2")),
    ("x / 3/4", (0, 7), ("(x / 3)/4", "x / (3/4)")),
    ("4/-2/3", (0, 6), ("(4/-2)/3", "4/(-2/3)")),
    ("2^-4/2", (0, 6), ("(2^-4)/2", "2^(-4/2)")),
    ("1 + dot(S,S)^3/4", (4, 16), ("(dot(S,S)^3)/4", "dot(S,S)^(3/4)")),
])
def test_ambiguous_spellings_are_refused(text, span, spellings):
    # a glued rational literal as an operand of ^ or the right operand of /,
    # or a unary minus applied to a power, read against convention: each is
    # a LangError at its span that names the parenthesised spellings
    with pytest.raises(LangError) as exc:
        lang.parse_expr(text)
    assert exc.value.span == span
    for spelling in spellings:
        assert spelling in str(exc.value)
        lang.parse_expr(spelling)


def test_a_refused_spelling_in_a_file_reports_the_file_span():
    text = "let a = hbar\ncheck c : a == hbar^2/4\n"
    with pytest.raises(LangError) as exc:
        lang.parse_identity_file(text)
    start = text.index("hbar^2/4")
    assert exc.value.span == (start, start + len("hbar^2/4"))


def _number(value):
    """The Fraction an elaborated rational expression equals."""
    if value.is_zero():
        return Fraction(0)
    ((a, b, d),) = scalar_raw(value.raw_terms()).values()
    assert b == 0
    return Fraction(a, d)


@st.composite
def numeric_text(draw, depth=0):
    """Random integer expression over + - * / ^, unary minus and parentheses,
    as a token list."""
    choice = draw(st.integers(0, 3)) if depth < 3 else 0
    if choice == 0:
        return [str(draw(st.integers(0, 12)))]
    if choice == 1:
        return ["-"] + draw(numeric_text(depth=depth + 1))
    if choice == 2:
        return ["("] + draw(numeric_text(depth=depth + 1)) + [")"]
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    rhs = [str(draw(st.integers(0, 4)))] if op == "^" and draw(st.booleans()) \
        else draw(numeric_text(depth=depth + 1))
    return draw(numeric_text(depth=depth + 1)) + [op] + rhs


@settings(max_examples=300, deadline=None)
@given(numeric_text(), st.booleans())
def test_numeric_text_reads_as_python_reads_it_or_is_refused(tokens, spaced):
    # Python's own grammar is the reference: ^ is **, each integer a Fraction
    text = (" " if spaced else "").join(tokens)
    python = " ".join("Fraction(%s)" % t if t.isdigit() else ("**" if t == "^" else t)
                      for t in tokens)
    try:
        got = _number(ev(text))
    except LangError:
        return
    assert got == eval(python, {"Fraction": Fraction}), text


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


def test_a_non_decimal_digit_is_refused_at_its_span():
    # '2'.isdigit() and '²'.isdigit() both hold, but int() reads only
    # decimal digits: the superscript is an unexpected character, not a crash
    with pytest.raises(LangError, match="unexpected character") as exc:
        lang.parse_expr("2²")
    assert exc.value.span == (1, 2)
    with pytest.raises(LangError) as exc:
        lang.parse_expr("1/²")
    assert exc.value.span == (2, 3)


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
    assert by_id["b"].mu_policy == "symbolic"
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


def test_use_lines_are_recorded_in_order():
    parsed = lang.parse_identity_file("# lent\nuse so3\nuse theorem  # and more\nlet X = H\n")
    assert [use.text for use in parsed.uses] == ["so3", "theorem"]
    assert [d.name for d in parsed.definitions] == ["X"]
    assert lang.parse_identity_file("let X = 1\n").uses == ()


@pytest.mark.parametrize(
    "text,fragment,at",
    [
        ("let A = 1\nuse so3\n", "before any let or check", "use"),
        ("check a : 1 == 0\nuse so3\n", "before any let or check", "use"),
        ("use\n", "needs a suite name", ""),
        ("use 3\n", "needs a suite name", ""),
        ("use so3 so4\n", "one suite name", "so4"),
        ("use so3 = 1\n", "one suite name", "= 1"),
        ("use so3\nuse so3\n", "duplicate use 'so3'", "so3"),
    ],
)
def test_a_misplaced_or_malformed_use_is_rejected_at_its_span(text, fragment, at):
    with pytest.raises(LangError) as exc:
        lang.parse_identity_file(text)
    assert fragment in str(exc.value)
    start, end = exc.value.span
    assert text[start:end] == at
    assert start >= text.rindex("use")


# -- levi and kron lines ------------------------------------------------------

_FAMILIES = [
    ("levi V : [l_{u}, idx(cross(p,l),{v})] == i*hbar*idx(cross(p,l),{w})\n", """\
check V_xy : [l_x, idx(cross(p,l),y)] == i*hbar*idx(cross(p,l),z)
check V_yz : [l_y, idx(cross(p,l),z)] == i*hbar*idx(cross(p,l),x)
check V_zx : [l_z, idx(cross(p,l),x)] == i*hbar*idx(cross(p,l),y)
check V_yx : [l_y, idx(cross(p,l),x)] == -(i*hbar*idx(cross(p,l),z))
check V_zy : [l_z, idx(cross(p,l),y)] == -(i*hbar*idx(cross(p,l),x))
check V_xz : [l_x, idx(cross(p,l),z)] == -(i*hbar*idx(cross(p,l),y))
check V_xx : [l_x, idx(cross(p,l),x)] == 0
check V_yy : [l_y, idx(cross(p,l),y)] == 0
check V_zz : [l_z, idx(cross(p,l),z)] == 0
"""),
    ("kron cc : [p_{u}, r_{v}]   ==  -(i*hbar)  # canonical\n", """\
check cc_xx : [p_x, r_x] == -(i*hbar)
check cc_yy : [p_y, r_y] == -(i*hbar)
check cc_zz : [p_z, r_z] == -(i*hbar)
check cc_xy : [p_x, r_y] == 0
check cc_yx : [p_y, r_x] == 0
check cc_yz : [p_y, r_z] == 0
check cc_zy : [p_z, r_y] == 0
check cc_zx : [p_z, r_x] == 0
check cc_xz : [p_x, r_z] == 0
"""),
]


@pytest.mark.parametrize("family, by_hand", _FAMILIES)
def test_a_family_line_parses_as_its_nine_checks_written_out(family, by_hand):
    checks = lang.parse_identity_file(family, "so3").checks
    assert len(checks) == 9
    assert checks == lang.parse_identity_file(by_hand, "so3").checks


@pytest.mark.parametrize("options, mode, mu", [
    ("", None, "all"), (" mu=1", None, "1"), (" mode=half  mu=symbolic", "half", "symbolic")])
def test_a_family_lines_options_carry_over_to_each_component(options, mode, mu):
    for family, by_hand in _FAMILIES:
        line = family.split("#")[0].rstrip()
        checks = lang.parse_identity_file(line + options + "\n").checks
        assert {(c.mode, c.mu_policy) for c in checks} == {(mode, mu)}
        written = "".join(row + options + "\n" for row in by_hand.splitlines())
        assert checks == lang.parse_identity_file(written).checks


@pytest.mark.parametrize("text, clash, at", [
    ("check V_yz : 1 == 1\nlevi V : [l_{u}, r_{v}] == i*hbar*r_{w}\n", "V_yz", "levi"),
    ("levi V : [l_{u}, r_{v}] == i*hbar*r_{w}\ncheck V_yz : 1 == 1\n", "V_yz", "V_yz"),
    ("kron V : [p_{u}, r_{v}] == 1\nlevi V : [l_{u}, r_{v}] == i*hbar*r_{w}\n", "V_xy", "levi"),
])
def test_a_component_id_that_clashes_is_a_duplicate(text, clash, at):
    with pytest.raises(LangError, match="duplicate check id '%s'" % clash) as exc:
        lang.parse_identity_file(text)
    assert exc.value.span[0] >= text.index(at)


@pytest.mark.parametrize("family, fragment, at", [
    ("levi V : [l_{u}, r_{t}] == i*hbar*r_{w}", "not '{t}'", "{t}"),
    ("levi V : [l_{u}, r_{v}] == i*hbar*r_{w}}", "not '}'", "}"),
    ("levi V : [l_{u}, r_{v] == i*hbar*r_{w}", "not '{'", "{"),
    ("kron V : [p_{u}, r_{w}] == 1", "{w} stands only", "{w}"),
    ("kron V : [p_{u}, r_{v}] == {w}", "{w} stands only", "{w}"),
    ("levi V : [l_{w}, r_{v}] == i*hbar*r_{u}", "{w} stands only", "{w}"),
    ("levi V : [l_{u}, r_{v}] == i*hbar*(r_{w}", "component V_xy: expected rparen", None),
    ("levi V : [l_{u}, r_{v}] ==", "component V_xy: empty expression", None),
    ("levi V : [l_{u}, r_{v}] == 0 mu=1 mu=0", "duplicate option 'mu'", None),
    ("levi V : [l_{u}, r_{v}] != 0", "a family line reads", None),
    ("kron : [p_{u}, r_{v}] == 1", "a family line reads", None),
    # no placeholders: each component runs four characters past the line
    ("levi V : [l_x, r_y] == i*hbar*r_z +", "component V_xy: unexpected end", None),
])
def test_a_malformed_family_line_is_rejected_at_the_line(family, fragment, at):
    text = "let q = 1\n  %s  # note\ncheck later : 1 == 1\n" % family
    with pytest.raises(LangError) as exc:
        lang.parse_identity_file(text)
    assert fragment in str(exc.value)
    start, end = exc.value.span
    assert text[start:end] == (family if at is None else at)
    assert text.index(family) <= start <= end <= text.index(family) + len(family)


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


def test_elaborate_definitions_names_the_definition_that_fails():
    parsed = lang.parse_identity_file("let A = dot(p,p)\n\nlet B = A + q\n")
    with pytest.raises(LangError, match="unbound name 'q'") as exc:
        lang.elaborate_definitions(parsed.definitions, SymbolRegistry(), SpinMode.ABSTRACT)
    assert exc.value.definition is parsed.definitions[1]
    assert exc.value.definition.line == 3


# -- the elaboration memo ----------------------------------------------------


def test_memo_shares_equal_subtrees_across_spans():
    env = fresh_env()
    memo = env.memo = {}
    node = lang.parse_expr("dot(r,p) * dot(r,p) - dot(r,p)")
    value = lang.elaborate(node, env)
    assert value.raw_terms() == lang.elaborate(node, fresh_env()).raw_terms()
    first, second = node.lhs.lhs, node.lhs.rhs
    assert first == second and first.span != second.span
    # one entry per distinct compound subtree; names and literals stay out
    assert set(memo) == {node, node.lhs, first}
    assert lang.elaborate(lang.parse_expr("dot(r, p)"), env) is memo[first]


def test_env_without_a_memo_elaborates_afresh():
    env = fresh_env()
    assert env.memo is None
    node = lang.parse_expr("dot(r,p) * dot(r,p)")
    assert lang.elaborate(node, env) is not lang.elaborate(node, env)
    assert env.memo is None
    defs = lang.parse_identity_file("let L = cross(r,p)\n").definitions
    assert lang.elaborate_definitions(defs, SymbolRegistry(), SpinMode.ABSTRACT).memo is None


def test_memo_keeps_nothing_of_a_failed_subtree():
    env = fresh_env()
    memo = env.memo = {}
    bad = "dot(r, hbar)"
    for text in ("dot(p,p) * dot(r, hbar)", "dot(r, hbar) - dot(p,p)"):
        with pytest.raises(LangError) as exc:
            lang.elaborate(lang.parse_expr(text), env)
        # each occurrence reports its own span, not the first one's
        start = text.index(bad)
        assert exc.value.span == (start, start + len(bad))
    assert set(memo) == {lang.parse_expr("dot(p,p)")}


# -- precedence property ---------------------------------------------------

_ATOMS = ("hbar", "M", "kappa", "r_x", "p_y", "S_z", "rpow(-1)", "dot(r,p)", "2", "i")
_BINDING = {"+": 1, "-": 1, "*": 2}


@st.composite
def expr_text(draw, depth=0):
    """One expression twice, with how tightly its top operator binds: bare,
    with only the parentheses that precedence and left association need,
    and with every operation parenthesised."""
    if depth >= 3 or draw(st.booleans()):
        atom = draw(st.sampled_from(_ATOMS))
        return atom, atom, 3
    op = draw(st.sampled_from(("+", "-", "*")))
    a, a_full, a_binding = draw(expr_text(depth=depth + 1))
    b, b_full, b_binding = draw(expr_text(depth=depth + 1))
    if a_binding < _BINDING[op]:
        a = "(%s)" % a
    if b_binding <= _BINDING[op]:
        b = "(%s)" % b
    return "%s %s %s" % (a, op, b), "(%s %s %s)" % (a_full, op, b_full), _BINDING[op]


@settings(max_examples=60, deadline=None)
@given(expr_text())
def test_bare_and_parenthesised_text_elaborate_alike(texts):
    bare, full, _binding = texts
    env = fresh_env()
    assert lang.elaborate(lang.parse_expr(bare), env) == \
        lang.elaborate(lang.parse_expr(full), env)


@settings(max_examples=60, deadline=None)
@given(expr_text())
def test_to_text_round_trip_property(texts):
    env = fresh_env()
    for text in texts[:2]:
        _through_check_source(text, env)


# -- vector equality -------------------------------------------------------


def test_vector_equality_is_componentwise():
    # like OperatorExpr's, VecExpr's == and hash are mathematical: the
    # closure [l_u, l_v] = i hbar eps_uvw l_w as cross(l,l) == i*hbar*l
    env = fresh_env()
    closure, target = ev("cross(l,l)", env), ev("i*hbar*l", env)
    again = ev("cross(l,l)", env)
    assert closure is not again
    assert closure == target == again
    assert hash(closure) == hash(target) == hash(again)
    assert closure != ev("2*i*hbar*l", env)
    assert closure != ev("i*hbar*l_x", env)
