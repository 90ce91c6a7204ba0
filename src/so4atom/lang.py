"""Small expression language for operator identities.

The surface syntax covers exactly what the identity catalog needs: rational
scalars, registered symbols, the built-in vectors r, p, S, l, radial powers
r^n, commutator brackets [a, b], and the vector helpers cross/dot/idx.
Parsing is precedence-climbing over a flat token list; every token and Ast
node carries a character span so errors can point at the offending text.

Spellings that would read against convention are LangErrors that name
the parenthesised forms.  A rational literal is one token (``2/3``),
so it may not be an operand of ``^`` (``t^2/2``, ``4/2^2``) nor the right
operand of ``/`` (``x / 3/4``), unary minus signs between included.  And
unary minus binds tighter than ``^`` here, so it may not apply to a power
(``-t^2``).

Identity files are line oriented:

    # comment
    let NAME = EXPR
    check ID : LHS == RHS mode=half mu=1

A check may use '!=' instead of '==' to assert that a difference does not
vanish (used to pin down deviations on record).  parse_identity_file turns
each check line into a RawCheck, the one record of a check that the catalog,
the oracle and the mutations read.  MU_POLICIES names the mu policies a
check may declare and the mu values each one claims; the spin modes are
operators.SpinMode.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, LangError, UsageError
from .scalars import RESERVED_NAMES, ScalarCoeff
from . import operators as ops
from .operators import OperatorExpr, SpinMode, VecExpr

__all__ = [
    "Token",
    "tokenize",
    "Num",
    "Sym",
    "VecBuiltin",
    "Apply",
    "Index",
    "BinOp",
    "Neg",
    "Commutator",
    "parse_expr",
    "ElabEnv",
    "elaborate",
    "RawDefinition",
    "RawCheck",
    "MU_POLICIES",
    "IdentityFile",
    "parse_identity_file",
    "elaborate_definitions",
]

_AXES = ("x", "y", "z")
_VEC_NAMES = ("r", "p", "S", "l")

_SINGLE_CHAR = {
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    "+": "plus",
    "-": "minus",
    "*": "star",
    "/": "slash",
    "^": "caret",
    "[": "lbracket",
    "]": "rbracket",
    "=": "equals",
    ":": "colon",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int


def tokenize(source, base=0):
    """Lex one expression or file line into tokens.

    base shifts all spans, so callers can lex a slice of a larger file and
    still report absolute positions.
    """
    toks = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            break
        start = i
        if ch.isdigit():
            while i < n and source[i].isdigit():
                i += 1
            # a slash glued between digit runs makes one rational literal
            if i + 1 < n and source[i] == "/" and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
                toks.append(Token("rational", source[start:i], base + start, base + i))
            else:
                toks.append(Token("integer", source[start:i], base + start, base + i))
            continue
        if ch.isalpha() or ch == "_":
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            toks.append(Token("ident", source[start:i], base + start, base + i))
            continue
        if ch == "!":
            if i + 1 < n and source[i + 1] == "=":
                toks.append(Token("noteq", "!=", base + i, base + i + 2))
                i += 2
                continue
            raise LangError("stray '!'", (base + i, base + i + 1))
        kind = _SINGLE_CHAR.get(ch)
        if kind is None:
            raise LangError("unexpected character %r" % ch, (base + i, base + i + 1))
        toks.append(Token(kind, ch, base + i, base + i + 1))
        i += 1
    return toks


# --- Ast ------------------------------------------------------------------
# span is carried for diagnostics but excluded from equality, so equal
# subtrees compare equal wherever they stand.


@dataclass(frozen=True)
class Num:
    value: Fraction
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Sym:
    name: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class VecBuiltin:
    name: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Index:
    target: object
    axis: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Commutator:
    lhs: object
    rhs: object
    span: tuple = field(default=(0, 0), compare=False)


_LBP = {"plus": 10, "minus": 10, "star": 20, "slash": 20, "caret": 30}
_UNARY_BP = 40


class _Parser:
    def __init__(self, tokens, end_span):
        self.toks = tokens
        self.pos = 0
        self.end_span = end_span

    def text(self, first, last):
        """The source of tokens first..last-1, each gap as one space."""
        toks = self.toks[first:last]
        return "".join(t.text + (" " if i + 1 < len(toks) and toks[i + 1].start > t.end else "")
                       for i, t in enumerate(toks))

    def ambiguous(self, what, spellings, first, last):
        raise LangError("%s is ambiguous; write %s" % (what, " or ".join(spellings)),
                        (self.toks[first].start, self.toks[last - 1].end))

    def operand_after(self, caret):
        """Parse the right operand of the '^' at index caret, for a message;
        returns the index after it."""
        self.pos = caret + 1
        self.parse(_LBP["caret"] - 1)
        return self.pos

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise LangError("unexpected end of expression", self.end_span)
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            got = "end of input" if tok is None else repr(tok.text)
            span = self.end_span if tok is None else (tok.start, tok.end)
            raise LangError("expected %s, got %s" % (kind, got), span)
        self.pos += 1
        return tok

    def parse(self, rbp=0):
        first = self.pos
        node = self.nud(self.next())
        while True:
            tok = self.peek()
            if tok is None:
                break
            lbp = _LBP.get(tok.kind, 0)
            if lbp <= rbp:
                break
            self.next()
            node = self.led(tok, node, first)
        return node

    def nud(self, tok):
        if tok.kind == "integer":
            return Num(Fraction(int(tok.text)), span=(tok.start, tok.end))
        if tok.kind == "rational":
            num, den = tok.text.split("/")
            if int(den) == 0:
                raise LangError("zero denominator", (tok.start, tok.end))
            nxt = self.peek()
            if nxt is not None and nxt.kind == "caret":
                first = self.pos - 1
                end = self.operand_after(self.pos)
                power = self.text(first + 2, end)
                self.ambiguous("the rational literal %s left of '^'" % tok.text,
                               ("(%s)^%s" % (tok.text, power), "%s/(%s^%s)" % (num, den, power)),
                               first, end)
            return Num(Fraction(int(num), int(den)), span=(tok.start, tok.end))
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "lparen":
                return self.parse_call(tok)
            if tok.text in _VEC_NAMES:
                return VecBuiltin(tok.text, span=(tok.start, tok.end))
            return Sym(tok.text, span=(tok.start, tok.end))
        if tok.kind == "lparen":
            node = self.parse(0)
            self.expect("rparen")
            return node
        if tok.kind == "minus":
            first = self.pos - 1
            operand = self.parse(_UNARY_BP)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "caret":
                caret = self.pos
                end = self.operand_after(caret)
                base, power = self.text(first + 1, caret), self.text(caret + 1, end)
                self.ambiguous("unary minus of a power",
                               ("-(%s^%s)" % (base, power), "(-%s)^%s" % (base, power)),
                               first, end)
            return Neg(operand, span=(tok.start, operand.span[1]))
        if tok.kind == "lbracket":
            lhs = self.parse(0)
            self.expect("comma")
            rhs = self.parse(0)
            close = self.expect("rbracket")
            return Commutator(lhs, rhs, span=(tok.start, close.end))
        raise LangError("unexpected token %r" % tok.text, (tok.start, tok.end))

    def parse_call(self, name_tok):
        self.expect("lparen")
        args = []
        if self.peek() is not None and self.peek().kind == "rparen":
            close = self.next()
        else:
            while True:
                args.append(self.parse(0))
                tok = self.next()
                if tok.kind == "rparen":
                    close = tok
                    break
                if tok.kind != "comma":
                    raise LangError("expected ',' or ')' in argument list", (tok.start, tok.end))
        span = (name_tok.start, close.end)
        if name_tok.text == "idx":
            if len(args) != 2:
                raise LangError("idx takes a vector and an axis", span)
            axis = args[1]
            axis_name = getattr(axis, "name", None)
            if axis_name not in _AXES:
                raise LangError("idx axis must be x, y, or z", axis.span)
            return Index(args[0], axis_name, span=span)
        return Apply(name_tok.text, tuple(args), span=span)

    def led(self, tok, lhs, first):
        op = tok.text
        if tok.kind in ("caret", "slash"):
            # the operators' right operand may not start with a rational
            # literal, whatever unary minus signs come first
            lit = self.pos
            while lit < len(self.toks) and self.toks[lit].kind == "minus":
                lit += 1
            if lit < len(self.toks) and self.toks[lit].kind == "rational":
                gap = " " if self.toks[self.pos].start > tok.end else ""
                left = self.text(first, self.pos) + gap
                signs = self.text(self.pos, lit)
                num, den = self.toks[lit].text.split("/")
                self.ambiguous("the rational literal %s right of '%s'" % (self.toks[lit].text, op),
                               ("(%s%s%s)/%s" % (left, signs, num, den),
                                "%s(%s%s)" % (left, signs, self.toks[lit].text)),
                               first, lit + 1)
        if tok.kind == "caret":
            rhs = self.parse(_LBP["caret"] - 1)
        else:
            rhs = self.parse(_LBP[tok.kind])
        return BinOp(op, lhs, rhs, span=(lhs.span[0], rhs.span[1]))


def parse_expr(source, base=0):
    """Parse a standalone expression; the whole string must be consumed."""
    toks = tokenize(source, base)
    return parse_tokens(toks, (base + len(source), base + len(source)))


def parse_tokens(tokens, end_span):
    if not tokens:
        raise LangError("empty expression", end_span)
    parser = _Parser(tokens, end_span)
    node = parser.parse(0)
    leftover = parser.peek()
    if leftover is not None:
        raise LangError("trailing input %r" % leftover.text, (leftover.start, leftover.end))
    return node


# --- elaboration ----------------------------------------------------------


@dataclass
class ElabEnv:
    """What names mean while elaborating: the symbol registry, the spin mode
    and the let bindings.

    memo, when not None, is a dict from compound nodes (anything but Num,
    Sym and VecBuiltin) to their values under this env, which elaborate
    reads before and fills after each such node, at every depth.  Its
    entries are right only while the bindings stay as they were when it
    was filled, so whoever gives an env a memo never changes its bindings
    afterwards.  source, read only alongside memo, is the abstract memo a
    half env was made from (catalog.Suite.env), else None.  A hand-built
    env, or one from elaborate_definitions, has neither.
    """
    registry: object
    mode: SpinMode
    bindings: dict
    memo: dict = field(default=None, repr=False, compare=False)
    source: dict = field(default=None, repr=False, compare=False)


def _scalar_expr(env, coeff):
    return OperatorExpr.from_scalar(coeff, mode=env.mode)


def _builtin_vec(env, name):
    if name == "r":
        return ops.position_vec(env.registry, env.mode)
    if name == "p":
        return ops.momentum_vec(env.registry, env.mode)
    if name == "S":
        return ops.spin_vec(env.registry, env.mode)
    if name == "l":
        return ops.orbital_vec(env.registry, env.mode)
    raise AssertionError(name)


def _resolve_name(env, node):
    name = node.name
    if name in env.bindings:
        return env.bindings[name]
    if name == "i":
        return _scalar_expr(env, ScalarCoeff.imag_unit(env.registry))
    if "_" in name:
        base, _, axis = name.rpartition("_")
        if axis in _AXES and base:
            if base in env.bindings:
                target = env.bindings[base]
                if not isinstance(target, VecExpr):
                    raise LangError("%s is not a vector" % base, node.span)
                return target.component(axis)
            if base in _VEC_NAMES:
                return _builtin_vec(env, base).component(axis)
    if name in env.registry:
        return _scalar_expr(env, ScalarCoeff.symbol(env.registry, name))
    raise LangError("unbound name %r" % name, node.span)


def _as_exponent(node):
    if isinstance(node, Num) and node.value.denominator == 1:
        return int(node.value)
    if isinstance(node, Neg):
        inner = _as_exponent(node.operand)
        if inner is not None:
            return -inner
    return None


def _scalar_coeff_of(value):
    """The coefficient of an identity-signature expression, else None."""
    if not isinstance(value, OperatorExpr):
        return None
    raw = ops.scalar_raw(value.raw_terms())
    return None if raw is None else ScalarCoeff(value.registry, raw)


# the nodes elaborate never memoises: a literal or a name is as cheap as a lookup
_LEAVES = (Num, Sym, VecBuiltin)


def elaborate(node, env):
    """Turn an Ast into an OperatorExpr or VecExpr under env.

    Through env.memo, if env has one (ElabEnv); a node it lacks that
    env.source holds is the quotient image of source's value, not stored.
    Spans do not take part in node equality, so equal subtrees anywhere
    share one entry.  A node whose elaboration raises stores nothing, so
    each occurrence reports its own span.  The memo grows by one entry per
    distinct compound subtree and is never evicted.
    """
    memo = env.memo
    if memo is None or isinstance(node, _LEAVES):
        return _elaborate(node, env)
    value = memo.get(node)
    if value is None:
        value = (env.source or {}).get(node)
        if value is not None:
            return value.reduce_spin_half()
        value = memo[node] = _elaborate(node, env)
    return value


def _elaborate(node, env):
    if isinstance(node, Num):
        return _scalar_expr(env, ScalarCoeff.from_rational(env.registry, node.value))
    if isinstance(node, Sym):
        return _resolve_name(env, node)
    if isinstance(node, VecBuiltin):
        return _builtin_vec(env, node.name)
    if isinstance(node, Neg):
        return -elaborate(node.operand, env)
    if isinstance(node, Index):
        target = elaborate(node.target, env)
        if not isinstance(target, VecExpr):
            raise LangError("idx needs a vector", node.span)
        return target.component(node.axis)
    if isinstance(node, Apply):
        return _elaborate_call(node, env)
    if isinstance(node, Commutator):
        return _elaborate_commutator(node, env)
    if isinstance(node, BinOp):
        return _elaborate_binop(node, env)
    raise TypeError("not an Ast node: %r" % (node,))


def _elaborate_call(node, env):
    name = node.func
    args = [elaborate(a, env) for a in node.args]
    if name in ("cross", "dot"):
        if len(args) != 2 or not all(isinstance(a, VecExpr) for a in args):
            raise LangError("%s takes two vectors" % name, node.span)
        return (ops.cross if name == "cross" else ops.dot)(args[0], args[1])
    if name == "rpow":
        if len(node.args) != 1:
            raise LangError("rpow takes one integer exponent", node.span)
        m = _as_exponent(node.args[0])
        if m is None:
            raise LangError("rpow exponent must be an integer literal", node.span)
        return ops.radial_power(env.registry, m, env.mode)
    if name == "unitr":
        if node.args:
            raise LangError("unitr takes no arguments", node.span)
        return ops.unit_radial_vec(env.registry, env.mode)
    raise LangError("unknown function %r" % name, node.span)


def _elaborate_commutator(node, env):
    lhs = elaborate(node.lhs, env)
    rhs = elaborate(node.rhs, env)
    if isinstance(lhs, VecExpr) and isinstance(rhs, VecExpr):
        # a bare r against a vector means the radial coordinate, not r-vec
        if isinstance(node.lhs, VecBuiltin) and node.lhs.name == "r":
            lhs = ops.radial_power(env.registry, 1, env.mode)
        elif isinstance(node.rhs, VecBuiltin) and node.rhs.name == "r":
            rhs = ops.radial_power(env.registry, 1, env.mode)
        else:
            raise LangError("commutator of two vectors has no single shape; "
                            "take components with idx()", node.span)
    try:
        return ops.commutator(lhs, rhs)
    except UsageError as exc:
        raise LangError(str(exc), node.span)


def _elaborate_binop(node, env):
    op = node.op
    if op == "^":
        return _elaborate_power(node, env)
    lhs = elaborate(node.lhs, env)
    rhs = elaborate(node.rhs, env)
    lvec = isinstance(lhs, VecExpr)
    rvec = isinstance(rhs, VecExpr)
    if op in ("+", "-"):
        if lvec != rvec:
            raise LangError("cannot %s a vector and a non-vector"
                            % ("add" if op == "+" else "subtract"), node.span)
        return lhs + rhs if op == "+" else lhs - rhs
    if op == "*":
        if lvec and rvec:
            raise LangError("vector times vector is ambiguous; use cross() or dot()",
                            node.span)
        return lhs * rhs
    if op == "/":
        if rvec:
            raise LangError("cannot divide by a vector", node.span)
        coeff = _scalar_coeff_of(rhs)
        if coeff is None:
            raise LangError("division only by nonzero scalar expressions", node.span)
        try:
            inv = coeff.invert()
        except DomainError as exc:
            raise LangError(str(exc), node.span)
        return lhs.scaled(inv)
    raise AssertionError(op)


def _elaborate_power(node, env):
    n = _as_exponent(node.rhs)
    if n is None:
        raise LangError("exponent must be an integer literal", node.span)
    if isinstance(node.lhs, VecBuiltin) and node.lhs.name == "r":
        return ops.radial_power(env.registry, n, env.mode)
    base = elaborate(node.lhs, env)
    if isinstance(base, VecExpr):
        raise LangError("cannot raise a vector to a power; use dot()", node.span)
    try:
        return base ** n
    except DomainError as exc:
        raise LangError(str(exc), node.span)


# --- identity files -------------------------------------------------------


@dataclass(frozen=True)
class RawDefinition:
    name: str
    expr: object


# each mu policy and the mu values at which it claims its check holds; a
# symbolic policy claims the proof for every mu, so it names no value
MU_POLICIES = {"symbolic": (), "0": (0,), "1": (1,), "all": (0, 1)}


@dataclass(frozen=True)
class RawCheck:
    check_id: str
    suite: str             # the suite whose file holds the check, or None
    lhs: object
    rhs: object
    relation: str          # '==' or '!='
    mode: str              # a SpinMode value, or None for either
    mu_policy: str         # a key of MU_POLICIES
    lhs_source: str
    rhs_source: str


@dataclass(frozen=True)
class IdentityFile:
    definitions: tuple
    checks: tuple


def parse_identity_file(text, suite=None):
    """Parse the line-oriented let/check format; each check records suite.
    Spans are file-absolute."""
    definitions = []
    checks = []
    seen_defs = {}
    seen_ids = set()
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        base = offset
        offset += len(line)
        if not stripped or stripped.startswith("#"):
            continue
        toks = tokenize(line.rstrip("\n"), base)
        if not toks:
            continue
        head = toks[0]
        if head.kind != "ident" or head.text not in ("let", "check"):
            raise LangError("line must start with 'let' or 'check'",
                            (head.start, head.end))
        if head.text == "let":
            _parse_let(toks, base, line, definitions, seen_defs)
        else:
            _parse_check(toks, base, line, suite, checks, seen_ids)
    return IdentityFile(tuple(definitions), tuple(checks))


def _line_end_span(toks, base, line):
    end = toks[-1].end if toks else base + len(line)
    return (end, end)


def _parse_let(toks, base, line, definitions, seen_defs):
    end_span = _line_end_span(toks, base, line)
    if len(toks) < 2 or toks[1].kind != "ident":
        raise LangError("let needs a name", end_span)
    name_tok = toks[1]
    name = name_tok.text
    if name in RESERVED_NAMES:
        raise LangError("%r is reserved" % name, (name_tok.start, name_tok.end))
    if name in seen_defs:
        raise LangError("duplicate definition %r" % name, (name_tok.start, name_tok.end))
    if len(toks) < 3 or toks[2].kind != "equals":
        raise LangError("let needs '='", end_span)
    expr = parse_tokens(toks[3:], end_span)
    seen_defs[name] = True
    definitions.append(RawDefinition(name, expr))


def _split_options(toks):
    """Peel trailing 'key=value' pairs off a token list."""
    body = list(toks)
    options = {}
    while len(body) >= 3 and body[-2].kind == "equals" and body[-3].kind == "ident" \
            and body[-3].text in ("mode", "mu") \
            and body[-1].kind in ("ident", "integer"):
        value = body.pop()
        body.pop()
        key = body.pop()
        if key.text in options:
            raise LangError("duplicate option %r" % key.text, (key.start, key.end))
        options[key.text] = value
    return body, options


def _parse_check(toks, base, line, suite, checks, seen_ids):
    end_span = _line_end_span(toks, base, line)
    if len(toks) < 2 or toks[1].kind != "ident":
        raise LangError("check needs an id", end_span)
    id_tok = toks[1]
    if id_tok.text in seen_ids:
        raise LangError("duplicate check id %r" % id_tok.text, (id_tok.start, id_tok.end))
    if len(toks) < 3 or toks[2].kind != "colon":
        raise LangError("check needs ':' after its id", end_span)
    rest = toks[3:]
    sep = None
    for idx, tok in enumerate(rest):
        if tok.kind == "noteq":
            sep = (idx, idx + 1, "!=")
            break
        if tok.kind == "equals" and idx + 1 < len(rest) \
                and rest[idx + 1].kind == "equals" and rest[idx + 1].start == tok.end:
            sep = (idx, idx + 2, "==")
            break
    if sep is None:
        raise LangError("check needs '==' or '!='", end_span)
    lhs_toks = rest[:sep[0]]
    tail, options = _split_options(rest[sep[1]:])
    lhs = parse_tokens(lhs_toks, end_span)
    rhs = parse_tokens(tail, end_span)
    mode = None
    if "mode" in options:
        tok = options["mode"]
        try:
            mode = SpinMode(tok.text).value
        except UsageError as exc:
            raise LangError(str(exc), (tok.start, tok.end)) from exc
    mu = "all"
    if "mu" in options:
        tok = options["mu"]
        if tok.text not in MU_POLICIES:
            raise LangError("mu must be one of %s" % ", ".join(MU_POLICIES),
                            (tok.start, tok.end))
        mu = tok.text
    seen_ids.add(id_tok.text)

    def _src(token_list):
        if not token_list:
            return ""
        return line[token_list[0].start - base:token_list[-1].end - base]

    checks.append(RawCheck(id_tok.text, suite, lhs, rhs, sep[2], mode, mu,
                           _src(lhs_toks), _src(tail)))


def elaborate_definitions(defs, registry, mode):
    """Build the binding environment for one file, in order."""
    env = ElabEnv(registry, mode, {})
    for d in defs:
        env.bindings[d.name] = elaborate(d.expr, env)
    return env
