"""Identity catalog: every relation the package verifies, grouped into suites.

Suites
------
so3               angular momentum closure and conservation, no spin coupling
so4               Runge-Lenz closure with the Coulomb Hamiltonian
inverse           power-law scan showing only 1/r keeps the construction conserved
theorem           the spin-coupled system: covariance set, field strength,
                  constraint residuals, conservation laws
spectrum_algebra  helicity conservation, Casimir-style contractions, and the
                  su(2) x su(2) split at a fixed eigenvalue

The suite text lives in this module and is also shipped as .ident files under
data/; the two must elaborate identically (a test enforces it).  Set
SO4ATOM_DATA_DIR to load the files from somewhere else.

Checks carry a mu policy.  'all' (the default) means the relation is expected
to hold for every specialization we track: symbolically in mu if possible,
otherwise at both mu=0 and mu=1.  A declared mu=0 or mu=1 narrows the claim
to that coupling only; 'symbolic' insists on the symbolic proof.  A '!='
check asserts a difference does NOT vanish at its declared policy; these pin
down deviations kept on record (see findings()).
"""

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import UsageError
from .scalars import ScalarCoeff, SymbolRegistry
from .operators import OperatorExpr, SpinMode, VecExpr, dot
from . import lang

__all__ = [
    "SUITE_NAMES",
    "PASSING_STATUSES",
    "Definition",
    "IdentitySpec",
    "CheckResult",
    "Suite",
    "Mutation",
    "Finding",
    "FINDINGS",
    "builtin_suites",
    "suite_source",
    "load_suite",
    "get_suite",
    "run_check",
    "run_suite",
    "mutations_for",
    "apply_mutation",
    "findings",
]

SUITE_NAMES = ("so3", "so4", "inverse", "theorem", "spectrum_algebra")

# statuses that satisfy an 'all' policy claim
PASSING_STATUSES = frozenset({"pass", "pass_at_mu_0_and_1"})

_CYC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
_ANTI = (("y", "x", "z"), ("z", "y", "x"), ("x", "z", "y"))
_DIAG = (("x", "x"), ("y", "y"), ("z", "z"))


def _cov_family(fid, lhs_a, lhs_b, rhs_v, mu=None):
    """Nine component checks of [A_u, B_v] == i hbar eps_uvw V_w."""
    opts = (" mu=%s" % mu) if mu else ""
    lines = []
    for u, v, w in _CYC:
        lines.append("check %s_%s%s : [%s, %s] == i*hbar*%s%s"
                     % (fid, u, v, lhs_a % u, lhs_b % v, rhs_v % w, opts))
    for u, v, w in _ANTI:
        lines.append("check %s_%s%s : [%s, %s] == -(i*hbar*%s)%s"
                     % (fid, u, v, lhs_a % u, lhs_b % v, rhs_v % w, opts))
    for u, v in _DIAG:
        lines.append("check %s_%s%s : [%s, %s] == 0%s"
                     % (fid, u, v, lhs_a % u, lhs_b % v, opts))
    return lines


def _so3_source():
    lines = ["# Angular momentum closure and conservation for the plain Coulomb problem.",
             "",
             "let H = dot(p,p)/(2*M) - kappa*r^-1",
             "",
             "check l_cross_l : cross(l,l) == i*hbar*l"]
    lines += _cov_family("lr_cov", "l_%s", "r_%s", "r_%s")
    lines += _cov_family("lp_cov", "l_%s", "p_%s", "p_%s")
    lines += ["check l_radial : [l, r] == 0",
              "check l_p2 : [l, dot(p,p)] == 0",
              "check H_l_conserved : [H, l] == 0"]
    return "\n".join(lines) + "\n"


def _so4_source():
    lines = ["# Closure of angular momentum with the quantum Runge-Lenz vector.",
             "# A Hamiltonian factor on a right-hand side always sits left of l.",
             "",
             "let H = dot(p,p)/(2*M) - kappa*r^-1",
             "let R = (cross(p,l) - cross(l,p))/(2*M) - kappa*unitr()",
             "",
             "check RxR_eq_H_l : cross(R,R) == -(2*i*hbar/M)*(H*l)",
             "check H_R_conserved : [H, R] == 0",
             "check l_dot_R : dot(l,R) == 0",
             "check R_dot_l : dot(R,l) == 0",
             "check R2_identity : dot(R,R) == (2/M)*(H*(dot(l,l) + hbar^2)) + kappa^2"]
    lines += _cov_family("lR_cov", "l_%s", "idx(R,%s)", "idx(R,%s)")
    return "\n".join(lines) + "\n"


_INVERSE_MEMBERS = (
    (-3, "m3", "dot(p,p)/(2*M)"),
    (-2, "m2", "dot(p,p)/(2*M) + 1/2*(kappa*r^-2)"),
    (-1, "m1", "dot(p,p)/(2*M) + kappa*r^-1"),
    (0, "z0", "dot(p,p)/(2*M) + 3/2*kappa"),
    (1, "p1", "dot(p,p)/(2*M) + 2*(kappa*r^1)"),
)


def _inverse_source():
    lines = ["# Runge-Lenz construction over single power-law radial functions.",
             "# Each Hamiltonian carries the extracted potential (r f' + 3 f)/2;",
             "# the bracket with H only closes to zero for the 1/r member.",
             ""]
    for n, tag, ham in _INVERSE_MEMBERS:
        lines.append("let f_%s = kappa*r^%d" % (tag, n))
        lines.append("let H_%s = %s" % (tag, ham))
        lines.append("let R_%s = (cross(p,l) - cross(l,p))/(2*M) + f_%s*r" % (tag, tag))
    lines.append("")
    for _, tag, _h in _INVERSE_MEMBERS:
        lines.append("check RxR_extract_%s : cross(R_%s,R_%s) == -(2*i*hbar/M)*(H_%s*l)"
                     % (tag, tag, tag, tag))
    for n, tag, _h in _INVERSE_MEMBERS:
        rel = "==" if n == -1 else "!="
        lines.append("check R_H_%s : [R_%s, H_%s] %s 0" % (tag, tag, tag, rel))
    return "\n".join(lines) + "\n"


_SPIN_DEFS = [
    "let A = mu*(cross(r,S)*rpow(-2))",
    "let Pi = p - A",
    "let J = l + mu*S",
    "let rS = dot(r,S)",
    "let h = k1*r^-1 + mu*(k2*(rS*rpow(-2)))",
    "let V = h + mu*((rS*rS)*rpow(-4))/(2*M)",
    "let Ham = dot(Pi,Pi)/(2*M) + V",
    "let R = (cross(Pi,J) - cross(J,Pi))/(2*M) + h*r",
]


def _theorem_source():
    lines = ["# Spin-coupled system: gauge-like spin potential, its field strength,",
             "# and the generalized Runge-Lenz vector.",
             ""]
    lines += _SPIN_DEFS
    lines += ["let B = mu*(mu-2)*((rS*rpow(-4))*r)",
              "let B_printed = i*hbar*B",
              "",
              "check J_recast : J == cross(r,Pi) + mu*((rS*rpow(-2))*r)"]
    lines += _cov_family("JJ_cov", "J_%s", "J_%s", "J_%s")
    lines += _cov_family("JPi_cov", "J_%s", "idx(Pi,%s)", "idx(Pi,%s)")
    lines += _cov_family("JPixJ_cov", "J_%s", "idx(cross(Pi,J),%s)", "idx(cross(Pi,J),%s)")
    lines += _cov_family("JJxPi_cov", "J_%s", "idx(cross(J,Pi),%s)", "idx(cross(J,Pi),%s)")
    lines += _cov_family("Jr_cov", "J_%s", "r_%s", "r_%s")
    lines += _cov_family("JS_cov", "J_%s", "S_%s", "S_%s", mu="1")
    lines += [
        "check RxR_master : cross(R,R) == -(2*i*hbar/M)*((dot(Pi,Pi)/(2*M)"
        " + (1/2)*(-(1/(i*hbar))*dot([Pi,h],r) + 3*h + (mu/M)*((rS*rS)*rpow(-4))))*J)"
        " - (mu/M)*(([Pi,h] - i*hbar*(rpow(-2)*(r*h)))*rS)",
        "check V_from_constraint : (1/2)*(-(1/(i*hbar))*dot([Pi,h],r) + 3*h"
        " + (mu/M)*((rS*rS)*rpow(-4))) == V",
        "check h_constraint : (mu/M)*(([Pi,h] - i*hbar*(rpow(-2)*(r*h)))*rS) == 0",
        "check h_constraint_inner : [Pi,h] - i*hbar*(rpow(-2)*(r*h)) == 0",
        "check RR_closure : cross(R,R) == -(2*i*hbar/M)*(Ham*J)",
        "check J_Ham : [J, Ham] == 0",
        "check R_Ham : [R, Ham] == 0",
        "check J_Pisq : [J, dot(Pi,Pi)] == 0",
        "check J_radial : [J, r] == 0",
        "check J_rS : [J, rS] == 0 mu=1",
        "check J2_Ham : [dot(J,J), Ham] == 0",
        "check Jz_Ham : [J_z, Ham] == 0",
    ]
    # canonical pairs of Pi with position
    for u, v in (("x", "x"), ("y", "y"), ("z", "z")):
        lines.append("check Pi_r_cc_%s%s : [idx(Pi,%s), r_%s] == -(i*hbar)" % (u, v, u, v))
    for u, v in (("x", "y"), ("y", "x"), ("y", "z"), ("z", "y"), ("z", "x"), ("x", "z")):
        lines.append("check Pi_r_cc_%s%s : [idx(Pi,%s), r_%s] == 0" % (u, v, u, v))
    lines += [
        "check Pi_rinv : [Pi, r^-1] == i*hbar*(rpow(-3)*r)",
        "check Pi_rinv2 : [Pi, r^-2] == 2*i*hbar*(rpow(-4)*r)",
    ]
    for u, v, w in _CYC:
        cid = "PiPi_field" if (u, v) == ("x", "y") else "PiPi_field_%s%s" % (u, v)
        lines.append("check %s : [idx(Pi,%s), idx(Pi,%s)] == i*hbar*idx(B,%s)"
                     % (cid, u, v, w))
    for u, v, w in _ANTI:
        lines.append("check PiPi_field_%s%s : [idx(Pi,%s), idx(Pi,%s)] == -(i*hbar*idx(B,%s))"
                     % (u, v, u, v, w))
    for u, v in _DIAG:
        lines.append("check PiPi_field_%s%s : [idx(Pi,%s), idx(Pi,%s)] == 0" % (u, v, u, v))
    lines += [
        "check Pi_comm_Pisq : [Pi, dot(Pi,Pi)] == i*hbar*(cross(Pi,B) - cross(B,Pi))",
        "check PiJ_anticross : cross(Pi,J) + cross(J,Pi) == 2*i*hbar*Pi",
        "check Pi_rS_lemma : [Pi, rS*rpow(-2)] == i*hbar*((mu-1)*(rpow(-2)*S))"
        " + i*hbar*((2-mu)*((rS*rpow(-4))*r))",
        "",
        "# Transcribed variant of the field strength with a doubled imaginary unit.",
        "# It agrees only where the coupling switches the field off; the engine",
        "# form above is the one that holds for symbolic mu.  See findings().",
        "check PiPi_field_printed : [idx(Pi,x), idx(Pi,y)] == i*hbar*idx(B_printed,z) mu=0",
        "check PiPi_printed_deviates : [idx(Pi,x), idx(Pi,y)] != i*hbar*idx(B_printed,z) mu=1",
        "check Pi_Pisq_printed : [Pi, dot(Pi,Pi)] =="
        " i*hbar*(cross(Pi,B_printed) - cross(B_printed,Pi)) mu=0",
        "check Pi_Pisq_printed_deviates : [Pi, dot(Pi,Pi)] !="
        " i*hbar*(cross(Pi,B_printed) - cross(B_printed,Pi)) mu=1",
    ]
    return "\n".join(lines) + "\n"


def _spectrum_source():
    lines = ["# Conserved helicity, Casimir-style contractions, and the inputs the",
             "# eigenvalue derivation combines.  Registry carries E and t for the",
             "# fixed-eigenvalue checks appended by the runner.",
             ""]
    lines += _SPIN_DEFS
    lines += ["let Sr = rS*r^-1",
              "",
              "check Sr_conserved : [Sr, Ham] == 0 mu=1",
              "check J_dot_R : dot(J,R) == mu*(h*rS)",
              "check R_dot_J : dot(R,J) == mu*(h*rS)",
              "check R2_expansion : dot(R,R) == -(2/M)*((mu*((rS*rS)*rpow(-2))"
              " - dot(J,J) - hbar^2)*Ham) + (h*h)*rpow(2)"]
    lines += _cov_family("JR_cov", "J_%s", "idx(R,%s)", "idx(R,%s)")
    return "\n".join(lines) + "\n"


_SOURCES = {
    "so3": _so3_source(),
    "so4": _so4_source(),
    "inverse": _inverse_source(),
    "theorem": _theorem_source(),
    "spectrum_algebra": _spectrum_source(),
}

_REGISTRY_EXTRA = {"spectrum_algebra": ("E", "t")}


# --- suite objects --------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """A named expression a suite binds before its checks run."""
    name: str
    source: str


@dataclass(frozen=True)
class IdentitySpec:
    check_id: str
    suite: str
    lhs: object
    rhs: object
    relation: str          # '==' or '!='
    mode: str              # 'abstract', 'half', or None for either
    mu_policy: str         # 'symbolic' | '0' | '1' | 'all'
    lhs_source: str
    rhs_source: str


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    suite: str
    status: str            # pass | fail | pass_at_mu_0 | pass_at_mu_1
    #                        | pass_at_mu_0_and_1 | skipped
    ok: object             # True/False under the declared policy; None if skipped
    mode: str
    mu_policy: str
    requested_mu: str
    symbolic_zero: object  # bool when computed, else None
    witness: str
    residual_terms: int
    elapsed_ms: float


class Suite:
    """A parsed suite plus per-mode elaboration caches."""

    def __init__(self, name, text):
        if name not in SUITE_NAMES:
            raise UsageError("unknown suite %r" % name)
        self.name = name
        self.text = text
        parsed = lang.parse_identity_file(text)
        self.definitions = tuple(Definition(d.name, d.source) for d in parsed.definitions)
        self._raw_definitions = parsed.definitions
        self.checks = tuple(
            IdentitySpec(c.check_id, name, c.lhs, c.rhs, c.relation, c.mode,
                         c.mu, c.lhs_source, c.rhs_source)
            for c in parsed.checks
        )
        self._envs = {}

    def env(self, mode):
        if not isinstance(mode, SpinMode):
            raise UsageError("spin mode must be a SpinMode, got %r" % (mode,))
        if mode not in self._envs:
            reg = SymbolRegistry(extra=_REGISTRY_EXTRA.get(self.name, ()))
            self._envs[mode] = lang.elaborate_definitions(self._raw_definitions, reg, mode)
        return self._envs[mode]

    def spec(self, check_id):
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise UsageError("no check %r in suite %r" % (check_id, self.name))


def builtin_suites():
    """The suites from the sources embedded in this module."""
    return {name: Suite(name, _SOURCES[name]) for name in SUITE_NAMES}


def suite_source(name):
    if name not in _SOURCES:
        raise UsageError("unknown suite %r" % name)
    return _SOURCES[name]


def data_dir():
    override = os.environ.get("SO4ATOM_DATA_DIR")
    if override:
        return override
    return str(resources.files("so4atom") / "data")


def load_suite(name, directory=None):
    """Parse a suite from its .ident file."""
    if name not in SUITE_NAMES:
        raise UsageError("unknown suite %r" % name)
    directory = directory or data_dir()
    path = os.path.join(directory, name + ".ident")
    with open(path, "r", encoding="utf-8") as fh:
        return Suite(name, fh.read())


_SUITES = {}


def get_suite(name):
    """File copy when present, embedded text otherwise.

    One shared Suite per (name, data directory), so each suite is read,
    parsed and elaborated once per process.
    """
    directory = data_dir()
    key = (name, directory)
    if key not in _SUITES:
        try:
            _SUITES[key] = load_suite(name, directory)
        except FileNotFoundError:
            _SUITES[key] = Suite(name, suite_source(name))
    return _SUITES[key]


# --- running checks -------------------------------------------------------


def _shape_difference(lhs, rhs):
    lvec = isinstance(lhs, VecExpr)
    rvec = isinstance(rhs, VecExpr)
    if lvec == rvec:
        return lhs - rhs
    # a literal zero on either side takes the shape of the other
    if not rvec and rhs.is_zero():
        return lhs
    if not lvec and lhs.is_zero():
        return -rhs
    raise UsageError("one side is a vector and the other is not")


def _zero_at_mu(diff, value):
    return diff.substitute("mu", Fraction(value)).is_zero()


def _status_eq(diff, policy):
    """Status of an '==' check under a mu policy; also reports symbolic zero."""
    sym = diff.is_zero()
    if policy == "symbolic":
        return ("pass" if sym else "fail"), sym
    if policy in ("0", "1"):
        ok = sym or _zero_at_mu(diff, int(policy))
        return ("pass" if ok else "fail"), sym
    if sym:
        return "pass", True
    z0 = _zero_at_mu(diff, 0)
    z1 = _zero_at_mu(diff, 1)
    if z0 and z1:
        return "pass_at_mu_0_and_1", False
    if z0:
        return "pass_at_mu_0", False
    if z1:
        return "pass_at_mu_1", False
    return "fail", False


def _status_neq(diff, policy):
    """A '!=' check passes when the difference refuses to vanish."""
    sym = diff.is_zero()
    if policy == "symbolic":
        return ("fail" if sym else "pass"), sym
    if policy in ("0", "1"):
        return ("fail" if sym or _zero_at_mu(diff, int(policy)) else "pass"), sym
    nonzero = not sym and not _zero_at_mu(diff, 0) and not _zero_at_mu(diff, 1)
    return ("pass" if nonzero else "fail"), sym


_OK_BY_POLICY = {
    "symbolic": frozenset({"pass"}),
    "0": frozenset({"pass", "pass_at_mu_0", "pass_at_mu_0_and_1"}),
    "1": frozenset({"pass", "pass_at_mu_1", "pass_at_mu_0_and_1"}),
    "all": PASSING_STATUSES,
}


def _compatible(declared, requested):
    if requested in (None, "all") or declared in ("all", "symbolic"):
        return True
    if requested == "symbolic":
        return False
    return declared == requested


def _witness_text(diff, policy):
    if policy in ("0", "1"):
        diff = diff.substitute("mu", Fraction(int(policy)))
    if isinstance(diff, VecExpr):
        parts = [str(c) for c in diff.components]
        count = sum(c.term_count() for c in diff.components)
        return "(" + "; ".join(parts) + ")", count
    return str(diff), diff.term_count()


def run_check(spec, env=None, requested_mu=None, mode="abstract"):
    """Evaluate one identity.  env defaults to the suite's cached bindings."""
    started = time.perf_counter()
    spin = SpinMode.SPIN_HALF if mode == "half" else SpinMode.ABSTRACT
    if spec.mode is not None and spec.mode != mode:
        raise UsageError("check %s is declared for mode=%s" % (spec.check_id, spec.mode))
    if env is None:
        env = get_suite(spec.suite).env(spin)
    try:
        lhs = lang.elaborate(spec.lhs, env)
        rhs = lang.elaborate(spec.rhs, env)
        diff = _shape_difference(lhs, rhs)
    except Exception as exc:
        raise UsageError("check %s: %s" % (spec.check_id, exc)) from exc

    # '!=' checks always speak about their declared policy
    effective = spec.mu_policy if spec.relation == "!=" else (requested_mu or spec.mu_policy)
    if spec.relation == "==":
        status, sym = _status_eq(diff, effective)
    else:
        status, sym = _status_neq(diff, effective)

    if effective == spec.mu_policy:
        ok = status in _OK_BY_POLICY[spec.mu_policy] if spec.relation == "==" \
            else status == "pass"
    else:
        declared_status, _ = (_status_eq if spec.relation == "==" else _status_neq)(
            diff, spec.mu_policy)
        ok = declared_status in _OK_BY_POLICY[spec.mu_policy] if spec.relation == "==" \
            else declared_status == "pass"

    witness, terms = ("", 0)
    if spec.relation == "==" and (status == "fail" or ok is False):
        witness, terms = _witness_text(diff, effective)
    elapsed = (time.perf_counter() - started) * 1000.0
    return CheckResult(spec.check_id, spec.suite, status, ok, mode, spec.mu_policy,
                       requested_mu or "declared", sym, witness, terms, elapsed)


def run_suite(name, mode="abstract", mu=None, suite=None):
    """All results for one suite, ordered by check id.

    mu=None evaluates each check at its declared policy.  An explicit mu
    ('symbolic', '0', '1', 'all') re-reports compatible checks under that
    lens and skips the incompatible ones.
    """
    if mode not in ("abstract", "half"):
        raise UsageError("mode must be abstract or half")
    if mu not in (None, "symbolic", "0", "1", "all"):
        raise UsageError("mu must be symbolic, 0, 1, or all")
    suite = suite or get_suite(name)
    spin = SpinMode.SPIN_HALF if mode == "half" else SpinMode.ABSTRACT
    env = suite.env(spin)
    results = []
    for spec in suite.checks:
        if spec.mode is not None and spec.mode != mode:
            continue
        if not _compatible(spec.mu_policy, mu):
            results.append(CheckResult(spec.check_id, name, "skipped", None, mode,
                                       spec.mu_policy, mu or "declared", None, "", 0, 0.0))
            continue
        results.append(run_check(spec, env=env, requested_mu=mu, mode=mode))
    if name == "spectrum_algebra":
        results.extend(_eigenvalue_results(suite, mode))
    return sorted(results, key=lambda r: r.check_id)


# --- fixed-eigenvalue layer ----------------------------------------------
#
# The su(2) x su(2) split works with the rescaled vector t*R where the even
# powers of t stand for M/(-2E).  The bracket data below comes from three
# operator identities the suite itself checks: the covariance of J, the
# covariance of R under J, and the closure of [R_u, R_v] onto the
# Hamiltonian times J with the Hamiltonian factor replaced by its
# eigenvalue symbol E.


def _sc(reg, value):
    return ScalarCoeff.from_rational(reg, Fraction(value))


def _lie_results(reg, mode):
    E = ScalarCoeff.symbol(reg, "E")
    t = ScalarCoeff.symbol(reg, "t")
    minv = ScalarCoeff.symbol(reg, "M", -1)
    rr_factor = _sc(reg, -2) * E * minv          # [R,R] closes on this times J
    t2_value = ScalarCoeff.symbol(reg, "M") * (_sc(reg, -2) * E).invert()
    half = _sc(reg, Fraction(1, 2))

    def bracket(a1, b1, a2, b2):
        return a1 * a2 + b1 * b2 * rr_factor, a1 * b2 + b1 * a2

    def reduces_to(pair, target):
        dj = (pair[0] - target[0]).substitute_even_powers("t", t2_value)
        dr = (pair[1] - target[1]).substitute_even_powers("t", t2_value)
        return dj.is_zero() and dr.is_zero()

    zero = ScalarCoeff.zero(reg)
    w = (half, half * t)
    k = (half, -(half * t))
    cases = (
        ("WW_su2", bracket(*w, *w), w),
        ("KK_su2", bracket(*k, *k), k),
        ("WK_commute", bracket(*w, *k), (zero, zero)),
        ("Rprime_closure", bracket(zero, t, zero, t), (ScalarCoeff.one(reg), zero)),
    )
    out = []
    for cid, got, want in cases:
        started = time.perf_counter()
        ok = reduces_to(got, want)
        elapsed = (time.perf_counter() - started) * 1000.0
        out.append(CheckResult(cid, "spectrum_algebra", "pass" if ok else "fail",
                               ok, mode, "symbolic", "declared", ok, "", 0, elapsed))
    return out


def _eigenvalue_results(suite, mode):
    spin = SpinMode.SPIN_HALF if mode == "half" else SpinMode.ABSTRACT
    env = suite.env(spin)
    reg = env.registry
    results = _lie_results(reg, mode)

    def ev(src):
        return lang.elaborate(lang.parse_expr(src), env)

    t = ScalarCoeff.symbol(reg, "t")
    t2_value = ScalarCoeff.symbol(reg, "M") * (_sc(reg, -2) * ScalarCoeff.symbol(reg, "E")).invert()
    J = env.bindings["J"]
    R = env.bindings["R"]

    # X is the bracket the expansion of R.R factors through
    X = ev("mu*((rS*rS)*rpow(-2)) - dot(J,J) - hbar^2")
    rhs_E = ev("-(2/M)*E") * X + ev("(h*h)*rpow(2)")

    def op_case(cid, diff, policy):
        started = time.perf_counter()
        if policy == "symbolic":
            ok = diff.is_zero()
            status = "pass" if ok else "fail"
            sym = ok
        else:
            status, sym = _status_eq(diff, "all")
            ok = status in PASSING_STATUSES
        witness, terms = ("", 0)
        if not ok:
            witness, terms = _witness_text(diff, "all")
        elapsed = (time.perf_counter() - started) * 1000.0
        results.append(CheckResult(cid, "spectrum_algebra", status, ok, mode,
                                   policy, "declared", sym, witness, terms, elapsed))

    # t^2 R.R with the expansion's Hamiltonian factor at its eigenvalue
    lhs = rhs_E.scaled(t * t).substitute_even_powers("t", t2_value)
    target = ev("mu*((rS*rS)*rpow(-2)) - dot(J,J) - hbar^2 - (M/(2*E))*((h*h)*rpow(2))")
    op_case("R2_prime_eigenform", lhs - target, "symbolic")

    W = (J + R.scaled(t)).scaled(Fraction(1, 2))
    K = (J - R.scaled(t)).scaled(Fraction(1, 2))
    sum_wk = dot(W, W) + dot(K, K)
    half_jj_rr = (dot(J, J) + dot(R, R).scaled(t * t)).scaled(Fraction(1, 2))
    op_case("WK_sum_bilinear", sum_wk - half_jj_rr, "symbolic")

    lhs = (dot(J, J) + rhs_E.scaled(t * t)).scaled(Fraction(1, 2)) \
        .substitute_even_powers("t", t2_value)
    target = ev("(1/2)*(mu*((rS*rS)*rpow(-2)) - hbar^2 - (M/(2*E))*((h*h)*rpow(2)))")
    op_case("Casimir_sum_eigenform", lhs - target, "symbolic")

    diff_wk = dot(W, W) - dot(K, K)
    target = ev("mu*(h*rS)").scaled(t)
    op_case("WK_diff_reduction", diff_wk - target, "all")
    return results


# --- mutations and findings ----------------------------------------------


@dataclass(frozen=True)
class Mutation:
    suite: str
    check_id: str
    description: str
    find: str
    replace: str


_MUTATIONS = (
    Mutation("so3", "l_cross_l", "doubled closure coefficient",
             "i*hbar*l", "2*i*hbar*l"),
    Mutation("so3", "H_l_conserved", "nonzero target spliced into a conservation law",
             "0", "i*hbar*p"),
    Mutation("so4", "RxR_eq_H_l", "wrong closure prefactor",
             "-(2*i*hbar/M)", "-(3*i*hbar/M)"),
    Mutation("so4", "R2_identity", "shifted Casimir constant",
             "dot(l,l) + hbar^2", "dot(l,l) + 2*hbar^2"),
    Mutation("inverse", "RxR_extract_m1", "halved closure prefactor",
             "-(2*i*hbar/M)", "-(i*hbar/M)"),
    Mutation("theorem", "V_from_constraint", "potential coefficient 3 -> 2",
             "3*h", "2*h"),
    Mutation("theorem", "Pi_rS_lemma", "wrong lemma weight",
             "(2-mu)", "(3-mu)"),
    Mutation("spectrum_algebra", "R2_expansion", "doubled vacuum shift",
             "dot(J,J) - hbar^2", "dot(J,J) - 2*hbar^2"),
    Mutation("spectrum_algebra", "J_dot_R", "doubled contraction",
             "mu*(h*rS)", "2*(mu*(h*rS))"),
)


def mutations_for(suite_name):
    return tuple(m for m in _MUTATIONS if m.suite == suite_name)


def apply_mutation(spec, mutation):
    """A new IdentitySpec with the mutation spliced into the source text."""
    if mutation.check_id != spec.check_id:
        raise UsageError("mutation targets %r" % mutation.check_id)
    lhs_src, rhs_src = spec.lhs_source, spec.rhs_source
    hits = lhs_src.count(mutation.find) + rhs_src.count(mutation.find)
    if hits != 1:
        raise UsageError("mutation pattern %r matches %d times in %s"
                         % (mutation.find, hits, spec.check_id))
    lhs_src = lhs_src.replace(mutation.find, mutation.replace)
    rhs_src = rhs_src.replace(mutation.find, mutation.replace)
    return IdentitySpec(
        spec.check_id + "__mut", spec.suite,
        lang.parse_expr(lhs_src), lang.parse_expr(rhs_src),
        spec.relation, spec.mode, spec.mu_policy, lhs_src, rhs_src,
    )


@dataclass(frozen=True)
class Finding:
    finding_id: str
    summary: str
    deviating_checks: tuple
    engine_checks: tuple
    note: str


FINDINGS = (
    Finding(
        "field_strength_prefactor",
        "transcribed field strength carries an extra imaginary unit",
        ("PiPi_field_printed", "PiPi_printed_deviates",
         "Pi_Pisq_printed", "Pi_Pisq_printed_deviates"),
        ("PiPi_field", "Pi_comm_Pisq"),
        "The engine-computed field strength is B = mu*(mu-2)*((rS*rpow(-4))*r), "
        "entering [Pi_u, Pi_v] = i*hbar*eps_uvw*B_w; this form holds for "
        "symbolic mu.  The transcribed variant multiplies B by another i*hbar "
        "and survives only at mu=0, where the field vanishes outright.  The "
        "suite pins both facts: the _printed checks hold at mu=0 and the "
        "_deviates checks certify the mismatch at mu=1.",
    ),
)


def findings():
    return FINDINGS
