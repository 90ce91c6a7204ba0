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

The suite text lives only in the .ident files under data/, one per suite.
Set SO4ATOM_DATA_DIR to load the files from somewhere else; a suite whose
file is missing there is a UsageError.

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
from .operators import SpinMode, VecExpr, dot
from . import lang

__all__ = [
    "SUITE_NAMES",
    "PASSING_STATUSES",
    "IdentitySpec",
    "CheckResult",
    "Suite",
    "Mutation",
    "Finding",
    "FINDINGS",
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

_REGISTRY_EXTRA = {"spectrum_algebra": ("E", "t")}


# --- suite objects --------------------------------------------------------


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
    """A parsed suite plus per-mode elaboration caches.

    Per spin mode it keeps the definitions' bindings (env) and the
    difference lhs - rhs of each of its own checks, so a check is
    elaborated once per mode however many mu lenses read it.  The record
    is bounded by the suite's checks.
    """

    def __init__(self, name, text):
        if name not in SUITE_NAMES:
            raise UsageError("unknown suite %r" % name)
        self.name = name
        self.text = text
        parsed = lang.parse_identity_file(text)
        self.definitions = parsed.definitions
        self.checks = tuple(
            IdentitySpec(c.check_id, name, c.lhs, c.rhs, c.relation, c.mode,
                         c.mu, c.lhs_source, c.rhs_source)
            for c in parsed.checks
        )
        self._by_id = {c.check_id: c for c in self.checks}
        self._envs = {}
        self._diffs = {}    # (mode, check_id) -> difference under self._envs[mode]

    def env(self, mode):
        if not isinstance(mode, SpinMode):
            raise UsageError("spin mode must be a SpinMode, got %r" % (mode,))
        if mode not in self._envs:
            reg = SymbolRegistry(extra=_REGISTRY_EXTRA.get(self.name, ()))
            self._envs[mode] = lang.elaborate_definitions(self.definitions, reg, mode)
        return self._envs[mode]

    def spec(self, check_id):
        if check_id not in self._by_id:
            raise UsageError("no check %r in suite %r" % (check_id, self.name))
        return self._by_id[check_id]

    def difference(self, spec, env):
        """spec's lhs - rhs under env.  Only one of this suite's own checks
        under its cached env for the mode is read from the record; a
        mutated or ad-hoc spec, or a hand-built env whose bindings may
        change, is elaborated afresh.  An elaboration error is never kept.
        """
        if self._by_id.get(spec.check_id) is not spec or self._envs.get(env.mode) is not env:
            return _difference(spec, env)
        key = (env.mode, spec.check_id)
        if key not in self._diffs:
            self._diffs[key] = _difference(spec, env)
        return self._diffs[key]


# the packaged suites' directory, resolved once: every get_suite asks for it
_PACKAGED_DATA = str(resources.files("so4atom") / "data")


def data_dir():
    return os.environ.get("SO4ATOM_DATA_DIR") or _PACKAGED_DATA


def load_suite(name, directory=None):
    """Parse a suite from its .ident file; an unreadable file is a UsageError."""
    if name not in SUITE_NAMES:
        raise UsageError("unknown suite %r" % name)
    directory = directory or data_dir()
    path = os.path.join(directory, name + ".ident")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError("cannot read suite file %s: %s" % (path, exc.strerror or exc)) from exc
    return Suite(name, text)


_SUITES = {}


def get_suite(name):
    """The shared Suite for ``name`` in the current data directory.

    One Suite per (name, data directory), so each suite is read, parsed
    and elaborated once per process.
    """
    key = (name, data_dir())
    if key not in _SUITES:
        _SUITES[key] = load_suite(*key)
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


def _difference(spec, env):
    try:
        lhs = lang.elaborate(spec.lhs, env)
        rhs = lang.elaborate(spec.rhs, env)
        return _shape_difference(lhs, rhs)
    except Exception as exc:
        raise UsageError("check %s: %s" % (spec.check_id, exc)) from exc


_MU_VALUES = {"symbolic": (), "0": (0,), "1": (1,), "all": (0, 1)}


def _verdict(diff, relation, lens, declared):
    """(status under the lens, ok under the declared policy, symbolic zero,
    witness, witness terms) for one difference.

    An '==' check passes where the difference vanishes: symbolically, or at
    every mu value of the policy ('all' names the values that held).  A
    '!=' check passes where it vanishes at none of them.  The zero test and
    each mu substitution run at most once.
    """
    sym = diff.is_zero()
    at_mu = {}

    def zero_at(v):
        if v not in at_mu:
            shifted = diff.substitute("mu", Fraction(v))
            at_mu[v] = (shifted, shifted.is_zero())
        return at_mu[v][1]

    def status(policy):
        values = _MU_VALUES[policy]
        if relation == "!=":
            return "fail" if sym or any(zero_at(v) for v in values) else "pass"
        if sym:
            return "pass"
        held = [str(v) for v in values if zero_at(v)]
        if not held:
            return "fail"
        return "pass_at_mu_" + "_and_".join(held) if policy == "all" else "pass"

    shown = status(lens)
    ok = (shown if lens == declared else status(declared)) in PASSING_STATUSES
    witness, terms = "", 0
    if relation == "==" and (shown == "fail" or not ok):
        shown_diff = diff if lens in ("symbolic", "all") else at_mu[int(lens)][0]
        vec = isinstance(shown_diff, VecExpr)
        parts = shown_diff.components if vec else (shown_diff,)
        witness = "(%s)" % "; ".join(map(str, parts)) if vec else str(shown_diff)
        terms = sum(c.term_count() for c in parts)
    return shown, ok, sym, witness, terms


def _compatible(declared, requested):
    if requested in (None, "all") or declared in ("all", "symbolic"):
        return True
    if requested == "symbolic":
        return False
    return declared == requested


def run_check(spec, env=None, requested_mu=None, mode="abstract"):
    """Evaluate one identity.  env defaults to the suite's cached bindings;
    a check of a suite get_suite has loaded, under that suite's env, reads
    its difference from the suite's record (Suite.difference)."""
    started = time.perf_counter()
    spin = SpinMode(mode)
    if spec.mode is not None and spec.mode != mode:
        raise UsageError("check %s is declared for mode=%s" % (spec.check_id, spec.mode))
    if env is None:
        suite = get_suite(spec.suite)
        env = suite.env(spin)
    else:
        # only a shared suite can own the caller's env; never load one here
        suite = _SUITES.get((spec.suite, data_dir()))
    diff = _difference(spec, env) if suite is None else suite.difference(spec, env)

    # '!=' checks always speak about their declared policy
    effective = spec.mu_policy if spec.relation == "!=" else (requested_mu or spec.mu_policy)
    status, ok, sym, witness, terms = _verdict(diff, spec.relation, effective,
                                               spec.mu_policy)
    elapsed = (time.perf_counter() - started) * 1000.0
    return CheckResult(spec.check_id, spec.suite, status, ok, mode, spec.mu_policy,
                       requested_mu or "declared", sym, witness, terms, elapsed)


def run_suite(name, mode="abstract", mu=None, suite=None):
    """All results for one suite, ordered by check id.

    mu=None evaluates each check at its declared policy.  An explicit mu
    ('symbolic', '0', '1', 'all') re-reports compatible checks under that
    lens and skips the incompatible ones.
    """
    spin = SpinMode(mode)
    if mu not in (None, "symbolic", "0", "1", "all"):
        raise UsageError("mu must be symbolic, 0, 1, or all")
    suite = suite or get_suite(name)
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
    env = suite.env(SpinMode(mode))
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
        status, ok, sym, witness, terms = _verdict(diff, "==", policy, policy)
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
