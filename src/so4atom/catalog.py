"""Identity catalog: every relation the package verifies, grouped into suites.

Suites
------
so3               angular momentum closure and conservation, no spin coupling
so4               Runge-Lenz closure with the Coulomb Hamiltonian
inverse           power-law scan showing only 1/r keeps the construction conserved
theorem           the spin-coupled system: covariance set, field strength,
                  constraint residuals, conservation laws, and the channel
                  reduction the spectrum solver is gated on
spectrum_algebra  helicity conservation, Casimir-style contractions, and the
                  su(2) x su(2) split at a fixed eigenvalue E = -M/(2 t^2)

The suite text lives only in the .ident files under data/, one per suite.
Set SO4ATOM_DATA_DIR to load the files from somewhere else; a suite whose
file is missing there is a UsageError.  A `use NAME` line lends the lets
of suite NAME in the same directory, so a let shared by two suites has one
source: spectrum_algebra uses theorem's Hamiltonian, so4 uses so3's H.

Each check is one lang.RawCheck, parsed from its suite's file, and carries
a mu policy, a key of lang.MU_POLICIES.  'all' (the default) means the
relation is expected to hold for every specialization we track:
symbolically in mu if possible, otherwise at both mu=0 and mu=1.  A
declared mu=0 or mu=1 narrows the claim to that coupling only; 'symbolic'
insists on the symbolic proof.  A '!=' check asserts a difference does NOT
vanish at its declared policy; these pin down deviations kept on record
(see findings()).
"""

import os
import time
from dataclasses import dataclass, replace
from importlib import resources

from .errors import LangError, UsageError
from .scalars import SymbolRegistry
from .operators import SpinMode, VecExpr
from .report import WITNESS_LIMIT
from . import lang

__all__ = [
    "SUITE_NAMES",
    "PASSING_STATUSES",
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

_REGISTRY_EXTRA = {"spectrum_algebra": ("t",)}


# --- suite objects --------------------------------------------------------


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
    witness: str           # the difference's text, cut after WITNESS_LIMIT + 1 characters
    residual_terms: int
    elapsed_ms: float


class Suite:
    """A parsed suite plus, per spin mode, its definitions' bindings (env).

    text is the file NAME.ident.  Its use lines lend the lets of the named
    suites' shared Suites in the directory the file was read from
    (data_dir() for a text given directly); a used suite may not use
    another, and the file may not redefine a lent let.  definitions holds
    the lent lets first, then the file's own, each with its file's path.
    A file that does not parse, a bad use line, and a let that does not
    elaborate in a mode are UsageErrors naming the let's file and line.

    Both modes share one SymbolRegistry.  Each cached env carries an
    elaboration memo (lang.ElabEnv.memo) mapping every compound subtree
    elaborated under it, for this suite's checks and mutated or ad-hoc
    specs alike, to its value: a product is taken once per mode however
    many checks, sides or mu lenses reach it, whichever caller holds the
    Suite.  The cached env's bindings never change, and entries are never
    evicted, so the memo is bounded by the distinct subtrees elaborated.

    Beside the memo each cached env carries facts (lang.ElabEnv.facts):
    per check spec run under it, whether lhs - rhs is symbolically zero
    and, once asked, whether it vanishes at mu=0 and at mu=1.  Each is
    computed at most once per env, so a lens, a gate call or a run_suite
    that repeats a verdict reads its booleans (see run_check).  An entry
    is keyed by id(spec) and holds the spec, so its id is never reused.

    The spin-1/2 quotient map (OperatorExpr.reduce_spin_half) is an algebra
    homomorphism.  So when the abstract env is cached first, the half env's
    bindings are the images of its bindings and its source is the abstract
    memo, whose subtrees lang.elaborate takes as their images, at any depth.
    Other subtrees (a mutant's spliced part, a division by dot(S,S), which
    only the quotient allows, or any under a half env built first) are
    elaborated in half mode.
    """

    def __init__(self, name, text, _directory=None):
        if name not in SUITE_NAMES:
            raise UsageError("unknown suite %r" % name)
        self.name = name
        path = os.path.join(_directory or "", name + ".ident")
        try:
            parsed = lang.parse_identity_file(text, name)
            lenders = _lenders(parsed, _directory or data_dir())
        except LangError as exc:
            raise _located(path, text.count("\n", 0, exc.span[0]) + 1, exc) from exc
        self.uses = parsed.uses
        self.definitions = tuple(d for used in lenders for d in used.definitions) \
            + tuple(replace(d, path=path) for d in parsed.definitions)
        self.checks = parsed.checks
        self.registry = SymbolRegistry(extra=_REGISTRY_EXTRA.get(name, ()))
        self._by_id = {c.check_id: c for c in self.checks}
        self._envs = {}

    def env(self, mode):
        if not isinstance(mode, SpinMode):
            raise UsageError("spin mode must be a SpinMode, got %r" % (mode,))
        if mode not in self._envs:
            abstract = self._envs.get(SpinMode.ABSTRACT)
            if abstract is None:
                try:
                    env = lang.elaborate_definitions(self.definitions, self.registry, mode)
                except LangError as exc:
                    raise _located(exc.definition.path, exc.definition.line, exc) from exc
                env.memo, env.facts = {}, {}
            else:
                bindings = {name: value.reduce_spin_half()
                            for name, value in abstract.bindings.items()}
                env = lang.ElabEnv(self.registry, mode, bindings, {}, abstract.memo, {})
            self._envs[mode] = env
        return self._envs[mode]

    def spec(self, check_id):
        if check_id not in self._by_id:
            raise UsageError("no check %r in suite %r" % (check_id, self.name))
        return self._by_id[check_id]


def _lenders(parsed, directory):
    """The shared Suites that parsed's use lines name, in order."""
    lenders, lent = [], {}
    for use in parsed.uses:
        span = (use.start, use.end)
        if use.text not in SUITE_NAMES:
            raise LangError("use of unknown suite %r" % use.text, span)
        used = _shared(use.text, directory)
        # None: that suite is still loading, so its own uses lead back here
        if used is None or used.uses:
            raise LangError("suite %r cannot be used: it uses a suite itself" % use.text,
                            span)
        for d in used.definitions:
            if d.name in lent:
                raise LangError("%s and %s both lend %r" % (lent[d.name], use.text, d.name),
                                span)
            lent[d.name] = use.text
        lenders.append(used)
    for d in parsed.definitions:
        if d.name in lent:
            raise LangError("let %r redefines the let %s lends" % (d.name, lent[d.name]),
                            d.expr.span)
    return lenders


def _located(path, line, exc):
    """exc, a LangError in a suite file, as a UsageError naming the file and line."""
    return UsageError("%s line %d: %s" % (path, line, exc))


# the packaged suites' directory, resolved once: every get_suite asks for it
_PACKAGED_DATA = str(resources.files("so4atom") / "data")


def data_dir():
    return os.environ.get("SO4ATOM_DATA_DIR") or _PACKAGED_DATA


def load_suite(name, directory=None):
    """Parse a suite from its .ident file in directory (default data_dir());
    an unreadable or malformed file is a UsageError (see Suite).  The file
    is read again, but lent lets come from the shared Suites of directory."""
    if name not in SUITE_NAMES:
        raise UsageError("unknown suite %r" % name)
    directory = os.fspath(directory or data_dir())
    path = os.path.join(directory, name + ".ident")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError("cannot read suite file %s: %s" % (path, exc.strerror or exc)) from exc
    return Suite(name, text, directory)


_SUITES = {}


def _shared(name, directory):
    """The one Suite per (name, directory), loaded on first request; None
    while it is loading."""
    key = (name, directory)
    if key not in _SUITES:
        _SUITES[key] = None
        try:
            _SUITES[key] = load_suite(name, directory)
        finally:
            if _SUITES[key] is None:
                del _SUITES[key]
    return _SUITES[key]


def get_suite(name):
    """The shared Suite for ``name`` in the current data directory.

    One Suite per (name, data directory), so each suite is read, parsed
    and elaborated once per process.
    """
    return _shared(name, data_dir())


# --- running checks -------------------------------------------------------


def _sides(spec, env):
    """spec's two sides elaborated under env, in one shape: a literal zero
    on either side takes the shape of the other, as a vector of zeros."""
    try:
        lhs = lang.elaborate(spec.lhs, env)
        rhs = lang.elaborate(spec.rhs, env)
        lvec = isinstance(lhs, VecExpr)
        rvec = isinstance(rhs, VecExpr)
        if lvec == rvec:
            return lhs, rhs
        if not rvec and rhs.is_zero():
            return lhs, lhs.map(lambda c: rhs)
        if not lvec and lhs.is_zero():
            return rhs.map(lambda c: lhs), rhs
        raise UsageError("one side is a vector and the other is not")
    except Exception as exc:
        raise UsageError("check %s: %s" % (spec.check_id, exc)) from exc


def _difference(spec, env):
    lhs, rhs = _sides(spec, env)
    return lhs - rhs


def _verdict(facts, difference, relation, lens, declared):
    """(status under the lens, ok under the declared policy, symbolic zero,
    witness, witness terms) for one check.

    facts holds the check's zero tests of lhs - rhs: 'symbolic' always,
    and 0 and 1, at those mu values, once run.  A missing mu test runs on
    difference(), which builds the difference once, and is added to facts.
    An '==' check passes where the difference vanishes: symbolically, or at
    every mu value of the policy ('all' names the values that held).  A
    '!=' check passes where it vanishes at none of them.  A mu zero test
    builds nothing (zero_at); only a witness at mu=0 or mu=1 substitutes
    mu into the difference.
    """
    sym = facts["symbolic"]

    def zero_at(v):
        if v not in facts:
            facts[v] = difference().zero_at("mu", v)
        return facts[v]

    def status(policy):
        values = lang.MU_POLICIES[policy]
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
        values = lang.MU_POLICIES[lens]
        diff = difference()
        shown_diff = diff.substitute("mu", values[0]) if len(values) == 1 else diff
        vec = isinstance(shown_diff, VecExpr)
        parts = shown_diff.components if vec else (shown_diff,)
        witness = _witness(parts, vec)
        terms = sum(c.term_count() for c in parts)
    return shown, ok, sym, witness, terms


def _witness(parts, vec):
    """The text of a difference (a vector's components joined by '; ' in
    parentheses), rendered only to its first WITNESS_LIMIT + 1 characters:
    a report shows WITNESS_LIMIT of them, and the one more says it is cut."""
    def pieces():
        if vec:
            yield "("
        for i, part in enumerate(parts):
            if i:
                yield "; "
            yield from part.text_pieces()
        if vec:
            yield ")"

    text, size = [], 0
    for piece in pieces():
        text.append(piece)
        size += len(piece)
        if size > WITNESS_LIMIT:
            break
    return "".join(text)[:WITNESS_LIMIT + 1]


def _compatible(declared, requested):
    if requested in (None, "all") or declared in ("all", "symbolic"):
        return True
    if requested == "symbolic":
        return False
    return declared == requested


def run_check(spec, env=None, requested_mu=None):
    """Evaluate one identity under env (default: the suite's cached abstract
    env), in env's spin mode, which the result reports.  Both sides go
    through lang.elaborate, so through env's memo and source (see Suite).

    The symbolic zero is lhs == rhs, since the normal form is canonical;
    lhs - rhs is built only for a mu zero test or a witness.  An env with
    a facts record (lang.ElabEnv.facts, a Suite's) keeps each zero test it
    has run, keyed by the spec object, so every later lens or call on that
    env reads it instead; a mutated spec is a new object, with its own.
    """
    started = time.perf_counter()
    if env is None:
        env = get_suite(spec.suite).env(SpinMode.ABSTRACT)
    mode = env.mode.value
    if spec.mode is not None and spec.mode != mode:
        raise UsageError("check %s is declared for mode=%s" % (spec.check_id, spec.mode))
    record = {} if env.facts is None else env.facts
    sides = diff = None
    if id(spec) not in record:
        sides = _sides(spec, env)
        # the entry holds spec, so its id is not reused while the entry lives
        record[id(spec)] = (spec, {"symbolic": sides[0] == sides[1]})
    facts = record[id(spec)][1]

    def difference():
        nonlocal diff
        if diff is None:
            lhs, rhs = sides or _sides(spec, env)
            diff = lhs - rhs
        return diff

    # '!=' checks always speak about their declared policy
    effective = spec.mu_policy if spec.relation == "!=" else (requested_mu or spec.mu_policy)
    status, ok, sym, witness, terms = _verdict(facts, difference, spec.relation, effective,
                                               spec.mu_policy)
    elapsed = (time.perf_counter() - started) * 1000.0
    return CheckResult(spec.check_id, spec.suite, status, ok, mode, spec.mu_policy,
                       requested_mu or "declared", sym, witness, terms, elapsed)


def run_suite(name, mode="abstract", mu=None, suite=None):
    """All results for one suite, ordered by check id.

    mu=None evaluates each check at its declared policy.  An explicit mu
    ('symbolic', '0', '1', 'all') re-reports compatible checks under that
    lens and skips the incompatible ones.  mode is a mode name or a
    SpinMode; the results report its name.  suite, if given, is name's.
    """
    spin = SpinMode(mode)
    mode = spin.value
    if mu is not None and mu not in lang.MU_POLICIES:
        raise UsageError("mu must be one of %s, not %r" % (", ".join(lang.MU_POLICIES), mu))
    suite = suite or get_suite(name)
    if suite.name != name:
        raise UsageError("run_suite(%r) was given suite %r" % (name, suite.name))
    env = suite.env(spin)
    results = []
    for spec in suite.checks:
        if spec.mode is not None and spec.mode != mode:
            continue
        if not _compatible(spec.mu_policy, mu):
            results.append(CheckResult(spec.check_id, name, "skipped", None, mode,
                                       spec.mu_policy, mu or "declared", None, "", 0, 0.0))
            continue
        results.append(run_check(spec, env, mu))
    return sorted(results, key=lambda r: r.check_id)


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
    Mutation("theorem", "reduced_gate", "halved spin-orbit weight",
             "2*dot(S,l)", "dot(S,l)"),
    Mutation("spectrum_algebra", "R2_expansion", "doubled vacuum shift",
             "dot(J,J) - hbar^2", "dot(J,J) - 2*hbar^2"),
    Mutation("spectrum_algebra", "J_dot_R", "doubled contraction",
             "mu*(h*rS)", "2*(mu*(h*rS))"),
    Mutation("spectrum_algebra", "R2_prime_eigenform", "wrong ladder scale",
             "(M/(2*E))", "(M/E)"),
    Mutation("spectrum_algebra", "WW_su2", "doubled structure constant",
             "(t/2)*(t/2)*rr - 1/2", "(t/2)*(t/2)*rr - 1"),
)


def mutations_for(suite_name):
    return tuple(m for m in _MUTATIONS if m.suite == suite_name)


def apply_mutation(spec, mutation):
    """A new check with the mutation spliced into the source text."""
    if mutation.check_id != spec.check_id:
        raise UsageError("mutation targets %r" % mutation.check_id)
    lhs_src, rhs_src = spec.lhs_source, spec.rhs_source
    hits = lhs_src.count(mutation.find) + rhs_src.count(mutation.find)
    if hits != 1:
        raise UsageError("mutation pattern %r matches %d times in %s"
                         % (mutation.find, hits, spec.check_id))
    lhs_src = lhs_src.replace(mutation.find, mutation.replace)
    rhs_src = rhs_src.replace(mutation.find, mutation.replace)
    return replace(spec, check_id=spec.check_id + "__mut",
                   lhs=lang.parse_expr(lhs_src), rhs=lang.parse_expr(rhs_src),
                   lhs_source=lhs_src, rhs_source=rhs_src)


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
