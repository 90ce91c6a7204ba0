"""Radial eigensolver confirming the closed-form bound-state energies.

The solver never trusts the hand reduction: before solving a coupled sector
it asks the operator engine to certify, exactly, that

    2M*(Ham - p^2/2M - k1/r - mu*k2*(r.S)/r^2) == (2*S.l + S^2)/r^2 at mu=1

(and that the left side vanishes at mu=0).  Combined with
l^2 + 2*S.l + S^2 == J^2 this puts the same centrifugal weight j(j+1) in
front of 1/r^2 for both orbital channels of a j sector, leaving the
(r.S)/r^2 coupling as a pure off-diagonal k2*hbar/(2r).  Rotating into the
s_r = +-1/2 eigenlines of (r.S)/r then splits the sector exactly into two
plain Coulomb channels with charge k1 + k2*hbar*s_r.  Every channel (the
single one at mu=0, with weight l(l+1)) is a uniform-grid three-point
stencil with Dirichlet walls, solved by scipy.linalg.eigh_tridiagonal, and
each level keeps the label of the channel that produced it.
coupled_levels() solves the unrotated two-channel band with
scipy.linalg.eig_banded; it is the tests' reference for the rotation.

Predictions come from the su(2) x su(2) pairing: solve_wk_pair() solves the
two Casimir relations with exact rationals and reports a verdict for every
candidate label, keeping the inadmissible ones on record instead of
dropping them.  That is where the spurious deepest level of the raw
closed form disappears: its only labelings need a negative ladder scale or
a negative spin label.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

from .errors import SolverError, UsageError
from .operators import SpinMode
from . import catalog, lang

__all__ = [
    "CouplingParams",
    "RadialSector",
    "SpectrumResult",
    "WkReport",
    "PredictedLevel",
    "LevelRow",
    "reduced_form_check",
    "solve_lowest",
    "coupled_levels",
    "predicted_levels",
    "solve_wk_pair",
    "energy_cutoff",
    "match_spectrum",
    "default_study",
]


@dataclass(frozen=True)
class CouplingParams:
    hbar: float = 1.0
    mass: float = 1.0
    k1: float = -1.0
    k2: float = 0.2


@dataclass(frozen=True)
class RadialSector:
    """mu=0 sectors carry an orbital l; mu=1 sectors a half-integer j."""
    mu: int
    l: int = None
    j: Fraction = None

    def __post_init__(self):
        if self.mu == 0:
            if self.l is None or self.l < 0 or self.j is not None:
                raise UsageError("mu=0 sector needs l >= 0 and no j")
        elif self.mu == 1:
            if self.l is not None or self.j is None:
                raise UsageError("mu=1 sector needs j and no l")
            j = Fraction(self.j)
            if j < Fraction(1, 2) or (2 * j) % 2 != 1:
                raise UsageError("j must be a positive half-odd integer")
            object.__setattr__(self, "j", j)
        else:
            raise UsageError("mu must be 0 or 1")

    @property
    def centrifugal(self):
        if self.mu == 0:
            return Fraction(self.l * (self.l + 1))
        return self.j * (self.j + 1)


@dataclass(frozen=True)
class SpectrumResult:
    sector: RadialSector
    params: CouplingParams
    grid_n: int
    r_max: float
    cutoff: float
    energies: tuple          # everything requested, ascending
    channels: tuple          # s_r of the channel behind each energy (mu=1), else None


@dataclass(frozen=True)
class WkReport:
    w: Fraction
    k: Fraction
    s_r: Fraction
    verdict: str             # admissible | invalid_label | nonpositive_scale
    #                          | casimir_mismatch | free
    t: Fraction              # ladder scale, 0 when not defined
    energy: float            # bound energy, None unless admissible


@dataclass(frozen=True)
class PredictedLevel:
    energy: float
    n: int
    branch: int              # +1 or -1
    s_r: Fraction
    nu: Fraction             # effective denominator n + branch*s_r
    report: WkReport

    @property
    def admissible(self):
        return self.report.verdict == "admissible"


@dataclass(frozen=True)
class LevelRow:
    sector_j: str
    channel: str
    level_index: int
    e_computed: float
    e_predicted: float
    n_label: str
    branch: str
    rel_error: float


_MIN_GRID = 500
_gate_cache = {}


def reduced_form_check(mode="abstract"):
    """Engine certificate behind the channel reduction; cached per mode."""
    spin = SpinMode(mode)
    if spin in _gate_cache:
        return _gate_cache[spin]
    env = catalog.get_suite("theorem").env(spin)

    def ev(src):
        return lang.elaborate(lang.parse_expr(src), env)

    reduced = ev("2*(M*(Ham - dot(p,p)/(2*M) - k1*r^-1 - mu*(k2*(rS*rpow(-2)))))")
    ok = reduced.substitute("mu", Fraction(0)).is_zero()
    if spin is SpinMode.SPIN_HALF:
        gate = ev("(2*dot(S,l) + 3/4*hbar^2)*rpow(-2)")
    else:
        gate = ev("(2*dot(S,l) + dot(S,S))*rpow(-2)")
    ok = ok and (reduced.substitute("mu", Fraction(1)) - gate).is_zero()
    # the centrifugal recombination both channels share
    jj = ev("dot(l,l) + 2*dot(S,l) + dot(S,S)") - ev("dot(J,J)").substitute("mu", Fraction(1))
    ok = ok and jj.is_zero()
    _gate_cache[spin] = ok
    return ok


def _grid(grid_n, r_max, r_min=0.0):
    if grid_n < _MIN_GRID:
        raise UsageError("grid_n below %d gives untrustworthy levels" % _MIN_GRID)
    if r_max <= r_min or r_min < 0:
        raise UsageError("need 0 <= r_min < r_max")
    h = (r_max - r_min) / grid_n
    return h, r_min + h * np.arange(1, grid_n + 1)


def _stencil(sector, params, grid_n, r_max, r_min):
    """Grid, kinetic stencil weight and centrifugal numerator of a sector."""
    h, r = _grid(grid_n, r_max, r_min)
    kin = params.hbar ** 2 / (2 * params.mass * h * h)
    cent = params.hbar ** 2 * float(sector.centrifugal) / (2 * params.mass)
    return r, kin, cent


def _check_count(count, size):
    if count < 1:
        raise UsageError("asked for %d levels; need at least 1" % count)
    if count > size:
        raise UsageError("asked for %d levels from a %d-dimensional sector"
                         % (count, size))


def energy_cutoff(r_max):
    """Levels above this sit too close to the box wall to trust."""
    return -5.0 / r_max


def solve_lowest(sector, params=None, grid_n=4000, r_max=200.0, count=8, r_min=0.0):
    """The lowest `count` levels of a sector, each labelled by its channel.

    Every channel is a tridiagonal solve; the levels of all channels are
    merged in ascending order, so a label is the channel that produced it.
    """
    params = params or CouplingParams()
    r, kin, cent = _stencil(sector, params, grid_n, r_max, r_min)
    if sector.mu == 0:
        channels = ((params.k1, None),)
    else:
        # one channel per s_r = +-1/2 eigenline of (r.S)/r
        channels = tuple((params.k1 + params.k2 * params.hbar * float(s_r), s_r)
                         for s_r in (Fraction(1, 2), Fraction(-1, 2)))
    _check_count(count, grid_n * len(channels))
    if sector.mu == 1 and not reduced_form_check():
        raise SolverError("engine rejected the reduced sector Hamiltonian")
    off = -kin * np.ones(grid_n - 1)
    last = min(count, grid_n) - 1
    levels = []
    for g, label in channels:
        diag = 2 * kin + g / r + cent / (r * r)
        try:
            vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, last))[0]
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SolverError("eigenvalue solve failed: %s" % exc) from exc
        levels.extend((float(v), label) for v in vals)
    levels.sort(key=lambda lv: lv[0])
    levels = levels[:count]
    return SpectrumResult(sector, params, grid_n, r_max, energy_cutoff(r_max),
                          tuple(e for e, _ in levels),
                          tuple(label for _, label in levels))


def coupled_levels(sector, params, grid_n, r_max, count, r_min=0.0):
    """Reference solve of a mu=1 sector in the orbital basis, for the tests.

    Both orbital channels on one interleaved (3, 2N) band (upper form):
    offset 2 is the stencil neighbour within a channel, offset 1 the
    k2*hbar/(2r) coupling at a single radius.  solve_lowest's channels are
    an exact rotation of this matrix, so the two must agree to eigensolver
    precision.
    """
    if sector.mu != 1:
        raise UsageError("the coupled band is a mu=1 construction")
    r, kin, cent = _stencil(sector, params, grid_n, r_max, r_min)
    _check_count(count, 2 * grid_n)
    if not reduced_form_check():
        raise SolverError("engine rejected the reduced sector Hamiltonian")
    band = np.zeros((3, 2 * grid_n))
    band[2, 0::2] = band[2, 1::2] = 2 * kin + params.k1 / r + cent / (r * r)
    band[1, 1::2] = params.k2 * params.hbar / (2 * r)
    band[0, 2:] = -kin
    try:
        vals = eig_banded(band, lower=False, select="i",
                          select_range=(0, count - 1), eigvals_only=True)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SolverError("eigenvalue solve failed: %s" % exc) from exc
    return tuple(float(v) for v in vals)


# --- exact predictions ----------------------------------------------------


def _is_half_integer(x):
    return (2 * Fraction(x)).denominator == 1


def solve_wk_pair(w, k, s_r, params=None):
    """Solve the paired Casimir relations for one (w, k, s_r) candidate.

    Exact rational arithmetic throughout.  The difference relation fixes the
    ladder scale t; the sum relation must then hold identically and t must
    be positive for t^2 = M/(-2E) to name a bound state.
    """
    params = params or CouplingParams()
    w = Fraction(w)
    k = Fraction(k)
    s_r = Fraction(s_r)
    if s_r not in (Fraction(1, 2), Fraction(-1, 2)):
        raise UsageError("s_r must be +-1/2")
    hbar = Fraction(params.hbar).limit_denominator(10 ** 12)
    mass = Fraction(params.mass).limit_denominator(10 ** 12)
    g = Fraction(params.k1).limit_denominator(10 ** 12) \
        + Fraction(params.k2).limit_denominator(10 ** 12) * hbar * s_r
    if not (_is_half_integer(w) and _is_half_integer(k)) or w < 0 or k < 0:
        return WkReport(w, k, s_r, "invalid_label", Fraction(0), None)
    if g == 0:
        return WkReport(w, k, s_r, "free", Fraction(0), None)
    cw = w * (w + 1)
    ck = k * (k + 1)
    # difference of Casimirs: (cw - ck) hbar^2 = t hbar s_r g
    t = (cw - ck) * hbar / (s_r * g)
    # sum of Casimirs: (cw + ck) hbar^2 = -3 hbar^2/8 + g^2 t^2 / 2
    if (cw + ck) * hbar ** 2 != -Fraction(3, 8) * hbar ** 2 + g * g * t * t / 2:
        return WkReport(w, k, s_r, "casimir_mismatch", t, None)
    if t <= 0:
        return WkReport(w, k, s_r, "nonpositive_scale", t, None)
    energy = -mass / (2 * t * t)
    return WkReport(w, k, s_r, "admissible", t, float(energy))


def predicted_levels(sector, params=None, max_n=6):
    """Closed-form instances for a sector, each carrying its label verdict.

    mu=0: the plain ladder -M k1^2 / (2 hbar^2 n^2) for n > l.  mu=1: every
    (n, branch, s_r) instance of -M g^2 / (2 hbar^2 (n + branch*s_r)^2) with
    g = k1 + k2 hbar s_r, n = 2w + 1, and the label verdict from
    solve_wk_pair(w, w + branch*s_r, s_r).  Inadmissible instances are
    returned too; only their verdict says so.
    """
    params = params or CouplingParams()
    out = []
    if sector.mu == 0:
        scale = -params.mass * params.k1 ** 2 / (2 * params.hbar ** 2)
        for n in range(sector.l + 1, max_n + 1):
            report = WkReport(Fraction(n - 1, 2), Fraction(n - 1, 2),
                              Fraction(1, 2), "admissible",
                              Fraction(n), scale / n ** 2)
            out.append(PredictedLevel(scale / n ** 2, n, +1, Fraction(0),
                                      Fraction(n), report))
        return out
    for n in range(1, max_n + 1):
        w = Fraction(n - 1, 2)
        for branch in (+1, -1):
            for s_r in (Fraction(1, 2), Fraction(-1, 2)):
                nu = n + branch * s_r
                g = params.k1 + params.k2 * params.hbar * float(s_r)
                report = solve_wk_pair(w, w + branch * s_r, s_r, params)
                if nu == 0 or g == 0:
                    energy = None
                else:
                    energy = -params.mass * g * g / (2 * params.hbar ** 2 * float(nu) ** 2)
                out.append(PredictedLevel(energy, n, branch, s_r, nu, report))
    return out


def match_spectrum(result, predictions=None, tol=1e-3, max_n=8):
    """Pair each trustworthy computed level with an admissible prediction.

    Returns (rows, ok); ok drops to False when a level below the cutoff has
    no admissible partner within tol, or when no level sits below it.
    """
    if predictions is None:
        predictions = predicted_levels(result.sector, result.params, max_n=max_n)
    admissible = [p for p in predictions if p.admissible and p.energy is not None]
    rows = []
    ok = True
    jlab = "j=%s" % result.sector.j if result.sector.mu == 1 else "l=%d" % result.sector.l
    for idx, energy in enumerate(result.energies):
        if energy > result.cutoff:
            continue
        channel = result.channels[idx]
        pool = [p for p in admissible
                if result.sector.mu == 0 or p.s_r == channel] or admissible
        best = min(pool, key=lambda p: abs(p.energy - energy))
        rel = abs(energy - best.energy) / abs(best.energy)
        if rel > tol:
            ok = False
        rows.append(LevelRow(
            jlab,
            "s_r=%+g" % float(channel) if channel is not None else "single",
            idx, energy, best.energy,
            "n=%d" % best.n,
            "%+d" % best.branch if result.sector.mu == 1 else "",
            rel,
        ))
    return rows, ok and bool(rows)


def default_study(params=None, grid_n=4000, r_max=200.0, count=8,
                  k2_values=(0.0, 0.2, 0.4), r_min=0.0, tol=1e-3):
    """The standard sweep: mu=0 l=0..3, then mu=1 j in {1/2, 3/2} per k2.

    A small box may leave a high-l sector with no level below the cutoff;
    that sector adds no rows, but the study as a whole must match some.
    """
    params = params or CouplingParams()
    sweep = [(RadialSector(0, l=l), params) for l in range(4)]
    for k2 in k2_values:
        p = CouplingParams(params.hbar, params.mass, params.k1, k2)
        sweep.extend((RadialSector(1, j=j), p) for j in (Fraction(1, 2), Fraction(3, 2)))
    rows = []
    all_ok = True
    for sector, p in sweep:
        res = solve_lowest(sector, p, grid_n, r_max, count, r_min)
        got, ok = match_spectrum(res, tol=tol)
        rows.extend(got)
        all_ok = all_ok and (ok or not got)
    return rows, all_ok and bool(rows)
