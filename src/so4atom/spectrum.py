"""Radial eigensolver confirming the closed-form bound-state energies.

The solver never trusts the hand reduction: before solving a coupled sector
it runs the three gate checks of data/theorem.ident through
catalog.run_check, which certify, exactly, that

    2M*(Ham - p^2/2M - k1/r - mu*k2*(r.S)/r^2) == (2*S.l + S^2)/r^2 at mu=1

(reduced_gate), that the left side vanishes at mu=0 (reduced_off), and that
l^2 + 2*S.l + S^2 == J^2 at mu=1 (J2_recombination).  Together they put the
same centrifugal weight j(j+1) in front of 1/r^2 for both orbital channels
of a j sector.  The solver works in atomic units, hbar = M = 1, the values
the oracle binds (oracle.DEFAULT_BINDINGS), so the (r.S)/r^2 coupling is a
pure off-diagonal k2/(2r).  Rotating into the s_r = +-1/2 eigenlines of
(r.S)/r then splits the sector exactly into two plain Coulomb channels with
charge k1 + k2*s_r.

Every channel (the single one at mu=0, with weight l(l+1)) is discretised
in the box [0, r_max] on the square-root map r = x^2, u = x^(1/2) v, which
turns

    -A u'' + (A w/r^2 + g/r) u = E u,        A = 1/2,

into -(A/4) v'' + (A(3/16 + w)/x^2 + g) v = E x^2 v.  A j=1/2 channel has
u ~ r^(3/2) at the origin, where a uniform grid in r converges at order
about 1.8; in x the solution is smooth and the three-point stencil keeps
its second order.  On the uniform x grid, with a = A/(4 hx^2) and
Dirichlet walls at both ends, the channel is the symmetric tridiagonal
X^-1 T X^-1:

    diag = (2a + A(3/16 + w)/x^2 + g)/x^2,    off = -a/(x_i x_{i+1}).

The stencil is second order in hx, so each channel is solved on a grid
pair, the fine grid N (grid_n, default 1000, at least 500) and the coarse
grid Nc = N // 2, and each level is reported as Richardson's limit
(rho^2 E_N - E_Nc)/(rho^2 - 1) with the exact rho = N/Nc, an odd N
included (Richardson, "The deferred approach to the limit", Phil. Trans.
R. Soc. A 226, 1927).  The pair (500, 1000) beats a single grid of 2000
points at every default level.  Each level also carries an error estimate
that does not look at the closed form, |E_N - E_Nc|/((rho^2 - 1)|E|).  A
level count must fit in the coarse grid.

Each distinct charge is solved once per grid, for eigenvalues only, by
LAPACK's bisection, stebz, with a fixed tolerance (at k2=0 both channels of
a sector are one matrix), and each level keeps the label of the channel
that produced it.  Only the levels that can become rows are bisected: a
Sturm count (Barth, Martin & Wilkinson, Numer. Math. 9, 386, 1967), one
O(N) pass through the same stebz, first finds how many levels of the
channel lie at or below half the trust cutoff on each grid, and the solve
stops at the larger count, held.  A level left out has both grid values
above that window; its estimate is exactly (E_N - L)/|L| for its limit L,
so if L still reached the cutoff the estimate would exceed 1/2, and the
row could not pass.  A channel's matrix is built once per grid, for the
count and the solve.  A grid that counts exactly held levels in the
window, as every grid of the default study does, is solved by value over
(-1e300, window]: stebz bisects each level from that interval.  By index
it would first bisect the Gershgorin interval (|T| ~ 2e7 on the default
fine grid) for the bounds of levels 1 and held.  Any other grid is solved
by index: the level count asked for caps held below the window's levels,
which a solve by value would all bisect, or the other grid holds more of
them.  A solve that returns other than held levels is a SolverError.  By
value and by index, a level agrees to the bisection tolerance, not bit for
bit.  stebz is scipy's compiled routine, loaded at import from
scipy's LAPACK extension module alone: importing scipy.linalg for it took
several times as long as the whole default study.  eigh_tridiagonal is
the few lines of scipy's wrapper the solver uses.  coupled_levels() solves
the unrotated two-channel band, mapped the same way, with
scipy.linalg.eig_banded on the same pair; it is the tests' reference for
the rotation, and the one caller that imports scipy.linalg.

Levels are matched by rank.  A (w, k) multiplet of the su(2) x su(2)
pairing holds the sectors j = |w-k|, ..., w+k (Bander & Itzykson, Rev. Mod.
Phys. 38, 330, 1966), so the k-th level of channel s_r, counted upward, has
nu = j+1+k and the closed form -g^2/(2 nu^2) (n = l+1+k at mu=0),
and a lost, doubled or misassigned level shifts the later ranks of its
channel.  Its label (n, branch), n = nu - branch*s_r, is the branch the
exact Casimir relations admit (solve_wk_pair).  predicted_levels() keeps
every raw closed-form instance with its verdict: the raw form's spurious
deepest level has only labelings with a negative ladder scale or spin label.
"""

import importlib.util
import math
import os
import sysconfig
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import SolverError, UsageError
from . import catalog

__all__ = [
    "DEFAULT_GRID_N",
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
    """The charges of k1/r + k2*(r.S)/r^2, in atomic units."""
    k1: float = -1.0
    k2: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise UsageError("k1=%r, k2=%r: a coupling is not finite" % (self.k1, self.k2))
        # the deepest closed-form level, at nu = 1/2, is -2 g^2
        g = abs(self.k1) + abs(self.k2) / 2
        if not math.isfinite(2 * g * g):
            raise UsageError("k1=%r, k2=%r put the deepest level beyond float range"
                             % (self.k1, self.k2))


@dataclass(frozen=True)
class RadialSector:
    """mu=0 sectors carry an orbital l; mu=1 sectors a half-integer j."""
    mu: int
    l: int = None
    j: Fraction = None

    def __post_init__(self):
        if self.mu == 0:
            if not isinstance(self.l, Integral) or self.l < 0 or self.j is not None:
                raise UsageError("mu=0 sector needs an integer l >= 0 and no j")
        elif self.mu == 1:
            if self.l is not None or self.j is None:
                raise UsageError("mu=1 sector needs j and no l")
            try:
                j = Fraction(self.j)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise UsageError("cannot read j=%r as a number" % (self.j,)) from exc
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
    cutoff: float
    energies: tuple          # ascending, extrapolated: at most count, none that
    #                          both grids put above half the cutoff
    channels: tuple          # s_r of the channel behind each energy (mu=1), else None
    est_errors: tuple        # estimated relative error of each energy


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
    est_error: float

    def passes(self, tol):
        """Within tol of the closed form, and converged: the estimate at most
        tol, or at most _EST_BAR under a tighter tol."""
        return self.rel_error <= tol and self.est_error <= max(tol, _EST_BAR)


_MIN_GRID = 500
DEFAULT_GRID_N = 1000
# a j=1/2 sector's cost grows linearly with grid_n: both grids take about
# 0.77 s and 41 MiB at 100,000 points, a default study about 8 s, so a
# larger grid is refused before any work
_MAX_GRID = 100_000

# the estimate is the fine grid's error, which the limit improves on: at
# grid_n = 500, r_max = 150 estimates up to 4.3e-4 stand for limits within 5.1e-5
_EST_BAR = 1e-3

# absolute bisection tolerance of every channel solve: the mapped matrix is
# graded (|T| ~ 2e7 on the default fine grid, 3e8 at 2000 points), and
# LAPACK's default of ulp*|T| would move the levels by up to 1.4e-6
# relative there, 2e-5 at 2000
_EIG_TOL = 1e-13

# the theorem checks that certify the channel reduction
_GATE = ("reduced_off", "reduced_gate", "J2_recombination")


def _scipy_dirs():
    """Where the scipy package lives; finding a top-level package runs none
    of its code."""
    spec = importlib.util.find_spec("scipy")
    return list(spec.submodule_search_locations) if spec else []


def _load_flapack():
    """scipy's compiled LAPACK module, scipy/linalg/_flapack, loaded from its
    file.  Importing it by name would run scipy.linalg's package code, which
    copies numpy's whole namespace; the extension itself needs only numpy.
    The interpreter keeps one copy of an extension per file, so its routines
    are scipy.linalg.lapack's own objects, whichever is loaded first."""
    name = "_flapack" + sysconfig.get_config_var("EXT_SUFFIX")
    dirs = [os.path.join(d, "linalg") for d in _scipy_dirs()]
    for path in (os.path.join(d, name) for d in dirs):
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError("no %s in %s" % (name, ", ".join(dirs) or "any scipy install"))


# LAPACK's stebz: eigenvalues of a symmetric tridiagonal by bisection
dstebz = _load_flapack().dstebz


def eigh_tridiagonal(d, e, *, eigvals_only, select, select_range, tol):
    """Eigenvalues of the symmetric tridiagonal with diagonal d and
    off-diagonal e, ascending: scipy.linalg's eigh_tridiagonal on its stebz
    path, with its input checks, for the two cases the solver asks for,
    eigenvalues only by index (select "i": levels lo..hi of select_range,
    from 0) or by value (select "v": the levels in (vl, vu] of
    select_range)."""
    if not eigvals_only or select not in ("i", "v"):
        raise ValueError("only eigenvalues by index or by value are solved here")
    # stebz itself may not terminate on a nan
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    lo, hi = select_range
    if select == "v":
        if not lo <= hi:
            raise ValueError("select_range %r is not in nondecreasing order"
                             % (tuple(select_range),))
        bounds = (1, float(lo), float(hi), 1, 1)
    else:
        if not 0 <= lo <= hi < len(d):
            raise ValueError("select_range %r out of bounds for %d eigenvalues"
                             % (tuple(select_range), len(d)))
        bounds = (2, 0.0, 1.0, lo + 1, hi + 1)
    m, w, _block, _split, info = dstebz(d, e, *bounds, float(tol), "E")
    if info < 0:
        raise ValueError("illegal value in argument %d of stebz" % -info)
    if info > 0:
        raise np.linalg.LinAlgError("stebz did not converge (LAPACK info=%d)" % info)
    return w[:m]


def eig_banded(*args, **kwargs):
    """scipy.linalg.eig_banded, imported on the first call: only
    coupled_levels, the tests' reference, solves a band."""
    from scipy.linalg import eig_banded
    return eig_banded(*args, **kwargs)


def reduced_form_check():
    """Engine certificate behind the channel reduction: theorem's three
    gate checks, run like every other check, in the abstract spin algebra."""
    suite = catalog.get_suite("theorem")
    return all(catalog.run_check(suite.spec(c)).ok for c in _GATE)


def _check_grid(grid_n, r_max):
    if not isinstance(grid_n, Integral):
        raise UsageError("grid_n must be an integer, got %r" % grid_n)
    if grid_n < _MIN_GRID:
        raise UsageError("grid_n below %d gives untrustworthy levels" % _MIN_GRID)
    if grid_n > _MAX_GRID:
        raise UsageError("grid_n above %d costs too much time and memory, got %d" % (_MAX_GRID, grid_n))
    if not 0 < r_max < math.inf:
        raise UsageError("need 0 < r_max < inf, got %r" % r_max)


def _grid(grid_n, r_max):
    """Spacing and interior points of the uniform grid in x = sqrt(r)."""
    h = np.sqrt(r_max) / grid_n
    return h, h * np.arange(1, grid_n + 1)


def _stencil(sector, grid_n, r_max):
    """Grid in x, neighbour weight a and centrifugal numerator of a sector;
    the kinetic weight A = hbar^2/2M is 1/2."""
    h, x = _grid(grid_n, r_max)
    return x, 0.5 / (4 * h * h), 0.5 * (3 / 16 + float(sector.centrifugal))


def _channel(stencil, g):
    """(diag, off) of the mapped channel with charge g."""
    x, a, cent = stencil
    x2 = x * x
    return (2 * a + cent / x2 + g) / x2, -a / (x[:-1] * x[1:])


def _check_count(count, grid_n, channels):
    """count levels must fit in the channels of the coarse grid, grid_n // 2."""
    if count < 1:
        raise UsageError("asked for %d levels; need at least 1" % count)
    size = (grid_n // 2) * channels
    if count > size:
        raise UsageError("asked for %d levels from a sector of %d on the coarse grid"
                         % (count, size))


def _pair(sector, grid_n, r_max):
    """Stencils of the fine grid grid_n and the coarse grid grid_n // 2; only
    the fine grid is held to _MIN_GRID."""
    _check_grid(grid_n, r_max)
    return tuple(_stencil(sector, n, r_max) for n in (grid_n, grid_n // 2))


def _extrapolate(pair, fine, coarse):
    """Richardson's limit of the levels fine and coarse, solved on the
    stencil pair, with its estimate.

    The mapped stencil is second order in the spacing, so with rho = N/Nc
    exact (an odd N included), (rho^2 E_N - E_Nc)/(rho^2 - 1) cancels the
    leading error term.  That term, |E_N - E_Nc|/((rho^2 - 1)|E|), is the
    estimate: the relative error of the fine grid, which the limit improves
    on.
    """
    rho2 = (len(pair[0][0]) / len(pair[1][0])) ** 2
    limit = (rho2 * fine - coarse) / (rho2 - 1)
    return limit, np.abs(fine - coarse) / ((rho2 - 1) * np.abs(limit))


def _lowest(channel, held, window=None):
    """The lowest `held` levels of a mapped channel (diag, off), eigenvalues
    only.

    Given a window that the Sturm count puts exactly `held` levels at or
    below, they are solved by value over (-1e300, window]: by index, stebz
    would first bisect the Gershgorin interval for the bounds of levels 1
    and `held`.  Otherwise they are solved by index.  A solve that returns
    any other number of levels is an error, never a shorter row list.
    """
    if window is None:
        select, select_range = "i", (0, held - 1)
    else:
        select, select_range = "v", (-1e300, window)
    try:
        levels = eigh_tridiagonal(*channel, eigvals_only=True, select=select,
                                  select_range=select_range, tol=_EIG_TOL)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SolverError("eigenvalue solve failed: %s" % exc) from exc
    if len(levels) != held:
        raise SolverError("eigenvalue solve by %s returned %d levels, not the %d counted"
                          % ("value" if window is not None else "index", len(levels), held))
    return levels


def _charge(params, s_r):
    """Charge of channel s_r; s_r None is mu=0's one Coulomb channel."""
    return params.k1 if s_r is None else params.k1 + params.k2 * float(s_r)


def _channels(sector, params):
    """(charge, s_r) of each channel: one at mu=0, else one per s_r = +-1/2
    eigenline of (r.S)/r."""
    labels = (None,) if sector.mu == 0 else (Fraction(1, 2), Fraction(-1, 2))
    return tuple((_charge(params, s_r), s_r) for s_r in labels)


def _count_at_or_below(channel, top):
    """How many levels of a mapped channel (diag, off) lie at or below top:
    stebz over (-1e300, top] with a tolerance so wide that it reports the
    Sturm counts of the two ends and does not bisect."""
    try:
        # stebz itself may not terminate on a nan
        diag, off = map(np.asarray_chkfinite, channel)
    except ValueError as exc:
        raise SolverError("eigenvalue solve failed: %s" % exc) from exc
    count, _w, _block, _split, info = dstebz(diag, off, 1, -1e300, top, 0, 0, 1e300, "E")
    if info:
        raise SolverError("eigenvalue count failed: stebz info %d" % info)
    return count


def energy_cutoff(r_max):
    """Levels above this sit too close to the box wall to trust."""
    return -5.0 / r_max


def solve_lowest(sector, params=None, grid_n=DEFAULT_GRID_N, r_max=200.0, count=8):
    """At most the lowest `count` levels of a sector, each labelled by its
    channel.

    Each distinct channel charge is one tridiagonal solve per grid of the
    pair, for eigenvalues only, extrapolated level by level; the levels of
    all channels are merged in ascending order, so a label is the channel
    that produced it.  A channel is solved only up to the levels that lie
    at or below half the cutoff on either grid (a Sturm count per grid):
    a level that both grids put above it cannot reach the cutoff with an
    estimate below 1/2, so it could never become a passing row.  A level
    whose estimate is 1 or more is dropped before the merge: the coarse
    grid does not resolve it, so its limit can land far below the true
    spectrum (at grid_n = 500, count 250, levels down to -11524).  Fewer
    than `count` levels may then come back, or none.
    """
    params = params or CouplingParams()
    pair = _pair(sector, grid_n, r_max)
    channels = _channels(sector, params)
    _check_count(count, grid_n, len(channels))
    if sector.mu == 1 and not reduced_form_check():
        raise SolverError("engine rejected the reduced sector Hamiltonian")
    window = energy_cutoff(r_max) / 2
    solved = {}             # charge -> (levels, estimates); at k2=0 both channels share one
    levels = []
    for g, label in channels:
        if g not in solved:
            grids = [_channel(stencil, g) for stencil in pair]
            counted = [_count_at_or_below(channel, window) for channel in grids]
            held = min(count, grid_n // 2, max(counted))
            # a grid with exactly held levels in the window is solved by
            # value over it; a capped or shorter one by index
            solved[g] = (_extrapolate(pair, *(
                _lowest(channel, held, window if n == held else None)
                for channel, n in zip(grids, counted))) if held else ((), ()))
        # a level the coarse grid does not resolve has est >= 1: the pair
        # disagrees by more than the level, and its limit is spurious
        levels.extend((float(e), label, float(est)) for e, est in zip(*solved[g])
                      if est < 1)
    levels.sort(key=lambda lv: lv[0])
    levels = levels[:count]
    return SpectrumResult(sector, params, energy_cutoff(r_max),
                          tuple(e for e, _, _ in levels),
                          tuple(label for _, label, _ in levels),
                          tuple(est for _, _, est in levels))


def coupled_levels(sector, params, grid_n, r_max, count):
    """Reference solve of a mu=1 sector in the orbital basis, for the tests.

    Both orbital channels on one interleaved (3, 2N) band (upper form),
    mapped like a channel: offset 2 is the stencil neighbour within a
    channel, offset 1 the k2/(2x^2) coupling at a single radius.
    Solved on the same grid pair and extrapolated the same way, level by
    level.  solve_lowest's channels are an exact rotation of this matrix,
    so the two must agree to eigensolver precision.
    """
    if sector.mu != 1:
        raise UsageError("the coupled band is a mu=1 construction")
    pair = _pair(sector, grid_n, r_max)
    _check_count(count, grid_n, 2)
    if not reduced_form_check():
        raise SolverError("engine rejected the reduced sector Hamiltonian")

    def lowest(stencil):
        diag, off = _channel(stencil, params.k1)
        x = stencil[0]
        band = np.zeros((3, 2 * len(x)))
        band[2, 0::2] = band[2, 1::2] = diag
        band[1, 1::2] = params.k2 / (2 * x * x)
        band[0, 2::2] = band[0, 3::2] = off
        try:
            return eig_banded(band, lower=False, select="i",
                              select_range=(0, count - 1), eigvals_only=True)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SolverError("eigenvalue solve failed: %s" % exc) from exc

    return tuple(float(v) for v in _extrapolate(pair, *map(lowest, pair))[0])


# --- exact predictions ----------------------------------------------------


def _is_half_integer(x):
    return (2 * Fraction(x)).denominator == 1


def solve_wk_pair(w, k, s_r, params=None):
    """Solve the paired Casimir relations for one (w, k, s_r) candidate.

    Exact rational arithmetic throughout.  The difference relation fixes the
    ladder scale t; the sum relation must then hold identically and t must
    be positive for t^2 = 1/(-2E) to name a bound state.
    """
    params = params or CouplingParams()
    w = Fraction(w)
    k = Fraction(k)
    s_r = Fraction(s_r)
    if s_r not in (Fraction(1, 2), Fraction(-1, 2)):
        raise UsageError("s_r must be +-1/2")
    return _wk_report(w, k, s_r, *_exact(params))


def _exact(params):
    """k1 and k2 as the rationals the Casimir relations use."""
    return tuple(Fraction(x).limit_denominator(10 ** 12) for x in (params.k1, params.k2))


def _wk_report(w, k, s_r, k1, k2):
    g = k1 + k2 * s_r
    if not (_is_half_integer(w) and _is_half_integer(k)) or w < 0 or k < 0:
        return WkReport(w, k, s_r, "invalid_label", Fraction(0), None)
    if g == 0:
        return WkReport(w, k, s_r, "free", Fraction(0), None)
    cw = w * (w + 1)
    ck = k * (k + 1)
    # difference of Casimirs: cw - ck = t s_r g
    t = (cw - ck) / (s_r * g)
    # sum of Casimirs: cw + ck = -3/8 + g^2 t^2 / 2
    if cw + ck != -Fraction(3, 8) + g * g * t * t / 2:
        return WkReport(w, k, s_r, "casimir_mismatch", t, None)
    if t <= 0:
        return WkReport(w, k, s_r, "nonpositive_scale", t, None)
    energy = -1 / (2 * t * t)
    return WkReport(w, k, s_r, "admissible", t, float(energy))


def predicted_levels(sector, params=None, max_n=6):
    """Closed-form instances for a sector, each carrying its label verdict.

    mu=0: the plain ladder -k1^2 / (2 n^2) for n > l.  mu=1: every
    (n, branch, s_r) instance of -g^2 / (2 (n + branch*s_r)^2) with
    g = k1 + k2 s_r, n = 2w + 1, and the label verdict from
    solve_wk_pair(w, w + branch*s_r, s_r).  Inadmissible instances are
    returned too; only their verdict says so.
    """
    params = params or CouplingParams()
    out = []
    if sector.mu == 0:
        scale = -params.k1 ** 2 / 2
        for n in range(sector.l + 1, max_n + 1):
            report = WkReport(Fraction(n - 1, 2), Fraction(n - 1, 2),
                              Fraction(1, 2), "admissible",
                              Fraction(n), scale / n ** 2)
            out.append(PredictedLevel(scale / n ** 2, n, +1, Fraction(0),
                                      Fraction(n), report))
        return out
    exact = _exact(params)
    for n in range(1, max_n + 1):
        w = Fraction(n - 1, 2)
        for branch in (+1, -1):
            for s_r in (Fraction(1, 2), Fraction(-1, 2)):
                nu = n + branch * s_r
                g = _charge(params, s_r)
                report = _wk_report(w, w + branch * s_r, s_r, *exact)
                if nu == 0 or g == 0:
                    energy = None
                else:
                    energy = -g * g / (2 * float(nu) ** 2)
                out.append(PredictedLevel(energy, n, branch, s_r, nu, report))
    return out


def _label(nu, s_r, exact):
    """The admissible (n, branch), n = nu - branch*s_r, of level nu in
    channel s_r; None in a free channel, where no labeling is admissible."""
    for branch in (+1, -1):
        w = (nu - branch * s_r - 1) / 2
        if _wk_report(w, w + branch * s_r, s_r, *exact).verdict == "admissible":
            return int(2 * w + 1), branch
    return None


def match_spectrum(result, tol=1e-3):
    """Pair each trustworthy computed level with its closed form by rank.

    The k-th level of a channel, counted upward, has nu = j+1+k at mu=1 and
    n = l+1+k at mu=0.  Returns (rows, ok); ok drops to False when a level
    below the cutoff fails LevelRow.passes (one with no admissible label,
    n_label "none", has rel_error inf), when none sits below the cutoff, or
    when an attractive channel (charge g < 0) owes a level: the closed form
    of the rank after its rows lies below both the cutoff and the highest
    level returned, by more than tol.  solve_lowest returns the lowest
    levels, so such a level was lost (a repulsive channel binds nothing,
    though its closed forms may be admissible).
    """
    sector, params = result.sector, result.params
    exact = _exact(params)

    def closed_form(channel, k):
        """nu and energy of the k-th level of a channel."""
        nu = (sector.l if sector.mu == 0 else sector.j) + 1 + k
        g = _charge(params, channel)
        return nu, -g * g / (2 * float(nu) ** 2)

    rank = {}               # channel -> levels of it seen so far
    matched = {}            # channel -> its rows, the levels below the cutoff
    rows = []
    ok = True
    jlab = "j=%s" % sector.j if sector.mu == 1 else "l=%d" % sector.l
    for idx, (energy, channel) in enumerate(zip(result.energies, result.channels)):
        k = rank[channel] = rank.get(channel, -1) + 1
        if energy > result.cutoff:
            continue
        matched[channel] = k + 1
        nu, predicted = closed_form(channel, k)
        if sector.mu == 0:
            n, branch = nu, 0
        else:
            n, branch = _label(nu, channel, exact) or (0, 0)
        rows.append(LevelRow(
            jlab,
            "s_r=%+g" % float(channel) if channel is not None else "single",
            idx, energy, predicted,
            "n=%d" % n if n else "none",
            "%+d" % branch if branch else "",
            abs(energy - predicted) / abs(predicted) if n and predicted else math.inf,
            result.est_errors[idx],
        ))
        ok = ok and rows[-1].passes(tol)
    if result.energies:
        below = min(result.cutoff, max(result.energies))
        for g, channel in _channels(sector, params):
            owed = closed_form(channel, matched.get(channel, 0))[1]
            ok = ok and not (g < 0 and owed < below - tol * abs(owed))
    return rows, ok and bool(rows)


def default_study(params=None, grid_n=DEFAULT_GRID_N, r_max=200.0, count=8,
                  k2_values=(0.0, 0.2, 0.4), tol=1e-3):
    """The standard sweep: mu=0 l=0..3, then mu=1 j in {1/2, 3/2} per k2.

    A small box may leave a high-l sector with no level below the cutoff;
    that sector adds no rows, but the study as a whole must match some.
    """
    params = params or CouplingParams()
    sweep = [(RadialSector(0, l=l), params) for l in range(4)]
    for k2 in k2_values:
        p = CouplingParams(params.k1, k2)
        sweep.extend((RadialSector(1, j=j), p) for j in (Fraction(1, 2), Fraction(3, 2)))
    rows = []
    all_ok = True
    for sector, p in sweep:
        got, ok = match_spectrum(solve_lowest(sector, p, grid_n, r_max, count), tol=tol)
        rows.extend(got)
        all_ok = all_ok and (ok or not got)
    return rows, all_ok and bool(rows)
