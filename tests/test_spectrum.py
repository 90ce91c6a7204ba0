"""Radial eigensolver against the closed-form level structure."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom import _kernel, catalog, report, spectrum
from so4atom.errors import SolverError, UsageError
from so4atom.operators import OperatorExpr, SpinMode

HALF = Fraction(1, 2)
PIN = dict(grid_n=spectrum.DEFAULT_GRID_N, r_max=200.0)


def bohr(n, k1=-1.0):
    return -(k1 * k1) / (2.0 * n * n)


def channel_charges(sector, params):
    """(charge, s_r label) of each channel of a sector, as solve_lowest builds them."""
    if sector.mu == 0:
        return ((params.k1, None),)
    return tuple((params.k1 + params.k2 * float(s_r), s_r)
                 for s_r in (HALF, -HALF))


def channel_solve(sector, params, grid_n, g, r_max=200.0, count=8, **kwargs):
    """The lowest levels of one channel on one grid, solved directly."""
    stencil = spectrum._stencil(sector, grid_n, r_max)
    return scipy.linalg.eigh_tridiagonal(*spectrum._channel(stencil, g), select="i",
                                         select_range=(0, count - 1), **kwargs)


def held_count(sector, params, grid_n, g, r_max=200.0, count=8):
    """How many levels of one channel solve_lowest solves: those at or below
    half the cutoff on either grid of the pair, counted here by a
    full-precision solve, capped at count and at the coarse grid's size."""
    window = spectrum.energy_cutoff(r_max) / 2
    below = (scipy.linalg.eigh_tridiagonal(
        *spectrum._channel(spectrum._stencil(sector, n, r_max), g),
        eigvals_only=True, select="v", select_range=(-1e300, window), tol=1e-15)
        for n in (grid_n, grid_n // 2))
    return min(count, grid_n // 2, max(map(len, below)))


def merged(levels, count=8):
    """(energies, labels) of the lowest count (energy, label) pairs."""
    levels = sorted(levels, key=lambda lv: lv[0])[:count]
    return tuple(e for e, _ in levels), tuple(label for _, label in levels)


def per_channel_levels(sector, params, grid_n=spectrum.DEFAULT_GRID_N, r_max=200.0,
                       count=8):
    """Reference: every channel solved on its own on both grids of the pair,
    over the index range solve_lowest solves (held_count), eigenvectors
    included, extrapolated by hand, then merged and cut exactly as
    solve_lowest merges and cuts."""
    rho2 = (grid_n / (grid_n // 2)) ** 2
    levels = []
    for g, label in channel_charges(sector, params):
        held = held_count(sector, params, grid_n, g, r_max, count)
        if not held:
            continue
        (fine, _), (coarse, _) = (channel_solve(sector, params, n, g, r_max, held,
                                                tol=spectrum._EIG_TOL)
                                  for n in (grid_n, grid_n // 2))
        levels.extend((float((rho2 * f - c) / (rho2 - 1)), label)
                      for f, c in zip(fine, coarse))
    return merged(levels, count)


def default_sweep():
    """The (sector, params) pairs of default_study, in its order."""
    sweep = [(spectrum.RadialSector(0, l=l), spectrum.CouplingParams())
             for l in range(4)]
    for k2 in (0.0, 0.2, 0.4):
        sweep.extend((spectrum.RadialSector(1, j=j), spectrum.CouplingParams(k2=k2))
                     for j in (HALF, Fraction(3, 2)))
    return sweep


# -- symbolic gate ----------------------------------------------------------


def gate_holds(mode):
    """theorem's gate checks under the suite's env for mode, as
    reduced_form_check runs them in the abstract one."""
    suite = catalog.get_suite("theorem")
    results = [catalog.run_check(suite.spec(c), suite.env(mode)) for c in spectrum._GATE]
    assert {r.mode for r in results} == {mode.value}
    return all(r.ok for r in results)


def test_reduced_form_gate_abstract_and_half():
    assert spectrum.reduced_form_check() is True
    assert gate_holds(SpinMode.ABSTRACT) is True
    assert gate_holds(SpinMode.SPIN_HALF) is True


@pytest.mark.parametrize("mode", ["HALF", "Abstract", "spin-1/2"])
def test_reduced_form_gate_rejects_unknown_modes(mode):
    # the gate reads no mode name; run_suite is where one is read
    with pytest.raises(TypeError):
        spectrum.reduced_form_check(mode)
    with pytest.raises(UsageError):
        catalog.run_suite("theorem", mode=mode)


@pytest.mark.parametrize("mode", list(SpinMode), ids=lambda m: m.value)
def test_reduced_form_gate_substitutes_nothing_and_is_taken_once(monkeypatch, mode):
    # the gate is theorem's three checks: zero tests at mu=0 and mu=1 build
    # nothing, and a second call reads every product from the suite's memo
    substituted = []
    substitute = OperatorExpr.substitute

    def counted(self, name, value):
        substituted.append(value)
        return substitute(self, name, value)

    monkeypatch.setattr(OperatorExpr, "substitute", counted)
    assert gate_holds(mode) is True
    products = []
    mul = _kernel.expr_mul

    def counted_mul(*args):
        products.append(args)
        return mul(*args)

    monkeypatch.setattr(_kernel, "expr_mul", counted_mul)
    assert gate_holds(mode) is True
    if mode is SpinMode.ABSTRACT:
        assert spectrum.reduced_form_check() is True
    assert substituted == []
    assert products == []


def test_gate_runs_the_theorem_suite_file(tmp_path, monkeypatch):
    text = (Path(catalog.data_dir()) / "theorem.ident").read_text()
    line = "check reduced_gate : H0 == (2*dot(S,l) + dot(S,S))*rpow(-2) mu=1"
    assert text.count(line) == 1
    (tmp_path / "theorem.ident").write_text(
        text.replace(line, line.replace("2*dot(S,l)", "dot(S,l)")))
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    with pytest.raises(SolverError, match="engine rejected"):
        spectrum.solve_lowest(spectrum.RadialSector(1, j=HALF), **PIN)
    # a mu=0 sector has one Coulomb channel and never asks the gate
    assert spectrum.solve_lowest(spectrum.RadialSector(0, l=0), **PIN).energies


# -- sector bookkeeping -----------------------------------------------------


def test_sector_validation():
    spectrum.RadialSector(0, l=2)
    spectrum.RadialSector(1, j=Fraction(3, 2))
    with pytest.raises(UsageError):
        spectrum.RadialSector(0, j=HALF)       # no coupling channel here
    with pytest.raises(UsageError):
        spectrum.RadialSector(1, l=1)
    with pytest.raises(UsageError):
        spectrum.RadialSector(1, j=Fraction(1, 3))
    with pytest.raises(UsageError):
        spectrum.RadialSector(2, l=0)


def test_a_fractional_l_is_a_usage_error():
    # a fractional l has no label: l=1.5 would be solved with weight 3.75
    # and its rows printed as l=1
    for l in (1.5, 2.0, "2"):
        with pytest.raises(UsageError, match="integer l"):
            spectrum.RadialSector(0, l=l)


def test_a_j_that_names_no_number_is_a_usage_error():
    with pytest.raises(UsageError, match="'abc'"):
        spectrum.RadialSector(1, j="abc")


def test_a_coupling_that_is_not_finite_is_named_so():
    for k1, k2 in ((float("nan"), 0.2), (-1.0, float("inf"))):
        with pytest.raises(UsageError, match="not finite"):
            spectrum.CouplingParams(k1=k1, k2=k2)


@pytest.mark.parametrize("r_max", [float("inf"), float("nan"), 0.0, -5.0])
def test_a_box_that_is_not_finite_and_positive_fails_before_any_solve(monkeypatch, r_max):
    # an infinite box has spacing inf and an all-zero matrix, and nan
    # reaches the eigensolver: the box is checked before either is built
    calls = []
    for name in ("eigh_tridiagonal", "eig_banded", "dstebz"):
        monkeypatch.setattr(spectrum, name, lambda *a, **k: calls.append(a))
    with pytest.raises(UsageError, match="0 < r_max < inf"):
        spectrum.solve_lowest(spectrum.RadialSector(0, l=0), r_max=r_max)
    with pytest.raises(UsageError, match="0 < r_max < inf"):
        spectrum.coupled_levels(spectrum.RadialSector(1, j=HALF),
                                spectrum.CouplingParams(), 1000, r_max, 2)
    assert calls == []


@pytest.mark.parametrize("grid_n", [1000.5, float("nan"), 1000.0])
def test_a_fractional_grid_fails_before_any_solve(monkeypatch, grid_n):
    # 1000.5 would lay 1001 points, the last past r_max, and read the
    # Richardson ratio from the point counts; nan would reach numpy's arange
    calls = []
    for name in ("eigh_tridiagonal", "eig_banded", "dstebz"):
        monkeypatch.setattr(spectrum, name, lambda *a, **k: calls.append(a))
    with pytest.raises(UsageError, match="grid_n must be an integer"):
        spectrum.solve_lowest(spectrum.RadialSector(0, l=0), grid_n=grid_n)
    with pytest.raises(UsageError, match="grid_n must be an integer"):
        spectrum.coupled_levels(spectrum.RadialSector(1, j=HALF),
                                spectrum.CouplingParams(), grid_n, 200.0, 2)
    assert calls == []


def test_grid_guardrails():
    sec = spectrum.RadialSector(0, l=0)
    with pytest.raises(UsageError):
        spectrum.solve_lowest(sec, grid_n=100)
    with pytest.raises(UsageError):
        spectrum.solve_lowest(sec, grid_n=499)
    with pytest.raises(UsageError):
        spectrum.solve_lowest(sec, grid_n=2000, r_max=-5.0)
    # the floor holds the fine grid; its coarse partner may be 250
    assert len(spectrum.solve_lowest(sec, grid_n=500, count=4).energies) == 4
    # every level must exist on the coarse grid: 1000 per channel at 2000
    for count in (0, -2, 1001):
        with pytest.raises(UsageError, match="levels"):
            spectrum.solve_lowest(sec, grid_n=2000, count=count)
    with pytest.raises(UsageError, match="levels from a sector of 2000"):
        spectrum.solve_lowest(spectrum.RadialSector(1, j=HALF), grid_n=2000, count=2001)


def test_coupled_band_is_a_mu1_reference():
    with pytest.raises(UsageError):
        spectrum.coupled_levels(spectrum.RadialSector(0, l=0),
                                spectrum.CouplingParams(), 2000, 150.0, 2)
    with pytest.raises(UsageError, match="levels"):
        spectrum.coupled_levels(spectrum.RadialSector(1, j=HALF),
                                spectrum.CouplingParams(), 2000, 150.0, 0)


# -- plain Coulomb sector ---------------------------------------------------


def test_coulomb_levels_match_bohr():
    sec = spectrum.RadialSector(0, l=0)
    res = spectrum.solve_lowest(sec, count=4, **PIN)
    for idx, energy in enumerate(res.energies):
        n = idx + 1
        assert abs(energy - bohr(n)) < 1e-3


def test_coulomb_degeneracy_across_l():
    # E depends on n alone: the l=1 ground level is the n=2 Bohr energy
    res = spectrum.solve_lowest(spectrum.RadialSector(0, l=1), count=2, **PIN)
    assert abs(res.energies[0] - bohr(2)) < 1e-3
    assert abs(res.energies[1] - bohr(3)) < 1e-3


def test_grid_refinement_improves_by_3x():
    sec = spectrum.RadialSector(0, l=0)
    errs = []
    for n in (1000, 2000):
        res = spectrum.solve_lowest(sec, grid_n=n, r_max=200.0, count=1)
        errs.append(abs(res.energies[0] - bohr(1)))
    # second order in x = sqrt(r): about 4x per halving (3.7 measured)
    assert errs[0] / errs[1] >= 3.0


def test_scaling_covariance_of_the_solver():
    # r -> r/lam maps (N, R, k1) onto (N, R/lam, lam*k1) with energies
    # multiplied by lam^2, exactly, grid included
    lam = 1.5
    base = spectrum.solve_lowest(
        spectrum.RadialSector(0, l=0),
        spectrum.CouplingParams(k1=-1.0),
        2000, 120.0, 3)
    moved = spectrum.solve_lowest(
        spectrum.RadialSector(0, l=0),
        spectrum.CouplingParams(k1=-lam),
        2000, 120.0 / lam, 3)
    for a, b in zip(base.energies, moved.energies):
        assert abs(b - lam * lam * a) / abs(a) < 1e-6


# -- coupled sector ---------------------------------------------------------


def test_k2_zero_levels_are_doubly_degenerate():
    sec = spectrum.RadialSector(1, j=HALF)
    params = spectrum.CouplingParams(k2=0.0)
    res = spectrum.solve_lowest(sec, params, count=6, **PIN)
    for a, b in zip(res.energies[0::2], res.energies[1::2]):
        assert abs(a - b) < 1e-9
    # a tridiagonal channel has a simple spectrum, so the two members of a
    # degenerate pair come one from each channel
    for pair in zip(res.channels[0::2], res.channels[1::2]):
        assert sorted(pair) == [-HALF, HALF]


def test_coupled_matrix_agrees_with_decoupled_limit():
    # the interleaved band in the orbital basis, coupling row included, must
    # reproduce the two rotated scalar channels to eigensolver precision
    for k2 in (0.0, 0.2, 0.4):
        for j in (HALF, Fraction(3, 2)):
            sec = spectrum.RadialSector(1, j=j)
            params = spectrum.CouplingParams(k2=k2)
            res = spectrum.solve_lowest(sec, params, 2000, 150.0, 6)
            band = spectrum.coupled_levels(sec, params, 2000, 150.0, 6)
            assert len(band) == len(res.energies) == 6
            for got, want in zip(res.energies, band):
                assert abs(got - want) < 1e-9, (k2, j)


def test_lowest_coupled_level_is_not_the_collapsed_one():
    # raw closed form at k2=0, j=1/2 lists -2 below -2/9, but -2 belongs
    # to no admissible labeling; the solver must find -2/9 twice instead
    sec = spectrum.RadialSector(1, j=HALF)
    params = spectrum.CouplingParams(k2=0.0)
    preds = spectrum.predicted_levels(sec, params, max_n=4)
    raw = sorted({round(p.energy, 12) for p in preds})
    assert raw[0] == pytest.approx(-2.0)
    assert raw[1] == pytest.approx(-2.0 / 9.0)
    admissible = sorted({p.energy for p in preds if p.admissible})
    assert admissible[0] == pytest.approx(-2.0 / 9.0)

    res = spectrum.solve_lowest(sec, params, count=2, **PIN)
    assert res.energies[0] == pytest.approx(-2.0 / 9.0, abs=1e-3)
    assert res.energies[1] == pytest.approx(-2.0 / 9.0, abs=1e-3)
    assert abs(res.energies[0] - (-2.0)) > 1.0


@pytest.mark.parametrize("j", [HALF, Fraction(3, 2)])
@pytest.mark.parametrize("k2", [0.0, 0.2])
def test_every_computed_level_matches_an_admissible_one(j, k2):
    sec = spectrum.RadialSector(1, j=j)
    params = spectrum.CouplingParams(k2=k2)
    res = spectrum.solve_lowest(sec, params, count=8, **PIN)
    rows, ok = spectrum.match_spectrum(res, tol=1e-3)
    assert ok
    assert rows, "cutoff should leave something to match"
    for row in rows:
        assert row.rel_error < 1e-3


@pytest.mark.parametrize("j, k2", [(HALF, 2.1), (Fraction(3, 2), -3.0),
                                   (Fraction(3, 2), 2.4), (Fraction(5, 2), -3.0)])
def test_strong_charge_levels_find_their_high_n_partners(j, k2):
    # a strong channel charge binds 8 levels below the cutoff, up to n = 10;
    # each is ranked to its own nu, however deep
    res = spectrum.solve_lowest(spectrum.RadialSector(1, j=j),
                                spectrum.CouplingParams(k2=k2), count=8, **PIN)
    rows, ok = spectrum.match_spectrum(res)
    assert ok
    assert len(rows) == 8
    assert all(row.rel_error < 1e-4 for row in rows)


def test_eigenvalues_only_are_bitwise_the_eigenvector_solve():
    # stebz orders eigenvalues-only output by matrix, not by block, and skips
    # stein; the values themselves must not move by a bit
    for sector, params in default_sweep():
        res = spectrum.solve_lowest(sector, params, **PIN)
        energies, channels = per_channel_levels(sector, params)
        assert [e.hex() for e in res.energies] == [e.hex() for e in energies], \
            (sector, params.k2)
        assert res.channels == channels


@pytest.mark.parametrize("k2, solves", [(0.0, 1), (0.2, 2)])
def test_each_distinct_channel_is_solved_once(monkeypatch, k2, solves):
    # at k2=0 both channels carry the charge k1, so they are one matrix
    calls = []
    solve = spectrum.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append((len(args[0]), kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted)
    sector = spectrum.RadialSector(1, j=HALF)
    params = spectrum.CouplingParams(k2=k2)
    res = spectrum.solve_lowest(sector, params, **PIN)
    # once on each grid of the pair
    assert sorted(n for n, _kw in calls) == \
        [PIN["grid_n"] // 2] * solves + [PIN["grid_n"]] * solves
    assert all(kw["eigvals_only"] for _n, kw in calls)
    assert (res.energies, res.channels) == per_channel_levels(sector, params)


# -- the window: only levels that can become rows are solved ----------------


def full_count_result(sector, params, grid_n, r_max, count):
    """solve_lowest without the window: every channel solved to
    min(count, grid_n // 2) levels on both grids, extrapolated, each level
    whose estimate is 1 or more dropped, then merged and cut to count."""
    res = spectrum.solve_lowest(sector, params, grid_n, r_max, count)
    pair = spectrum._pair(sector, grid_n, r_max)
    last = min(count, grid_n // 2) - 1
    levels = []
    for g, label in channel_charges(sector, params):
        limits, ests = spectrum._extrapolate(
            pair, lambda stencil: spectrum._lowest(stencil, g, last))
        levels.extend((float(e), label, float(est)) for e, est in zip(limits, ests)
                      if est < 1)
    levels = sorted(levels, key=lambda lv: lv[0])[:count]
    return res, replace(res, energies=tuple(e for e, _, _ in levels),
                        channels=tuple(label for _, label, _ in levels),
                        est_errors=tuple(est for _, _, est in levels))


@pytest.mark.parametrize("sector, k2, grid_n, r_max, count", [
    (spectrum.RadialSector(0, l=0), 0.0, 500, 100.0, 3),
    (spectrum.RadialSector(0, l=2), 0.0, 1000, 400.0, 20),
    (spectrum.RadialSector(1, j=HALF), 0.0, 1000, 200.0, 20),
    (spectrum.RadialSector(1, j=HALF), 0.2, 500, 200.0, 8),
    (spectrum.RadialSector(1, j=HALF), -1.5, 1000, 100.0, 20),
    (spectrum.RadialSector(1, j=Fraction(3, 2)), 1.0, 500, 400.0, 8),
    (spectrum.RadialSector(1, j=Fraction(5, 2)), 0.2, 1000, 200.0, 3),
    (spectrum.RadialSector(1, j=Fraction(5, 2)), -1.5, 500, 400.0, 20),
])
def test_windowed_rows_are_the_full_count_rows(sector, k2, grid_n, r_max, count):
    # the levels left unsolved lie above half the cutoff on both grids, so
    # none of them was ever a row: every row keeps its labels and verdict,
    # and its energy moves by bisection noise only
    params = spectrum.CouplingParams(k2=k2)
    res, full = full_count_result(sector, params, grid_n, r_max, count)
    assert len(res.energies) <= len(full.energies)
    rows, ok = spectrum.match_spectrum(res)
    want, want_ok = spectrum.match_spectrum(full)
    assert rows and ok is want_ok is True
    fields = ("sector_j", "channel", "level_index", "n_label", "branch")
    assert [[getattr(r, f) for f in fields] + [r.passes(1e-3)] for r in rows] == \
        [[getattr(r, f) for f in fields] + [r.passes(1e-3)] for r in want]
    for got, ref in zip(rows, want):
        assert got.e_computed == pytest.approx(ref.e_computed, rel=1e-11, abs=0)


def test_sturm_count_is_the_length_of_a_full_solve():
    # stebz with a tolerance too wide to bisect still counts exactly
    for sector, params in default_sweep():
        for g, _label in channel_charges(sector, params):
            for grid_n in (spectrum.DEFAULT_GRID_N, spectrum.DEFAULT_GRID_N // 2):
                stencil = spectrum._stencil(sector, grid_n, 200.0)
                for top in (-0.0125, -0.025, -0.2, 0.0):
                    full = scipy.linalg.eigh_tridiagonal(
                        *spectrum._channel(stencil, g), eigvals_only=True, select="v",
                        select_range=(-1e300, top), tol=1e-15)
                    assert spectrum._count_at_or_below(stencil, g, top) == len(full), \
                        (sector, params.k2, g, grid_n, top)


# -- LAPACK without scipy.linalg ----------------------------------------------


@pytest.mark.parametrize("first", ["scipy", "spectrum"])
def test_stebz_is_scipys_own_routine(first):
    # the extension is loaded from its file, without scipy.linalg; either
    # way round, the process holds one copy of it
    imports = ["from so4atom import spectrum", "import scipy.linalg.lapack as L"]
    if first == "scipy":
        imports.reverse()
    code = "import sys; %s; linalg = 'scipy.linalg' in sys.modules; %s; " \
        "print(linalg, spectrum.dstebz is L.dstebz)" % tuple(imports)
    src = str(Path(spectrum.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(first == "scipy"), "True"]


@pytest.mark.parametrize("select_range", [(0, 7), (3, 5)])
def test_eigh_tridiagonal_is_scipys_bit_for_bit(select_range):
    for sector, params in default_sweep():
        for g, _label in channel_charges(sector, params):
            for grid_n in (spectrum.DEFAULT_GRID_N, spectrum.DEFAULT_GRID_N // 2):
                channel = spectrum._channel(spectrum._stencil(sector, grid_n, 200.0), g)
                kwargs = dict(eigvals_only=True, select="i", select_range=select_range,
                              tol=spectrum._EIG_TOL)
                got = spectrum.eigh_tridiagonal(*channel, **kwargs)
                want = scipy.linalg.eigh_tridiagonal(*channel, **kwargs)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), \
                    (sector, params.k2, g, grid_n)


@pytest.mark.parametrize("g, last, message", [
    (math.nan, 7, "must not contain infs or NaNs"),
    (math.inf, 7, "must not contain infs or NaNs"),
    (-1.0, 500, "out of bounds"),
])
def test_a_bad_channel_solve_is_a_solver_error(g, last, message):
    stencil = spectrum._stencil(spectrum.RadialSector(0, l=0), 500, 200.0)
    with pytest.raises(SolverError, match=message):
        spectrum._lowest(stencil, g, last)


@pytest.mark.parametrize("info, message", [
    (-3, "illegal value in argument 3"), (2, "did not converge")])
def test_a_lapack_error_is_a_solver_error(monkeypatch, info, message):
    monkeypatch.setattr(spectrum, "dstebz",
                        lambda *args: (0, np.zeros(len(args[0])), None, None, info))
    stencil = spectrum._stencil(spectrum.RadialSector(0, l=0), 500, 200.0)
    with pytest.raises(SolverError, match=message):
        spectrum._lowest(stencil, -1.0, 7)


def test_the_sturm_count_refuses_a_nan():
    stencil = spectrum._stencil(spectrum.RadialSector(0, l=0), 500, 200.0)
    with pytest.raises(SolverError, match="must not contain infs or NaNs"):
        spectrum._count_at_or_below(stencil, math.nan, -0.0125)


def test_a_missing_lapack_module_names_where_it_looked(monkeypatch, tmp_path):
    # no second import path: scipy.linalg is there, and is not tried
    monkeypatch.setattr(spectrum, "_scipy_dirs", lambda: [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        spectrum._load_flapack()


@pytest.mark.parametrize("grid_n, count", [(spectrum.DEFAULT_GRID_N, 8), (500, 250)])
def test_default_study_solves_only_the_windowed_levels(monkeypatch, grid_n, count):
    # 224 indices without the window (8 per channel and grid); the window
    # holds 134 at the default count, and as many when 250 are asked for
    asked = []
    solve = spectrum.eigh_tridiagonal

    def counted(*args, **kwargs):
        first, last = kwargs["select_range"]
        asked.append(last - first + 1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted)
    rows, ok = spectrum.default_study(grid_n=grid_n, count=count)
    assert ok is True and len(rows) == 44
    assert (len(asked), sum(asked)) == (28, 134)


def test_a_channel_with_no_level_in_the_window_is_not_solved(monkeypatch):
    # no charge: every level of the box is positive, far above the window
    calls = []
    monkeypatch.setattr(spectrum, "eigh_tridiagonal", lambda *a, **k: calls.append(a))
    res = spectrum.solve_lowest(spectrum.RadialSector(0, l=0),
                                spectrum.CouplingParams(k1=0.0), 1000, 100.0, 3)
    assert (res.energies, res.channels, res.est_errors, calls) == ((), (), (), [])


@settings(max_examples=30, deadline=None)
@given(twice_j=st.integers(0, 4).map(lambda m: 2 * m + 1),
       k2=st.floats(-2.0, 2.0, allow_nan=False))
def test_mu1_predictions_do_not_depend_on_j(twice_j, k2):
    params = spectrum.CouplingParams(k2=k2)
    base = spectrum.predicted_levels(spectrum.RadialSector(1, j=HALF), params, max_n=8)
    other = spectrum.predicted_levels(
        spectrum.RadialSector(1, j=Fraction(twice_j, 2)), params, max_n=8)
    assert other == base        # each level's WkReport and verdict included


# -- exact admissibility reports --------------------------------------------


def test_wk_pair_admissible_cases_exact():
    params = spectrum.CouplingParams(k2=0.2)
    seen = 0
    for sector_j in (HALF, Fraction(3, 2)):
        for p in spectrum.predicted_levels(
            spectrum.RadialSector(1, j=sector_j), params, max_n=4
        ):
            if not p.admissible:
                continue
            seen += 1
            rep = p.report
            again = spectrum.solve_wk_pair(rep.w, rep.k, rep.s_r, params)
            assert again.verdict == "admissible"
            assert abs(again.energy - p.energy) < 1e-12
    assert seen >= 6


def test_wk_pair_verdicts():
    k2_0 = spectrum.CouplingParams(k2=0.0)
    assert spectrum.solve_wk_pair(Fraction(0), HALF, HALF, k2_0).verdict == "admissible"
    assert spectrum.solve_wk_pair(Fraction(0), -HALF, HALF, k2_0).verdict == "invalid_label"
    assert spectrum.solve_wk_pair(HALF, Fraction(0), -HALF, k2_0).verdict == "admissible"
    assert spectrum.solve_wk_pair(HALF, Fraction(1), -HALF, k2_0).verdict == "nonpositive_scale"
    with pytest.raises(UsageError):
        spectrum.solve_wk_pair(Fraction(0), HALF, Fraction(1, 3), k2_0)
    # coupling tuned so the effective charge in this channel vanishes
    free = spectrum.CouplingParams(k1=-1.0, k2=2.0)
    assert spectrum.solve_wk_pair(Fraction(0), HALF, HALF, free).verdict == "free"


def test_wk_duplicate_labelings_agree_when_admissible():
    # the same physical level reached through both branches
    params = spectrum.CouplingParams(k2=0.0)
    a = spectrum.solve_wk_pair(Fraction(0), HALF, HALF, params)
    b = spectrum.solve_wk_pair(HALF, Fraction(0), -HALF, params)
    assert a.verdict == b.verdict == "admissible"
    assert a.energy == pytest.approx(b.energy, abs=1e-15)
    assert a.t == b.t == Fraction(3, 2)


def test_inadmissible_pairs_keep_their_report():
    params = spectrum.CouplingParams(k2=0.0)
    preds = spectrum.predicted_levels(
        spectrum.RadialSector(1, j=HALF), params, max_n=3
    )
    bad = [p for p in preds if not p.admissible]
    assert bad, "inadmissible labelings must be reported, not dropped"
    for p in bad:
        assert p.report.verdict in (
            "invalid_label", "nonpositive_scale", "casimir_mismatch", "free"
        )


# -- study wrapper ----------------------------------------------------------


def test_default_study_all_match():
    rows, ok = spectrum.default_study(k2_values=(0.0, 0.2))
    assert ok
    worst = max(r.rel_error for r in rows)
    assert worst < 1e-3
    sectors = {r.sector_j for r in rows}
    assert {"l=0", "l=1", "l=2", "l=3", "j=1/2", "j=3/2"} <= sectors


def test_default_study_has_real_headroom():
    # a match needs real headroom, not just a pass inside the 1e-3 tolerance
    rows, ok = spectrum.default_study()
    assert ok
    assert len(rows) == 44
    for row in rows:
        assert row.rel_error < 1e-4, row


def test_channel_solves_are_converged_in_the_bisection():
    # the mapped matrix is graded; LAPACK's default tolerance, ulp*|T|,
    # moves levels by up to 1.4e-6 relative at 1000 points, the fixed one by
    # below 1e-11, on either grid of the pair and so in their limit
    grid_n = spectrum.DEFAULT_GRID_N
    for sector, params in default_sweep():
        res = spectrum.solve_lowest(sector, params, **PIN)
        for g, label in channel_charges(sector, params):
            fine, coarse = (channel_solve(sector, params, n, g, eigvals_only=True, tol=1e-15)
                            for n in (grid_n, grid_n // 2))
            tight = (4 * fine - coarse) / 3
            mine = [e for e, c in zip(res.energies, res.channels) if c == label]
            assert mine
            for got, want in zip(mine, tight):
                assert abs(got - want) < 1e-10 * abs(want), (sector, params.k2, label)


def test_no_default_row_is_worse_than_a_single_2000_point_grid():
    # the extrapolated pair (500, 1000) against one raw solve at 2000, the
    # default grid before the pair: every row keeps its labels, none gets
    # worse, and the estimate never understates the true error
    rows, ok = spectrum.default_study()
    assert ok
    raw_rows = []
    for sector, params in default_sweep():
        res = spectrum.solve_lowest(sector, params, **PIN)
        energies, channels = merged(
            [(float(e), label) for g, label in channel_charges(sector, params)
             for e in channel_solve(sector, params, 2000, g, eigvals_only=True,
                                    tol=spectrum._EIG_TOL)])
        raw_rows.extend(spectrum.match_spectrum(
            replace(res, energies=energies, channels=channels))[0])
    assert len(rows) == len(raw_rows) == 44
    for row, raw in zip(rows, raw_rows):
        labels = ("sector_j", "channel", "level_index", "n_label", "branch")
        assert [getattr(row, f) for f in labels] == [getattr(raw, f) for f in labels]
        assert row.rel_error <= raw.rel_error, (row, raw.rel_error)
        assert row.rel_error <= row.est_error, row
    assert max(row.rel_error for row in rows) <= 2e-5


def test_odd_grid_extrapolates_with_its_exact_ratio():
    # 1001 pairs with 500: rho = 1001/500, not 2
    sec = spectrum.RadialSector(0, l=0)
    res = spectrum.solve_lowest(sec, grid_n=1001, count=3)
    fine, coarse = (channel_solve(sec, spectrum.CouplingParams(), n, -1.0, count=3,
                                  eigvals_only=True, tol=spectrum._EIG_TOL)
                    for n in (1001, 500))
    rho2 = (1001 / 500) ** 2
    for idx, (f, c) in enumerate(zip(fine, coarse)):
        limit = (rho2 * f - c) / (rho2 - 1)
        assert res.energies[idx] == pytest.approx(limit, rel=1e-12, abs=0)
        assert res.est_errors[idx] == pytest.approx(
            abs(f - c) / ((rho2 - 1) * abs(limit)), rel=1e-9)
        # the ratio 2 of an even grid would be measurably off
        assert abs((4 * f - c) / 3 - limit) > 1e-8 * abs(limit)
        assert abs(limit - bohr(idx + 1)) < abs(f - bohr(idx + 1))


def test_default_study_is_its_sectors_matched_one_by_one():
    rows, ok = spectrum.default_study()
    want = []
    want_ok = True
    for sector, params in default_sweep():
        got, sector_ok = spectrum.match_spectrum(
            spectrum.solve_lowest(sector, params, **PIN), tol=1e-3)
        want.extend(got)
        want_ok = want_ok and (sector_ok or not got)
    assert rows == want
    assert ok == (want_ok and bool(want))
    assert ok is True


def test_shared_table_covers_the_deepest_sector():
    # at k2 = -2*k1 the s_r=+1/2 channel is free, so the other holds every
    # level: the k-th level has nu = j+1+k, so j=1/2's eight levels reach
    # n=9 and j=3/2's eighth needs n=10
    params = spectrum.CouplingParams(k1=-3.0, k2=6.0)
    rows, ok = spectrum.default_study(spectrum.CouplingParams(k1=-3.0), k2_values=(6.0,))
    for j, first in (("j=1/2", 2), ("j=3/2", 3)):
        assert [r.n_label for r in rows if r.sector_j == j] == \
            ["n=%d" % n for n in range(first, first + 8)]
    want = []
    for j in (HALF, Fraction(3, 2)):
        got, sector_ok = spectrum.match_spectrum(
            spectrum.solve_lowest(spectrum.RadialSector(1, j=j), params, **PIN))
        assert sector_ok is True
        want.extend(got)
    assert [r for r in rows if r.sector_j.startswith("j=")] == want
    assert ok is True


def test_levels_are_degenerate_across_the_so4_multiplet():
    # a multiplet of nu holds j = 1/2, ..., nu - 1: each level below the
    # cutoff must come out of channel s_r of every such sector, at one
    # energy and under one label.  Levels are grouped by energy alone, and
    # the groups of a channel, counted upward, are nu = 3/2, 5/2, ...
    params = spectrum.CouplingParams(k2=0.2)
    js = (HALF, Fraction(3, 2), Fraction(5, 2))
    levels = {}             # channel -> [(energy, j, n_label, branch)]
    for j in js:
        res = spectrum.solve_lowest(spectrum.RadialSector(1, j=j), params, count=16, **PIN)
        assert res.energies[-1] > res.cutoff     # every level below it was held
        rows, ok = spectrum.match_spectrum(res)
        assert ok
        for row in rows:
            levels.setdefault(row.channel, []).append(
                (row.e_computed, j, row.n_label, row.branch))
    assert sorted(levels) == ["s_r=+0.5", "s_r=-0.5"]
    for channel, found in levels.items():
        found.sort()
        groups = [[found[0]]]
        for level in found[1:]:
            if abs(level[0] - groups[-1][0][0]) <= 1e-6 * abs(level[0]):
                groups[-1].append(level)
            else:
                groups.append([level])
        assert len(groups) >= 3, channel
        for rank, group in enumerate(groups):
            nu = Fraction(3, 2) + rank
            assert sorted(j for _e, j, _n, _b in group) == [j for j in js if j <= nu - 1], \
                (channel, nu)
            assert len({(n, b) for _e, _j, n, b in group}) == 1, (channel, nu)
            energies = [e for e, _j, _n, _b in group]
            assert max(energies) - min(energies) <= 1e-6 * abs(energies[0]), (channel, nu)


# -- planted faults ---------------------------------------------------------


def matched(sector, k2=0.2):
    """A sector solved in the default box, checked to match before any
    fault is planted in it."""
    res = spectrum.solve_lowest(sector, spectrum.CouplingParams(k2=k2), **PIN)
    assert spectrum.match_spectrum(res)[1] is True
    return res


def coupled(j=HALF, k2=0.2):
    return matched(spectrum.RadialSector(1, j=j), k2)


def planted(res, keep):
    """res with its levels at the positions keep, in that order."""
    return replace(res, energies=tuple(res.energies[i] for i in keep),
                   channels=tuple(res.channels[i] for i in keep),
                   est_errors=tuple(res.est_errors[i] for i in keep))


@pytest.mark.parametrize("fault", ["lost", "doubled"])
@pytest.mark.parametrize("sector", [spectrum.RadialSector(0, l=0),
                                    spectrum.RadialSector(1, j=HALF)], ids=["l=0", "j=1/2"])
def test_a_lost_or_doubled_ground_level_fails(sector, fault):
    res = matched(sector)
    held = range(len(res.energies))
    keep = held[1:] if fault == "lost" else [0, *held]
    rows, ok = spectrum.match_spectrum(planted(res, keep))
    assert ok is False
    assert rows[0].rel_error > 1e-3 or rows[1].rel_error > 1e-3


def test_swapped_channels_fail():
    res = coupled()
    assert res.channels[:2] == (-HALF, HALF)
    _rows, ok = spectrum.match_spectrum(
        replace(res, channels=(HALF, -HALF) + res.channels[2:]))
    assert ok is False


def test_a_lost_j32_ground_level_is_not_relabelled():
    # j=3/2 holds nu >= 5/2 only, so its s_r=-1/2 channel starts at n=3;
    # the j=1/2 ground level's label, n=2 in that channel, never appears.
    # The parent matched the level after the lost one to its nearest
    # neighbour, n=4, and passed
    res = coupled(Fraction(3, 2))
    assert res.channels[0] == -HALF
    rows, ok = spectrum.match_spectrum(planted(res, range(1, len(res.energies))))
    assert ok is False
    lost = [r for r in rows if r.channel == "s_r=-0.5"]
    assert [r.n_label for r in lost] == ["n=%d" % n for n in range(3, 3 + len(lost))]
    assert all(r.rel_error > 1e-3 for r in lost)
    # the other channel keeps its ranks, and its n=2 is its own nu = 5/2
    kept = [r for r in rows if r.channel == "s_r=+0.5"]
    assert kept[0].n_label == "n=2"
    assert all(r.rel_error < 1e-4 for r in kept)


@pytest.mark.parametrize("est, tol, passes", [(0.5, 1e-3, False), (2e-3, 1e-3, False),
                                              (2e-3, 1e-4, False), (2e-3, 1e-2, True),
                                              (5e-4, 1e-4, True)])
def test_an_unconverged_row_fails_in_the_verdict_and_the_report(est, tol, passes):
    # a level whose own estimate exceeds tol is unconverged, however close it
    # lands to its closed form; below the default tolerance the bar stays
    # at 1e-3, as the estimate is the fine grid's error, not the limit's
    res = coupled()
    rows, ok = spectrum.match_spectrum(replace(res, est_errors=(est,) + res.est_errors[1:]),
                                       tol=tol)
    assert rows[0].rel_error < 1e-6 and rows[0].est_error == est
    assert ok is passes
    assert [report.level_entry(r, tol)["status"] for r in rows] == \
        ["pass" if passes else "fail"] + ["pass"] * (len(rows) - 1)


def test_a_lost_top_level_below_the_cutoff_fails():
    # nu = 9/2 of channel s_r=-1/2 (-0.0299) is the last level below the
    # cutoff (-0.025) in that channel; no later rank of its channel is
    # matched, so only the levels above it (up to -0.02) show it was owed
    res = coupled()
    lost = [i for i, c in enumerate(res.channels) if c == -HALF
            and res.energies[i] < res.cutoff][-1]
    assert res.energies[lost] == pytest.approx(-1.21 / (2 * 4.5 ** 2), rel=1e-6)
    rows, ok = spectrum.match_spectrum(planted(res, [i for i in range(len(res.energies))
                                                     if i != lost]))
    assert ok is False
    assert len(rows) == 6 and all(row.passes(1e-3) for row in rows)
    # a level cut by the count is not owed: it lies above the highest one
    for count in (2, 5, 7):
        held = planted(res, range(count))
        assert spectrum.match_spectrum(held)[1] is True


@pytest.mark.parametrize("k2", [3.0, -3.0])
def test_a_repulsive_channel_owes_no_level(k2):
    # at k2 = +-3 one channel of j=1/2 has charge +0.5: its closed forms are
    # admissible, but it binds nothing, so its empty ranks are not lost
    res = coupled(HALF, k2)
    g = {label: charge for charge, label in
         channel_charges(res.sector, res.params)}
    assert sorted(g.values()) == [-2.5, 0.5]
    assert set(res.channels) == {label for label in g if g[label] < 0}


def test_a_level_in_a_free_channel_fails():
    # at k2 = -2*k1 the s_r=+1/2 channel is free: no labeling is admissible,
    # so a level planted there below the cutoff has no partner
    res = coupled(HALF, 2.0)
    assert set(res.channels) == {-HALF}
    rows, ok = spectrum.match_spectrum(replace(res, channels=(HALF,) + res.channels[1:]))
    assert ok is False
    assert (rows[0].n_label, rows[0].branch, rows[0].rel_error) == ("none", "", float("inf"))
    assert report.level_entry(rows[0], 1e-3)["status"] == "fail"


@pytest.mark.parametrize("k1, k2", [(-1e300, 0.2), (-1.0, 1e300), (-1e154, 0.0)])
def test_coupling_beyond_float_range_is_a_usage_error(k1, k2):
    with pytest.raises(UsageError, match="beyond float range"):
        spectrum.CouplingParams(k1=k1, k2=k2)


def test_no_level_below_cutoff_is_not_a_match():
    # no charge at mu=0: a free particle in a box, every level above the cutoff
    res = spectrum.solve_lowest(spectrum.RadialSector(0, l=0),
                                spectrum.CouplingParams(k1=0.0), 1000, 100.0, 3)
    rows, ok = spectrum.match_spectrum(res)
    assert rows == []
    assert ok is False


def test_energy_cutoff_scales_with_box():
    assert spectrum.energy_cutoff(200.0) == pytest.approx(-0.025)
    assert spectrum.energy_cutoff(100.0) < spectrum.energy_cutoff(200.0)
