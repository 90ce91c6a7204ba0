"""Radial eigensolver against the closed-form level structure."""

from fractions import Fraction

import pytest

from so4atom import spectrum
from so4atom.errors import UsageError

HALF = Fraction(1, 2)
PIN = dict(grid_n=4000, r_max=200.0)


def bohr(n, k1=-1.0):
    return -(k1 * k1) / (2.0 * n * n)


# -- symbolic gate ----------------------------------------------------------


def test_reduced_form_gate_abstract_and_half():
    assert spectrum.reduced_form_check("abstract") is True
    assert spectrum.reduced_form_check("half") is True


@pytest.mark.parametrize("mode", ["HALF", "Abstract", "spin-1/2"])
def test_reduced_form_gate_rejects_unknown_modes(mode):
    with pytest.raises(UsageError):
        spectrum.reduced_form_check(mode)


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


def test_grid_guardrails():
    sec = spectrum.RadialSector(0, l=0)
    with pytest.raises(UsageError):
        spectrum.solve_lowest(sec, grid_n=100)
    with pytest.raises(UsageError):
        spectrum.solve_lowest(sec, grid_n=2000, r_max=-5.0)
    for count in (0, -2, 2001):
        with pytest.raises(UsageError, match="levels"):
            spectrum.solve_lowest(sec, grid_n=2000, count=count)


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
    assert errs[0] / errs[1] >= 3.0  # second-order stencil: ~4x per halving


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
