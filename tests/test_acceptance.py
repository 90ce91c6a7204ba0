"""Acceptance gate.

One test per acceptance criterion, each printing a single pass/fail
line and enforcing its stated tolerance and time budget.  The lines
bypass output capture so they appear in any pytest run, -s or not.
"""

import math
import time
from fractions import Fraction

import pytest

from so4atom import ansatz, catalog, oracle, spectrum
from so4atom.jets import Jet

HALF = Fraction(1, 2)

_CAP = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    # verdict lines must survive capture; stash per-test capsys
    global _CAP
    _CAP = capsys
    yield
    _CAP = None


def _verdict(label, ok, elapsed, budget):
    line = "[%s] %s (%.2fs, budget %.0fs)" % (
        "PASS" if ok else "FAIL", label, elapsed, budget)
    if _CAP is not None:
        with _CAP.disabled():
            print(line)
    else:
        print(line)
    assert ok, line
    assert elapsed < budget, line


def test_01_rotational_and_runge_lenz_suites_exact_zero():
    t0 = time.monotonic()
    so3 = catalog.run_suite("so3")
    so4 = catalog.run_suite("so4")
    ok = (
        len(so3) == 22
        and len(so4) == 14
        and all(r.status == "pass" and r.symbolic_zero for r in so3 + so4)
    )
    _verdict("angular momentum and raising-vector algebras certify exact zeros",
             ok, time.monotonic() - t0, 10)


def test_02_inverse_problem_pins_coulomb_tail():
    t0 = time.monotonic()
    system = ansatz.build_inverse_constraints(window=tuple(range(-4, 3)))
    sol = system.solve()
    ok = (
        sol.dimension == 1
        and sol.basis_text == ("r^-1",)
        and sol.verified
        and not sol.hidden_pairs
        and not sol.conflicting_pairs
    )
    _verdict("closure constraint over r^-4..r^2 leaves exactly the 1/r potential",
             ok, time.monotonic() - t0, 60)


def test_03_spin_coupled_theorem_suite():
    t0 = time.monotonic()
    core = (
        "J_recast", "JJ_cov_xy", "JPi_cov_xy", "Jr_cov_xy", "JS_cov_xy",
        "RxR_master", "RR_closure", "V_from_constraint",
        "J_Ham", "R_Ham",
    )
    ok = True
    for mode in ("abstract", "half"):
        at1 = {r.check_id: r for r in catalog.run_suite("theorem", mode=mode, mu="1")}
        ok = ok and all(at1[c].status == "pass" for c in core)
    # at mu=0 the spin-rotation members drop out by declared policy; the
    # rest of the chain must still pass, and nothing may fail
    at0 = {r.check_id: r for r in catalog.run_suite("theorem", mu="0")}
    ok = ok and all(at0[c].status in ("pass", "skipped") for c in core)
    ok = ok and sum(at0[c].status == "pass" for c in core) >= len(core) - 1
    # symbolic status is recorded for every check, not silently clamped
    sym = catalog.run_suite("theorem", mu="symbolic")
    ok = ok and all(r.status in ("pass", "fail", "skipped") for r in sym)
    ok = ok and any(r.status == "fail" and r.ok for r in sym)
    # the transcription gap in the gradient-term prefactor is a recorded
    # finding: the printed form only survives with the coupling off, and
    # the engine-derived form passes everywhere
    (finding,) = catalog.findings()
    by_id = {r.check_id: r for r in catalog.run_suite("theorem")}
    ok = ok and finding.finding_id == "field_strength_prefactor"
    ok = ok and all(by_id[c].ok for c in finding.deviating_checks)
    ok = ok and all(by_id[c].status == "pass" for c in finding.engine_checks)
    ok = ok and all(r.ok for r in catalog.run_suite("theorem"))
    _verdict("coupled conservation chain holds at mu=1 (both spin handlings) "
             "and mu=0, with the prefactor discrepancy documented",
             ok, time.monotonic() - t0, 300)


def test_04_spin_potential_scan_pins_both_terms():
    t0 = time.monotonic()
    sol = ansatz.build_spin_constraints().solve()
    ok = (
        sol.dimension == 2
        and sol.basis_text == ("r^-1", "(r.S)*r^-2")
        and sol.verified
        and not sol.hidden_pairs
        and not sol.conflicting_pairs
    )
    _verdict("spin window scan leaves exactly span{1/r, (r.S)/r^2}",
             ok, time.monotonic() - t0, 60)


def test_05_numeric_oracle_separates_true_from_mutated():
    t0 = time.monotonic()
    states = oracle.default_states(5, seed=42)
    assert len(states) >= 5
    reports = oracle.run_battery(states=states, points_per_state=20, seed=42)
    ok = bool(reports) and all(r.max_rel_residual < 1e-8 for r in reports)
    for name in catalog.SUITE_NAMES:
        suite = catalog.get_suite(name)
        for mut in catalog.mutations_for(name):
            broken = catalog.apply_mutation(suite.spec(mut.check_id), mut)
            rep = oracle.residual(broken, states=states, points_per_state=20,
                                  seed=42)
            ok = ok and rep.max_rel_residual > 1e-3
    _verdict("oracle: every kept identity < 1e-8, every mutation > 1e-3",
             ok, time.monotonic() - t0, 60)


def test_06_plain_coulomb_spectrum():
    t0 = time.monotonic()
    res = spectrum.solve_lowest(
        spectrum.RadialSector(0, l=0),
        spectrum.CouplingParams(k1=-1.0),
        grid_n=4000, r_max=200.0, count=4)
    ok = all(
        abs(energy - (-0.5 / (idx + 1) ** 2)) < 1e-3
        for idx, energy in enumerate(res.energies)
    )
    _verdict("uncoupled radial solver reproduces -1/(2 n^2) for n=1..4",
             ok, time.monotonic() - t0, 30)


def test_07_coupled_spectrum_matches_admissible_levels():
    t0 = time.monotonic()
    ok = True
    for j in (HALF, Fraction(3, 2)):
        for k2 in (0.0, 0.2):
            sec = spectrum.RadialSector(1, j=j)
            params = spectrum.CouplingParams(k1=-1.0, k2=k2)
            res = spectrum.solve_lowest(sec, params, grid_n=4000, r_max=200.0,
                                        count=8)
            rows, matched = spectrum.match_spectrum(res, tol=1e-3)
            ok = ok and matched and bool(rows)
    # raw closed form at j=1/2, k2=0 starts -2, -2/9; only -2/9 is
    # admissible and the solver agrees
    params0 = spectrum.CouplingParams(k1=-1.0, k2=0.0)
    preds = spectrum.predicted_levels(spectrum.RadialSector(1, j=HALF), params0)
    raw = sorted({round(p.energy, 12) for p in preds})
    ok = ok and math.isclose(raw[0], -2.0) and math.isclose(raw[1], -2.0 / 9.0)
    low = spectrum.solve_lowest(spectrum.RadialSector(1, j=HALF), params0,
                                grid_n=4000, r_max=200.0, count=2)
    ok = ok and abs(low.energies[0] + 2.0 / 9.0) < 1e-3
    ok = ok and abs(low.energies[1] + 2.0 / 9.0) < 1e-3
    _verdict("coupled levels below cutoff all match admissible closed forms; "
             "the inadmissible -2 level is absent",
             ok, time.monotonic() - t0, 120)


def test_08_label_admissibility_reports():
    t0 = time.monotonic()
    ok = True
    count_adm = count_bad = 0
    for j in (HALF, Fraction(3, 2)):
        for k2 in (0.0, 0.2):
            params = spectrum.CouplingParams(k1=-1.0, k2=k2)
            for p in spectrum.predicted_levels(
                spectrum.RadialSector(1, j=j), params, max_n=4
            ):
                rep = p.report
                ok = ok and rep.verdict in (
                    "admissible", "invalid_label", "nonpositive_scale",
                    "casimir_mismatch", "free",
                )
                if p.admissible:
                    count_adm += 1
                    again = spectrum.solve_wk_pair(rep.w, rep.k, rep.s_r, params)
                    ok = ok and abs(again.energy - p.energy) < 1e-12
                else:
                    count_bad += 1
    ok = ok and count_adm > 0 and count_bad > 0
    _verdict("ladder labelings solved exactly (1e-12); inadmissible ones "
             "reported, never dropped",
             ok, time.monotonic() - t0, 60)


def test_09_property_battery():
    t0 = time.monotonic()
    ok = True

    # jets against central differences, 10 interior points, step 1e-4
    step = 1e-4

    def f(x, y, z):
        return math.exp(-0.6 * (x * x + y * y + z * z)) * (1 + 0.5 * x - y * z)

    def jet_at(x, y, z):
        jx, jy, jz = (Jet.variable(2, u, v) for u, v in enumerate((x, y, z)))
        gauss = (jx * jx + jy * jy + jz * jz).scale(-0.6).exp()
        poly = Jet.constant(2, 1.0) + jx.scale(0.5) - jy * jz
        return gauss * poly

    pts = [(0.1 * i + 0.2, 0.07 * i - 0.3, 0.05 * i + 0.1) for i in range(10)]
    for p in pts:
        jet = jet_at(*p)
        fd = (f(p[0] + step, p[1], p[2]) - f(p[0] - step, p[1], p[2])) / (2 * step)
        ok = ok and abs(jet.partial((1, 0, 0)) - fd) < 1e-6

    # eigenvalue error drops by >= 3x when the grid is refined 2x
    errs = []
    for n in (1000, 2000):
        res = spectrum.solve_lowest(spectrum.RadialSector(0, l=0),
                                    grid_n=n, r_max=200.0, count=1)
        errs.append(abs(res.energies[0] + 0.5))
    ok = ok and errs[0] / errs[1] >= 3.0

    # k2=0: the two coupling channels decouple and levels pair up
    params0 = spectrum.CouplingParams(k2=0.0)
    sec = spectrum.RadialSector(1, j=Fraction(3, 2))
    res = spectrum.solve_lowest(sec, params0, grid_n=2000, r_max=150.0, count=6)
    for a, b in zip(res.energies[0::2], res.energies[1::2]):
        ok = ok and abs(a - b) < 1e-9
    band = spectrum.coupled_levels(sec, params0, 2000, 150.0, 6)
    for got, want in zip(res.energies, band):
        ok = ok and abs(got - want) < 1e-8  # channel basis vs coupled band

    # coupling-strength covariance: k1 -> lam*k1 with the box shrunk by
    # lam scales every eigenvalue by lam^2 on the nose
    lam = 1.5
    base = spectrum.solve_lowest(spectrum.RadialSector(0, l=0),
                                 spectrum.CouplingParams(k1=-1.0),
                                 2000, 120.0, 3)
    moved = spectrum.solve_lowest(spectrum.RadialSector(0, l=0),
                                  spectrum.CouplingParams(k1=-lam),
                                  2000, 120.0 / lam, 3)
    for a, b in zip(base.energies, moved.energies):
        ok = ok and abs(b - lam * lam * a) / abs(a) < 1e-6

    _verdict("numeric property battery (jets vs FD 1e-6, grid convergence "
             ">=3x, decoupling 1e-8, scaling 1e-6)",
             ok, time.monotonic() - t0, 120)
