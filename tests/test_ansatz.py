"""Closure-constraint scans over Laurent ansatz windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so4atom import ansatz
from so4atom import operators as ops
from so4atom.errors import DomainError, UsageError
from so4atom.operators import OperatorExpr
from so4atom.scalars import ScalarCoeff, SymbolRegistry


def test_inverse_scan_pins_coulomb_tail():
    system = ansatz.build_inverse_constraints()
    sol = system.solve()
    assert sol.dimension == 1
    assert sol.basis_text == ("r^-1",)
    assert sol.verified
    assert not sol.hidden_pairs
    assert not sol.conflicting_pairs


def test_inverse_scan_rows_are_nontrivial():
    system = ansatz.build_inverse_constraints()
    sol = system.solve()
    # the residual really constrains something: many operator-word rows
    assert sum(len(c.raw_terms()) for c in system.residual.components) > 20
    unknowns = set(system.unknowns)
    for vector in sol.basis:
        assert set(vector) <= unknowns


def test_spin_scan_pins_both_potentials():
    system = ansatz.build_spin_constraints()
    sol = system.solve()
    assert sol.dimension == 2
    assert sol.basis_text == ("r^-1", "(r.S)*r^-2")
    assert sol.verified
    assert not sol.hidden_pairs
    assert not sol.conflicting_pairs


def test_windows_are_the_documented_defaults():
    assert ansatz.DEFAULT_INVERSE_WINDOW == tuple(range(-4, 3))
    assert ansatz.DEFAULT_SCALAR_WINDOW == tuple(range(-3, 2))
    assert ansatz.DEFAULT_SPIN_WINDOW == tuple(range(-4, 1))


def test_narrower_window_still_finds_the_tail():
    system = ansatz.build_inverse_constraints(window=(-2, -1, 0))
    sol = system.solve()
    assert sol.dimension == 1
    assert sol.basis_text == ("r^-1",)


def test_window_excluding_the_answer_finds_nothing():
    system = ansatz.build_inverse_constraints(window=(-4, -3, 1, 2))
    sol = system.solve()
    assert sol.dimension == 0
    assert sol.basis_text == ()


def test_widening_never_loses_solutions():
    dims = []
    for upper in (0, 1, 2):
        window = tuple(range(-4, upper + 1))
        dims.append(ansatz.build_inverse_constraints(window=window).solve().dimension)
    assert dims == sorted(dims)


def test_spin_window_without_dot_term():
    system = ansatz.build_spin_constraints(spin_window=(-4, -3))
    sol = system.solve()
    assert sol.basis_text == ("r^-1",)
    assert sol.dimension == 1


def test_empty_window_rejected():
    with pytest.raises(UsageError):
        ansatz.build_inverse_constraints(window=())
    with pytest.raises(UsageError):
        ansatz.build_spin_constraints(scalar_window=())


def test_term_naming():
    terms = ansatz.build_inverse_constraints().terms
    texts = [t.text for t in terms]
    assert "r^-1" in texts
    assert all(("r^" in t) for t in texts)


def test_solution_space_reverified_with_fresh_symbols():
    # the re-verification rebuilds the residual at the general solution and
    # re-runs the zero test from scratch; a failed replay would clear the flag
    sol = ansatz.build_spin_constraints().solve()
    assert sol.verified is True


def _toy_system(coefficient):
    """Residual r * coefficient(a_m1, a_0) over the two-term window -1..0."""
    terms = (ansatz.AnsatzTerm("a_m1", -1, False), ansatz.AnsatzTerm("a_0", 0, False))
    reg = SymbolRegistry(extra=("a_m1", "a_0"))
    rvec = ops.position_vec(reg)
    zero = ScalarCoeff.zero(reg)

    def residual(assignment):
        a, b = (assignment.get(nm, zero) for nm in ("a_m1", "a_0"))
        return rvec.scaled(coefficient(a, b))

    return ansatz.ConstraintSystem(terms, reg, residual)


def test_two_term_solution_is_found():
    # a = b solves the system although neither term solves it alone
    sol = _toy_system(lambda a, b: a - b).solve()
    assert sol.dimension == 1
    assert sol.basis_text == ("r^-1 + r^0",)
    assert [set(names) for names in sol.hidden_pairs] == [{"a_m1", "a_0"}]
    assert sol.conflicting_pairs == ()
    assert sol.verified


@pytest.mark.parametrize("coefficient", [
    lambda a, b: a * b,
    lambda a, b: a + ScalarCoeff.one(a.registry),
])
def test_row_not_linear_in_the_unknowns_raises(coefficient):
    system = _toy_system(coefficient)
    with pytest.raises(DomainError, match="not linear in the unknowns"):
        system.solve()


def test_solve_substitutes_nothing(monkeypatch):
    system = ansatz.build_spin_constraints()

    def refuse(*args):
        raise AssertionError("solve substituted into an operator")

    monkeypatch.setattr(OperatorExpr, "substitute", refuse)
    assert system.solve().basis_text == ("r^-1", "(r.S)*r^-2")


def test_wide_spin_window_keeps_the_span():
    system = ansatz.build_spin_constraints(scalar_window=tuple(range(-6, 4)),
                                           spin_window=tuple(range(-7, 3)))
    sol = system.solve()
    assert sol.basis_text == ("r^-1", "(r.S)*r^-2")
    assert sol.verified
    assert not sol.hidden_pairs


def test_wide_inverse_window_keeps_the_tail():
    sol = ansatz.build_inverse_constraints(window=tuple(range(-8, 6))).solve()
    assert sol.basis_text == ("r^-1",)
    assert sol.verified
    assert not sol.hidden_pairs


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(-4, 2), min_size=1))
def test_sub_windows_find_the_tail_exactly_when_it_is_there(window):
    sol = ansatz.build_inverse_constraints(window=tuple(window)).solve()
    assert sol.basis_text == (("r^-1",) if -1 in window else ())
    assert sol.verified
