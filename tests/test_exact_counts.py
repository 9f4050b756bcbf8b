"""The exact routines work once per distinct entry object and weight sums
by counts. On rational matrices with and without repeated entries, each
must give what the entry-by-entry formulas give: the same Fractions, the
same check texts and the same errors."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swissfrancs.candidates import _member
from swissfrancs.core import (Convention, FeasibilityError, ProbMatrix,
                              WeightTable, convert_convention, entry_counts,
                              exact_likelihood, line_sums, map_entries)
from swissfrancs.ranktwo import reciprocal_residual_exact
from swissfrancs.verify import CheckResult, matrix_checks

F = Fraction


# ---------------------------------------------------------------------------
# entry-by-entry references: the formulas as they read before grouping


def _reference_reciprocal(products, rho):
    n = len(products)
    rho = F(rho)
    recip = [[1 / (1 + F(p)) for p in row] for row in products]
    diag = [(rho - 1) * recip[i][i] - (n + rho - 1) for i in range(n)]
    return ([sum(row) + d for row, d in zip(recip, diag)]
            + [sum(col) + d for col, d in zip(zip(*recip), diag)])


def _reference_matrix_checks(matrix, rho):
    n = matrix.n
    D = [[F(x) - 1 for x in row] for row in matrix.entries]
    residual = max(_reference_reciprocal(D, rho), key=abs)
    symmetric = D == [list(col) for col in zip(*D)]
    stationary = CheckResult(
        "exact_stationarity", symmetric and residual == 0,
        "P - J is not symmetric" if not symmetric else
        "reciprocal residual identically zero in rational arithmetic"
        if residual == 0 else f"largest reciprocal residual {residual}")
    margins = CheckResult(
        "margins", not any(map(sum, D)) and not any(map(sum, zip(*D))),
        "row and column sums equal n exactly")
    p, q = next(((i, j) for i in range(n) for j in range(n) if D[i][j]), (0, 0))
    minor = next((m for i in range(n) for j in range(n)
                  if (m := D[i][j] * D[p][q] - D[i][q] * D[p][j])), 0)
    rank = CheckResult("rank", minor == 0,
                       "every 2 x 2 minor of P - J vanishes exactly" if minor == 0
                       else f"P - J has a nonzero 2 x 2 minor {minor}")
    return (stationary, margins, rank), residual


def _reference_likelihood(P, W):
    result = F(1)
    for i in range(P.n):
        for j in range(P.n):
            w = int(W.w[i][j])
            if w == 0:
                continue
            p = F(P.entries[i][j])
            if p <= 0:
                raise FeasibilityError("exact_likelihood requires positive entries")
            result *= p ** w
    return result


def _reference_validation(rows, convention):
    """The ValueError text ProbMatrix gives exact rows, or None."""
    for row in rows:
        for x in row:
            if x < 0:
                return f"negative entry {x}"
    total = sum(x for row in rows for x in row)
    target = 1 if convention is Convention.SUM_ONE else len(rows) ** 2
    return None if total == target else f"exact entries must sum to {target}, got {total}"


def _outcome(call):
    """call()'s value, or the type and text of the error it raised."""
    try:
        return call()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# matrices


def _values(low):
    return st.one_of(st.fractions(low, 3, max_denominator=12),
                     st.integers(int(low) if low == int(low) else 1, 3))


@st.composite
def rational_rows(draw, low=F(-2), rescale=None):
    """An n x n table of rationals of at least low. Shared tables take their
    rows from up to three row objects and their entries from up to four
    value objects, as the two-level candidates do; unshared ones hold a
    fresh object in every cell. Rescaled tables (always, or at random when
    rescale is None) sum to n^2, shared entries staying shared."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        pool = draw(st.lists(_values(low), min_size=1, max_size=4))
        shapes = [tuple(draw(st.sampled_from(pool)) for _ in range(n))
                  for _ in range(draw(st.integers(1, 3)))]
        rows = [draw(st.sampled_from(shapes)) for _ in range(n)]
    else:
        rows = [tuple(draw(st.lists(_values(low), min_size=n, max_size=n)))
                for _ in range(n)]
    if rescale if rescale is not None else draw(st.booleans()):
        total = sum(x for row in rows for x in row)
        assume(total > 0)
        rows = list(map_entries(lambda x: F(x) * n * n / total, rows))
    return rows


@st.composite
def member_rows(draw):
    """A two-level family member at a rational ratio, with its shared rows."""
    q = draw(st.integers(1, 4))
    p = draw(st.integers(q, 5))
    z = draw(st.integers(0, 3))
    s = draw(st.fractions(F(11, 10), 20, max_denominator=10))
    return list(_member(p, z, q, s, F(1))[1].entries), s


def _shares(rows) -> bool:
    return len(entry_counts(rows)) < sum(len(row) for row in rows)


# ---------------------------------------------------------------------------


class TestAgainstTheEntryByEntryFormulas:
    @settings(deadline=None, max_examples=50)
    @given(rational_rows(low=F(1, 10)), st.fractions(F(1, 2), 5, max_denominator=8))
    def test_matrix_checks_and_residual(self, rows, rho):
        matrix = ProbMatrix(n=len(rows), convention=Convention.SUM_NSQ, entries=tuple(rows)) \
            if _reference_validation(rows, Convention.SUM_NSQ) is None else None
        products = [[F(x) - 1 for x in row] for row in rows]
        shared_products = map_entries(lambda x: F(x) - 1, rows)
        assert reciprocal_residual_exact(shared_products, rho) \
            == reciprocal_residual_exact(products, rho) \
            == _reference_reciprocal(products, rho)
        if matrix is not None:
            assert matrix_checks(matrix, rho) == _reference_matrix_checks(matrix, rho)

    @settings(deadline=None, max_examples=40)
    @given(member_rows())
    def test_family_members_pass_as_the_reference_says(self, member):
        rows, s = member
        assert _shares(rows)
        matrix = ProbMatrix.of(rows, Convention.SUM_NSQ)
        checks, residual = matrix_checks(matrix, s)
        assert (checks, residual) == _reference_matrix_checks(matrix, s)
        assert residual == 0 and all(c.passed for c in checks)
        one = convert_convention(matrix, Convention.SUM_ONE)
        assert one.entries == tuple(tuple(F(x) / matrix.n ** 2 for x in row)
                                    for row in rows)
        assert len(entry_counts(one.entries)) == len(entry_counts(rows))

    @settings(deadline=None, max_examples=50)
    @given(rational_rows(), st.sampled_from(list(Convention)))
    def test_validation(self, rows, convention):
        expected = _reference_validation(rows, convention)
        got = _outcome(lambda: ProbMatrix.of(rows, convention))
        if expected is None:
            assert isinstance(got, ProbMatrix)
        else:
            assert got == (ValueError, expected)

    @settings(deadline=None, max_examples=50)
    @given(rational_rows(low=0, rescale=True), st.integers(0, 4), st.integers(0, 4),
           st.booleans())
    def test_exact_likelihood(self, rows, s, t, full):
        # zero entries under a positive weight raise FeasibilityError
        n = len(rows)
        P = ProbMatrix.of(rows, Convention.SUM_NSQ)
        if full:
            weights = WeightTable.full([[(i * n + j) % (s + 2) for j in range(n)]
                                        for i in range(n)])
        else:
            weights = WeightTable.symmetric(n, s + 1, t + 1)
        try:
            expected = _reference_likelihood(P, weights)
        except FeasibilityError:
            with pytest.raises(FeasibilityError):
                exact_likelihood(P, weights)
        else:
            assert exact_likelihood(P, weights) == expected

    @settings(deadline=None, max_examples=50)
    @given(rational_rows())
    def test_line_sums(self, rows):
        assert line_sums(rows) == ([sum(row) for row in rows],
                                   [sum(col) for col in zip(*rows)])


def test_repeated_rows_and_entries_are_counted_once():
    # the member (10, 3, 3) at n = 16, levels 3, 0 and -10, has three row
    # objects and four entries, 1 + u v alpha^2 for u v = 9, -30, 100 and 0
    rows = _member(10, 3, 3, F(2), F(1))[1].entries
    assert len({id(row) for row in rows}) == 3
    assert sorted(k for _, k in entry_counts(rows)) == [9, 60, 87, 100]
    calls = []
    mapped = map_entries(lambda x: calls.append(x) or x - 1, rows)
    assert len(calls) == 4 and len({id(row) for row in mapped}) == 3


def test_rank_reaches_a_minor_behind_a_repeated_entry():
    # D = [[1/4, 3/4], [w, w]] with w = -1/2 one object: row 1 repeats w,
    # but the pivot row does not repeat, so its second minor, w (1/4 - 3/4)
    # = 1/4, is new and the only one that is nonzero
    half = F(1, 2)
    matrix = ProbMatrix.of([[F(5, 4), F(7, 4)], [half, half]], Convention.SUM_NSQ)
    checks, _ = matrix_checks(matrix, 2)
    assert checks == _reference_matrix_checks(matrix, 2)[0]
    assert checks[2].detail == "P - J has a nonzero 2 x 2 minor 1/4"
