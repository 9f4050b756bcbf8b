"""Polynomial support: sparse exact trivariate arithmetic, division,
content normalization, multiset matching."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from swissfrancs.polys import A1, A2, B2, Poly3, greedy_multiset_match
from swissfrancs.verify import (_f1_parts, cross_equation_poly, f3_eval,
                                lemma_a2_factorization, reference_f3_poly)

F = Fraction
SA1, SA2, SB2 = sp.symbols("a1 a2 b2")


def to_sympy(poly: Poly3):
    expr = sp.Integer(0)
    for (i, j, k), coeff in poly.terms.items():
        expr += sp.Rational(coeff.numerator, coeff.denominator) \
            * SA1 ** i * SA2 ** j * SB2 ** k
    return sp.expand(expr)


def random_poly3(rng, terms=6, max_exp=3) -> Poly3:
    data = {}
    for _ in range(terms):
        exp = tuple(int(x) for x in rng.integers(0, max_exp + 1, size=3))
        data[exp] = F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Poly3(data)


class TestPoly3Arithmetic:
    def test_matches_sympy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_poly3(rng)
            q = random_poly3(rng)
            assert to_sympy(p * q) == sp.expand(to_sympy(p) * to_sympy(q))
            assert to_sympy(p + q) == sp.expand(to_sympy(p) + to_sympy(q))
            assert to_sympy(p - q) == sp.expand(to_sympy(p) - to_sympy(q))

    def test_power(self):
        p = 1 + A1 + B2
        assert to_sympy(p ** 3) == sp.expand((1 + SA1 + SB2) ** 3)

    def test_eval_exact(self):
        p = 2 * A1 ** 2 * B2 - A2 + 3
        assert p.evaluate(F(1, 2), F(1, 3), F(2)) == \
            2 * F(1, 4) * 2 - F(1, 3) + 3

    def test_swap(self):
        p = A1 * A2 ** 2 - B2
        swapped = p.swap_a2_b2()
        assert swapped == A1 * B2 ** 2 - A2

    def test_zero_terms_dropped(self):
        p = A1 - A1
        assert p.is_zero()
        assert p.num_terms() == 0


class TestPoly3Division:
    def test_exact_multiple(self):
        rng = np.random.default_rng(8)
        divisor = A2 - B2
        for _ in range(20):
            cofactor = random_poly3(rng)
            if cofactor.is_zero():
                continue
            product = cofactor * divisor
            q, r = product.divide(divisor)
            assert r.is_zero()
            assert q == cofactor

    def test_non_multiple_leaves_remainder(self):
        q, r = (A1 * A2 + 1).divide(A2 - B2)
        assert not r.is_zero()
        # division identity holds regardless
        assert q * (A2 - B2) + r == A1 * A2 + 1

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            (A1 + 1).divide(Poly3())

    def test_division_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            f = random_poly3(rng, terms=8)
            g = random_poly3(rng, terms=3)
            if g.is_zero():
                continue
            q, r = f.divide(g)
            assert q * g + r == f


class FractionPoly:
    """Reference arithmetic in which every coefficient is a Fraction, as
    Poly3's was: terms exponent -> Fraction, no zeros, and division by
    repeated subtraction of the leading term's multiple."""

    def __init__(self, terms):
        self.terms = {tuple(e): F(c) for e, c in terms.items() if F(c) != 0}

    @staticmethod
    def lift(value):
        return value if isinstance(value, FractionPoly) else FractionPoly({(0, 0, 0): value})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self.lift(other).terms.items():
            out[e] = out.get(e, F(0)) + c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.lift(other))

    def __rsub__(self, other):
        return self.lift(other) - self

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self.lift(other).terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, F(0)) + c1 * c2
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = FractionPoly({(0, 0, 0): 1})
        for _ in range(k):
            out = out * self
        return out

    def leading(self):
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def divide(self, divisor):
        lead_exp, lead_coeff = divisor.leading()
        quotient, remainder, work = {}, {}, self
        while work.terms:
            exp, coeff = work.leading()
            diff = tuple(e - l for e, l in zip(exp, lead_exp))
            if min(diff) >= 0:
                quotient[diff] = coeff / lead_coeff
                work = work - FractionPoly({diff: coeff / lead_coeff}) * divisor
            else:
                remainder[exp] = coeff
                work = work - FractionPoly({exp: coeff})
        return FractionPoly(quotient), FractionPoly(remainder)


def _fraction_poly(poly: Poly3) -> FractionPoly:
    return FractionPoly(poly.terms)


def _exact_coefficients(poly: Poly3) -> bool:
    return all(type(c) in (int, F) for c in poly.terms.values())


R1, R2, S2 = (FractionPoly({e: 1}) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


class TestIntCoefficients:
    def test_the_lemma_polynomials_match_the_fraction_reference(self):
        # Poly3 keeps int coefficients where they stay ints, and never a
        # float; its values equal those of all-Fraction arithmetic
        E1, Q1 = _f1_parts(R1 * R1, R1 * R2)
        E2, Q2 = _f1_parts(R2 * S2, R1 * S2)
        raw = E1 * (S2 * S2) * Q2 - E2 * (R1 * R1) * Q1
        f2 = cross_equation_poly()
        assert f2 == Poly3(raw.terms).primitive() and _exact_coefficients(f2)
        f3 = reference_f3_poly()
        assert f3.terms == f3_eval(R1, R2, S2).terms and _exact_coefficients(f3)
        assert any(type(c) is int for c in f3.terms.values())
        report = lemma_a2_factorization()
        difference = _fraction_poly(f2) - _fraction_poly(f2.swap_a2_b2())
        assert report.difference.terms == difference.terms
        quotient, remainder = difference.divide(R2 - S2)
        assert report.quotient.terms == quotient.terms
        assert report.remainder.terms == remainder.terms == {}
        cofactor, rest = quotient.divide(f3_eval(R1, R2, S2))
        assert report.cofactor.terms == cofactor.terms == {(0, 0, 0): 2}
        assert rest.terms == {}
        for poly in (report.difference, report.quotient, report.cofactor):
            assert _exact_coefficients(poly)

    def test_division_matches_the_fraction_reference(self):
        # int over int would be a float: the quotient holds Fractions
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = Poly3({e: int(c.numerator) for e, c in random_poly3(rng, terms=8).terms.items()})
            g = Poly3({e: int(c.numerator) for e, c in random_poly3(rng, terms=3).terms.items()})
            if g.is_zero():
                continue
            q, r = f.divide(g)
            ref_q, ref_r = _fraction_poly(f).divide(_fraction_poly(g))
            assert q.terms == ref_q.terms and r.terms == ref_r.terms
            assert _exact_coefficients(q) and _exact_coefficients(r)
        q, r = (A1 + 1).divide(2 * A1)
        assert q.terms == {(0, 0, 0): F(1, 2)} and type(q.terms[(0, 0, 0)]) is F
        assert r.terms == {(0, 0, 0): 1}

    def test_float_coefficients_become_exact(self):
        p = Poly3({(1, 0, 0): 0.5}) * 0.25 + 1.5
        assert p.terms == {(1, 0, 0): F(1, 8), (0, 0, 0): F(3, 2)}
        assert _exact_coefficients(p)


class TestPrimitive:
    def test_strips_monomial_and_rational_content(self):
        p = Poly3({(3, 1, 2): F(-4, 3), (2, 1, 1): F(-2, 3)})
        prim = p.primitive()
        assert prim == Poly3({(1, 0, 1): F(2), (0, 0, 0): F(1)})

    def test_leading_coefficient_positive(self):
        p = Poly3({(2, 0, 0): F(-5), (0, 0, 0): F(10)})
        prim = p.primitive()
        assert prim.leading()[1] > 0


class TestGreedyMatch:
    def test_matches_with_multiplicity(self):
        assert greedy_multiset_match([1.0, 1.0 + 1e-10, 2.0], [1.0, 1.0, 2.0])

    def test_rejects_size_mismatch(self):
        assert not greedy_multiset_match([1.0, 2.0], [1.0, 1.0, 2.0])

    def test_rejects_distance(self):
        assert not greedy_multiset_match([1.0, 5.0], [1.0, 1.0])
