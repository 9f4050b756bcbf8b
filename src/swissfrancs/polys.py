"""Exact polynomial algebra for the factorization check, in the
standard library only.

Poly3 is a sparse exact trivariate polynomial over the rationals in the
variables (a1, a2, b2), with the handful of operations the factorization
check needs: arithmetic, swapping a2 with b2, content normalization, and
exact division by a single divisor, which in a monomial order is a
decisive divisibility test. greedy_multiset_match pairs two multisets of
numbers within MATCH_TOL.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

Exponent = Tuple[int, int, int]
Number = Union[int, float, Fraction]
MATCH_TOL = 1e-8
VARIABLE_NAMES = ("a1", "a2", "b2")


def _exact(value: Number) -> Union[int, Fraction]:
    """value as an exact coefficient: an int or a Fraction stays as it is,
    anything else (a float) becomes the Fraction of its exact value."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


class Poly3:
    """Sparse exact polynomial in (a1, a2, b2) with int or Fraction
    coefficients: ints stay ints, whose arithmetic is exact and much
    cheaper than Fraction's.

    Terms are stored as exponent triple -> coefficient with no zero
    coefficients; the canonical term order is graded lexicographic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponent, Number] | None = None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff != 0:
                    cleaned[tuple(exp)] = _exact(coeff)
        self.terms = cleaned

    @classmethod
    def const(cls, value: Number) -> "Poly3":
        return cls({(0, 0, 0): value})

    @classmethod
    def variable(cls, index: int) -> "Poly3":
        exp = [0, 0, 0]
        exp[index] = 1
        return cls({tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = Poly3.const(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return Poly3(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return Poly3({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = Poly3.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly3":
        return Poly3.const(other) - self

    def __mul__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = _exact(other)
            return Poly3({e: c * other for e, c in self.terms.items()})
        out: Dict[Exponent, Number] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[exp] = out.get(exp, 0) + c1 * c2
        return Poly3(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly3":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly3.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def swap_a2_b2(self) -> "Poly3":
        return Poly3({(e[0], e[2], e[1]): c for e, c in self.terms.items()})

    def evaluate(self, a1: Number, a2: Number, b2: Number):
        total = None
        for (i, j, k), coeff in self.terms.items():
            term = coeff * a1 ** i * a2 ** j * b2 ** k
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if not any(isinstance(v, float) for v in (a1, a2, b2)) else 0.0
        return total

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    @staticmethod
    def _order_key(exp: Exponent):
        return (sum(exp), exp)

    def leading(self) -> Tuple[Exponent, Fraction]:
        exp = max(self.terms, key=self._order_key)
        return exp, self.terms[exp]

    def divide(self, divisor: "Poly3") -> Tuple["Poly3", "Poly3"]:
        """Single-divisor division: self = quotient * divisor + remainder.

        With one divisor the remainder is zero if and only if the divisor
        divides self, in any monomial order.

        Each step takes the leading term of what is left and moves it to
        the quotient (a Fraction, so an int over an int stays exact) or to
        the remainder, then subtracts its multiple of the divisor's tail.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead_exp, lead_coeff = divisor.leading()
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead_exp]
        quotient: Dict[Exponent, Number] = {}
        remainder: Dict[Exponent, Number] = {}
        work = dict(self.terms)
        while work:
            exp = max(work, key=self._order_key)
            coeff = work.pop(exp)
            diff = (exp[0] - lead_exp[0], exp[1] - lead_exp[1], exp[2] - lead_exp[2])
            if min(diff) < 0:
                remainder[exp] = coeff
                continue
            factor = Fraction(coeff, lead_coeff)
            quotient[diff] = factor
            for e, c in tail:
                term = (diff[0] + e[0], diff[1] + e[1], diff[2] + e[2])
                value = work.get(term, 0) - factor * c
                if value == 0:
                    work.pop(term, None)
                else:
                    work[term] = value
        return Poly3(quotient), Poly3(remainder)

    def primitive(self) -> "Poly3":
        """Strip the monomial content and the rational content, and make
        the graded-lex leading coefficient positive."""
        if self.is_zero():
            return self
        mono = [min(e[i] for e in self.terms) for i in range(3)]
        shifted = {tuple(e - m for e, m in zip(exp, mono)): c
                   for exp, c in self.terms.items()}
        num_gcd = 0
        den_lcm = 1
        for c in shifted.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        out = Poly3({e: c / content for e, c in shifted.items()})
        if out.leading()[1] < 0:
            out = -out
        return out

    def to_string(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp, coeff in sorted(self.terms.items(), reverse=True,
                                 key=lambda kv: self._order_key(kv[0])):
            factors = []
            if coeff != 1 or not any(exp):
                factors.append(str(coeff))
            for name, e in zip(VARIABLE_NAMES, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly3({self.to_string()})"


A1 = Poly3.variable(0)
A2 = Poly3.variable(1)
B2 = Poly3.variable(2)


def greedy_multiset_match(computed: Iterable[complex],
                          reference: Iterable[float]) -> bool:
    """Greedy nearest pairing of two multisets, within MATCH_TOL and with
    equal cardinality."""
    pool = list(computed)
    targets = list(reference)
    if len(pool) != len(targets):
        return False
    for target in targets:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - target),
                   default=None)
        if best is None or abs(pool[best] - target) > MATCH_TOL:
            return False
        pool.pop(best)
    return True
