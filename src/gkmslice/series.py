"""Rational generating functions with exact normal forms.

A RationalSeries is numerator / product of denominator factors, all
MultiPoly over one ring. Normal form: every factor is scaled so its
lowest term (canonical order) has coefficient one, the numerator is
cancelled against factors by exact polynomial division, factors are
sorted, and constant factors are folded away. Equality is decided by
cross multiplication, so it never depends on factorization.

Truncated power series expansion divides out the denominator grade by
grade with respect to the capped variables; it requires a nonzero
constant term and denominator terms that all raise the capped grade.
"""

from __future__ import annotations

from typing import Sequence

from .rationals import ZERO, rat, rat_parts
from .rings import MultiPoly, Ring, monomial_key, poly_divide_exact, poly_to_json


def _poly_key(p: MultiPoly):
    return tuple((monomial_key(e), rat_parts(c)) for e, c in p.sorted_terms())


class RationalSeries:
    """num / prod(factor^mult), kept in normal form."""

    __slots__ = ("ring", "num", "factors")

    def __init__(self, num: MultiPoly, factors: Sequence[tuple[MultiPoly, int]] = ()):
        self.ring: Ring = num.ring
        scaled: dict = {}
        scale = rat(1)
        for f, mult in factors:
            if mult < 0:
                raise ValueError("negative factor multiplicity")
            if mult == 0:
                continue
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if f.ring != self.ring:
                raise ValueError("denominator factor in a different ring")
            low_exp = min(f.terms, key=monomial_key)
            c0 = f.terms[low_exp]
            f = f * (rat(1) / c0)
            scale = scale * c0**mult
            if len(f.terms) == 1 and sum(low_exp) == 0:
                continue  # constant factor folded into the scale
            key = _poly_key(f)
            if key in scaled:
                scaled[key] = (f, scaled[key][1] + mult)
            else:
                scaled[key] = (f, mult)
        num = num * (rat(1) / scale)
        # cancel numerator against factors while the division is exact
        if not num.is_zero():
            for key in sorted(scaled):
                f, mult = scaled[key]
                while mult > 0:
                    q = poly_divide_exact(num, f)
                    if q is None:
                        break
                    num = q
                    mult -= 1
                scaled[key] = (f, mult)
        self.num = num
        if num.is_zero():
            self.factors: tuple[tuple[MultiPoly, int], ...] = ()
        else:
            self.factors = tuple(
                scaled[key] for key in sorted(scaled) if scaled[key][1] > 0
            )

    # ---- constructors ----

    @staticmethod
    def zero(ring: Ring) -> "RationalSeries":
        return RationalSeries(MultiPoly.zero(ring), ())

    @staticmethod
    def one(ring: Ring) -> "RationalSeries":
        return RationalSeries(MultiPoly.one(ring), ())

    # ---- views ----

    def den(self) -> MultiPoly:
        d = MultiPoly.one(self.ring)
        for f, m in self.factors:
            d = d * f**m
        return d

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __str__(self):
        if not self.factors:
            return str(self.num)
        fs = " * ".join(
            f"({f})" if m == 1 else f"({f})^{m}" for f, m in self.factors
        )
        return f"({self.num}) / ({fs})"

    __repr__ = __str__

    # ---- arithmetic ----

    def _factor_map(self) -> dict:
        return {_poly_key(f): (f, m) for f, m in self.factors}

    def __add__(self, other):
        if not isinstance(other, RationalSeries):
            other = RationalSeries(MultiPoly.constant(self.ring, other))
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        fa, fb = self._factor_map(), other._factor_map()
        merged: dict = {}
        for key in set(fa) | set(fb):
            f = (fa.get(key) or fb.get(key))[0]
            merged[key] = (f, max(fa.get(key, (f, 0))[1], fb.get(key, (f, 0))[1]))
        num_a = self.num
        num_b = other.num
        for key, (f, m) in merged.items():
            da = m - fa.get(key, (f, 0))[1]
            db = m - fb.get(key, (f, 0))[1]
            if da:
                num_a = num_a * f**da
            if db:
                num_b = num_b * f**db
        return RationalSeries(num_a + num_b, tuple(merged.values()))

    __radd__ = __add__

    def __neg__(self):
        return RationalSeries(-self.num, self.factors)

    def __sub__(self, other):
        if not isinstance(other, RationalSeries):
            other = RationalSeries(MultiPoly.constant(self.ring, other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = RationalSeries(other)
        if not isinstance(other, RationalSeries):
            return RationalSeries(self.num * other, self.factors)
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        return RationalSeries(
            self.num * other.num, tuple(self.factors) + tuple(other.factors)
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power unsupported")
        out = RationalSeries.one(self.ring)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            if isinstance(other, MultiPoly):
                other = RationalSeries(other)
            else:
                other = RationalSeries(MultiPoly.constant(self.ring, other))
        if self.ring != other.ring:
            return False
        return self.num * other.den() == other.num * self.den()

    def __hash__(self):
        raise TypeError("RationalSeries is unhashable")

    # ---- expansion ----

    def expand(self, order: int, capped: Sequence[str]) -> MultiPoly:
        """Series expansion keeping terms of capped-variable grade <= order.

        The grade of a monomial is the sum of its exponents over `capped`.
        Every non-constant denominator term must have positive grade, and
        the constant term must be nonzero.
        """
        idx = [self.ring.index(v) for v in capped]
        if not idx:
            raise ValueError("need at least one capped variable")

        def grade(exp) -> int:
            return sum(exp[i] for i in idx)

        den = self.den()
        c0 = den.constant_coeff()
        if c0 == 0:
            raise ValueError("denominator has zero constant term; no expansion")
        den_parts: dict[int, list] = {}
        for exp, c in den.terms.items():
            w = grade(exp)
            if sum(exp) and w == 0:
                raise ValueError(
                    "denominator term outside the capped grading; expansion diverges"
                )
            if sum(exp):
                den_parts.setdefault(w, []).append((exp, c))
        layers: dict[int, dict] = {}
        for w in range(order + 1):
            acc: dict = {}
            for exp, c in self.num.terms.items():
                if grade(exp) == w:
                    acc[exp] = acc.get(exp, ZERO) + c
            for k, terms in den_parts.items():
                if k < 1 or k > w:
                    continue
                for dexp, dc in terms:
                    for sexp, sc in layers[w - k].items():
                        exp = tuple(a + b for a, b in zip(dexp, sexp))
                        s = acc.get(exp, ZERO) - dc * sc
                        if s == 0:
                            acc.pop(exp, None)
                        else:
                            acc[exp] = s
            layers[w] = {e: c / c0 for e, c in acc.items() if c != 0}
        merged: dict = {}
        for layer in layers.values():
            merged.update(layer)
        return MultiPoly(self.ring, merged)

    # ---- monomial substitution ----

    def map_monomials(self, matrix: Sequence[Sequence[int]], target: Ring) -> "RationalSeries":
        """Exponent-linear substitution, clearing negative exponents.

        Monomials map by exp -> matrix @ exp; any negative exponents this
        creates are cleared by multiplying numerator and denominator with
        a common monomial, so the result lives in the (non-Laurent)
        target ring with a possible monomial denominator factor.
        """
        scratch = Ring(target.names, (True,) * target.nvars)
        num = self.num.map_exponents(matrix, scratch)
        mapped = [(f.map_exponents(matrix, scratch), m) for f, m in self.factors]

        def min_exp(p: MultiPoly):
            return tuple(min(e[i] for e in p.terms) for i in range(p.ring.nvars))

        def shift(p: MultiPoly, delta) -> MultiPoly:
            return MultiPoly(
                p.ring,
                {tuple(a - b for a, b in zip(e, delta)): c for e, c in p.terms.items()},
                _clean=True,
            )

        total = [0] * target.nvars
        out_factors = []
        for f, m in mapped:
            mu = [min(x, 0) for x in min_exp(f)]
            if any(mu):
                f = shift(f, mu)
                total = [t + m * x for t, x in zip(total, mu)]
            out_factors.append((MultiPoly(target, f.terms), m))
        if not num.is_zero():
            nu = [min(x, 0) for x in min_exp(num)]
        else:
            nu = [0] * target.nvars
        if any(nu):
            num = shift(num, nu)
        # net monomial x^(nu - total): nonneg part multiplies the numerator,
        # negative part becomes a monomial denominator factor
        delta = [a - b for a, b in zip(nu, total)]
        up = tuple(max(d, 0) for d in delta)
        down = tuple(-min(d, 0) for d in delta)
        num = MultiPoly(target, num.terms)
        if any(up):
            num = num * MultiPoly.monomial(target, up)
        if any(down):
            out_factors.append((MultiPoly.monomial(target, down), 1))
        return RationalSeries(num, out_factors)


def equal_up_to_monomial(a: RationalSeries, b: RationalSeries, var: str) -> int | None:
    """Integer g with a * var**g == b, or None when no such g exists."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    c1 = a.num * b.den()
    c2 = b.num * a.den()
    if c1.is_zero() or c2.is_zero():
        return 0 if c1.is_zero() and c2.is_zero() else None
    i = a.ring.index(var)
    g = min(e[i] for e in c2.terms) - min(e[i] for e in c1.terms)
    shifted = {}
    for exp, c in c1.terms.items():
        shifted[exp[:i] + (exp[i] + g,) + exp[i + 1 :]] = c
    return g if shifted == c2.terms else None


def series_to_json(s: RationalSeries) -> dict:
    return {"num": poly_to_json(s.num), "den": poly_to_json(s.den())}

