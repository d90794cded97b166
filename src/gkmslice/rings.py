"""Sparse exact multivariate polynomials, optionally Laurent per variable.

A polynomial is a map from exponent tuples to nonzero rationals. Exponents
are aligned with the ring's variable tuple; a variable marked Laurent may
carry negative exponents. The canonical monomial order is graded
lexicographic: key = (sum of exponents, exponent tuple). All coefficient
arithmetic is exact (see rationals).

Variables are mapped by one routine, MultiPoly.substitute, which replaces
each variable by a polynomial image in a target ring (a monomial map or
setting a variable to a constant is a special case). A source term with
a negative exponent is rejected, as a negative power is.

Graded slices are enumerated by slice_monomials: polynomial variables are
bounded through their grading weights, Laurent variables through explicit
support windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .rationals import ONE, ZERO, rat, rat_parts

Exp = tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    """Variable tuple plus per-variable Laurent flags."""

    names: tuple[str, ...]
    laurent: tuple[bool, ...]

    def __post_init__(self):
        if len(self.names) != len(self.laurent):
            raise ValueError("names/laurent length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.names}") from None

    def zero_exp(self) -> Exp:
        return (0,) * len(self.names)

    def unit_exp(self, i: int, e: int = 1) -> Exp:
        exp = [0] * len(self.names)
        exp[i] = e
        return tuple(exp)


def ring(names: Sequence[str], laurent: Iterable[str] = ()) -> Ring:
    """Build a Ring; `laurent` lists the names allowed negative exponents."""
    names = tuple(names)
    lset = set(laurent)
    unknown = lset - set(names)
    if unknown:
        raise ValueError(f"laurent flags for unknown variables {sorted(unknown)}")
    return Ring(names, tuple(n in lset for n in names))


def monomial_key(exp: Exp) -> tuple[int, Exp]:
    """Canonical graded-lex sort key."""
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse polynomial over an explicit Ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[Exp, object] | None = None, *, _clean=False):
        self.ring = ring
        if _clean:
            self.terms = terms if terms is not None else {}
            return
        clean: dict[Exp, object] = {}
        n = ring.nvars
        for exp, c in (terms or {}).items():
            c = rat(c)
            if c == 0:
                continue
            exp = tuple(exp)
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has wrong arity for {ring.names}")
            for i, e in enumerate(exp):
                if e < 0 and not ring.laurent[i]:
                    raise ValueError(
                        f"negative exponent for non-Laurent variable {ring.names[i]}"
                    )
            clean[exp] = clean.get(exp, ZERO) + c
            if clean[exp] == 0:
                del clean[exp]
        self.terms = clean

    # ---- constructors ----

    @staticmethod
    def zero(ring: Ring) -> "MultiPoly":
        return MultiPoly(ring, {}, _clean=True)

    @staticmethod
    def constant(ring: Ring, c) -> "MultiPoly":
        c = rat(c)
        if c == 0:
            return MultiPoly.zero(ring)
        return MultiPoly(ring, {ring.zero_exp(): c}, _clean=True)

    @staticmethod
    def one(ring: Ring) -> "MultiPoly":
        return MultiPoly.constant(ring, 1)

    @staticmethod
    def monomial(ring: Ring, exp: Exp, c=1) -> "MultiPoly":
        return MultiPoly(ring, {tuple(exp): rat(c)})

    @staticmethod
    def gen(ring: Ring, name: str) -> "MultiPoly":
        return MultiPoly(ring, {ring.unit_exp(ring.index(name)): ONE}, _clean=True)

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coeff(self):
        return self.terms.get(self.ring.zero_exp(), ZERO)

    def sorted_terms(self) -> list[tuple[Exp, object]]:
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    def lead(self) -> tuple[Exp, object]:
        """Largest term in the canonical order; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        exp = max(self.terms, key=monomial_key)
        return exp, self.terms[exp]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Exp, object]]:
        return iter(self.terms.items())

    # ---- arithmetic ----

    def _require_same_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.names} vs {other.ring.names}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.constant(self.ring, other)
        self._require_same_ring(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, ZERO) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly(self.ring, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.constant(self.ring, other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = rat(other)
            if c == 0:
                return MultiPoly.zero(self.ring)
            return MultiPoly(
                self.ring, {e: k * c for e, k in self.terms.items()}, _clean=True
            )
        self._require_same_ring(other)
        out: dict[Exp, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, ZERO) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiPoly(self.ring, out, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power: invert monomials explicitly")
        result = MultiPoly.one(self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if self.is_zero():
            return rat(other) == 0
        ce = self.ring.zero_exp()
        return set(self.terms) == {ce} and self.terms[ce] == rat(other)

    def __hash__(self):
        return hash((self.ring, frozenset((e, rat_parts(c)) for e, c in self.terms.items())))

    # ---- substitution ----

    def substitute(self, images: Mapping[str, "MultiPoly"], target: Ring) -> "MultiPoly":
        """Replace variables by polynomial images.

        Variables missing from `images` must exist (same name) in the target
        ring. A negative exponent raises ValueError, as `**` does.
        """
        img: list[MultiPoly] = []
        for name in self.ring.names:
            if name in images:
                p = images[name]
                if p.ring != target:
                    raise ValueError(f"image of {name} lives in the wrong ring")
                img.append(p)
            else:
                img.append(MultiPoly.gen(target, name))
        result = MultiPoly.zero(target)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(target, c)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                term = term * img[i] ** e
            result = result + term
        return result

    def derivative(self, name: str) -> "MultiPoly":
        i = self.ring.index(name)
        out: dict[Exp, object] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = exp[:i] + (e - 1,) + exp[i + 1 :]
            s = out.get(new, ZERO) + c * e
            if s == 0:
                out.pop(new, None)
            else:
                out[new] = s
        return MultiPoly(self.ring, out, _clean=True)

    # ---- display ----

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exp):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            num, den = rat_parts(c)
            if not mono:
                body = str(num) if den == 1 else f"{num}/{den}"
            else:
                if (num, den) == (1, 1):
                    body = mono
                elif (num, den) == (-1, 1):
                    body = f"-{mono}"
                else:
                    coeff = str(num) if den == 1 else f"{num}/{den}"
                    body = f"{coeff}*{mono}"
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def poly_divide_exact(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Quotient a/b when the division is exact, else None.

    Greedy leading-term division in the canonical order; restricted to
    rings without Laurent variables so the order is well founded.
    """
    if any(a.ring.laurent):
        raise ValueError("exact division needs a polynomial (non-Laurent) ring")
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return a
    a._require_same_ring(b)
    blead_exp, blead_c = b.lead()
    rem = dict(a.terms)
    quot: dict[Exp, object] = {}
    while rem:
        lead_exp = max(rem, key=monomial_key)
        diff = tuple(x - y for x, y in zip(lead_exp, blead_exp))
        if any(d < 0 for d in diff):
            return None
        c = rem[lead_exp] / blead_c
        quot[diff] = quot.get(diff, ZERO) + c
        for bexp, bc in b.terms.items():
            exp = tuple(d + e for d, e in zip(diff, bexp))
            s = rem.get(exp, ZERO) - c * bc
            if s == 0:
                rem.pop(exp, None)
            else:
                rem[exp] = s
    return MultiPoly(a.ring, quot, _clean=True)


# ---- gradings and slice enumeration ----


@dataclass(frozen=True)
class Grading:
    """Per-variable integer weight pairs; degree of x^e is sum(e_i * w_i)."""

    weights: tuple[tuple[int, int], ...]


def grading_for(rg: Ring, table: Mapping[str, tuple[int, int]]) -> Grading:
    """Grading from a name -> weight map; unnamed variables get weight (0,0)."""
    return Grading(tuple(tuple(table.get(n, (0, 0))) for n in rg.names))


Window = Mapping[str, tuple[int, int]]


def slice_monomials(
    rg: Ring,
    grading: Grading,
    deg: tuple[int, int],
    window: Window | None = None,
) -> list[Exp]:
    """Monomial basis of one graded slice, sorted canonically.

    Polynomial variables are bounded by the grading (their weights must be
    nonnegative and not both zero unless windowed); Laurent variables must
    be windowed. Windowed variables carrying nonzero weight must have a
    nonnegative lower bound, so remaining degree never goes negative.
    """
    window = dict(window or {})
    n = rg.nvars
    wts = grading.weights
    for i, name in enumerate(rg.names):
        wa, wb = wts[i]
        if wa < 0 or wb < 0:
            raise ValueError(f"negative grading weight on {name}")
        if name in window:
            lo, hi = window[name]
            if lo > hi:
                raise ValueError(f"empty window on {name}")
            if lo < 0 and not rg.laurent[i]:
                raise ValueError(f"negative window on non-Laurent {name}")
            if lo < 0 and (wa or wb):
                raise ValueError(f"graded Laurent window on {name} unsupported")
        else:
            if rg.laurent[i]:
                raise ValueError(f"Laurent variable {name} needs a window")
            if wa == 0 and wb == 0:
                raise ValueError(f"variable {name} is unbounded (no weight, no window)")

    out: list[Exp] = []
    exp = [0] * n

    def rec(i: int, ra: int, rb: int):
        if ra < 0 or rb < 0:
            return
        if i == n:
            if ra == 0 and rb == 0:
                out.append(tuple(exp))
            return
        wa, wb = wts[i]
        name = rg.names[i]
        if name in window:
            lo, hi = window[name]
        else:
            lo = 0
            caps = []
            if wa > 0:
                caps.append(ra // wa)
            if wb > 0:
                caps.append(rb // wb)
            hi = min(caps)
        for e in range(lo, hi + 1):
            exp[i] = e
            rec(i + 1, ra - wa * e, rb - wb * e)
        exp[i] = 0

    rec(0, deg[0], deg[1])
    out.sort(key=monomial_key)
    return out


# ---- JSON ----


def poly_to_json(p: MultiPoly) -> dict:
    terms = [
        {"exp": list(exp), "num": rat_parts(c)[0], "den": rat_parts(c)[1]}
        for exp, c in p.sorted_terms()
    ]
    return {"vars": list(p.ring.names), "terms": terms}


def poly_from_json(obj: object, rg: Ring) -> MultiPoly:
    """Inverse of poly_to_json; ValueError names what does not fit its layout."""
    if not isinstance(obj, Mapping) or not isinstance(obj.get("terms"), list):
        raise ValueError("polynomial JSON must be an object with a 'terms' list")
    if obj.get("vars") != list(rg.names):
        raise ValueError(f"variable mismatch: {obj.get('vars')} vs {rg.names}")
    terms: dict[Exp, object] = {}
    for t in obj["terms"]:
        if not (
            isinstance(t, Mapping)
            and isinstance(t.get("exp"), list)
            and all(isinstance(x, int) for x in (*t["exp"], t.get("num"), t.get("den")))
        ):
            raise ValueError(f"polynomial JSON term {t} needs integer 'exp', 'num' and 'den'")
        exp, den = tuple(t["exp"]), t["den"]
        if den == 0:
            raise ValueError("zero denominator in polynomial JSON")
        c = rat(t["num"], den)
        if exp in terms:
            raise ValueError(f"duplicate exponent {exp} in polynomial JSON")
        terms[exp] = c
    return MultiPoly(rg, terms)
