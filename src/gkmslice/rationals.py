"""Exact rational scalars.

All arithmetic in this package is over Q; nothing here ever touches a float.
gmpy2.mpq is used when importable (the optional `gmpy2` extra; C-backed,
faster in polynomial and series arithmetic); fractions.Fraction is a
drop-in fallback with identical semantics. Both keep values in lowest
terms with positive denominator, which the serialization layer relies
on. Row reduction itself runs on plain integers (see linalg).
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    HAVE_GMPY2 = False


def rat(num=0, den=1):
    """Exact rational from integers (or from a compatible rational)."""
    return _mpq(num, den)


ZERO = rat(0)
ONE = rat(1)


def rat_from_str(s: str):
    """Parse "p/q" or "p" into an exact rational.

    Raises ValueError on malformed input or zero denominator.
    """
    txt = s.strip()
    if "/" in txt:
        p, q = txt.split("/", 1)
        den = int(q)
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return rat(int(p), den)
    return rat(int(txt))


def rat_parts(a) -> tuple[int, int]:
    """(numerator, denominator) as plain ints, denominator positive."""
    return int(a.numerator), int(a.denominator)


def rat_str(a) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    num, den = rat_parts(a)
    return str(num) if den == 1 else f"{num}/{den}"


def is_rational(a) -> bool:
    return isinstance(a, (int, Fraction)) or type(a) is type(ZERO)
