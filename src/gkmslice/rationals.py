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


def rat_parts(a) -> tuple[int, int]:
    """(numerator, denominator) as plain ints, denominator positive."""
    return int(a.numerator), int(a.denominator)
