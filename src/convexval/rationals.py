"""Exact rational scalars.

All coordinates and valuation values in this package are `fractions.Fraction`
instances: arbitrary-precision, always reduced, denominator positive. This
module only adds the text round-trip used by the file formats ("p/q" or a bare
integer string).
"""

from fractions import Fraction


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" / "p" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            # its own message would be a repr, "Fraction(1, 0)"
            raise ZeroDivisionError("zero denominator") from None
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


def point_str(p) -> str:
    """Serialize a sequence of rationals as "(p/q,...)", e.g. "(2/3,2/3)"."""
    return "(" + ",".join(rat_str(c) for c in p) + ")"
