"""Plain-text rendering of integer polynomials, shared by ``QPoly.to_str``
and the command line; importing this module loads nothing else from comlie,
so a cached series prints without the math modules."""

from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; importing typing would cost start-up
    from typing import Iterable


def poly_text(coeffs: Iterable[int], var: str = "t") -> str:
    """The polynomial with dense coefficients ``coeffs`` (constant term
    first) as text, nonzero terms only, lowest degree first: "0" for the
    zero polynomial, else terms like ``3``, ``-t``, ``2*t^4`` joined by
    " + " or " - "."""
    parts = []
    for e, c in enumerate(coeffs):
        if not c:
            continue
        if e == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            sign = "-" if c < 0 else ""
            pow_ = var if e == 1 else f"{var}^{e}"
            term = f"{sign}{mag}{pow_}"
        parts.append(term)
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")
