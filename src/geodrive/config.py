"""Frequency-unit conventions.

All internal quantities are angular frequencies in rad/us and times in us.
Scenario files may declare their numbers in either convention; conversion
happens once, at load time.
"""

from __future__ import annotations

TWO_PI = 6.283185307179586476925287

#: Numbers are already angular frequencies (rad/us).  Default.
ANGULAR = "angular"
#: Numbers are cyclic frequencies (MHz = cycles/us); multiply by 2*pi.
CYCLIC = "cyclic"

CONVENTIONS = (ANGULAR, CYCLIC)


def to_angular(value: float, convention: str = ANGULAR) -> float:
    """Convert a frequency-like scenario number to rad/us."""
    if convention == ANGULAR:
        return float(value)
    if convention == CYCLIC:
        return float(value) * TWO_PI
    raise ValueError(f"unknown frequency convention {convention!r}")

