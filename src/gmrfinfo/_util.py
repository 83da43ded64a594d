"""Small shared helpers: bisection, golden-section search, and input checks that raise a
ValueError naming the keyword: ``check_finite`` (not NaN or inf), ``check_positive`` (finite
and > 0), ``check_at_least`` (finite and >= a minimum) and ``check_integer`` (an integer >= a
minimum, such as a lattice side, a grid or a trial count)."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def check_finite(**values: float) -> None:
    """Raise ValueError naming the first keyword value that is NaN or infinite (no int is)."""
    for name, value in values.items():
        if not (isinstance(value, int) or math.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first keyword value that is not finite and positive."""
    for name, value in values.items():
        check_finite(**{name: value})
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def check_at_least(minimum: float, **values: float) -> None:
    """Raise ValueError naming the first keyword value that is not finite and >= minimum."""
    for name, value in values.items():
        check_finite(**{name: value})
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def check_integer(minimum: int, **values: int) -> None:
    """Raise ValueError naming the first keyword value that is not an integer (numpy integers
    too) >= minimum."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def bisect(pred: Callable[[float], bool], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve ``[lo, hi]``, keeping ``pred`` true at ``lo`` and false at ``hi``, until
    ``hi - lo <= tol`` or the midpoint rounds to an end; returns the final ``(lo, hi)``."""
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo, hi


def golden_section_max(f: Callable[[float], float], xs: np.ndarray, fs: np.ndarray,
                       abs_tol: float = 0.0, rel_tol: float = 0.0) -> tuple[float, float]:
    """Refine the best grid point of ``fs = f(xs)`` (xs ascending) by golden-section search.

    The bracket spans the neighbors of the first grid maximum and shrinks
    while ``hi - lo > abs_tol + rel_tol * hi``.  Returns ``(x, f(x))`` for its
    midpoint, or the best grid point and its value where that value is higher.
    """
    best = int(np.argmax(fs))
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, len(xs) - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > abs_tol + rel_tol * hi:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    fx = f(x)
    if fx >= fs[best]:
        return float(x), float(fx)
    return float(xs[best]), float(fs[best])

