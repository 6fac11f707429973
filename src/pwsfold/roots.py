"""Small real root-finding utilities."""

from __future__ import annotations

import math

__all__ = ["real_quadratic_roots", "polish_bracketed_root", "bisect_root"]

_MAX_ITER = 200  # secant/bisection iterations of polish_bracketed_root


def real_quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a*x^2 + b*x + c = 0, ascending.

    Uses the sign(b)-conditioned form q = -(b + sign(b) sqrt(D))/2 with roots
    q/a and c/q, which avoids cancellation when b^2 >> 4ac. Degenerate cases:
    a == 0 falls back to the linear root, a double root is returned once.
    """
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    if disc == 0.0:
        return (-0.5 * b / a,)
    r = math.sqrt(disc)
    if b == 0.0:
        x = abs(r / (2.0 * a))
        return (-x, x)
    q = -0.5 * (b + math.copysign(r, b))
    r1, r2 = q / a, c / q
    return (r2, r1) if r2 < r1 else (r1, r2)


def polish_bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float,
                          *, residual_tol: float = 1e-12) -> float:
    """Refine a sign-change bracket with a secant/bisection hybrid.

    Stops when |f| <= residual_tol, the bracket width reaches machine
    resolution, or after 200 iterations. The bracket must satisfy
    f_lo * f_hi <= 0.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("bracket does not straddle a sign change")
    for _ in range(_MAX_ITER):
        if f_hi != f_lo:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        else:
            x = 0.5 * (lo + hi)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= residual_tol:
            return x
        if f_lo * fx < 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        if hi - lo <= math.ulp(max(abs(lo), abs(hi), 1.0)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def bisect_root(f, lo: float, hi: float, f_lo: float, *,
                residual_tol: float = 1e-12) -> float:
    """Halve a sign-change bracket (f_lo * f(hi) < 0) until |f| <=
    residual_tol or the bracket width reaches machine resolution.

    Slower than polish_bracketed_root, whose secant steps stall where f is
    flat, as beside an extremum of f between two close roots.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if abs(f_mid) <= residual_tol:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
