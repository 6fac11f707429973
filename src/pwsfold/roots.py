"""Small real root-finding utilities: the quadratic closed form, and one
bracketed solver for every sign change (Illinois false position)."""

from __future__ import annotations

import math

from .exceptions import ValidationError

__all__ = ["real_quadratic_roots", "polish_bracketed_root"]

_MAX_ITER = 200  # Illinois iterations of polish_bracketed_root


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
    """Refine a sign-change bracket with Illinois false-position steps.

    Each step takes the secant point of the bracket's ends, or the midpoint
    where that point is not strictly inside. Plain false position keeps one
    end fixed wherever f is flat beside it, as next to an extremum, and its
    steps then stall; so when the same end survives two steps in a row its
    stored value is halved (Dowell & Jarratt, BIT 11, 1971), which gives
    superlinear convergence with both ends moving. Sides are decided by
    comparing signs: a halved subnormal reaches 0.0, and a product of two
    tiny values underflows. Stops when |f| <= residual_tol, the bracket
    width reaches machine resolution, or after 200 iterations, at the
    bracket's midpoint. f_lo and f_hi must not share a sign.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise ValidationError("bracket does not straddle a sign change")
    lo_negative = f_lo < 0.0
    kept = 0  # the end the last step kept: -1 lo, 1 hi
    for _ in range(_MAX_ITER):
        # the ends' stored values never share a sign, so never cancel
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= residual_tol:
            return x
        if (fx < 0.0) == lo_negative:
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        if hi - lo <= math.ulp(max(abs(lo), abs(hi), 1.0)):
            break
    return 0.5 * (lo + hi)
