"""The two-fold singularity: normal form, classification, folded points.

The normal form couples f+ = (-x2, a1, b1) for x1 > 0 with f- = (x3, b2, a2)
for x1 < 0 (a_i = +-1, b_i real), plus the hidden perturbation
g = (alpha, 0, 0). Regularizing the switching parameter turns the two-fold
into a folded singularity of a slow-fast system: an isolated point on the
non-hyperbolic curve of the sliding manifold where the projected slow flow
is 0/0. This module locates those points, computes the coefficients
(p, q, r) of the local canonical slow-fast form

    eps x1' = x2 + x1^2 + h.o.t.
    x2'     = p x3 + q x1 + h.o.t.
    x3'     = r + h.o.t.

in closed form, classifies them (folded saddle / node / focus, canard or
faux canard), and cross-checks the closed form against a numeric fit that
executes the defining coordinate transformations directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property

from . import expr as ex
from .exceptions import (DegenerateClassificationError, DegenerateSystemError,
                         EvaluationError, ValidationError)
from .pws import PiecewiseSystem
from .regularize import Sigmoid, _fold_point, _normal_form_f1_dlambda
from .roots import real_quadratic_roots

__all__ = [
    "TwoFoldParams", "Flavour", "TwoFoldClass", "FoldedClass", "Canard",
    "FoldedReport", "build_normal_form", "classify_twofold", "folded_points",
    "folded_point_residual", "folded_conditions_residuals",
    "canonical_coefficients", "classify_folded", "transformed_field",
    "canonical_fit", "fit_fast_equation_coefficients", "folded_reports",
]


@dataclass(frozen=True)
class TwoFoldParams:
    """Normal-form constants; a1, a2 are restricted to +-1, the rest finite.

    The normal form built from them is cached on the instance (_system), so
    its field compiles once however many fits evaluate it.
    """

    a1: int
    a2: int
    b1: float
    b2: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.a1 not in (-1, 1) or self.a2 not in (-1, 1):
            raise ValidationError("a1 and a2 must be +1 or -1")
        for name in ("b1", "b2", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")

    @cached_property
    def _system(self) -> PiecewiseSystem:
        return build_normal_form(self)


class Flavour(enum.Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"
    MIXED = "mixed"


@dataclass(frozen=True)
class TwoFoldClass:
    flavour: Flavour
    determinacy_breaking: bool


class FoldedClass(enum.Enum):
    FOLDED_SADDLE = "folded_saddle"
    FOLDED_NODE = "folded_node"
    FOLDED_FOCUS = "folded_focus"


class Canard(enum.Enum):
    CANARD = "canard"
    FAUX_CANARD = "faux_canard"


def build_normal_form(p: TwoFoldParams) -> PiecewiseSystem:
    """The two-fold normal form as a piecewise system with hidden term."""
    fplus = (ex.Neg(ex.Var("x2")), ex.Const(float(p.a1)), ex.Const(float(p.b1)))
    fminus = (ex.Var("x3"), ex.Const(float(p.b2)), ex.Const(float(p.a2)))
    hidden = (ex.Const(float(p.alpha)), ex.ZERO, ex.ZERO)
    return PiecewiseSystem(fplus, fminus, hidden)


def classify_twofold(p: TwoFoldParams) -> TwoFoldClass:
    """Flavour by fold visibility, determinacy breaking by the jump angle.

    Determinacy breaking marks the cases whose sliding flow carries
    trajectories through the singularity into the repelling region, where
    forward uniqueness fails.
    """
    b1, b2 = p.b1, p.b2
    if p.a1 == p.a2 == -1:
        flavour = Flavour.VISIBLE
        db = b1 < 0 or b2 < 0 or b1 * b2 < 1
    elif p.a1 == p.a2 == 1:
        flavour = Flavour.INVISIBLE
        db = b1 < 0 and b2 < 0 and b1 * b2 > 1
    else:
        flavour = Flavour.MIXED
        # the inequality is stated for (a1, a2) = (-1, 1); the side swap
        # (x1 -> -x1, x2 <-> x3) maps (1, -1, b1, b2) onto (-1, 1, b2, b1)
        if p.a1 == 1:
            b1, b2 = b2, b1
        db = (b1 < 0 < b2 and b1 * b2 < -1) or (b1 + b2 < 0 and b1 - b2 < -2)
    return TwoFoldClass(flavour, db)


# --- folded-point location ----------------------------------------------------


def _f23(p: TwoFoldParams, phi: float) -> tuple[float, float]:
    f2s = 0.5 * (p.a1 + p.b2) + 0.5 * (p.a1 - p.b2) * phi
    f3s = 0.5 * (p.b1 + p.a2) + 0.5 * (p.b1 - p.a2) * phi
    return f2s, f3s


def folded_point_residual(p: TwoFoldParams, phi: float) -> float:
    """Residual of the folded-point condition (f2, f3) . (-(1+phi)/2, (1-phi)/2)."""
    f2s, f3s = _f23(p, phi)
    return -f2s * 0.5 * (1.0 + phi) + f3s * 0.5 * (1.0 - phi)


def folded_points(p: TwoFoldParams) -> list[float]:
    """All sliding values phi_s in (-1, 1) carrying a folded singularity.

    The defining condition is quadratic in phi,

        [(b1-b2) + (a1-a2)] phi^2 + 2 (a1+a2) phi - [(b1-b2) - (a1-a2)] = 0,

    solved directly with cancellation-safe root extraction. The closed form
    that divides by b1 - b2 degenerates at b1 = b2; the quadratic does not.
    Counts: one root for a1 = a2, two roots for a1 = -a2 = 1 iff b1-b2 > 2
    (mirrored for a1 = -a2 = -1 iff b1-b2 < -2), none otherwise; the
    boundary |b1-b2| = 2 collapses the pair to a double root and is treated
    as excluded.
    """
    d = p.b1 - p.b2
    a = d + (p.a1 - p.a2)
    b = 2.0 * (p.a1 + p.a2)
    c = -(d - (p.a1 - p.a2))
    roots = real_quadratic_roots(a, b, c)
    if p.a1 * p.a2 < 0 and len(roots) < 2:
        return []
    return sorted(r + 0.0 for r in roots if abs(r) < 1.0)  # +0.0 drops -0.0


def folded_conditions_residuals(p: TwoFoldParams, s: Sigmoid,
                                phi_s: float) -> tuple[float, float, float]:
    """|f1|, |df1/du|, |(f2,f3) . df1/d(x2,x3)| at the folded point."""
    al = p.alpha
    x2s, x3s = _fold_point(al, phi_s)
    f1 = (0.5 * (1.0 + phi_s) * (-x2s) + 0.5 * (1.0 - phi_s) * x3s
          + al * (1.0 - phi_s ** 2))
    df1_du = (_normal_form_f1_dlambda(al, phi_s, x2s, x3s)
              * s.derivative(s.inverse(phi_s)))
    return abs(f1), abs(df1_du), abs(folded_point_residual(p, phi_s))


# --- canonical coefficients ----------------------------------------------------


def canonical_coefficients(p: TwoFoldParams, s: Sigmoid,
                           phi_s: float) -> tuple[float, float, float]:
    """Closed-form (p, q, r) of the canonical slow-fast form at phi_s.

    With P = phi_s, D = phi'(u_s), f2s/f3s the slow components at the
    singularity and f2', f3' their phi-derivatives:

        r = f3s
        q = -D [ (P+1) f2' + (P-1) f3' ] / (2 sqrt(|alpha| D))
        p = -(D/|alpha|) [ (f2' - f3' (1-P)/(1+P)) / 4 + f3s / (2 (1+P)^2) ]

    These are exactly the linear coefficients produced by the defining
    coordinate chain (translation to the singularity, rectification of the
    non-hyperbolic curve, scaling, time flip) with the fast equation
    normalized to unit x2 and x1^2 coefficients; canonical_fit recovers the
    same numbers by finite differences of that chain. Requires alpha != 0.
    """
    if p.alpha == 0.0:
        raise DegenerateSystemError(
            "canonical coefficients need a nonzero hidden term (alpha != 0)")
    if not -1.0 < phi_s < 1.0:
        raise ValidationError(f"phi_s must lie in (-1, 1), got {phi_s!r}")
    al = p.alpha
    P = phi_s
    u_s = s.inverse(P)
    D = s.derivative(u_s)
    sq = math.sqrt(abs(al) * D)
    f2s, f3s = _f23(p, P)
    f2p = 0.5 * (p.a1 - p.b2)
    f3p = 0.5 * (p.b1 - p.a2)
    q_t = -D * ((P + 1.0) * f2p + (P - 1.0) * f3p) / (2.0 * sq)
    slope = f2p - f3p * (1.0 - P) / (1.0 + P)
    p_t = -(D / abs(al)) * (0.25 * slope + f3s / (2.0 * (1.0 + P) ** 2))
    return p_t, q_t, f3s


def classify_folded(p_t: float, q_t: float, r_t: float) -> tuple[FoldedClass, Canard | None]:
    """Folded class from the projected slow flow's 2x2 linearization.

    The projection onto the parabolic slow manifold has determinant 2 r p and
    trace q (up to the singular time factor), so: saddle for r p < 0,
    node for 0 < 8 r p < q^2, focus for q^2 < 8 r p. Saddles and nodes carry
    a canard for q > 0 and a faux canard for q < 0; foci carry none.
    """
    for v in (p_t, q_t, r_t):
        if not math.isfinite(v):
            raise ValidationError("coefficients must be finite")
    rp = r_t * p_t
    disc = q_t * q_t - 8.0 * rp
    scale = max(abs(rp), q_t * q_t, 1e-300)
    if abs(rp) <= 1e-12 * scale or abs(disc) <= 1e-12 * scale:
        raise DegenerateClassificationError(
            f"on a classification boundary: r*p = {rp!r}, q^2 - 8 r p = {disc!r}")
    if rp < 0.0:
        cls = FoldedClass.FOLDED_SADDLE
    elif disc > 0.0:
        cls = FoldedClass.FOLDED_NODE
    else:
        cls = FoldedClass.FOLDED_FOCUS
    if cls is FoldedClass.FOLDED_FOCUS:
        return cls, None
    return cls, Canard.CANARD if q_t > 0.0 else Canard.FAUX_CANARD


# --- numeric canonical fit ------------------------------------------------------


def transformed_field(p: TwoFoldParams, s: Sigmoid, phi_s: float):
    """The field in canonical coordinates, as a callable (x1, x2, x3).

    Executes the defining maps point by point: translate the singularity to
    the origin, rectify the non-hyperbolic curve onto the third axis,
    rescale, and flip time by -sign(alpha). Returns (fast, dx2, dx3) where
    fast is the eps-weighted first equation normalized so its x2 and x1^2
    coefficients are exactly 1. Independent of canonical_coefficients: all
    values come from evaluating the normal-form field itself.
    """
    if p.alpha == 0.0:
        raise DegenerateSystemError("the transformation needs alpha != 0")
    al = p.alpha
    P = phi_s
    sgn = 1.0 if al > 0 else -1.0
    u_s = s.inverse(P)
    D = s.derivative(u_s)
    sq = math.sqrt(abs(al) * D)
    d1 = -0.5 * (1.0 + P)
    x2s, x3s = _fold_point(al, P)
    comb = p._system.combined

    def field(xt1: float, xt2: float, xt3: float):
        z1 = xt1 / sq
        z2 = xt2 / (-sgn * d1 * D)
        z3 = -sgn * xt3
        arg = (1.0 + P) ** 2 - z3 / al
        if arg <= 0.0:
            raise EvaluationError("point is outside the rectification chart")
        root = math.sqrt(arg)
        y1l = -(1.0 + P) + root
        y2l = -z3 - 4.0 * al * y1l
        y2lp = (1.0 - P - y1l) / (1.0 + P + y1l)
        phi = P + z1 + y1l
        if not -1.0 < phi < 1.0:
            raise EvaluationError("point leaves the transition layer")
        u = s.inverse(phi)
        x2 = x2s + z2 + y2l
        x3 = x3s + z3
        f1v, f2v, f3v = comb(0.0, x2, x3, phi)
        fast = -sgn * s.derivative(u) * f1v  # eps-weighted, normalized by 1/sq
        g2 = d1 * D * (f2v - f3v * y2lp)
        g3 = f3v
        return fast, g2, g3

    return field


def _richardson_d1(f, h: float) -> float:
    """First derivative at 0 from central differences at h and h/2."""
    d_h = (f(h) - f(-h)) / (2.0 * h)
    d_h2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _richardson_d2(f, h: float) -> float:
    """Second derivative at 0 from central second differences at h and h/2."""
    f0 = f(0.0)
    s_h = (f(h) - 2.0 * f0 + f(-h)) / (h * h)
    s_h2 = (f(0.5 * h) - 2.0 * f0 + f(-0.5 * h)) / (0.25 * h * h)
    return (4.0 * s_h2 - s_h) / 3.0


_FIT_STEP = 1e-4


def canonical_fit(p: TwoFoldParams, s: Sigmoid,
                  phi_s: float) -> tuple[float, float, float]:
    """(p, q, r) recovered numerically from the transformed field.

    r from the third equation's value at the origin, q and p from
    Richardson-extrapolated central differences of the second equation with
    respect to x1 and x3 (step 1e-4). Serves as the independent oracle for
    canonical_coefficients.
    """
    field = transformed_field(p, s, phi_s)
    r_f = field(0.0, 0.0, 0.0)[2]
    q_f = _richardson_d1(lambda h: field(h, 0.0, 0.0)[1], _FIT_STEP)
    p_f = _richardson_d1(lambda h: field(0.0, 0.0, h)[1], _FIT_STEP)
    return p_f, q_f, r_f


def fit_fast_equation_coefficients(p: TwoFoldParams, s: Sigmoid,
                                   phi_s: float) -> tuple[float, float]:
    """(coefficient of x2, coefficient of x1^2) in the fitted fast equation."""
    field = transformed_field(p, s, phi_s)
    c_x2 = _richardson_d1(lambda h: field(0.0, h, 0.0)[0], _FIT_STEP)
    c_x1sq = 0.5 * _richardson_d2(lambda h: field(h, 0.0, 0.0)[0], _FIT_STEP)
    return c_x2, c_x1sq


# --- reports ----------------------------------------------------------------------


@dataclass(frozen=True)
class FoldedReport:
    """One folded singularity with its canonical data and classification."""

    phi_s: float
    u_s: float
    x2s: float
    x3s: float
    p: float
    q: float
    r: float
    folded_class: FoldedClass
    canard: Canard | None
    flavour: Flavour
    determinacy_breaking: bool

    def to_json_dict(self) -> dict:
        """Every field by name, in declaration order, enums by value."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}


def folded_reports(p: TwoFoldParams, s: Sigmoid) -> list[FoldedReport]:
    """Locate, measure, and classify every folded point of the normal form."""
    tc = classify_twofold(p)
    out = []
    for phi_s in folded_points(p):
        p_t, q_t, r_t = canonical_coefficients(p, s, phi_s)
        cls, canard = classify_folded(p_t, q_t, r_t)
        x2s, x3s = _fold_point(p.alpha, phi_s)
        out.append(FoldedReport(
            phi_s=phi_s,
            u_s=s.inverse(phi_s),
            x2s=x2s,
            x3s=x3s,
            p=p_t, q=q_t, r=r_t,
            folded_class=cls, canard=canard,
            flavour=tc.flavour,
            determinacy_breaking=tc.determinacy_breaking,
        ))
    return out
