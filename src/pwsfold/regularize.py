"""Regularization of the switching surface into a slow-fast layer.

Replacing lambda by a monotone sigmoid phi(x1/eps) turns the piecewise-smooth
system into a smooth one with a fast layer of width eps. The epsilon-free
critical objects all live at the lambda level: the sliding (critical)
manifold is the root set of the layer field f1(0, x2, x3; lambda), its
stability is the sign of d f1 / d lambda, and u-level quantities are obtained
through the sigmoid's inverse and derivative only where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import expr as ex
from .exceptions import NonHyperbolicPointError, ValidationError
from .pws import (CriticalPoint, MAX_SAMPLES, PiecewiseSystem, Stability,
                  _HYPERBOLICITY_TOL, _check_lambda, combination)

if TYPE_CHECKING:  # pragma: no cover
    from .twofold import TwoFoldParams

__all__ = [
    "Sigmoid", "builtin_sigmoid", "SIGMOID_NAMES", "Stability", "CriticalPoint",
    "regularized_field", "compile_regularized_field", "layer_field",
    "critical_manifold", "nonhyperbolic_curve", "slow_u_dot", "dummy_field",
    "degeneracy_probe", "critical_manifold_csv", "nonhyperbolic_curve_csv",
]


@dataclass(frozen=True)
class Sigmoid:
    """A monotone transition profile phi with |phi| -> 1 as |u| grows.

    value/derivative/second_derivative are functions of the fast variable u;
    inverse maps lambda in (-1, 1) back to u. The cubic profile reaches +-1
    at |u| = 1; tanh and algebraic approach +-1 only in the limit. inline
    states value again as source on purpose: regularized_field, the
    reference that tests compare compile_regularized_field against, then
    shares no formula for phi with it.
    """

    name: str
    value: Callable[[float], float]
    derivative: Callable[[float], float]
    second_derivative: Callable[[float], float]
    inverse: Callable[[float], float]
    inline: str  # python source template with {u} placeholder; may call _tanh, _sqrt


def _cubic_value(u: float) -> float:
    if u <= -1.0:
        return -1.0
    if u >= 1.0:
        return 1.0
    return 0.5 * (3.0 * u - u ** 3)


def _cubic_derivative(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    return 1.5 * (1.0 - u * u)


def _cubic_second(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    return -3.0 * u


def _cubic_inverse(lam: float) -> float:
    if not -1.0 <= lam <= 1.0:
        raise ValidationError(f"no preimage for lambda = {lam!r}")
    return 2.0 * math.sin(math.asin(lam) / 3.0)


def _tanh_inverse(lam: float) -> float:
    if not -1.0 < lam < 1.0:
        raise ValidationError(f"no preimage for lambda = {lam!r}")
    return math.atanh(lam)


def _algebraic_inverse(lam: float) -> float:
    if not -1.0 < lam < 1.0:
        raise ValidationError(f"no preimage for lambda = {lam!r}")
    return lam / math.sqrt(1.0 - lam * lam)


_TANH = Sigmoid(
    name="tanh",
    value=math.tanh,
    derivative=lambda u: 1.0 - math.tanh(u) ** 2,
    second_derivative=lambda u: -2.0 * math.tanh(u) * (1.0 - math.tanh(u) ** 2),
    inverse=_tanh_inverse,
    inline="_tanh({u})",
)

_ALGEBRAIC = Sigmoid(
    name="algebraic",
    value=lambda u: u / math.sqrt(1.0 + u * u),
    derivative=lambda u: (1.0 + u * u) ** -1.5,
    second_derivative=lambda u: -3.0 * u * (1.0 + u * u) ** -2.5,
    inverse=_algebraic_inverse,
    inline="(({u}) / _sqrt(1.0 + ({u}) * ({u})))",
)

_CUBIC = Sigmoid(
    name="cubic",
    value=_cubic_value,
    derivative=_cubic_derivative,
    second_derivative=_cubic_second,
    inverse=_cubic_inverse,
    inline="(-1.0 if ({u}) <= -1.0 else (1.0 if ({u}) >= 1.0 else "
           "0.5 * (3.0 * ({u}) - ({u}) ** 3)))",
)

_BUILTINS = {s.name: s for s in (_TANH, _ALGEBRAIC, _CUBIC)}
SIGMOID_NAMES = tuple(_BUILTINS)


def builtin_sigmoid(name: str) -> Sigmoid:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValidationError(f"unknown sigmoid {name!r}; choose from {SIGMOID_NAMES}") from None


# --- fields ------------------------------------------------------------------


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < math.inf and 1.0 / eps < math.inf):
        raise ValidationError(f"eps must be positive and finite, with 1/eps finite; got {eps!r}")


def regularized_field(sys: PiecewiseSystem, s: Sigmoid, eps: float, x):
    """The smooth field with lambda replaced by phi(x1/eps).

    eps must be positive and finite, and so must 1/eps.
    """
    _check_eps(eps)
    lam = s.value(x[0] / eps)
    lam = min(1.0, max(-1.0, lam))
    return sys.combined(x[0], x[1], x[2], lam)


def compile_regularized_field(sys: PiecewiseSystem, s: Sigmoid, eps: float):
    """Fast (t, x) -> (f1, f2, f3) callable with the sigmoid inlined.

    eps must be positive and finite, and so must 1/eps, which is written
    into the generated source.
    """
    _check_eps(eps)
    return ex._generate(sys.combined_expressions,
                        (("_u", f"x1 * {1.0 / eps!r}"), ("lam", s.inline.format(u="_u"))))


def layer_field(sys: PiecewiseSystem, lam: float, x2: float, x3: float) -> float:
    """Fast critical subsystem: f1 on the surface, lambda as the layer variable."""
    _check_lambda(lam)
    return sys.f1(0.0, x2, x3, lam)


def dummy_field(sys: PiecewiseSystem, x, lam: float):
    """(lambda', dx2/dt, dx3/dt): layer dynamics of lambda on the fast time,
    slow drift of (x2, x3) on the original time.

    This is the lambda-weighted field itself, so it is combination(sys, x,
    lam), with the same ValidationError off [-1, 1] and EvaluationError where
    the field does not evaluate.
    """
    return combination(sys, x, lam)


# --- critical objects ---------------------------------------------------------


def critical_manifold(sys: PiecewiseSystem, x2_values: Sequence[float],
                      x3_values: Sequence[float]) -> list[CriticalPoint]:
    """Sample the sliding manifold over a rectangular (x2, x3) grid.

    x2 runs in the outer loop and x3 in the inner one; at each grid point
    the roots lambda follow in ascending order. The system's one root
    finder, PiecewiseSystem._critical_row (as in sliding_lambdas), sweeps
    each x2's row of x3 values in one call. A root is non-hyperbolic where
    |df1/dlambda| < 1e-9, else attracting where df1/dlambda < 0 and
    repelling where it is positive (or NaN).
    """
    row = sys._critical_row
    points: list[CriticalPoint] = []
    for x2 in x2_values:
        points += row(x2, x3_values)
    return points


def _fold_point(alpha: float, lam: float) -> tuple[float, float]:
    """(x2, x3) where the normal form's df1/dlambda vanishes at lambda."""
    return alpha * (lam - 1.0) ** 2, -alpha * (lam + 1.0) ** 2


def _normal_form_f1_dlambda(alpha: float, lam: float, x2: float, x3: float) -> float:
    """df1/dlambda of the two-fold normal form with hidden strength alpha."""
    return -(x2 + x3) / 2.0 - 2.0 * alpha * lam


def nonhyperbolic_curve(params: "TwoFoldParams", n: int) -> list[tuple[float, float, float]]:
    """Sample the curve where normal hyperbolicity fails, for the two-fold
    normal form with hidden strength alpha: (lambda, alpha (lambda-1)^2,
    -alpha (lambda+1)^2) for lambda in [-1, 1]. n must lie in
    [2, pws.MAX_SAMPLES] (ValidationError otherwise, before any sample)."""
    if n < 2:
        raise ValidationError("need at least 2 samples")
    if n > MAX_SAMPLES:
        raise ValidationError(f"need at most {MAX_SAMPLES} samples")
    out = []
    for i in range(n):
        lam = -1.0 + 2.0 * i / (n - 1)
        x2, x3 = _fold_point(params.alpha, lam)
        # + 0.0 normalizes the -0.0 arising at the endpoints
        out.append((lam, x2 + 0.0, x3 + 0.0))
    return out


def slow_u_dot(sys: PiecewiseSystem, s: Sigmoid, point: CriticalPoint) -> float:
    """Rate of travel of the layer variable u along the sliding flow.

    By the chain rule through lambda = phi(u), u' = lambda' / phi'(psi(lambda)),
    where lambda' is the reduced flow on the critical manifold that sliding
    legs integrate (PiecewiseSystem._sliding_field). Where
    |df1/du| = |phi' df1/dlambda| is at most 1e-9 this is 0/0, the
    folded-singularity signature, and NonHyperbolicPointError is raised.
    """
    lam, x2, x3 = point.lam, point.x2, point.x3
    phi_du = s.derivative(s.inverse(lam))
    df1_du = phi_du * sys.f1_dlambda(0.0, x2, x3, lam)
    if abs(df1_du) <= _HYPERBOLICITY_TOL:
        raise NonHyperbolicPointError(
            f"df1/du = {df1_du:.3e} at lambda = {lam!r}; slow flow is "
            "indeterminate here (potential folded singularity)")
    return sys._sliding_field(0.0, (lam, x2, x3))[0] / phi_du


# --- degeneracy of the unperturbed two-fold -----------------------------------


def degeneracy_probe(params: "TwoFoldParams", s: Sigmoid,
                     point: tuple[float, float, float], r: int) -> float:
    """r-th partial of the normal form's layer field with respect to u.

    For the two-fold normal form, f1(0, x2, x3; phi) is quadratic in phi with
    d f1/d phi = -(x2+x3)/2 - 2 alpha phi and d^2 f1/d phi^2 = -2 alpha, so
    orders 1 and 2 follow exactly from the chain rule through the sigmoid.
    Orders 3 and 4 use central differences of the exact order-2 values
    (step 1e-4). The point must lie on the non-hyperbolic curve.
    """
    if r not in (1, 2, 3, 4):
        raise ValidationError("order must be between 1 and 4")
    lam, x2, x3 = point
    al = params.alpha
    u0 = s.inverse(lam)

    def d1_exact(u: float) -> float:
        f1_phi = _normal_form_f1_dlambda(al, s.value(u), x2, x3)
        return f1_phi * s.derivative(u)

    def d2_exact(u: float) -> float:
        f1_phi = _normal_form_f1_dlambda(al, s.value(u), x2, x3)
        return -2.0 * al * s.derivative(u) ** 2 + f1_phi * s.second_derivative(u)

    if r == 1:
        return d1_exact(u0)
    if r == 2:
        return d2_exact(u0)
    h = 1e-4
    if r == 3:
        return (d2_exact(u0 + h) - d2_exact(u0 - h)) / (2.0 * h)
    return (d2_exact(u0 + h) - 2.0 * d2_exact(u0) + d2_exact(u0 - h)) / (h * h)


# --- CSV emission -------------------------------------------------------------


# the CSV number format: enough digits to read the float back exactly
_NUM = ".17g"


def critical_manifold_csv(points: Iterable[CriticalPoint]) -> str:
    """CSV rows lambda,x2,x3,stability under that header, each number in
    the .17g format.

    Grid coordinates repeat on every row and column, so each distinct x2
    and x3 is formatted once per call. A zero is formatted on every row:
    0.0 and -0.0 are one dict key, but print as 0 and -0.
    """
    text: dict[float, str] = {}
    lines = ["lambda,x2,x3,stability"]
    for lam, x2, x3, stability in points:
        s2 = text.get(x2)
        if s2 is None or not x2:
            s2 = text[x2] = f"{x2:{_NUM}}"
        s3 = text.get(x3)
        if s3 is None or not x3:
            s3 = text[x3] = f"{x3:{_NUM}}"
        # _value_ is a plain attribute; .value and hashing a member run Python code
        lines.append(f"{lam:{_NUM}},{s2},{s3},{stability._value_}")
    return "\n".join(lines) + "\n"


def nonhyperbolic_curve_csv(samples: Iterable[tuple[float, float, float]]) -> str:
    """The (lambda, x2, x3) samples as critical_manifold_csv rows of
    stability non_hyperbolic."""
    return critical_manifold_csv(CriticalPoint(lam, x2, x3, Stability.NON_HYPERBOLIC)
                                 for lam, x2, x3 in samples)
