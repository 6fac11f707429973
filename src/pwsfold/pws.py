"""Piecewise-smooth systems with a switching surface at x1 = 0.

A system is the triple (f+, f-, g) of expression vector fields. Off the
surface the dynamics is f(x; +1) or f(x; -1); on the surface the switching
parameter lambda ranges over [-1, 1] through the convex combination

    f(x; lambda) = (1+lambda)/2 f+(x) + (1-lambda)/2 f-(x) + (1-lambda^2) g(x; lambda)

whose hidden term g vanishes at lambda = +-1 and therefore never acts away
from the surface. Sliding motion pins x1 = 0 and follows (f2, f3) with
lambda carried along the critical manifold f1(0, x2, x3; lambda) = 0.

integrate_pws alternates free and sliding legs, which only integrate to
their event or to t_end. What follows each surface event (a start on the
surface, an arrival on it, a sliding exit) is decided in one function,
_next_region, which also counts the event and appends its one record.
"""

from __future__ import annotations

import bisect
import copy
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

from . import expr as ex, roots
from .exceptions import (EvaluationError, EventLimitError, IntegrationError,
                         SlidingResidualError, StepUnderflowError, ValidationError)
from ._rk import Dopri3, hermite, hermite_coefficients
from .roots import polish_bracketed_root, real_quadratic_roots

__all__ = [
    "PiecewiseSystem", "SurfaceMode", "Trajectory", "IntegratorOptions",
    "PwsOptions", "combination", "classify_surface_point", "sliding_lambdas",
    "sliding_field", "integrate_pws",
]

SURFACE_TOL = 1e-10
RESIDUAL_TOL = 1e-9
MAX_SAMPLES = 10**7  # bound on t_end / dense_output_stride, the dense samples of a run
# re-advances of one crossing step before _locate_crossing gives up
_LOCATE_BUDGET = 60
# nodes of the sliding-root scan, 64 subintervals of [-1, 1], for f1 beyond
# quadratic in lambda
_SCAN_NODES = tuple(-1.0 + 2.0 * i / 64 for i in range(65))
# |df1/dlambda| below which a root of f1 is a non-hyperbolic layer equilibrium
_HYPERBOLICITY_TOL = 1e-9
# PiecewiseSystem._critical_row where f1 is at most quadratic in lambda, an
# ex._generate template: {0}, {1} and {2} are f1 at x1 = 0 and lambda = 0, 1
# and -1, {3} is df1/dlambda at x1 = 0. At each x3 the roots of
# a lambda^2 + b lambda + c with a = (f1(1) + f1(-1))/2 - f1(0),
# b = (f1(1) - f1(-1))/2 and c = f1(0) come from roots.real_quadratic_roots,
# looked up on the module per point (a tracer may replace it); those within
# 1e-12 of [-1, 1] are clamped to it, staying ascending, and each is
# classified by df1/dlambda there as _scan_row classifies it.
_QUADRATIC_ROW = """\
def _f(_roots, _new, _point, _tol, _labels, x2, x3_values, {prelude}):
    _non_hyperbolic, _attracting, _repelling = _labels
    _out = []
    for x3 in x3_values:
        _v0 = {0}
        _vp = {1}
        _vm = {2}
        for _r in _roots.real_quadratic_roots(0.5 * (_vp + _vm) - _v0, 0.5 * (_vp - _vm), _v0):
            if -1.0 - 1e-12 <= _r <= 1.0 + 1e-12:
                lam = 1.0 if _r > 1.0 else -1.0 if _r < -1.0 else _r
                _d = {3}
                _out.append(_new(_point, (lam, x2, x3, _non_hyperbolic if abs(_d) < _tol
                                          else _attracting if _d < 0.0 else _repelling)))
    return _out
"""

_LAM = ex.Var("lambda")
_HALF_PLUS = ex.BinOp("*", ex.BinOp("+", ex.ONE, _LAM), ex.Const(0.5))
_HALF_MINUS = ex.BinOp("*", ex.BinOp("-", ex.ONE, _LAM), ex.Const(0.5))
_ONE_MINUS_SQ = ex.BinOp("-", ex.ONE, ex.Pow(_LAM, 2))


class SurfaceMode(enum.Enum):
    CROSSING = "crossing"
    ATTRACTING_SLIDING = "attracting_sliding"
    REPELLING_SLIDING = "repelling_sliding"
    TANGENCY = "tangency"


class Stability(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    NON_HYPERBOLIC = "non_hyperbolic"


class CriticalPoint(NamedTuple):
    """A layer equilibrium (lambda, x2, x3) with its normal stability."""

    lam: float
    x2: float
    x3: float
    stability: Stability


@dataclass(frozen=True)
class PiecewiseSystem:
    """Immutable triple of 3-component expression fields (f+, f-, g).

    Every compiled quantity of the critical manifold
    S = {f1(0, x2, x3; lambda) = 0} comes from combined_expressions: f1,
    its lambda-partial f1_dlambda (zero on S's fold curve), its gradient
    f1_gradient, the root finder _critical_row, which sweeps a row of x3
    values at one x2 and classifies each root by df1/dlambda, and the
    reduced flow _sliding_field built from these. Each compiles once, on
    first use.
    """

    fplus: tuple[ex.Expression, ex.Expression, ex.Expression]
    fminus: tuple[ex.Expression, ex.Expression, ex.Expression]
    hidden: tuple[ex.Expression, ex.Expression, ex.Expression]

    @classmethod
    def from_strings(cls, fplus, fminus, hidden=None) -> "PiecewiseSystem":
        def triple(traw):
            if len(traw) != 3:
                raise ValidationError(f"expected 3 components, got {len(traw)}")
            return tuple(ex.parse_expression(s) for s in traw)

        if hidden is None:
            hid = (ex.ZERO, ex.ZERO, ex.ZERO)
        else:
            hid = triple(hidden)
        return cls(triple(fplus), triple(fminus), hid)

    @cached_property
    def combined_expressions(self) -> tuple[ex.Expression, ...]:
        """f_i(x; lambda) as expression trees, i = 1..3."""
        out = []
        for fp, fm, g in zip(self.fplus, self.fminus, self.hidden):
            node = ex.BinOp("+", ex.BinOp("+", ex.BinOp("*", _HALF_PLUS, fp),
                                          ex.BinOp("*", _HALF_MINUS, fm)),
                            ex.BinOp("*", _ONE_MINUS_SQ, g))
            out.append(node)
        return tuple(out)

    @cached_property
    def combined(self):
        """Compiled (x1, x2, x3, lam) -> (f1, f2, f3)."""
        return ex.compile_field(self.combined_expressions)

    @cached_property
    def f1(self):
        """Compiled combined f1 alone: (x1, x2, x3, lam) -> float.

        Generated from the same expression as combined's first component,
        so its values are bit-equal to combined(...)[0], without evaluating
        f2 and f3.
        """
        return ex.compile_expression(self.combined_expressions[0])

    @cached_property
    def f1_dlambda(self):
        """Compiled partial of the combined f1 with respect to lambda."""
        return ex.compile_expression(
            ex.differentiate(self.combined_expressions[0], "lambda"))

    @cached_property
    def f1_gradient(self):
        """Compiled partials of the combined f1 with respect to x1, x2, x3.

        At lambda = +-1 the other branch and the hidden term enter
        multiplied by an exact 0, so the values there are those of the
        side's own gradient of f1+- (provided the far one evaluates).
        """
        f1 = self.combined_expressions[0]
        return tuple(ex.compile_expression(ex.differentiate(f1, v))
                     for v in ("x1", "x2", "x3"))

    @cached_property
    def _sliding_field(self):
        """(t, (lam, x2, x3)) -> (lam', x2', x3') on f1(0, x2, x3, lam) = 0.

        lam' = -(df1/dx2 f2 + df1/dx3 f3) / (df1/dlambda) keeps f1 constant
        along the flow; it is unbounded at a fold, where df1/dlambda = 0.
        """
        combined, f1_dlam = self.combined, self.f1_dlambda
        _, d2, d3 = self.f1_gradient

        def fld(t, s):
            lam, x2, x3 = s
            _, f2, f3 = combined(0.0, x2, x3, lam)
            d = f1_dlam(0.0, x2, x3, lam)
            drift = d2(0.0, x2, x3, lam) * f2 + d3(0.0, x2, x3, lam) * f3
            return (-drift / d if d else math.inf, f2, f3)

        return fld

    @cached_property
    def lambda_degree(self) -> int | None:
        return ex.polynomial_degree(self.combined_expressions[0], "lambda")

    @cached_property
    def _critical_row(self):
        """(x2, x3_values) -> the CriticalPoints of f1(0, x2, x3; lambda) = 0
        for each x3 in turn, their lambda ascending in [-1, 1]; the one root
        finder of the system, chosen once from lambda_degree.

        Where lambda_degree is None or above 2 this is _scan_row. Otherwise
        it is a function generated on first use from _QUADRATIC_ROW.
        """
        if self.lambda_degree is None or self.lambda_degree > 2:
            return partial(_scan_row, self)
        f1 = self.combined_expressions[0]
        kernel = ex._generate(((f1, {"x1": 0.0, "lambda": 0.0}),
                               (f1, {"x1": 0.0, "lambda": 1.0}),
                               (f1, {"x1": 0.0, "lambda": -1.0}),
                               (ex.differentiate(f1, "lambda"), {"x1": 0.0})),
                              template=_QUADRATIC_ROW)
        return partial(kernel, roots, tuple.__new__, CriticalPoint, _HYPERBOLICITY_TOL,
                       (Stability.NON_HYPERBOLIC, Stability.ATTRACTING, Stability.REPELLING))

    @cached_property
    def _branch_fields(self):
        """(t, x) integrator fields of f+ and f-, lambda bound to +-1."""
        return (ex.compile_field(self.fplus, (("lam", "1.0"),)),
                ex.compile_field(self.fminus, (("lam", "-1.0"),)))

    def branch_field(self, side: int):
        """Time-independent integrator field for the open region sign(x1)=side."""
        return self._branch_fields[0 if side > 0 else 1]

    def surface_curvature(self, x, side: int) -> float:
        """d/dt of f1(x(t); side) along the side's own flow (fold visibility).

        This is grad f1+- . f+- for side = +-1: f1_gradient at lambda = side
        dotted with branch_field(side). The far branch's partials are
        evaluated too (times 0), so this raises where one of them is singular.
        """
        lam = 1.0 if side > 0 else -1.0
        f = self.branch_field(side)(0.0, x)
        x1, x2, x3 = x
        d1, d2, d3 = self.f1_gradient
        # left to right from +0.0 on every Python (sum() compensates since
        # 3.12); -0.0 products still give +0.0
        return (0.0 + d1(x1, x2, x3, lam) * f[0] + d2(x1, x2, x3, lam) * f[1]
                + d3(x1, x2, x3, lam) * f[2])


def _check_lambda(lam: float) -> None:
    if not -1.0 - 1e-12 <= lam <= 1.0 + 1e-12:
        raise ValidationError(f"lambda must lie in [-1, 1], got {lam!r}")


def combination(sys: PiecewiseSystem, x, lam: float):
    """The lambda-weighted field at x; equals f+- exactly at lambda = +-1."""
    _check_lambda(lam)
    combined = sys.combined  # compiled outside the try: a too-deep field is bad input
    try:
        return combined(x[0], x[1], x[2], lam)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise EvaluationError(str(exc)) from exc


def classify_surface_point(sys: PiecewiseSystem, x) -> SurfaceMode:
    """Classify a surface point by the normal components of the two fields.

    A normal component within RESIDUAL_TOL of zero is a tangency.
    """
    if abs(x[0]) > RESIDUAL_TOL:
        raise ValidationError(f"point is not on the surface: x1 = {x[0]!r}")
    vplus = sys.f1(0.0, x[1], x[2], 1.0)
    vminus = sys.f1(0.0, x[1], x[2], -1.0)
    if abs(vplus) <= RESIDUAL_TOL or abs(vminus) <= RESIDUAL_TOL:
        return SurfaceMode.TANGENCY
    if vplus < 0.0 < vminus:
        return SurfaceMode.ATTRACTING_SLIDING
    if vminus < 0.0 < vplus:
        return SurfaceMode.REPELLING_SLIDING
    return SurfaceMode.CROSSING


def sliding_lambdas(sys: PiecewiseSystem, x2: float, x3: float) -> list[float]:
    """All roots lambda in [-1, 1] of f1(0, x2, x3; lambda) = 0, ascending.

    They are the lambdas of the one-point row (x2, (x3,)) of the system's
    one root finder, PiecewiseSystem._critical_row: the generated quadratic
    closed form where f1 is at most quadratic in lambda, else _scan_row. The
    sliding legs find their roots here; critical_manifold calls the same
    finder once per x2.
    """
    lambdas = []
    for point in sys._critical_row(x2, (x3,)):
        lambdas.append(point[0])
    return lambdas


def _scan_row(sys: PiecewiseSystem, x2: float, x3_values) -> list[CriticalPoint]:
    """PiecewiseSystem._critical_row beyond quadratic in lambda: at each x3
    in turn, the roots of f1 found by a scan, each classified by
    d = df1/dlambda there: non-hyperbolic where |d| < _HYPERBOLICITY_TOL,
    else attracting where d < 0 and repelling where d > 0 or d is NaN.

    f1 and df1/dlambda are evaluated at the 65 _SCAN_NODES. A subinterval
    where df1/dlambda changes sign is split at the extremum of f1 there,
    found by polish_bracketed_root on df1/dlambda, so that each piece is
    monotone if the subinterval holds at most one extremum. The roots are
    the nodes and extrema where f1 is 0, and one polish_bracketed_root of
    f1 to residual 1e-12 in each piece whose end values have opposite
    signs. Roots within 1e-9 are merged.
    """
    f1_dlam, f1 = sys.f1_dlambda, sys.f1  # compile errors propagate
    nodes = _SCAN_NODES
    points = []
    for x3 in x3_values:
        def g(lam: float) -> float:
            return f1(0.0, x2, x3, lam)

        def dg(lam: float) -> float:
            # no sign information where the partial cannot be evaluated
            try:
                return f1_dlam(0.0, x2, x3, lam)
            except (ArithmeticError, ValueError):
                return math.nan

        vals = [g(u) for u in nodes]
        slopes = [dg(u) for u in nodes]
        roots = [u for u, v in zip(nodes, vals) if v == 0.0]
        for lo, hi, flo, fhi, a, b in zip(nodes, nodes[1:], vals, vals[1:],
                                          slopes, slopes[1:]):
            if a < 0.0 < b or b < 0.0 < a:  # a NaN slope never splits
                mid = polish_bracketed_root(dg, lo, hi, a, b, residual_tol=0.0)
                fmid = g(mid)
                if fmid == 0.0:
                    roots.append(mid)
                if flo < 0.0 < fmid or fmid < 0.0 < flo:
                    roots.append(polish_bracketed_root(g, lo, mid, flo, fmid))
                lo, flo = mid, fmid
            if flo < 0.0 < fhi or fhi < 0.0 < flo:
                roots.append(polish_bracketed_root(g, lo, hi, flo, fhi))
        lam = None
        for r in sorted(roots):
            if lam is None or abs(r - lam) > 1e-9:
                lam, d = r, f1_dlam(0.0, x2, x3, r)
                points.append(CriticalPoint(lam, x2, x3, Stability.NON_HYPERBOLIC
                                            if abs(d) < _HYPERBOLICITY_TOL else
                                            Stability.ATTRACTING if d < 0.0 else
                                            Stability.REPELLING))
    return points


def sliding_field(sys: PiecewiseSystem, x2: float, x3: float,
                  lambda_star: float) -> tuple[float, float]:
    """(dx2/dt, dx3/dt) on the surface at a sliding value of lambda."""
    f1v, f2v, f3v = sys.combined(0.0, x2, x3, lambda_star)
    if abs(f1v) > RESIDUAL_TOL:
        raise SlidingResidualError(
            f"|f1| = {abs(f1v):.3e} at lambda = {lambda_star!r}; not a sliding root")
    return f2v, f3v


# --- trajectories ------------------------------------------------------------


@dataclass
class Trajectory:
    """Time-ordered samples with per-sample mode and sliding lambda.

    Modes: 'free+', 'free-', 'sliding', 'crossing'. lambda entries are None
    away from the surface/layer.
    """

    times: list[float] = field(default_factory=list)
    states: list[tuple[float, float, float]] = field(default_factory=list)
    modes: list[str] = field(default_factory=list)
    lambdas: list[float | None] = field(default_factory=list)
    non_unique: bool = False
    events: int = 0

    def append(self, t: float, state, mode: str, lam: float | None) -> None:
        """Add a sample; one at the last sample's time replaces it, so times
        stay strictly increasing. An earlier t raises ValidationError."""
        for own, new in zip(self._admit(t), (t, tuple(state), mode, lam)):
            own.append(new)

    def _admit(self, t: float):
        """Make room for samples from t on and return the lists of times,
        states, modes and lambdas to append them to: a last sample at t is
        dropped, so the first added replaces it; an earlier t raises
        ValidationError."""
        if self.times and t <= self.times[-1]:
            if t < self.times[-1]:
                raise ValidationError(f"sample at t = {t!r} precedes the last, "
                                      f"at t = {self.times[-1]!r}")
            del self.times[-1], self.states[-1], self.modes[-1], self.lambdas[-1]
        return self.times, self.states, self.modes, self.lambdas

    @property
    def final_state(self) -> tuple[float, float, float]:
        return self.states[-1]

    def state_at(self, t: float) -> tuple[float, float, float]:
        """Linearly interpolated state; t must lie inside the time range
        (ValidationError otherwise, NaN included)."""
        if not (self.times and self.times[0] <= t <= self.times[-1]):
            raise ValidationError(f"t = {t!r} outside trajectory range")
        i = bisect.bisect_right(self.times, t)  # >= 1, as t >= times[0]
        if i == len(self.times):
            return self.states[-1]
        t0, t1 = self.times[i - 1], self.times[i]  # t0 < t1: see append
        w = (t - t0) / (t1 - t0)
        a, b = self.states[i - 1], self.states[i]
        return tuple(a[j] + w * (b[j] - a[j]) for j in range(3))

    def layer_entry_count(self, eps: float) -> int:
        """Number of sample transitions from |x1| > eps into |x1| <= eps."""
        count = 0
        inside = abs(self.states[0][0]) <= eps if self.states else False
        for s in self.states[1:]:
            now = abs(s[0]) <= eps
            if now and not inside:
                count += 1
            inside = now
        return count

    def sup_norm(self) -> float:
        return max(max(abs(v) for v in s) for s in self.states)


@dataclass
class IntegratorOptions:
    """Tolerances, budgets and dense output for both integrators, and the
    configuration of every stepper they build (_rk.Dopri3 reads rel_tol,
    abs_tol and max_steps from them).

    rel_tol and abs_tol must be positive and finite, and so must
    dense_output_stride (the spacing of dense samples); a run makes at most
    MAX_SAMPLES dense samples. layer_eps, when set, must be positive and
    finite too; it has no effect and stays only for callers that still pass
    it. max_events, at least 0, acts in event-driven runs only. max_steps
    bounds the Runge-Kutta attempts of a smooth run, or of one leg of an
    event-driven run with its event-location re-advances. The event-driven
    integrator's surface and residual tolerances are the module constants
    SURFACE_TOL and RESIDUAL_TOL.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 50_000_000
    dense_output_stride: float = 0.01
    layer_eps: float | None = None
    max_events: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValidationError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")
        if self.max_events < 0:
            raise ValidationError("max_events must be at least 0")
        if not 0.0 < self.dense_output_stride < math.inf:
            raise ValidationError("dense_output_stride must be positive and finite")
        if self.layer_eps is not None and not 0.0 < self.layer_eps < math.inf:
            raise ValidationError("layer_eps must be positive and finite")


PwsOptions = IntegratorOptions


def _free_mode(x1: float) -> str:
    """Sample mode off the surface: 'free+' where x1 >= 0, else 'free-'."""
    return "free+" if x1 >= 0 else "free-"


class _Recorder:
    """Dense output: one sample at each multiple of stride, the cubic Hermite
    of the accepted step that reaches it, put back on f1 = 0 in a sliding
    leg. It reads the step as _rk.hermite does (the stepper's six step
    attributes) and evaluates the cubic in hermite's operation order, in
    one loop per step rather than one call per sample."""

    def __init__(self, traj: Trajectory, stride: float):
        self.traj = traj
        self.stride = stride
        self.k = 1  # next stride sample index

    def emit_through(self, t_hi: float, step, mode=None, project=None) -> None:
        """Append the samples up to t_hi of step's last accepted step, from
        (t_prev, x_prev, f_prev) to (t, x, f), in one loop; mode None labels
        each by sign(x1).

        In a sliding leg (mode 'sliding' with project) the states are
        (lambda, x2, x3): each sample is project's image of the cubic's
        state, recorded at (0, x2, x3) with that lambda. The step's
        endpoints are read only when a sample falls in it. A sample whose
        stride multiple rounds past t_hi is taken at t_hi, once, so the end
        state or event record appended there next replaces it instead of
        being dropped.
        """
        k, stride = self.k, self.stride
        a = abs(t_hi)
        bound = t_hi + 1e-12 * (a if a > 1.0 else 1.0)  # max(1.0, |t_hi|)
        t = k * stride
        if t > bound:
            return
        times, states, modes, lambdas = self.traj._admit(t if t < t_hi else t_hi)
        t0, x1, h, lam = step.t_prev, step.x, step.t - step.t_prev, None
        if h:
            a1, a2, a3, b1, b2, b3, c1, c2, c3, e1, e2, e3 = hermite_coefficients(
                h, step.x_prev, step.f_prev, x1, step.f)
        while t <= bound:
            if t >= t_hi:  # the last sample: at t_hi, past the multiples up to bound
                t = t_hi
                while (k + 1) * stride <= bound:
                    k += 1
            if h:
                th = (t - t0) / h
                s = (a1 + th * (b1 + th * (c1 + th * e1)),
                     a2 + th * (b2 + th * (c2 + th * e2)),
                     a3 + th * (b3 + th * (c3 + th * e3)))
            else:
                s = x1
            if project is not None:
                lam, x2, x3 = project(s)
                s = (0.0, x2, x3)
            times.append(t)
            states.append(s)
            modes.append(mode or _free_mode(s[0]))
            lambdas.append(lam)
            k += 1
            t = k * stride
        self.k = k


def _check_start(x0, t_end: float, stride: float) -> None:
    """Reject a start that is not three finite reals, a t_end that is not
    positive and finite, or more than MAX_SAMPLES dense samples."""
    if not 0.0 < t_end < math.inf:
        raise ValidationError("t_end must be positive and finite")
    if t_end > MAX_SAMPLES * stride:
        raise ValidationError(f"t_end / dense_output_stride must not exceed {MAX_SAMPLES}")
    try:
        ok = len(x0) == 3 and all(math.isfinite(v) for v in x0)
    except TypeError:  # no length, or an entry that is not a real
        ok = False
    if not ok:
        raise ValidationError(f"x0 must be three finite reals, got {x0!r}")


def integrate_pws(sys: PiecewiseSystem, x0, t_end: float,
                  opts: IntegratorOptions | None = None) -> Trajectory:
    """Event-driven integration of the piecewise-smooth flow from x0.

    Open-region flight uses an adaptive Runge-Kutta pair with the surface
    crossing located to |x1| <= SURFACE_TOL. A sliding leg integrates
    (lambda, x2, x3) on the critical manifold f1(0, x2, x3, lambda) = 0
    until lambda reaches +-1 or df1/dlambda changes sign (a fold of the
    manifold, or a folded singularity). The legs only integrate: what
    follows a start on the surface, an arrival on it and a sliding exit is
    decided, counted and recorded by _next_region alone; a sliding exit
    hands it the one lambda that the exit records. A leg that reaches t_end
    without an event returns the step h None. The first leg starts from an
    estimated step; each later leg starts at the step its predecessor
    accepted last, the one that met its event (at a sliding exit taken
    where the steps collapse, the last one accepted), and error control
    trims it as usual. Repelling sliding continues but sets the
    trajectory's non_unique flag. x0 must be three finite reals, t_end
    positive and finite, and t_end / dense_output_stride at most MAX_SAMPLES
    (ValidationError otherwise).
    """
    opts = opts or IntegratorOptions()
    _check_start(x0, t_end, opts.dense_output_stride)
    traj = Trajectory()
    rec = _Recorder(traj, opts.dense_output_stride)

    t, lam, h = 0.0, None, None
    x = (float(x0[0]), float(x0[1]), float(x0[2]))
    if abs(x[0]) <= SURFACE_TOL:
        region, lam = _next_region(sys, traj, t, x, 0)
        x = (0.0, x[1], x[2])
    else:
        region = 1 if x[0] > 0 else -1
        traj.append(t, x, _free_mode(region), None)

    while t < t_end:
        if traj.events > opts.max_events:
            raise EventLimitError(f"more than {opts.max_events} surface events")
        if region:
            t, x, arrived, h = _free_leg(sys, t, x, region, t_end, opts, traj, rec, h)
            if arrived:
                region, lam = _next_region(sys, traj, t, x, region)
        else:
            t, x, lam, h = _sliding_leg(sys, t, x, lam, t_end, opts, traj, rec, h)
            if h is not None:
                region, lam = _next_region(sys, traj, t, x, 0, lam)
    return traj


def _next_region(sys, traj, t, x, came_from: int, lam=None):
    """Decide what follows a surface event at (t, x); returns (region, lam).

    The event is a free leg's arrival from region came_from = +-1, a start
    on the surface (came_from 0, lam None), or a sliding leg's exit at the
    root lam of f1 that the exit records (came_from 0).
    This is the one place that counts a surface event, one for an arrival
    or an exit and none for a start, and appends the event's one record.

    - Arrival: -came_from at a crossing point, _resolve_tangency's choice
      at a tangency, and a slide at a sliding point, which sets non_unique
      where sliding repels. A crossing is recorded as 'crossing'.
    - Slide: region 0 from the root lambda of f1 first reached from the
      incoming side, a start counting as from below: the largest root from
      x1 > 0, else the smallest, of the attracting ones (df1/dlambda < 0)
      or, where none attracts, of all, which sets non_unique. With no root
      the flow leaves towards sign f1(lambda = 0) and the record has no
      lambda (and keeps a start's x1).
    - Exit: towards sign(lam) where |lam| >= 1. At a fold, where
      f1 ~ a (lambda - lambda_f)^2 + c, towards sign(a): the side the
      layer flow departs to.
    """
    x2, x3 = x[1], x[2]
    f1_dlam = sys.f1_dlambda
    if lam is not None:
        traj.events += 1
        away = lam
        if abs(lam) < 1.0:
            away = f1_dlam(0.0, x2, x3, lam + 1e-6) - f1_dlam(0.0, x2, x3, lam - 1e-6)
        traj.append(t, x, "sliding", lam)
        return 1 if away > 0 else -1, None
    if came_from:
        traj.events += 1
        sm = classify_surface_point(sys, x)
        traj.non_unique |= sm is SurfaceMode.REPELLING_SLIDING
        side = (-came_from if sm is SurfaceMode.CROSSING else
                _resolve_tangency(sys, x) if sm is SurfaceMode.TANGENCY else 0)
        if side:
            traj.append(t, x, "crossing", None)
            return side, None
    roots = sliding_lambdas(sys, x2, x3)
    if not roots:
        traj.append(t, x, "sliding", None)
        return 1 if sys.f1(0.0, x2, x3, 0.0) > 0 else -1, None
    attracting = [r for r in roots if f1_dlam(0.0, x2, x3, r) < 0.0]
    lam = (max if came_from > 0 else min)(attracting or roots)
    traj.non_unique |= not attracting
    traj.append(t, (0.0, x2, x3), "sliding", lam)
    return 0, lam


def _free_leg(sys, t, x, region, t_end, opts, traj, rec, h):
    """Integrate one open-region segment, starting with step h (None: an
    estimate), until the flow reaches x1 = 0 or t_end; returns
    (t, x, arrived, h), with x on the surface and h the length of the step
    that crossed when arrived, else h None. The stepper is only read:
    _locate_crossing places the crossing on a copy of it.

    A step crosses where its end lies on or past the surface, or where x1
    turns back inside it (x1' points at the surface at its start and away
    at its end) and the step's cubic dips past the surface by more than
    SURFACE_TOL at its turning point; the crossing is then bracketed by the
    step's start and that turning point.
    """
    stepper = Dopri3(sys.branch_field(region), t, x, opts, h)
    mode = _free_mode(region)
    while stepper.t < t_end:
        stepper.step_to(t_end)
        x1_prev, x1_new = stepper.x_prev[0], stepper.x[0]
        far = stepper.t, x1_new
        crossed = (x1_prev * x1_new < 0.0 or
                   (abs(x1_new) <= SURFACE_TOL and abs(x1_prev) > SURFACE_TOL) or
                   (abs(x1_new) > SURFACE_TOL and (x1_new > 0) != (region > 0)))
        if not crossed and stepper.f_prev[0] * region < 0.0 < stepper.f[0] * region:
            far = _turning_point(stepper)
            crossed = far[1] * region < -SURFACE_TOL
        if not crossed:
            rec.emit_through(stepper.t, stepper, mode)
            continue
        t_ev, x_ev = _locate_crossing(stepper, region, *far)
        rec.emit_through(t_ev, stepper, mode)
        return t_ev, (0.0, x_ev[1], x_ev[2]), True, stepper.t - stepper.t_prev
    rec.emit_through(t_end, stepper, mode)
    traj.append(t_end, stepper.x, mode, None)
    return stepper.t, stepper.x, False, None


def _turning_point(step) -> tuple[float, float]:
    """(t, x1) where x1 of step's cubic Hermite turns, for an accepted step
    whose x1' changes sign from its start to its end: the one root in
    (0, 1) of the cubic's derivative in th."""
    h = step.t - step.t_prev
    a, _, _, b, _, _, c, _, _, e, _, _ = hermite_coefficients(
        h, step.x_prev, step.f_prev, step.x, step.f)
    for th in real_quadratic_roots(3.0 * e, 2.0 * c, b):
        if 0.0 < th < 1.0:
            return step.t_prev + th * h, a + th * (b + th * (c + th * e))
    return step.t, step.x[0]  # the root rounded onto an end: no turn inside


def _locate_crossing(step: Dopri3, region: int, hi: float, g_hi: float):
    """(t, x) where the accepted step of step, which crossed, meets x1 = 0
    to SURFACE_TOL; step itself is only read.

    x1 = g_hi at time hi of the step (its end, or where its cubic turns back
    past the surface). The Illinois root of x1 of the step's hermite between
    the step's start and hi is the first guess. Each guess re-advances a
    copy of step from the step's start, (t_prev, x_prev, f_prev), whose
    first attempt is then the whole way to the guess; the next guess is a
    Newton step on the x1 and x1' reached. The copy starts from step's
    attempt count, so its attempts count against max_steps with the leg's
    own. A zero x1', or _LOCATE_BUDGET re-advances that all miss the
    surface, raise IntegrationError naming the step.
    """
    lo, end = step.t_prev, step.t
    g_lo = step.x_prev[0]
    if g_lo == 0.0:
        # leg started exactly on the surface; treat the start as region-side
        g_lo = region * SURFACE_TOL
    at = hermite(step)
    guess = polish_bracketed_root(lambda t: at(t)[0], lo, hi, g_lo, g_hi, residual_tol=0.0) \
        if g_lo * g_hi < 0.0 else hi

    probe = copy.copy(step)
    for _ in range(_LOCATE_BUDGET):
        probe.t, probe.x, probe.f, probe.h = lo, step.x_prev, step.f_prev, end - lo
        probe.advance_to(guess)
        val, deriv = probe.x[0], probe.f[0]
        if abs(val) <= SURFACE_TOL:
            return probe.t, probe.x
        if deriv == 0.0:
            break
        guess -= val / deriv
    raise IntegrationError(
        f"crossing in the step from t = {lo!r} to {end!r} not located to "
        f"|x1| <= {SURFACE_TOL!r}: x1 = {val!r}, x1' = {deriv!r} at t = {probe.t!r}")


def _resolve_tangency(sys, x) -> int:
    """Region to continue in after a grazing arrival (0 means slide)."""
    vplus = sys.f1(0.0, x[1], x[2], 1.0)
    vminus = sys.f1(0.0, x[1], x[2], -1.0)
    if abs(vplus) <= RESIDUAL_TOL and abs(vminus) <= RESIDUAL_TOL:
        return 0  # two-fold point itself: hand to sliding machinery
    grazing = 1 if abs(vplus) <= RESIDUAL_TOL else -1
    curv = sys.surface_curvature(x, grazing)
    if curv * grazing > 0.0:
        # visible fold: the grazing flow curves back into its own region
        return grazing
    other = -grazing
    v_other = vplus if other > 0 else vminus
    if v_other * other < 0.0:
        return 0  # other side pushes onto the surface: sliding
    return other


def _sliding_leg(sys, t, x, lam, t_end, opts, traj, rec, h):
    """Integrate one sliding segment on x1 = 0 from the root lam of f1,
    starting with step h (None: an estimate), until it leaves its sheet of
    f1 = 0 or reaches t_end; returns (t, x, lam, h): lam is the end's
    lambda, on f1 = 0, and h the length of the last accepted step where it
    left, else h None. At an exit, lam is the one lambda the exit records
    and _next_region reads its side from.

    Each accepted step's end and each dense sample (which _Recorder takes
    from the step's cubic Hermite) is put back on f1 = 0 by one Newton step
    in lambda, the exit by up to 30, to |f1| <= RESIDUAL_TOL. The exit is
    found by bisection in t on hermite(stepper) of the step that left, its
    end already projected, each state so projected.
    """
    x2, x3 = x[1], x[2]
    f1, f1_dlam = sys.f1, sys.f1_dlambda
    attracting = f1_dlam(0.0, x2, x3, lam) < 0.0

    def project(s):
        lam, x2, x3 = s
        d = f1_dlam(0.0, x2, x3, lam)
        return (lam - f1(0.0, x2, x3, lam) / d if d else lam, x2, x3)

    def left(s):
        return abs(s[0]) >= 1.0 or (f1_dlam(0.0, s[1], s[2], s[0]) < 0.0) != attracting

    stepper = Dopri3(sys._sliding_field, t, (lam, x2, x3), opts, h)
    while stepper.t < t_end:
        try:
            stepper.step_to(t_end)
        except StepUnderflowError:
            # steps collapse as lambda' blows up at a fold: exit there
            t_ev, s = stepper.t, stepper.x
            if abs(f1_dlam(0.0, s[1], s[2], s[0])) > math.sqrt(RESIDUAL_TOL):
                raise
            break
        stepper.x = project(stepper.x)
        if not left(stepper.x):
            rec.emit_through(stepper.t, stepper, "sliding", project)
            continue
        at = hermite(stepper)
        lo, hi = stepper.t_prev, stepper.t
        while hi - lo > 1e-9 * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if left(project(at(mid))):
                hi = mid
            else:
                lo = mid
        if abs(project(at(hi))[0]) < 1.0:
            hi = lo  # past a fold f1 = 0 has no root nearby: exit before it
        t_ev, s = hi, project(at(hi))
        rec.emit_through(t_ev, stepper, "sliding", project)
        break
    else:  # t_end reached without an exit
        rec.emit_through(t_end, stepper, "sliding", project)
        lam, x2, x3 = stepper.x
        traj.append(t_end, (0.0, x2, x3), "sliding", lam)
        return stepper.t, (0.0, x2, x3), lam, None
    h = stepper.t - stepper.t_prev
    lam, x2, x3 = s
    # near a fold lambda ~ sqrt(t_ev - t), which the step's cubic interpolant
    # follows poorly: one Newton step from it can leave the exit off f1 = 0
    for _ in range(30):
        if abs(f1(0.0, x2, x3, lam)) <= RESIDUAL_TOL:
            break
        lam = project((lam, x2, x3))[0]
    else:
        raise SlidingResidualError(
            f"sliding exit at (x2, x3) = ({x2!r}, {x3!r}) stays off f1 = 0")
    return t_ev, (0.0, x2, x3), lam, h
