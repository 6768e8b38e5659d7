"""Gradient-based observer on a Lie group.

An ObserverProblem packages the output action, reference output, invariant
cost, and metric.  The correction direction zeta_e is the metric dual of the
differential of the error cost; it depends only on the estimate and the
measurement, which is what makes the error dynamics autonomous.  An analytic
differential can be registered and is dualized through the metric like the
central-difference gradient over the algebra basis, which is used otherwise.
Nothing the run reports feeds back into it, so ``error_columns`` computes the
V^e and ||zeta_e|| columns after the run, from stacked passes of both terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import groups
from .actions import DIRECTION_PAIR, LANDMARKS, ActionSpec, Point, act, check_point_stack
from .errors import BundleobsError, KindMismatchError, NumericalBlowupError
from .groups import AlgebraElement, GroupElement, Metric

FD_STEP = 1e-6
_CHUNK = 128  # samples per stacked pass of ``error_columns``, which bounds its temporaries

LEFT = "left"
RIGHT = "right"
_STACKED_KINDS = (DIRECTION_PAIR, LANDMARKS)  # output kinds checked by check_point_stack alone, no rebuild


def _basis(kind: str):
    dim = 3 if kind == "so3" else 6
    return [AlgebraElement(kind, np.eye(dim)[i]) for i in range(dim)]


@dataclass(frozen=True)
class ObserverProblem:
    """A left- or right-observed kinematic system on SO(3) or SE(3).  V^y, ``cost(y, y_ref)``, and zeta_e's
    coordinates before the metric, ``zeta_e_analytic(m, y)`` at the estimate's matrix, take raw ``Point.value``s;
    on a direction pair or landmarks also stacks y (k, ...) and m (k, n, n), a row each with its own call's bits."""

    group_kind: str
    handedness: str  # "left" | "right" observed
    output_action: ActionSpec
    y0: Point
    cost: Callable[[object, object], object]
    metric: Metric = Metric()
    zeta_e_analytic: Optional[Callable[[np.ndarray, object], np.ndarray]] = None

    def __post_init__(self):
        if self.handedness not in (LEFT, RIGHT):
            raise KindMismatchError(f"handedness must be left or right, got {self.handedness!r}")
        if self.output_action.handedness != self.handedness:
            raise KindMismatchError("output action handedness must match the observed handedness")
        self._check_critical_point()

    @property
    def algebra_kind(self) -> str:
        return "so3" if self.group_kind == groups.SO3 else "se3"

    def output(self, g: GroupElement) -> Point:
        """y = varphi_{g^-1}(y0)."""
        return act(self.output_action, g.inverse(), self.y0)

    def error_cost(self, e_g: GroupElement) -> float:
        """V^e(e_g) = V^y(varphi_{e_g}(y0), y0)."""
        return self.cost(act(self.output_action, e_g, self.y0).value, self.y0.value)

    @cached_property
    def fd_probes(self) -> list[tuple[Point, Point]]:
        """varphi_{exp(+-FD_STEP xi_i)}(y0) per basis direction xi_i; built once, on first use."""
        out, y0 = self.output_action, self.y0
        return [
            (act(out, groups.exp(FD_STEP * xi), y0), act(out, groups.exp(-FD_STEP * xi), y0))
            for xi in _basis(self.algebra_kind)
        ]

    def _check_critical_point(self):
        # V^e must vanish at I and be non-degenerate there (probe each basis
        # direction with a 3-point quadratic fit); on a stacked kind both terms must take the probes' stack
        if abs(self.error_cost(GroupElement.identity(self.group_kind))) > 1e-10:
            raise KindMismatchError("cost does not vanish at zero error")
        eps, dim = 1e-4, 3 if self.algebra_kind == "so3" else 6
        E = groups.exp_matrix(eps * np.concatenate([np.eye(dim), -np.eye(dim)]))  # exp(+-eps xi_i), one stack
        costs = [self.error_cost(GroupElement(self.group_kind, e)) for e in E]
        for i in range(dim):
            if costs[i] + costs[dim + i] < 1e-3 * eps * eps:
                warnings.warn(
                    "error cost looks degenerate at the identity along "
                    f"direction {np.eye(dim)[i]}; convergence is not guaranteed",
                    stacklevel=3,
                )
                break
        if self.y0.kind not in _STACKED_KINDS:
            return
        msg = "cost and zeta_e_analytic must take stacks of outputs and give a row each"
        try:  # the terms of error_columns' stacked pass, on the probes; the cost's rows near its calls on each
            y = self._lifted_y0(E)
            v = self.cost(y, self.y0.value)
            z = np.zeros((len(E), dim)) if self.zeta_e_analytic is None else self.zeta_e_analytic(E, y)
        except (ArithmeticError, LookupError, TypeError, ValueError, BundleobsError) as exc:
            raise KindMismatchError(msg) from exc
        if (np.shape(v) != (len(E),) or np.shape(z) != (len(E), dim)
                or not abs(np.subtract(v, costs)).max() <= 1e-6 * max(map(abs, costs))):  # fails closed on NaN
            raise KindMismatchError(msg)

    def _lifted_y0(self, G: np.ndarray):
        """The raw values of varphi_G(y0) for a stack G (k, n, n), checked by ``check_point_stack``."""
        return check_point_stack(self.y0.kind, self.output_action.lift(G, self.y0.value))


def group_error(prob: ObserverProblem, g, g_est):
    """e_g: g g~^-1 for left-observed systems, g~^-1 g for right-observed.  Stacks (k, n, n) of
    matrices give the stack of e_g, each item with its own call's bits, by ``groups.check_stack``."""
    if isinstance(g, np.ndarray):
        inv = groups.inverse_matrix(g_est)
        return groups.check_stack(g @ inv if prob.handedness == LEFT else inv @ g)
    if g.kind != g_est.kind:
        raise KindMismatchError(f"group error between {g.kind} and {g_est.kind}")
    inv = groups.inverse_matrix(g_est.matrix)  # one validated element: the product
    return GroupElement(g.kind, g.matrix @ inv if prob.handedness == LEFT else inv @ g.matrix)


def zeta_e_numeric(prob: ObserverProblem, g_est: GroupElement, y: Point) -> AlgebraElement:
    """Gradient direction from central differences over the algebra basis.

    Differentiates s -> V^y(varphi_{g~^-1}(varphi_{exp(xi s)}(y0)), y),
    which equals V^e along the corresponding curve through e_g for either
    handedness, then dualizes through the metric.  The perturbed outputs
    varphi_{exp(+-FD_STEP xi)}(y0) are built once per problem (``prob.fd_probes``).
    """
    g_inv = g_est.inverse()
    coords = np.empty(len(prob.fd_probes))
    for i, (plus, minus) in enumerate(prob.fd_probes):
        f_plus = prob.cost(act(prob.output_action, g_inv, plus).value, y.value)
        f_minus = prob.cost(act(prob.output_action, g_inv, minus).value, y.value)
        coords[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return AlgebraElement(prob.algebra_kind, coords / prob.metric.scale)


def zeta_e(prob: ObserverProblem, g_est: GroupElement, y: Point) -> AlgebraElement:
    return AlgebraElement(prob.algebra_kind, zeta_e_coords(prob, g_est.matrix, y.value))


def zeta_e_coords(prob: ObserverProblem, m: np.ndarray, y) -> np.ndarray:
    """``zeta_e``'s coordinates at the estimate's matrix m and a measurement's raw value y."""
    if prob.zeta_e_analytic is None:
        return zeta_e_numeric(prob, GroupElement(prob.group_kind, m), Point(prob.y0.kind, y)).vec
    ze, scale = prob.zeta_e_analytic(m, y), prob.metric.scale
    return ze if scale == 1.0 else ze / scale  # x / 1.0 is x


def innovation(prob: ObserverProblem, g_est: GroupElement, y: Point, gain: float = 1.0) -> AlgebraElement:
    """Delta = -k Ad_{g~^-1} zeta_e (left observed) / -k Ad_{g~} zeta_e (right)."""
    if not 0 < gain < np.inf:  # also rejects NaN
        raise ValueError("gain must be positive and finite")
    ze = zeta_e(prob, g_est, y)
    conj = g_est.inverse() if prob.handedness == LEFT else g_est
    return -gain * groups.adjoint(conj, ze)


def preobserver_rate(
    prob: ObserverProblem,
    g_est: GroupElement,
    y: Point,
    zeta: AlgebraElement,
    gain: float = 1.0,
) -> AlgebraElement:
    """Body/algebra rate (zeta - Delta) of the pre-observer.

    The integrator lifts it through the observed translation: left observed
    d/dt g~ = g~ (zeta - Delta)^, right observed d/dt g~ = (zeta - Delta)^ g~.
    """
    return zeta - innovation(prob, g_est, y, gain)


def error_rate(prob: ObserverProblem, e_g: GroupElement, gain: float = 1.0) -> AlgebraElement:
    """Algebra rate -k zeta_e of the autonomous error dynamics at e_g.

    zeta_e is evaluated at the configuration g~ = I, g = e_g, which lies on
    the same error coset for either handedness.
    """
    ident = GroupElement.identity(prob.group_kind)
    return -gain * zeta_e(prob, ident, prob.output(e_g))


def error_columns(prob: ObserverProblem, times, G, G_est, measure=None) -> dict[str, np.ndarray]:
    """The ``Ve`` column of a run and, given ``measure``, its ``zeta_e_norm`` column, after the run.

    ``G`` and ``G_est`` stack each sample's true and estimate matrices (n, k, k), as a ``Trajectory``
    does.  ``_CHUNK`` samples at a time, ``prob``'s two terms take stacks: the cost at varphi_E(y0) of the group
    errors E and, given ``measure``, the analytic zeta_e at the noiseless outputs varphi_{g^-1}(y0).  Another
    output kind, a numeric zeta_e with ``measure``, or a chunk that fails a check or gives a non-finite value
    takes the per-sample reference on its rows instead, which raises the error of the first bad sample.
    """
    chunks = []
    for i in range(0, len(times), _CHUNK):
        t, x, x_est = times[i:i + _CHUNK], G[i:i + _CHUNK], G_est[i:i + _CHUNK]
        cols = _stacked_columns(prob, x, x_est, measure)
        if cols is None:
            cols = np.array([_sample_row(prob, *r, measure) for r in zip(t, x, x_est)]).T
        chunks.append(cols)
    return dict(zip(["Ve", "zeta_e_norm"], np.concatenate(chunks, axis=1)))


def _stacked_columns(prob: ObserverProblem, G, G_est, measure) -> Optional[np.ndarray]:
    """``error_columns``' stacked pass over one chunk, or None where it cannot stand for the reference."""
    if prob.y0.kind not in _STACKED_KINDS or (measure is not None and prob.zeta_e_analytic is None):
        return None
    try:
        with np.errstate(all="ignore"):  # the reference reports what goes wrong
            cols = [prob.cost(prob._lifted_y0(group_error(prob, G, G_est)), prob.y0.value)]
            if measure is not None:
                y = prob._lifted_y0(groups.inverse_matrix(G))
                z, scale = prob.zeta_e_analytic(G_est, y), prob.metric.scale
                cols.append(np.sqrt(groups.row_dot(z if scale == 1.0 else z / scale)))
    except BundleobsError:
        return None
    return np.array(cols) if np.isfinite(cols).all() else None


def _sample_row(prob: ObserverProblem, t, m, m_est, measure) -> list[float]:
    """The reference on one sample's matrices: error_cost of group_error, zeta_e at measure(g, 0.0, None)."""
    g, g_est = (GroupElement(prob.group_kind, x) for x in (m, m_est))
    row = [prob.error_cost(group_error(prob, g, g_est))]
    if measure is not None:
        row.append(zeta_e(prob, g_est, measure(g, 0.0, None)).norm())
    if not all(map(math.isfinite, row)):
        raise NumericalBlowupError(f"non-finite recorded value at t={t:.6g}", t=t)
    return row
