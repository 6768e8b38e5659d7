"""Gradient-based observer on a Lie group.

An ObserverProblem packages the output action, reference output, invariant
cost, and metric.  The correction direction zeta_e is the metric dual of the
differential of the error cost; it depends only on the estimate and the
measurement, which is what makes the error dynamics autonomous.  An analytic
zeta_e can be registered; otherwise a central-difference gradient over the
algebra basis is used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import groups
from .actions import ActionSpec, Point, act
from .errors import KindMismatchError
from .groups import AlgebraElement, GroupElement, Metric
from .integrate import SplitRate

FD_STEP = 1e-6

LEFT = "left"
RIGHT = "right"


def _basis(kind: str):
    dim = 3 if kind == "so3" else 6
    return [AlgebraElement(kind, np.eye(dim)[i]) for i in range(dim)]


@dataclass(frozen=True)
class ObserverProblem:
    """A left- or right-observed kinematic system on SO(3) or SE(3)."""

    group_kind: str
    handedness: str  # "left" | "right" observed
    output_action: ActionSpec
    y0: Point
    cost: Callable[[Point, Point], float]
    metric: Metric = Metric()
    zeta_e_analytic: Optional[Callable[[GroupElement, Point], AlgebraElement]] = None

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
        return self.cost(act(self.output_action, e_g, self.y0), self.y0)

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
        # direction with a 3-point quadratic fit)
        if abs(self.error_cost(GroupElement.identity(self.group_kind))) > 1e-10:
            raise KindMismatchError("cost does not vanish at zero error")
        eps = 1e-4
        for xi in _basis(self.algebra_kind):
            plus = self.error_cost(groups.exp(eps * xi))
            minus = self.error_cost(groups.exp(-eps * xi))
            if plus + minus < 1e-3 * eps * eps:
                warnings.warn(
                    "error cost looks degenerate at the identity along "
                    f"direction {xi.vec}; convergence is not guaranteed",
                    stacklevel=3,
                )
                break


def group_error(prob: ObserverProblem, g: GroupElement, g_est: GroupElement) -> GroupElement:
    """e_g: g g~^-1 for left-observed systems, g~^-1 g for right-observed."""
    if g.kind != g_est.kind:
        raise KindMismatchError(f"group error between {g.kind} and {g_est.kind}")
    if prob.handedness == LEFT:
        return g @ g_est.inverse()
    return g_est.inverse() @ g


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
        f_plus = prob.cost(act(prob.output_action, g_inv, plus), y)
        f_minus = prob.cost(act(prob.output_action, g_inv, minus), y)
        coords[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return AlgebraElement(prob.algebra_kind, coords / prob.metric.scale)


def zeta_e(prob: ObserverProblem, g_est: GroupElement, y: Point) -> AlgebraElement:
    if prob.zeta_e_analytic is not None:
        return prob.zeta_e_analytic(g_est, y)
    return zeta_e_numeric(prob, g_est, y)


def innovation(prob: ObserverProblem, g_est: GroupElement, y: Point, gain: float = 1.0) -> AlgebraElement:
    """Delta = -k Ad_{g~^-1} zeta_e (left observed) / -k Ad_{g~} zeta_e (right)."""
    if gain <= 0:
        raise ValueError("gain must be positive")
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


def preobserver_split_rate(
    prob: ObserverProblem,
    g_est: GroupElement,
    y: Point,
    zeta: AlgebraElement,
    gain: float = 1.0,
    ze: Optional[AlgebraElement] = None,
):
    """The pre-observer rate with the correction kept on the spatial side.

    Algebraically identical to lifting (zeta - Delta) through the observed
    translation: left observed d/dt g~ = k zeta_e^ g~ + g~ zeta^, right
    observed d/dt g~ = zeta^ g~ + g~ k zeta_e^.  Stepping the two parts by
    separate exponentials makes the discrete error map a function of the
    group error alone, so simulated error trajectories stay autonomous to
    machine precision.  ``ze``, when given, is zeta_e(prob, g_est, y) as the
    caller already evaluated it.
    """
    if ze is None:
        ze = zeta_e(prob, g_est, y)
    correction = gain * ze
    if prob.handedness == LEFT:
        return SplitRate(body=zeta, spatial=correction)
    return SplitRate(body=correction, spatial=zeta)


def error_rate(prob: ObserverProblem, e_g: GroupElement, gain: float = 1.0) -> AlgebraElement:
    """Algebra rate -k zeta_e of the autonomous error dynamics at e_g.

    zeta_e is evaluated at the configuration g~ = I, g = e_g, which lies on
    the same error coset for either handedness.
    """
    ident = GroupElement.identity(prob.group_kind)
    return -gain * zeta_e(prob, ident, prob.output(e_g))
