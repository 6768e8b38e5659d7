"""Cross-sections, base/fiber coordinates, and the reduced-system split.

Two bundles are built in: the sphere bundle (SO(3) acting on R^3 \\ {0},
base coordinate ||q||, fiber fixed by Givens rotations) and the SLAM bundle
(right SE(3) action on (pose, landmarks), base = body-frame landmarks,
fiber = pose).  Both admit global sections, so no local-chart bookkeeping
is done.

Handedness convention: for left bundles p = act(fiber, section(base)); for
right bundles the section point is act(fiber, p) and p = act(fiber^-1,
section(base)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import actions as ac
from . import groups
from .actions import ActionSpec, Point, act
from .errors import DimensionError, KindMismatchError, NotFiberInjectiveError, OriginError
from .groups import SE3, SO3, AlgebraElement, GroupElement

_ORIGIN_EPS = 1e-12
_TINY = 2.2250738585072014e-308  # sys.float_info.min, the smallest normal float


@dataclass(frozen=True)
class BaseCoordinate:
    """Coordinate on the quotient: a radius, a SLAM body-frame tuple, or a
    generic section point."""

    kind: str  # "radius" | "slam" | "point"
    value: object

    def __post_init__(self):
        if self.kind == "radius":
            if not self.value > 0:
                raise OriginError("sphere base coordinate must be a positive radius")
        elif self.kind == "slam":
            S, _ = self.value.value
            if not S.is_close(GroupElement.identity(SE3), 1e-9):
                raise KindMismatchError("SLAM base coordinate must carry an identity pose slot")
        elif self.kind != "point":
            raise KindMismatchError(f"unknown base coordinate kind {self.kind!r}")


@dataclass(frozen=True)
class CrossSection:
    """A smooth choice of orbit representatives with its coordinate maps."""

    name: str
    action: ActionSpec
    base_of: Callable[[Point], BaseCoordinate]
    section: Callable[[BaseCoordinate], Point]
    fiber_of: Callable[[Point], GroupElement]

    def reconstruct(self, p: Point) -> Point:
        """p rebuilt from its (base, fiber) pair."""
        sigma = self.section(self.base_of(p))
        fiber = self.fiber_of(p)
        if self.action.handedness == "left":
            return act(self.action, fiber, sigma)
        return act(self.action, fiber.inverse(), sigma)

    def reconstruction_residual(self, p: Point) -> float:
        return ac.point_distance(self.reconstruct(p), p)


@dataclass(frozen=True)
class BundlePoint:
    point: Point
    base: BaseCoordinate
    fiber: GroupElement
    section_name: str


def decompose(sec: CrossSection, p: Point) -> BundlePoint:
    return BundlePoint(p, sec.base_of(p), sec.fiber_of(p), sec.name)


# -- sphere bundle --

def givens_frames(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radii r (N,) and canonical fiber rotations R (N, 3, 3) with q_i = r_i R_i e1, for points q (N, 3).

    R = R2^T R1^T: R2 zeroes the 3rd component against the 2nd, then R1 the 2nd against the 1st.
    Refuses q that is not (N, 3); the rows are checked as one stack, the origin, then ``groups.check_stack``."""
    if q.ndim != 2 or q.shape[1] != 3:
        raise DimensionError(f"givens_frames expects points (N, 3), got shape {q.shape}")
    r = np.sqrt(groups.row_dot(q))  # np.linalg.norm of each row
    entries = []  # R2, then R1, row by row
    for x, y, z in q.tolist():
        h23 = math.hypot(y, z)
        h = math.hypot(x, h23)
        c1, s1 = (x / h, h23 / h) if h else (1.0, 0.0)
        if 0.0 < h23 < _TINY:  # a subnormal hypot has lost digits: scale the pair by its larger magnitude
            y, z = y / max(abs(y), abs(z)), z / max(abs(y), abs(z))
            h23 = math.hypot(y, z)
        c2, s2 = (y / h23, z / h23) if h23 else (1.0, 0.0)
        entries.append((1.0, 0.0, 0.0, 0.0, c2, s2, 0.0, -s2, c2, c1, s1, 0.0, -s1, c1, 0.0, 0.0, 0.0, 1.0))
    R21 = np.array(entries).reshape(-1, 2, 3, 3)
    R = np.swapaxes(R21[:, 0], 1, 2) @ np.swapaxes(R21[:, 1], 1, 2)
    return r, groups.check_stack(R, [
        (r <= _ORIGIN_EPS, lambda i: OriginError("the origin is excluded from the sphere bundle"))])


def givens_section(q) -> tuple[float, GroupElement]:
    """Base radius and canonical fiber rotation with q = r R e1: one row of ``givens_frames``."""
    r, R = givens_frames(np.asarray(q, dtype=float)[None])
    return float(r[0]), GroupElement(SO3, R[0])


def sphere_bundle() -> CrossSection:
    action = ac.so3_on_r3()

    def base_of(p: Point) -> BaseCoordinate:
        return BaseCoordinate("radius", givens_section(p.value)[0])

    def section(b: BaseCoordinate) -> Point:
        return Point(ac.R3, np.array([b.value, 0.0, 0.0]))

    def fiber_of(p: Point) -> GroupElement:
        return givens_section(p.value)[1]

    return CrossSection("sphere_givens", action, base_of, section, fiber_of)


def sphere_split(q, v) -> tuple[float, AlgebraElement]:
    """Split a velocity at q into radial rate and coset body rate.

    Returns (hor, ver) with hor = e1^T R^T v (= dr/dt) and ver the body rate
    representative in span(e2^, e3^); reconstruction is
    v = hor * R e1 + r * R * hat(ver) e1.  The one-row case of ``sphere_splits``.
    """
    _, _, hor, ver = sphere_splits(np.asarray(q, dtype=float)[None], np.asarray(v, dtype=float)[None])
    return float(hor[0]), AlgebraElement("so3", ver[0])


def sphere_splits(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``sphere_split`` of velocities v (N, 3) at points q (N, 3), stacked: returns
    the radii r, Givens rotations R of ``givens_frames``, and hor (N,) and ver (N, 3).  Refuses v unlike q."""
    if v.shape != q.shape:
        raise DimensionError(f"velocities must have the points' shape {q.shape}, got {v.shape}")
    r, R = givens_frames(q)
    w = (np.swapaxes(R, 1, 2) @ v[:, :, None])[:, :, 0]
    u = w[:, 1:] / r[:, None]  # (w - hor e1) / r without its zero first entry
    return r, R, w[:, 0], np.stack([np.zeros(len(u)), -u[:, 1], u[:, 0]], axis=1)


# -- SLAM bundle --

def slam_bundle(n_landmarks: int = 6) -> CrossSection:
    action = ac.slam_action(n_landmarks)

    def base_of(p: Point) -> BaseCoordinate:
        S, L = p.value
        return BaseCoordinate(
            "slam",
            Point(ac.LANDMARK_TUPLE, (GroupElement.identity(SE3), groups.inverse_matrix(S.matrix) @ L)),
        )

    def section(b: BaseCoordinate) -> Point:
        return b.value

    def fiber_of(p: Point) -> GroupElement:
        S, _ = p.value
        return S

    return CrossSection("slam_identity_slot", action, base_of, section, fiber_of)


def slam_section(p: Point) -> BundlePoint:
    """Decompose a SLAM state: base = (I, S^-1 Lbar_i), fiber = S."""
    _, L = p.value
    return decompose(slam_bundle(L.shape[1]), p)


# -- associated sections and system reduction --

def associated_section_from_output(H, s_Y: CrossSection, state_action: ActionSpec) -> CrossSection:
    """Pull an output-space section back through an equivariant output map.

    The resulting fiber coordinate is fiber_Y(H(p)); the section point is the
    orbit point whose image lands on the output section.  Fiber injectivity
    of H is certified numerically on 20 random samples (seed 42, ``actions._worst``):
    reconstruction must reproduce the sampled states to 1e-8 relative.
    """

    def fiber_of(p: Point) -> GroupElement:
        return s_Y.fiber_of(H(p))

    def base_of(p: Point) -> BaseCoordinate:
        fiber = fiber_of(p)
        g = fiber.inverse() if state_action.handedness == "left" else fiber
        return BaseCoordinate("point", act(state_action, g, p))

    def section(b: BaseCoordinate) -> Point:
        return b.value

    sec = CrossSection(f"associated_{s_Y.name}", state_action, base_of, section, fiber_of)

    def residual(rng, p, g):  # each relative to the sample's size
        scale, resid = max(1.0, ac.tangent_norm(ac.point_raw(p))), sec.reconstruction_residual(p)
        # base must be constant along the orbit; a non-fiber-injective H
        # (e.g. a constant map) leaks the group motion into the base
        orbit = ac.point_distance(sec.section(sec.base_of(act(state_action, g, p))), sec.section(sec.base_of(p)))
        return resid / scale, orbit / scale

    worst = ac._worst(state_action, 20, 42, residual)
    if worst > 1e-8:
        raise NotFiberInjectiveError(f"output map failed fiber-injectivity probe: scaled residual {worst:.3e}")
    return sec


def reduce_system(X, sec: CrossSection, p: Point, u=None):
    """Split the vector field X at p into base and fiber rates.

    Returns (base_rate, fiber_rate): base_rate is the time derivative of the
    base coordinate (scalar for the sphere bundle, tangent tuple for SLAM),
    fiber_rate the algebra element whose translation gives d/dt of the fiber
    coordinate.  Closed forms for the two built-in bundles; any other section
    raises KindMismatchError.  X is not checked for equivariance here
    (``actions.check_equivariance_vf`` certifies it).
    """
    if sec.name == "sphere_givens":
        return sphere_split(p.value, X(p, u))
    if sec.name != "slam_identity_slot":
        raise KindMismatchError(f"no closed-form split for section {sec.name!r}")
    S, L = p.value
    Sdot, Ldot = X(p, u)
    Sinv = groups.inverse_matrix(S.matrix)
    Vhat = Sinv @ Sdot
    base_rate = (np.zeros((4, 4)), -Vhat @ (Sinv @ L) + Sinv @ Ldot)
    return base_rate, AlgebraElement("se3", groups.vee(Vhat))
