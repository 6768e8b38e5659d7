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
from .errors import KindMismatchError, NotFiberInjectiveError, NumericalBlowupError, OriginError
from .groups import SE3, SO3, AlgebraElement, GroupElement
from .sampling import random_group, rng_from

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
    Rows are checked in order as ``GroupElement(SO3, R_i)`` checks, one at a time (not R.tolist())."""
    r = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0, 0]  # np.linalg.norm of each row
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
    for radius, finite, Ri in zip(r.tolist(), np.isfinite(R).all(axis=(1, 2)).tolist(), R):
        if radius <= _ORIGIN_EPS:
            raise OriginError("the origin is excluded from the sphere bundle")
        if not finite:
            raise NumericalBlowupError("group matrix has non-finite entries")
        groups._check_rotation(Ri.tolist())
    return r, R


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
    the radii r, Givens rotations R of ``givens_frames``, and hor (N,) and ver (N, 3)."""
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

def associated_section_from_output(
    H,
    s_Y: CrossSection,
    state_action: ActionSpec,
    samples: int = 20,
    seed=42,
    tol: float = 1e-8,
) -> CrossSection:
    """Pull an output-space section back through an equivariant output map.

    The resulting fiber coordinate is fiber_Y(H(p)); the section point is the
    orbit point whose image lands on the output section.  Fiber injectivity
    of H is certified numerically on random samples (reconstruction must
    reproduce the sampled states).
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

    rng = rng_from(seed)
    sampler = state_action.sample_point
    if sampler is None:
        raise ValueError("state action needs a point sampler to certify fiber injectivity")
    for _ in range(samples):
        p = sampler(rng)
        g = random_group(state_action.group_kind, rng)
        scale = max(1.0, ac.tangent_norm(ac.point_raw(p)))
        resid = sec.reconstruction_residual(p)
        # base must be constant along the orbit; a non-fiber-injective H
        # (e.g. a constant map) leaks the group motion into the base
        orbit_resid = ac.point_distance(
            sec.section(sec.base_of(act(state_action, g, p))), sec.section(sec.base_of(p))
        )
        if max(resid, orbit_resid) > tol * scale:
            raise NotFiberInjectiveError(
                f"output map failed fiber-injectivity probe: residual {max(resid, orbit_resid):.3e}"
            )
    return sec


def _point_from_raw(kind: str, raw) -> Point:
    """Rebuild a Point from perturbed raw arrays, repairing invariants."""
    if kind == ac.R3:
        return Point(ac.R3, raw)
    if kind == ac.S2:
        return Point(ac.S2, raw / np.linalg.norm(raw))
    if kind == ac.GROUP:
        gk = SO3 if raw.shape == (3, 3) else SE3
        return Point(ac.GROUP, groups.project_to_group(raw, gk))
    if kind == ac.LANDMARKS:
        raw = raw.copy()
        raw[3] = 1.0
        return Point(ac.LANDMARKS, raw)
    if kind == ac.LANDMARK_TUPLE:
        S_raw, L_raw = raw
        L = L_raw.copy()
        L[3] = 1.0
        return Point(ac.LANDMARK_TUPLE, (groups.project_to_group(S_raw, SE3), L))
    raise KindMismatchError(f"no raw rebuild for point kind {kind!r}")


def _base_raw(b: BaseCoordinate):
    if b.kind == "radius":
        return np.array([b.value])
    return ac.point_raw(b.value)


def reduce_system(
    X,
    sec: CrossSection,
    p: Point,
    u=None,
    verify_samples: int = 0,
    sample_input=None,
    equivariance_tol: float = 1e-8,
):
    """Split the vector field X at p into base and fiber rates.

    Returns (base_rate, fiber_rate): base_rate is the time derivative of the
    base coordinate (scalar for the sphere bundle, tangent tuple for SLAM),
    fiber_rate the algebra element whose translation gives d/dt of the fiber
    coordinate.  Closed forms for the two built-in bundles, central finite
    differences otherwise.
    """
    if verify_samples:
        resid = ac.check_equivariance_vf(
            X, sec.action, samples=verify_samples, sample_input=sample_input
        )
        if resid > equivariance_tol:
            raise KindMismatchError(
                f"vector field fails equivariance pre-check: residual {resid:.3e}"
            )

    v = X(p, u)

    if sec.name == "sphere_givens":
        return sphere_split(p.value, v)

    if sec.name == "slam_identity_slot":
        S, L = p.value
        Sdot, Ldot = v
        Sinv = groups.inverse_matrix(S.matrix)
        Vhat = Sinv @ Sdot
        fiber_rate = AlgebraElement("se3", groups.vee(Vhat))
        base_rate = (np.zeros((4, 4)), -Vhat @ (Sinv @ L) + Sinv @ Ldot)
        return base_rate, fiber_rate

    # generic path: finite differences along the flow of X
    eps = 1e-6
    raw = ac.point_raw(p)
    p_fwd = _point_from_raw(p.kind, ac.tangent_add(raw, ac.tangent_scale(eps, v)))
    p_back = _point_from_raw(p.kind, ac.tangent_add(raw, ac.tangent_scale(-eps, v)))
    base_rate = ac.tangent_scale(
        1.0 / (2.0 * eps),
        ac.tangent_sub(_base_raw(sec.base_of(p_fwd)), _base_raw(sec.base_of(p_back))),
    )
    F = sec.fiber_of(p).matrix
    dF = (sec.fiber_of(p_fwd).matrix - sec.fiber_of(p_back).matrix) / (2.0 * eps)
    body = np.linalg.solve(F, dF) if sec.action.handedness == "left" else dF @ np.linalg.inv(F)
    kind = "so3" if F.shape == (3, 3) else "se3"
    return base_rate, AlgebraElement(kind, groups.vee(body))
