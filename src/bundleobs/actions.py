"""Group actions, infinitesimal generators, and equivariance certification.

An ActionSpec defines each action by one map, ``lift(g, t)``, on raw arrays.
All concrete actions here are linear in the raw arrays of the point, so that
map is both the action (``act`` applies it to the point's arrays and rebuilds
the point) and its differential on tangents.  Points are tagged unions;
tangents mirror the point payload as bare arrays (no invariant checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups
from .errors import KindMismatchError
from .groups import SE3, SO3, AlgebraElement, GroupElement
from .sampling import (
    random_algebra,
    random_group,
    random_landmarks,
    random_unit,
    rng_from,
)

FD_STEP = 1e-6

R3 = "r3"
S2 = "s2"
GROUP = "group"
LANDMARK_TUPLE = "landmark_tuple"
LANDMARKS = "landmarks"
DIRECTION_PAIR = "direction_pair"


@dataclass(frozen=True)
class Point:
    """A point of one of the supported homogeneous spaces."""

    kind: str
    value: object

    def __post_init__(self):
        k, v = self.kind, self.value
        if k in (R3, S2):
            v = np.asarray(v, dtype=float)
            if v.shape != (3,):
                raise KindMismatchError(f"{k} point must be a 3-vector")
            if k == S2 and abs(math.sqrt(v @ v) - 1.0) > 1e-12:
                raise KindMismatchError("s2 point must have unit norm")
        elif k == GROUP:
            if not isinstance(v, GroupElement):
                raise KindMismatchError("group point must wrap a GroupElement")
        elif k == LANDMARK_TUPLE:
            S, L = v
            if not (isinstance(S, GroupElement) and S.kind == SE3):
                raise KindMismatchError("landmark tuple needs an SE3 pose in the first slot")
            L = np.asarray(L, dtype=float)
            if L.ndim != 2 or L.shape[0] != 4 or not (L[3] == 1.0).all():
                raise KindMismatchError("landmark columns must be homogeneous (last entry 1)")
            v = (S, L)
        elif k == LANDMARKS:
            L = np.asarray(v, dtype=float)
            if L.ndim != 2 or L.shape[0] != 4 or not (L[3] == 1.0).all():
                raise KindMismatchError("landmark columns must be homogeneous (last entry 1)")
            v = L
        elif k == DIRECTION_PAIR:
            a, b = (np.asarray(x, dtype=float) for x in v)
            for x in (a, b):
                if x.shape != (3,) or abs(math.sqrt(x @ x) - 1.0) > 1e-12:
                    raise KindMismatchError("direction pair entries must be unit 3-vectors")
            v = (a, b)
        else:
            raise KindMismatchError(f"unknown point kind {k!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class ActionSpec:
    """A left or right action of SO(3)/SE(3) on one point kind.

    ``lift(g, t)`` is the one map of the action.  Every action here is linear
    in the point's raw arrays, so the same map sends a point's raw arrays
    (``point_raw(p)``) to those of phi_g(p), which ``act`` rebuilds into a
    point, and sends a tangent t at any p to T_p(phi_g) t.  ``generator(zeta,
    p)``, when given, is the closed-form infinitesimal generator.
    """

    name: str
    handedness: str  # "left" | "right"
    group_kind: str
    point_kind: str
    lift: Callable[[GroupElement, object], object]
    generator: Optional[Callable[[AlgebraElement, Point], object]] = None
    sample_point: Optional[Callable[[np.random.Generator], Point]] = None


def act(a: ActionSpec, g: GroupElement, p: Point) -> Point:
    if g.kind != a.group_kind:
        raise KindMismatchError(f"action {a.name} expects {a.group_kind} elements, got {g.kind}")
    if p.kind != a.point_kind:
        raise KindMismatchError(f"action {a.name} acts on {a.point_kind} points, got {p.kind}")
    if p.kind == GROUP and p.value.kind != a.group_kind:
        raise KindMismatchError(f"action {a.name} acts on {a.group_kind} points, got {p.value.kind}")
    return _point_from_raw(a, a.lift(g, point_raw(p)))


def _point_from_raw(a: ActionSpec, raw) -> Point:
    """The point of ``a``'s kind whose raw arrays are ``raw``: an S2 vector is
    renormalized, and group poses go through the validating constructor."""
    if a.point_kind == S2:
        raw = raw / np.linalg.norm(raw)
    elif a.point_kind == GROUP:
        raw = GroupElement(a.group_kind, raw)
    elif a.point_kind == LANDMARK_TUPLE:
        raw = (GroupElement(SE3, raw[0]), raw[1])
    return Point(a.point_kind, raw)


# -- tangent arithmetic (tangents mirror the point payload as raw arrays) --

def tangent_sub(t1, t2):
    if isinstance(t1, tuple):
        return tuple(tangent_sub(a, b) for a, b in zip(t1, t2))
    return np.asarray(t1) - np.asarray(t2)


def tangent_scale(c, t):
    if isinstance(t, tuple):
        return tuple(tangent_scale(c, x) for x in t)
    return c * np.asarray(t)


def tangent_add(t1, t2):
    if isinstance(t1, tuple):
        return tuple(tangent_add(a, b) for a, b in zip(t1, t2))
    return np.asarray(t1) + np.asarray(t2)


def tangent_norm(t) -> float:
    if isinstance(t, tuple):
        return float(np.sqrt(sum(tangent_norm(x) ** 2 for x in t)))
    return float(np.linalg.norm(t))


def point_raw(p: Point):
    """Payload of p as raw arrays, shaped like a tangent at p."""
    if p.kind == GROUP:
        return p.value.matrix
    if p.kind == LANDMARK_TUPLE:
        S, L = p.value
        return (S.matrix, L)
    return p.value  # an array, or the direction pair's two arrays


def point_distance(p1: Point, p2: Point) -> float:
    if p1.kind != p2.kind:
        raise KindMismatchError(f"cannot compare {p1.kind} with {p2.kind}")
    return tangent_norm(tangent_sub(point_raw(p1), point_raw(p2)))


# -- concrete actions --

def _left_multiply(g, t):
    return g.matrix @ t


def _algebra_times_point(zeta, p):
    return zeta.matrix @ p.value


def so3_on_r3() -> ActionSpec:
    def sample(rng):
        q = rng.normal(size=3)
        while np.linalg.norm(q) < 0.1:
            q = rng.normal(size=3)
        return Point(R3, q)

    return ActionSpec("so3_on_r3", "left", SO3, R3, _left_multiply, _algebra_times_point, sample)


def so3_on_s2() -> ActionSpec:
    def sample(rng):
        return Point(S2, random_unit(rng))

    return ActionSpec("so3_on_s2", "left", SO3, S2, _left_multiply, _algebra_times_point, sample)


def so3_on_direction_pair(handedness: str = "left") -> ActionSpec:
    """Rotations on a pair of unit directions: y -> (gy2, gy3) as a left
    action, y -> (g^-1 y2, g^-1 y3) as a right action."""

    def lift(g, t):
        m = g.matrix if handedness == "left" else g.matrix.T
        return (m @ t[0], m @ t[1])

    def gen(zeta, p):
        a, b = p.value
        sign = 1.0 if handedness == "left" else -1.0
        return (sign * zeta.matrix @ a, sign * zeta.matrix @ b)

    def sample(rng):
        a = random_unit(rng)
        b = np.cross(a, random_unit(rng))
        while np.linalg.norm(b) < 0.1:
            b = np.cross(a, random_unit(rng))
        return Point(DIRECTION_PAIR, (a, b / np.linalg.norm(b)))

    return ActionSpec(
        f"so3_on_direction_pair_{handedness}", handedness, SO3, DIRECTION_PAIR, lift, gen, sample
    )


def trivial_action(group_kind: str, point_kind: str, handedness: str, sample_point=None) -> ActionSpec:
    """The action that fixes every point (e.g. the SLAM output action)."""

    def lift(g, t):
        return t

    def gen(zeta, p):
        return tangent_scale(0.0, point_raw(p))

    return ActionSpec(f"trivial_on_{point_kind}", handedness, group_kind, point_kind, lift, gen, sample_point)


def group_translation(group_kind: str, handedness: str) -> ActionSpec:
    """The group acting on itself by left or right multiplication."""

    def lift(g, t):
        return g.matrix @ t if handedness == "left" else t @ g.matrix

    def gen(zeta, p):
        h = p.value.matrix
        return zeta.matrix @ h if handedness == "left" else h @ zeta.matrix

    def sample(rng):
        return Point(GROUP, random_group(group_kind, rng))

    return ActionSpec(
        f"{group_kind.lower()}_{handedness}_translation", handedness, group_kind, GROUP, lift, gen, sample
    )


def slam_action(n_landmarks: int = 6) -> ActionSpec:
    """Right SE(3) action on (pose, landmarks): phi_g(p) = (g^-1 S, g^-1 Lbar_i)."""

    def lift(g, t):
        gi = groups.inverse_matrix(g.matrix)
        return (gi @ t[0], gi @ t[1])

    def gen(zeta, p):
        S, L = p.value
        W = zeta.matrix
        return (-W @ S.matrix, -W @ L)

    def sample(rng):
        return Point(LANDMARK_TUPLE, (random_group(SE3, rng), random_landmarks(rng, n_landmarks)))

    return ActionSpec("slam_right_action", "right", SE3, LANDMARK_TUPLE, lift, gen, sample)


def se3_on_landmarks(n_landmarks: int = 6) -> ActionSpec:
    """Left SE(3) action on homogeneous landmark columns."""

    def sample(rng):
        return Point(LANDMARKS, random_landmarks(rng, n_landmarks))

    return ActionSpec("se3_on_landmarks", "left", SE3, LANDMARKS, _left_multiply, _algebra_times_point, sample)


# -- generators and checkers --

def infinitesimal_generator(a: ActionSpec, zeta: AlgebraElement, p: Point):
    """d/dt|_0 of t -> act(exp(t zeta), p); closed form when registered."""
    if zeta.group_kind != a.group_kind:
        raise KindMismatchError(f"{zeta.kind} generator on a {a.group_kind} action")
    if a.generator is not None:
        return a.generator(zeta, p)
    fwd = point_raw(act(a, groups.exp(FD_STEP * zeta), p))
    back = point_raw(act(a, groups.exp(-FD_STEP * zeta), p))
    return tangent_scale(1.0 / (2.0 * FD_STEP), tangent_sub(fwd, back))


def _default_sampler(a: ActionSpec):
    if a.sample_point is None:
        raise ValueError(f"action {a.name} has no registered point sampler")
    return a.sample_point


def check_action_laws(a: ActionSpec, samples: int = 20, seed=42) -> float:
    """Max residual of the identity and composition laws on random samples."""
    rng = rng_from(seed)
    sampler = _default_sampler(a)
    e = GroupElement.identity(a.group_kind)
    worst = 0.0
    for _ in range(samples):
        p = sampler(rng)
        g = random_group(a.group_kind, rng)
        h = random_group(a.group_kind, rng)
        worst = max(worst, point_distance(act(a, e, p), p))
        composed = g @ h if a.handedness == "left" else h @ g
        worst = max(worst, point_distance(act(a, g, act(a, h, p)), act(a, composed, p)))
    return worst


def check_equivariance_vf(
    X,
    state_action: ActionSpec,
    input_action=None,
    samples: int = 100,
    seed=42,
    sample_input=None,
) -> float:
    """Max residual of T_p(phi_g) X(p, u) = X(phi_g p, psi_g u) over samples.

    X maps (Point, input) to a tangent.  input_action is a (g, u) -> u map
    (None means the identity input action psi = id).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng_from(seed)
    sampler = _default_sampler(state_action)
    worst = 0.0
    for _ in range(samples):
        p = sampler(rng)
        g = random_group(state_action.group_kind, rng)
        u = sample_input(rng) if sample_input is not None else None
        lifted = state_action.lift(g, X(p, u))
        gu = u if input_action is None else input_action(g, u)
        direct = X(act(state_action, g, p), gu)
        worst = max(worst, tangent_norm(tangent_sub(lifted, direct)))
    return worst


def check_equivariance_output(
    H,
    state_action: ActionSpec,
    output_action: ActionSpec,
    samples: int = 100,
    seed=42,
) -> float:
    """Max residual of varphi_g(H(p)) = H(phi_g(p)) over random samples."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng_from(seed)
    sampler = _default_sampler(state_action)
    worst = 0.0
    for _ in range(samples):
        p = sampler(rng)
        g = random_group(state_action.group_kind, rng)
        worst = max(worst, point_distance(act(output_action, g, H(p)), H(act(state_action, g, p))))
    return worst


def check_ad_equivariance(a: ActionSpec, samples: int = 100, seed=42) -> float:
    """Residual of T_p(phi_g) zeta_P(p) = (Ad_g zeta)_P(phi_g p) (left actions)
    or the Ad_{g^-1} version (right actions)."""
    rng = rng_from(seed)
    sampler = _default_sampler(a)
    worst = 0.0
    for _ in range(samples):
        p = sampler(rng)
        g = random_group(a.group_kind, rng)
        zeta = random_algebra("so3" if a.group_kind == SO3 else "se3", rng)
        lifted = a.lift(g, infinitesimal_generator(a, zeta, p))
        conj = g if a.handedness == "left" else g.inverse()
        direct = infinitesimal_generator(a, groups.adjoint(conj, zeta), act(a, g, p))
        worst = max(worst, tangent_norm(tangent_sub(lifted, direct)))
    return worst
