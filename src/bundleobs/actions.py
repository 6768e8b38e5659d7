"""Group actions, infinitesimal generators, and equivariance certification.

A Point is a tagged union of raw arrays: a vector, a group matrix, landmark
columns, or a pair of arrays.  An ActionSpec defines each action by one map,
``lift(m, t)``, on those arrays.  All concrete actions here are linear in
them, so that map is both the action (``act`` applies it to ``p.value`` and
builds the image point) and its differential on tangents.  Its infinitesimal
generator is a required closed form.  A tangent has its point's layout, an
array or a pair of arrays (no invariant checks).
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

R3 = "r3"
S2 = "s2"
GROUP = "group"
LANDMARK_TUPLE = "landmark_tuple"
LANDMARKS = "landmarks"
DIRECTION_PAIR = "direction_pair"
_GROUP_OF_SHAPE = {(3, 3): SO3, (4, 4): SE3}


@dataclass(frozen=True)
class Point:
    """A point of one of the supported homogeneous spaces, as its raw arrays: a 3-vector (r3, s2 of unit norm),
    a group matrix (3x3 for SO(3), 4x4 for SE(3), checked and frozen by the ``GroupElement`` constructor),
    homogeneous landmark columns (4, N), or a tuple: (an SE(3) pose matrix, landmarks), or two unit 3-vectors.
    Landmarks and direction pairs are checked by ``check_point_stack``, as a stack of one."""

    kind: str
    value: object

    def __post_init__(self):
        k, v = self.kind, self.value
        if k in (R3, S2):
            v = np.asarray(v, dtype=float)
            if v.shape != (3,):
                raise KindMismatchError(f"{k} point must be a 3-vector")
            if k == S2 and not abs(math.sqrt(v @ v) - 1.0) <= 1e-12:  # fails closed on NaN
                raise KindMismatchError("s2 point must have unit norm")
        elif k == GROUP:
            group_kind = _GROUP_OF_SHAPE.get(np.shape(v))
            if group_kind is None:
                raise KindMismatchError("group point must hold a 3x3 or 4x4 matrix")
            v = GroupElement(group_kind, v).matrix
        elif k == LANDMARK_TUPLE:
            if not (isinstance(v, tuple) and len(v) == 2 and np.shape(v[0]) == (4, 4)):
                raise KindMismatchError("landmark tuple needs an SE3 pose matrix, then landmarks")
            v = (GroupElement(SE3, v[0]).matrix, Point(LANDMARKS, v[1]).value)
        elif k == LANDMARKS:
            v = check_point_stack(k, np.asarray(v, dtype=float)[None])[0]
        elif k == DIRECTION_PAIR:
            pair = tuple(np.asarray(x, dtype=float)[None] for x in v) if isinstance(v, tuple) else v
            v = tuple(x[0] for x in check_point_stack(k, pair))
        else:
            raise KindMismatchError(f"unknown point kind {k!r}")
        object.__setattr__(self, "value", v)


def check_point_stack(kind: str, value):
    """The Point rule of a direction pair or landmarks on each point of a stack, returning ``value``: a direction
    pair is a tuple of two (k, 3) stacks of unit vectors (norms by ``groups.row_dot``, within 1e-12), landmarks a
    (k, 4, N) stack whose last row is 1.  The error's ``row`` is the first bad point, 0 for a stack of another
    shape."""
    ok = np.zeros((1, 1), bool)  # one bad point, row 0, unless the stack has the kind's shape
    if kind == DIRECTION_PAIR:
        if isinstance(value, tuple) and len(value) == 2 and all(
                isinstance(x, np.ndarray) and x.shape[1:] == (3,) and x.shape == value[0].shape for x in value):
            ok = (abs(np.sqrt(groups.row_dot(np.concatenate(value))) - 1.0) <= 1e-12).reshape(2, -1).T
    elif isinstance(value, np.ndarray) and value.ndim == 3 and value.shape[1] == 4:
        ok = value[:, 3] == 1.0
    if not ok.all():
        exc = KindMismatchError("direction pair entries must be unit 3-vectors" if kind == DIRECTION_PAIR
                                else "landmark columns must be homogeneous (last entry 1)")
        exc.row = int(ok.all(axis=1).argmin())
        raise exc
    return value


@dataclass(frozen=True)
class ActionSpec:
    """A left or right action of SO(3)/SE(3) on one point kind.

    ``lift(m, t)`` is the one map of the action, at g's matrix m.  Every
    action here is linear in the point's raw arrays, so the same map sends
    ``p.value`` to the value of phi_g(p), which ``act`` builds into a point,
    and sends a tangent t at any p to T_p(phi_g) t.
    A stack of matrices (k, n, n) sends one point's arrays to the stack of
    their images, each item with the bits of its own call.  ``generator(zeta,
    p)`` is the closed-form infinitesimal generator.
    """

    name: str
    handedness: str  # "left" | "right"
    group_kind: str
    point_kind: str
    lift: Callable[[np.ndarray, object], object]
    generator: Callable[[AlgebraElement, Point], object]
    sample_point: Optional[Callable[[np.random.Generator], Point]] = None


def act(a: ActionSpec, g: GroupElement, p: Point) -> Point:
    if g.kind != a.group_kind:
        raise KindMismatchError(f"action {a.name} expects {a.group_kind} elements, got {g.kind}")
    if p.kind != a.point_kind:
        raise KindMismatchError(f"action {a.name} acts on {a.point_kind} points, got {p.kind}")
    if p.kind == GROUP and p.value.shape != g.matrix.shape:
        raise KindMismatchError(f"action {a.name} acts on {a.group_kind} points, got a {p.value.shape} matrix")
    raw = a.lift(g.matrix, p.value)
    return Point(a.point_kind, raw / np.linalg.norm(raw) if a.point_kind == S2 else raw)


# -- tangent arithmetic (a tangent is an array, or a pair of arrays, in its point's layout) --

def tangent_map(f, *ts):
    """f applied to the arrays of the tangents ``ts``, slot by slot for pairs."""
    if isinstance(ts[0], tuple):
        return tuple(f(*map(np.asarray, xs)) for xs in zip(*ts))
    return f(*map(np.asarray, ts))


def tangent_norm(t) -> float:
    if isinstance(t, tuple):
        return float(np.sqrt(sum(float(np.linalg.norm(x)) ** 2 for x in t)))
    return float(np.linalg.norm(t))


def point_distance(p1: Point, p2: Point) -> float:
    if p1.kind != p2.kind:
        raise KindMismatchError(f"cannot compare {p1.kind} with {p2.kind}")
    return tangent_norm(tangent_map(np.subtract, p1.value, p2.value))


# -- concrete actions --

def _left_multiply(m, t):
    return m @ t


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

    def lift(m, t):
        m = m if handedness == "left" else np.swapaxes(m, -1, -2)
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

    def lift(m, t):  # a stack of matrices gives the stack of k copies, as every action's lift does
        return t if np.ndim(m) == 2 else tangent_map(lambda x: np.broadcast_to(x, (len(m), *x.shape)), t)

    def gen(zeta, p):
        return tangent_map(lambda x: 0.0 * x, p.value)

    return ActionSpec(f"trivial_on_{point_kind}", handedness, group_kind, point_kind, lift, gen, sample_point)


def group_translation(group_kind: str, handedness: str) -> ActionSpec:
    """The group acting on itself by left or right multiplication."""

    def lift(m, t):
        return m @ t if handedness == "left" else t @ m

    def gen(zeta, p):
        h = p.value
        return zeta.matrix @ h if handedness == "left" else h @ zeta.matrix

    def sample(rng):
        return Point(GROUP, random_group(group_kind, rng).matrix)

    return ActionSpec(
        f"{group_kind.lower()}_{handedness}_translation", handedness, group_kind, GROUP, lift, gen, sample
    )


def slam_action(n_landmarks: int = 6) -> ActionSpec:
    """Right SE(3) action on (pose, landmarks): phi_g(p) = (g^-1 S, g^-1 Lbar_i)."""

    def lift(m, t):
        gi = groups.inverse_matrix(m)
        return (gi @ t[0], gi @ t[1])

    def gen(zeta, p):
        S, L = p.value
        W = zeta.matrix
        return (-W @ S, -W @ L)

    def sample(rng):
        return Point(LANDMARK_TUPLE, (random_group(SE3, rng).matrix, random_landmarks(rng, n_landmarks)))

    return ActionSpec("slam_right_action", "right", SE3, LANDMARK_TUPLE, lift, gen, sample)


def se3_on_landmarks(n_landmarks: int = 6) -> ActionSpec:
    """Left SE(3) action on homogeneous landmark columns."""

    def sample(rng):
        return Point(LANDMARKS, random_landmarks(rng, n_landmarks))

    return ActionSpec("se3_on_landmarks", "left", SE3, LANDMARKS, _left_multiply, _algebra_times_point, sample)


# -- generators and checkers --

def infinitesimal_generator(a: ActionSpec, zeta: AlgebraElement, p: Point):
    """d/dt|_0 of t -> act(exp(t zeta), p), by the action's closed form."""
    if zeta.group_kind != a.group_kind:
        raise KindMismatchError(f"{zeta.kind} generator on a {a.group_kind} action")
    return a.generator(zeta, p)


def _worst(a: ActionSpec, samples: int, seed, residual) -> float:
    """Max over ``samples`` draws (a point p from ``a``'s sampler, then a group element g)
    of the residuals that ``residual(rng, p, g)`` returns, folded in their order."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if a.sample_point is None:
        raise ValueError(f"action {a.name} has no registered point sampler")
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(samples):
        p = a.sample_point(rng)
        worst = max(worst, *residual(rng, p, random_group(a.group_kind, rng)))
    return worst


def check_action_laws(a: ActionSpec, samples: int = 20, seed=42) -> float:
    """Max residual of the identity and composition laws on random samples."""
    e = GroupElement.identity(a.group_kind)

    def residual(rng, p, g):
        h = random_group(a.group_kind, rng)
        composed = g @ h if a.handedness == "left" else h @ g
        return point_distance(act(a, e, p), p), point_distance(act(a, g, act(a, h, p)), act(a, composed, p))

    return _worst(a, samples, seed, residual)


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

    def residual(rng, p, g):
        u = sample_input(rng) if sample_input is not None else None
        lifted = state_action.lift(g.matrix, X(p, u))
        direct = X(act(state_action, g, p), u if input_action is None else input_action(g, u))
        return (tangent_norm(tangent_map(np.subtract, lifted, direct)),)

    return _worst(state_action, samples, seed, residual)


def check_equivariance_output(
    H,
    state_action: ActionSpec,
    output_action: ActionSpec,
    samples: int = 100,
    seed=42,
) -> float:
    """Max residual of varphi_g(H(p)) = H(phi_g(p)) over random samples."""

    def residual(rng, p, g):
        return (point_distance(act(output_action, g, H(p)), H(act(state_action, g, p))),)

    return _worst(state_action, samples, seed, residual)


def check_ad_equivariance(a: ActionSpec, samples: int = 100, seed=42) -> float:
    """Residual of T_p(phi_g) zeta_P(p) = (Ad_g zeta)_P(phi_g p) (left actions)
    or the Ad_{g^-1} version (right actions)."""

    def residual(rng, p, g):
        zeta = random_algebra("so3" if a.group_kind == SO3 else "se3", rng)
        lifted = a.lift(g.matrix, infinitesimal_generator(a, zeta, p))
        conj = g if a.handedness == "left" else g.inverse()
        direct = infinitesimal_generator(a, groups.adjoint(conj, zeta), act(a, g, p))
        return (tangent_norm(tangent_map(np.subtract, lifted, direct)),)

    return _worst(a, samples, seed, residual)
