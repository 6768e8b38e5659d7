"""Concrete systems: attitude kinematics with two direction measurements,
sphere kinematics, and SLAM with discrete-time relative-pose recovery.

The attitude and continuous SLAM observers are one run, ``simulate_observer``,
given a problem, a measurement and an input; ``simulate_attitude_observer``
and ``simulate_slam_observer`` only supply those."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import actions as ac
from . import groups, observer
from .actions import Point
from .errors import DimensionError, NumericalBlowupError, RankDeficiencyError
from .groups import SE3, SO3, AlgebraElement, GroupElement, Metric
from .integrate import IntegratorConfig, Trajectory, integrate_system
from .observer import ObserverProblem, zeta_e
from .sampling import rng_from

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

_COND_LIMIT = 1e12


# -- the gradient observer run --

def simulate_observer(
    prob: ObserverProblem,
    measure: Callable,
    u: Callable[[float], AlgebraElement],
    state0: dict,
    gain: float,
    config: IntegratorConfig,
    noise_amp: float = 0.0,
    seed: int = 42,
) -> Trajectory:
    """Integrate a true state g' = g u(t)^ alongside the gradient pre-observer.

    ``state0`` maps the true state's name, then the estimate's, to their
    initial group elements; ``measure(g, noise_amp, rng)`` gives the output.
    The observer sees the (possibly noisy) input and output; noise on the
    input is drawn before noise on the output.  The recorded V^e and
    ||zeta_e|| use the noiseless ones.  ``record`` and a noiseless ``rate``
    ask for them at the same state one after the other, so the answer for
    the last state is kept, keyed on the identity of its (immutable) group
    elements: each state costs one measurement and one zeta_e.
    """
    true, est = state0
    rng = rng_from(seed)
    last = [None, None, None]

    def clean(state):
        g, g_est = state[true], state[est]
        if last[0] is not g or last[1] is not g_est:
            y = measure(g, 0.0, None)
            last[:] = [g, g_est, (y, zeta_e(prob, g_est, y))]
        return last[2]

    def rate(t, state):
        v = u(t).vec
        if noise_amp > 0.0:
            v_meas = v + rng.uniform(-noise_amp, noise_amp, size=len(v))
            y, ze = measure(state[true], noise_amp, rng), None
        else:
            v_meas = v
            y, ze = clean(state)
        return {true: v, est: observer.preobserver_split_rate(prob, state[est], y, v_meas, gain, ze)}

    def record(t, state):
        e_g = observer.group_error(prob, state[true], state[est])
        return {"Ve": prob.error_cost(e_g), "zeta_e_norm": clean(state)[1].norm()}

    return integrate_system(rate, config, state0, record=record)


# -- attitude --

def attitude_cost(y: Point, y_est: Point) -> float:
    """Sum of squared distances between the two measured directions."""
    (a2, a3), (b2, b3) = y.value, y_est.value
    return float(np.dot(a2 - b2, a2 - b2) + np.dot(a3 - b3, a3 - b3))


def attitude_zeta_e(R_est: GroupElement, y: Point) -> AlgebraElement:
    """Analytic gradient direction: sum over k of -2 e_k^ (R~ y_k).

    The cross products with the fixed axes are written out by hand:
    e2 x u = (u3, 0, -u1) and e3 x v = (-v2, v1, 0), for u = R~ y2, v = R~ y3.
    """
    y2, y3 = y.value
    R = R_est.matrix
    u1, _, u3 = (R @ y2).tolist()
    v1, v2, _ = (R @ y3).tolist()
    ze = -2.0 * np.array([u3 - v2, v1, -u1])
    return AlgebraElement("so3", ze)


def attitude_problem(metric: Metric = Metric(), analytic: bool = True) -> ObserverProblem:
    """Left-observed attitude estimation from two inertial directions."""
    return ObserverProblem(
        group_kind=SO3,
        handedness="left",
        output_action=ac.so3_on_direction_pair(),
        y0=Point(ac.DIRECTION_PAIR, (E2, E3)),
        cost=attitude_cost,
        metric=metric,
        zeta_e_analytic=attitude_zeta_e if analytic else None,
    )


def measure_attitude(R: GroupElement, noise_amp: float = 0.0, rng=None) -> Point:
    """y = (R^T e2, R^T e3); optional uniform perturbation, re-normalized."""
    y2 = R.matrix.T @ E2
    y3 = R.matrix.T @ E3
    if noise_amp > 0.0:
        y2 = y2 + rng.uniform(-noise_amp, noise_amp, size=3)
        y3 = y3 + rng.uniform(-noise_amp, noise_amp, size=3)
        y2 /= np.linalg.norm(y2)
        y3 /= np.linalg.norm(y3)
    return Point(ac.DIRECTION_PAIR, (y2, y3))


def attitude_vector_field(p: Point, omega: AlgebraElement):
    """Right-translation-equivariant kinematics R' = R Omega^."""
    return p.value.matrix @ omega.matrix


@dataclass(frozen=True)
class AttitudeScenario:
    """Closed-loop attitude observer run."""

    omega: Callable[[float], np.ndarray]
    gain: float = 1.0
    noise_amp: float = 0.0
    seed: int = 42


def simulate_attitude_observer(
    R0: GroupElement,
    R_est0: GroupElement,
    scenario: AttitudeScenario,
    config: IntegratorConfig,
) -> Trajectory:
    """``simulate_observer`` of the attitude problem, states ``R`` and ``Rhat``."""
    return simulate_observer(
        attitude_problem(), measure_attitude, lambda t: AlgebraElement("so3", scenario.omega(t)),
        {"R": R0, "Rhat": R_est0}, scenario.gain, config, scenario.noise_amp, scenario.seed,
    )


def simulate_error_dynamics(
    prob: ObserverProblem, e0: GroupElement, gain: float, config: IntegratorConfig
) -> Trajectory:
    """Integrate the autonomous error flow e' = e (-k zeta_e)^ directly."""

    def rate(t, state):
        return {"e": observer.error_rate(prob, state["e"], gain)}

    def record(t, state):
        return {"Ve": prob.error_cost(state["e"])}

    return integrate_system(rate, config, {"e": e0}, sides={"e": prob.handedness}, record=record)


# -- sphere kinematics --

def sphere_vector_field(p: Point, v):
    """Free-particle kinematics q' = v on R^3 \\ {0}."""
    return np.asarray(v, dtype=float)


# -- SLAM --

def slam_vector_field(p: Point, v):
    """X(p, v) = (S V^, S vbar_i) for input v = (V, vbar columns)."""
    S, L = p.value
    V, vbar = v
    vbar = np.asarray(vbar, dtype=float)
    if vbar.shape != L.shape:
        raise DimensionError(f"landmark velocity shape {vbar.shape} != {L.shape}")
    return (S.matrix @ V.matrix, S.matrix @ vbar)


def slam_landmark_cost(y: Point, y_est: Point) -> float:
    """Sum of squared landmark column distances."""
    A, B = np.asarray(y.value), np.asarray(y_est.value)
    if A.shape != B.shape:
        raise DimensionError(f"landmark count mismatch: {A.shape} vs {B.shape}")
    d = A[:3] - B[:3]
    return float((d * d).sum())


def slam_zeta_e(landmarks: np.ndarray, S_est: GroupElement, y: Point) -> AlgebraElement:
    """Landmark gradient 2 (sum_i a_i, sum_i lbar_i x a_i), twist order (linear, angular), for
    a_i = R~ (S~^-1 Lbar_i - y_i)_{1..3} = lbar_i - p~ - R~ y_i; sum_i lbar_i x a_i is read off A lbar^T."""
    if y.value.shape != landmarks.shape:
        raise DimensionError(f"landmark count mismatch: {y.value.shape} vs {landmarks.shape}")
    lbar, m = landmarks[:3], S_est.matrix
    A = lbar - m[:3, 3:] - m[:3, :3] @ y.value[:3]
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = (A @ lbar.T).tolist()
    return AlgebraElement("se3", 2.0 * np.array([*A.sum(axis=1).tolist(), m21 - m12, m02 - m20, m10 - m01]))


def slam_problem(landmarks) -> ObserverProblem:
    """Left-observed SE(3) pose observer from body-frame landmark columns.

    y0 holds the inertial landmarks, so y = S^-1 Lbar_i reproduces the
    measurements; zeta_e is ``slam_zeta_e`` (Vasconcelos et al., Systems & Control Letters 2010).
    """
    L = np.asarray(landmarks, dtype=float)
    return ObserverProblem(
        group_kind=SE3,
        handedness="left",
        output_action=ac.se3_on_landmarks(L.shape[1]),
        y0=Point(ac.LANDMARKS, L),
        cost=slam_landmark_cost,
        zeta_e_analytic=lambda S_est, y: slam_zeta_e(L, S_est, y),
    )


def slam_discrete_recover(M_k, M_k1) -> GroupElement:
    """Relative pose from two landmark measurement matrices.

    S^k = M_k M_{k+1}^T (M_{k+1} M_{k+1}^T)^{-1}, projected onto SE(3).
    Raises RankDeficiencyError for coplanar or too few landmarks.
    """
    M_k = np.asarray(M_k, dtype=float)
    M_k1 = np.asarray(M_k1, dtype=float)
    if M_k.shape != M_k1.shape or M_k.shape[0] != 4 or M_k.shape[1] < 4:
        raise DimensionError("measurement matrices must be matching 4xN with N >= 4")
    gram = M_k1 @ M_k1.T
    if not groups._all_finite(gram):  # LAPACK would print to stdout and call it rank deficient
        raise NumericalBlowupError("non-finite landmark measurements")
    if np.linalg.cond(gram) >= _COND_LIMIT:
        raise RankDeficiencyError(
            "M M^T is singular or ill-conditioned (coplanar or too few landmarks)"
        )
    S = M_k @ M_k1.T @ np.linalg.inv(gram)
    return groups.project_to_group(S, SE3)


def simulate_slam_poses(
    S0: GroupElement,
    landmarks,
    twist: Callable[[float], AlgebraElement],
    n_steps: int,
    h: float,
) -> tuple[list[GroupElement], list[np.ndarray]]:
    """Propagate S' = S V^ and collect measurement matrices M_k = S_k^-1 Lbar."""
    L = np.asarray(landmarks, dtype=float)
    config = IntegratorConfig(method="rk4_cg", h=h, t_final=n_steps * h)

    def rate(t, state):
        return {"S": twist(t)}

    traj = integrate_system(rate, config, {"S": S0}, sides={"S": "left"})
    poses = [s["S"] for s in traj.states]
    measurements = [S.inverse().matrix @ L for S in poses]
    return poses, measurements


def measure_landmarks(S: GroupElement, landmarks, noise_amp: float = 0.0, rng=None) -> Point:
    """Body-frame landmark matrix M = S^-1 Lbar, optionally perturbed."""
    M = groups.inverse_matrix(S.matrix) @ np.asarray(landmarks, dtype=float)
    if noise_amp > 0.0:
        M = M.copy()
        M[:3] += rng.uniform(-noise_amp, noise_amp, size=M[:3].shape)
    return Point(ac.LANDMARKS, M)


def simulate_slam_observer(
    S0: GroupElement,
    S_est0: GroupElement,
    landmarks,
    twist: Callable[[float], AlgebraElement],
    gain: float,
    config: IntegratorConfig,
    noise_amp: float = 0.0,
    seed: int = 42,
) -> Trajectory:
    """``simulate_observer`` of the SLAM pose problem, states ``S`` and ``Shat``."""
    L = np.asarray(landmarks, dtype=float)
    return simulate_observer(
        slam_problem(L), lambda S, amp, rng: measure_landmarks(S, L, amp, rng), twist,
        {"S": S0, "Shat": S_est0}, gain, config, noise_amp, seed,
    )


def recover_pose_chain(measurements) -> list[GroupElement]:
    """Relative poses S^k with S^k M_{k+1} = M_k along a measurement sequence."""
    return [
        slam_discrete_recover(measurements[k], measurements[k + 1])
        for k in range(len(measurements) - 1)
    ]
