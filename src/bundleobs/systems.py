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
from .integrate import Cascade, Input, IntegratorConfig, SplitRate, Trajectory, integrate_system
from .observer import ObserverProblem
from .sampling import rng_from

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

_COND_LIMIT = 1e12


# -- the gradient observer run --

def simulate_observer(
    prob: ObserverProblem,
    measure: Callable,
    u: Callable[[np.ndarray], np.ndarray],
    state0: dict,
    gain: float,
    config: IntegratorConfig,
    noise_amp: float = 0.0,
    seed: int = 42,
) -> Trajectory:
    """Integrate a true state g' = g u(t)^ alongside the gradient pre-observer.

    ``u(ts)`` maps a block's read times (k,) to the input's coordinates (k, d), each row with its read's bits
    alone.  ``state0`` maps the true state's name, then the estimate's, to their initial group elements.  The
    run calls ``measure(G, noise)``, the raw outputs (``Point.value``s) of a stack G (k, n, n), each row with a
    stack of one's bits, from None or a (k, d_out) block of draws (y's coordinates but landmarks' last row);
    ``error_columns``, ``measure(g, 0.0, None)``, an element's Point.  k reads draw (k, d_in + d_out) at once,
    as one draw per read would.  The estimate's feed-forward and its correction step by separate exponentials."""
    true, est = state0
    rng, side, kind = rng_from(seed), "body" if prob.handedness == observer.LEFT else "spatial", prob.y0.kind
    d_out = 3 * np.size(prob.y0.value) // (4 if kind == ac.LANDMARKS else 3)

    def rows(G, noise):  # measure(G, noise) checked, as rows; a bad row is its exception, and the last
        out = []
        try:
            y = measure(G, noise)
            out = list(zip(*y)) if isinstance(y, tuple) else list(y)
            ac.check_point_stack(kind, y)
        except Exception as exc:  # noqa: BLE001 -- raised in its read's place, so that no read is sensed twice
            if out or len(G) == 1:  # at the check's first bad row, else at the first
                return out[:getattr(exc, "row", 0)] + [exc]
            for i in range(len(G)):  # measure raised: one read at a time, with its own draws, finds the read
                out += rows(G[i:i + 1], noise if noise is None else noise[i:i + 1])
                if isinstance(out[-1], Exception):
                    break
        return out

    def sense(ts, rates, states):  # the measured input is the estimate's feed-forward
        v, noise = rates[true], None
        if noise_amp > 0.0:
            noise = rng.uniform(-noise_amp, noise_amp, size=(len(v), v.shape[1] + d_out))
            v, noise = v + noise[:, :v.shape[1]], noise[:, v.shape[1]:]
        return SplitRate(**{side: v}), rows(states[true], noise)

    follow = lambda t, m, y: gain * observer.zeta_e_coords(prob, m, y)  # noqa: E731
    traj = integrate_system(Cascade(lambda ts: {true: u(ts)}, sense, follow), config, state0)
    traj.extras.update(observer.error_columns(prob, traj.times, traj.arrays[true], traj.arrays[est], measure))
    return traj


# -- attitude --

def attitude_cost(y, y_ref):
    """Sum of squared distances between the two measured directions, at two pairs of vectors, or at a pair
    of (k, 3) stacks and one pair, each row with the bits of its own call."""
    (a2, a3), (b2, b3) = y, y_ref
    if a2.ndim == 2:
        return groups.row_dot(a2 - b2) + groups.row_dot(a3 - b3)
    return float(np.dot(a2 - b2, a2 - b2) + np.dot(a3 - b3, a3 - b3))


def attitude_zeta_e(R_est, y):
    """Analytic gradient direction: sum over k of -2 e_k^ (R~ y_k).

    The cross products with the fixed axes are written out by hand:
    e2 x u = (u3, 0, -u1) and e3 x v = (-v2, v1, 0), for u = R~ y2, v = R~ y3.
    The coordinates at a matrix (3, 3) and the pair's vectors, or at a stack (k, 3, 3) and the pair's
    (k, 3) stacks, each row with the bits of its own call.
    """
    if R_est.ndim == 3:
        u, v = (R_est @ x[:, :, None] for x in y)
        return -2.0 * np.concatenate([u[:, 2] - v[:, 1], v[:, 0], -u[:, 0]], axis=1)
    y2, y3 = y
    u1, _, u3 = R_est.dot(y2).tolist()
    v1, v2, _ = R_est.dot(y3).tolist()
    return np.array([-2.0 * (u3 - v2), -2.0 * v1, -2.0 * -u1])  # scaled as floats: the same products, cheaper


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


def measure_attitude(R, noise_amp=0.0, rng=None):
    """y = (R^T e2, R^T e3); optional uniform perturbation, re-normalized.  A stack R (k, 3, 3) takes a
    (k, 6) block of draws, or None, for noise_amp and gives the pair of (k, 3) stacks, unchecked; an
    element is the stack of one, with its draws from rng."""
    if not isinstance(R, np.ndarray):
        noise = rng.uniform(-noise_amp, noise_amp, size=(1, 6)) if noise_amp > 0.0 else None
        return Point(ac.DIRECTION_PAIR, tuple(x[0] for x in measure_attitude(R.matrix[None], noise)))
    y2, y3 = groups.inverse_matrix(R) @ E2, groups.inverse_matrix(R) @ E3
    if noise_amp is None:
        return y2, y3
    return tuple(x / np.sqrt(groups.row_dot(x))[:, None] for x in (y2 + noise_amp[:, :3], y3 + noise_amp[:, 3:]))


def attitude_vector_field(p: Point, omega: AlgebraElement):
    """Right-translation-equivariant kinematics R' = R Omega^."""
    return p.value.matrix @ omega.matrix


@dataclass(frozen=True)
class AttitudeScenario:
    """Closed-loop attitude observer run; ``omega(ts)``, its u, maps read times (k,) to body rates (k, 3)."""

    omega: Callable[[np.ndarray], np.ndarray]
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
        attitude_problem(), measure_attitude, scenario.omega,
        {"R": R0, "Rhat": R_est0}, scenario.gain, config, scenario.noise_amp, scenario.seed,
    )


def simulate_error_dynamics(
    prob: ObserverProblem, e0: GroupElement, gain: float, config: IntegratorConfig
) -> Trajectory:
    """Integrate the autonomous error flow e' = e (-k zeta_e)^ directly; V^e comes after the run."""

    def rate(t, state):
        return {"e": observer.error_rate(prob, state["e"], gain)}

    traj = integrate_system(rate, config, {"e": e0}, sides={"e": prob.handedness})
    e = traj.arrays["e"]  # e_g at g~ = I, g = e
    traj.extras.update(observer.error_columns(prob, traj.times, e, np.broadcast_to(np.eye(e.shape[-1]), e.shape)))
    return traj


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


def slam_landmark_cost(y, y_ref):
    """Sum of squared landmark column distances, at two (4, N) matrices, or at a stack (k, 4, N) and one
    matrix, each row with the bits of its own call."""
    A, B = np.asarray(y), np.asarray(y_ref)
    if A.shape[-2:] != B.shape:
        raise DimensionError(f"landmark count mismatch: {A.shape} vs {B.shape}")
    d = A[..., :3, :] - B[:3]
    return (d * d).reshape(len(d), -1).sum(axis=1) if A.ndim == 3 else float((d * d).sum())


def slam_zeta_e(landmarks: np.ndarray, S_est, y):
    """Landmark gradient 2 (sum_i a_i, sum_i lbar_i x a_i), twist order (linear, angular), for
    a_i = R~ (S~^-1 Lbar_i - y_i)_{1..3} = lbar_i - p~ - R~ y_i; sum_i lbar_i x a_i is read off A lbar^T.
    The coordinates at a matrix (4, 4) and the (4, N) measurement, or at a stack (k, 4, 4) and (k, 4, N),
    each row with the bits of its own call."""
    if S_est.ndim == 3:
        lbar = landmarks[:3]
        A = lbar - S_est[:, :3, 3:] - S_est[:, :3, :3] @ y[:, :3]
        M = A @ lbar.T
        W = M - np.swapaxes(M, 1, 2)
        return 2.0 * np.concatenate([A.sum(axis=2), W[:, [2, 0, 1], [1, 2, 0]]], axis=1)
    if y.shape != landmarks.shape:
        raise DimensionError(f"landmark count mismatch: {y.shape} vs {landmarks.shape}")
    lbar = landmarks[:3]
    A = lbar - S_est[:3, 3:] - S_est[:3, :3].dot(y[:3])
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = (A @ lbar.T).tolist()  # not dot: at N = 1 dot keeps a -0.0 product
    return np.array([2.0 * x for x in (*A.sum(axis=1).tolist(), m21 - m12, m02 - m20, m10 - m01)])


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
    Raises RankDeficiencyError for coplanar or too few landmarks.  Row 0 of ``recover_pose_chain``, wrapped.
    """
    return GroupElement(SE3, recover_pose_chain([M_k, M_k1])[0])


def simulate_slam_poses(
    S0: GroupElement,
    landmarks,
    twist: Callable[[np.ndarray], np.ndarray],
    n_steps: int,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate S' = S V^, V = ``twist(ts)`` (k, 6) at read times (k,): poses S_k and M_k = S_k^-1 Lbar."""
    L = np.asarray(landmarks, dtype=float)
    config = IntegratorConfig(method="rk4_cg", h=h, t_final=n_steps * h)
    traj = integrate_system(Input(lambda ts: {"S": twist(ts)}), config, {"S": S0})
    return traj.arrays["S"], groups.inverse_matrix(traj.arrays["S"]) @ L


def measure_landmarks(S, landmarks, noise_amp=0.0, rng=None):
    """Body-frame landmark matrix M = S^-1 Lbar, optionally perturbed.  A stack S (k, 4, 4) takes a (k, 3N)
    block of draws, or None, for noise_amp and gives (k, 4, N), unchecked; an element is the stack of one."""
    L = np.asarray(landmarks, dtype=float)
    if not isinstance(S, np.ndarray):
        noise = rng.uniform(-noise_amp, noise_amp, size=(1, 3 * L.shape[1])) if noise_amp > 0.0 else None
        return Point(ac.LANDMARKS, measure_landmarks(S.matrix[None], L, noise)[0])
    M = groups.inverse_matrix(S) @ L
    if noise_amp is not None:
        M[:, :3] += noise_amp.reshape(len(M), 3, -1)
    return M


def simulate_slam_observer(
    S0: GroupElement,
    S_est0: GroupElement,
    landmarks,
    twist: Callable[[np.ndarray], np.ndarray],
    gain: float,
    config: IntegratorConfig,
    noise_amp: float = 0.0,
    seed: int = 42,
) -> Trajectory:
    """``simulate_observer`` of the SLAM pose problem, states ``S`` and ``Shat``; ``twist(ts)`` (k, 6) is its u."""
    L = np.asarray(landmarks, dtype=float)
    return simulate_observer(
        slam_problem(L), lambda S, *noise: measure_landmarks(S, L, *noise), twist,
        {"S": S0, "Shat": S_est0}, gain, config, noise_amp, seed,
    )


def recover_pose_chain(measurements) -> np.ndarray:
    """Relative poses S^k with S^k M_{k+1} = M_k along a measurement sequence, as the checked
    stack (k, 4, 4) of ``groups.project_stack``.  A failing check cuts the stack at its first
    bad pair and raises once the pairs before it are through, so pairs fail in order."""
    Ms = [np.asarray(M, dtype=float) for M in measurements]
    k = next((k for k, (M_k, M_k1) in enumerate(zip(Ms, Ms[1:]))  # the first pair of bad shapes, or the count
              if M_k.shape != M_k1.shape or M_k.shape[0] != 4 or M_k.shape[1] < 4), max(len(Ms) - 1, 0))
    error = DimensionError("measurement matrices must be matching 4xN with N >= 4") if k < len(Ms) - 1 else None
    M = np.asarray(measurements[:k + 1], dtype=float) if k else np.zeros((1, 4, 4))  # those of the pairs before it
    Mt = np.swapaxes(M[1:], 1, 2)
    gram, cross = M[1:] @ Mt, M[:-1] @ Mt  # M_k+1 M_k+1^T and M_k M_k+1^T of each pair, stacked
    # non-finite M_k or M_k+1: LAPACK would print to stdout and call it rank deficient, or fail to converge
    bad = ~np.isfinite(np.concatenate([gram, cross], axis=2)).all(axis=(1, 2))
    if bad.any():
        k = bad.argmax()
        gram, cross, error = gram[:k], cross[:k], NumericalBlowupError("non-finite landmark measurements")
    bad = np.linalg.cond(gram) >= _COND_LIMIT
    if bad.any():
        k = bad.argmax()
        gram, cross, error = gram[:k], cross[:k], RankDeficiencyError(
            "M M^T is singular or ill-conditioned (coplanar or too few landmarks)")
    poses = groups.project_stack(cross @ np.linalg.inv(gram), SE3)
    if error is not None:
        raise error
    return poses
