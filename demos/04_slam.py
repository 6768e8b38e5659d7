"""SLAM with known landmarks: continuous pose observer and discrete recovery.

Continuous: an SE(3) gradient observer tracks the pose from body-frame
landmark measurements M = S^-1 Lbar, with the closed-form landmark gradient
zeta_e = 2 (sum_i a_i, sum_i lbar_i x a_i), a_i = Rhat (Shat^-1 Lbar_i - M_i)_{1..3}
(systems.slam_zeta_e). Discrete: the relative pose between
two measurement snapshots is recovered in closed form,
S^k = M_k M_{k+1}^T (M_{k+1} M_{k+1}^T)^-1.

Run with: python3 demos/04_slam.py
"""

import numpy as np

from bundleobs import AlgebraElement, GroupElement, IntegratorConfig, exp, log
from bundleobs.groups import inverse_matrix
from bundleobs.observer import group_error
from bundleobs.sampling import random_landmarks, rng_from
from bundleobs.systems import (
    recover_pose_chain,
    simulate_slam_observer,
    simulate_slam_poses,
    slam_problem,
)

rng = rng_from(42)
landmarks = random_landmarks(rng, 6)


def twist(ts):
    # body twists (linear, angular), one row per read time in ts
    return np.column_stack([np.tile([0.2, 0.0, 0.1], (len(ts), 1)),
                            np.sin(ts), np.cos(2.0 * ts), np.full_like(ts, 0.5)])


# --- continuous observer ---
S0 = exp(AlgebraElement("se3", np.array([0.2, -0.1, 0.3, 0.3, -0.2, 0.4])))
config = IntegratorConfig(method="lie_euler", h=1e-2, t_final=10.0)
traj = simulate_slam_observer(
    S0, GroupElement.identity("SE3"), landmarks, twist, gain=1.5, config=config
)
prob = slam_problem(landmarks)
final = traj.states[-1]
err = log(group_error(prob, final["S"], final["Shat"])).norm()
print("continuous observer:")
print("  initial V^e:", traj.extras["Ve"][0])
print("  final V^e:  ", traj.extras["Ve"][-1])
print("  final error twist norm:", err)

# --- discrete recovery ---
poses, measurements = simulate_slam_poses(S0, landmarks, twist, n_steps=50, h=0.05)
recovered = recover_pose_chain(measurements)
worst = max(
    np.linalg.norm(Sk - inverse_matrix(poses[k]) @ poses[k + 1])
    for k, Sk in enumerate(recovered)
)
print("\ndiscrete recovery over 50 steps:")
print("  max relative-pose error:", worst)
