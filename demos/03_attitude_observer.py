"""Gradient attitude observer from two inertial direction measurements.

The true attitude follows R' = R hat(Omega(t)); the observer copies the
feedforward and adds a gradient correction built from y = (R^T e2, R^T e3).
The estimation error e = R Rhat^-1 evolves autonomously and the cost V^e
decreases monotonically.

Run with: python3 demos/03_attitude_observer.py
"""

import numpy as np

from bundleobs import GroupElement, IntegratorConfig, exp, hat, log
from bundleobs.observer import group_error
from bundleobs.systems import AttitudeScenario, attitude_problem, simulate_attitude_observer

# 60 degree initial error, estimate starts at the identity.
R0 = exp(hat(np.pi / 3 * np.array([0.0, 0.6, 0.8])))
# omega(ts) maps a block of read times (k,) to the body rates (k, 3).
scenario = AttitudeScenario(
    omega=lambda ts: np.column_stack([np.sin(ts), np.cos(2.0 * ts), np.full_like(ts, 0.5)]),
    gain=1.0,
)
config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=20.0)

traj = simulate_attitude_observer(R0, GroupElement.identity("SO3"), scenario, config)

prob = attitude_problem()
print(" t      V^e          error angle [rad]")
for i in range(0, len(traj.times), len(traj.times) // 10):
    state = traj.states[i]
    angle = log(group_error(prob, state["R"], state["Rhat"])).norm()
    print(f"{traj.times[i]:5.1f}  {traj.extras['Ve'][i]:.3e}    {angle:.3e}")

final = traj.states[-1]
print("\nfinal error angle:", log(group_error(prob, final["R"], final["Rhat"])).norm())
print("V^e monotone non-increasing:", bool(np.all(np.diff(traj.extras["Ve"]) <= 1e-9)))
