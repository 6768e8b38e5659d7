"""Layer micro-benchmarks: microseconds per call at each level of the stack.

Run from the repository root (``bench/`` is not in the Tier-1 testpaths):

    PYTHONPATH=src python -m pytest bench/ --benchmark-json=layers.json

``bench/merge.py`` folds the JSON of a parent run and of a change run into
one ``BENCH_<n>.json``.  Only public names are used, so the same file times
older commits too, except ``test_lie_euler_attitude_step``: it takes the
step with vector rates, which the integrator accepts since ``BENCH_10.json``.
"""

import operator

import numpy as np
import pytest

from bundleobs import actions, cli, groups, observer, systems
from bundleobs.groups import AlgebraElement, GroupElement
from bundleobs.integrate import IntegratorConfig, integrate_system
from bundleobs.sampling import random_group, random_landmarks, random_rotation, rng_from

ALGEBRA = {
    "so3": AlgebraElement("so3", [0.3, -0.2, 0.4]),
    "se3": AlgebraElement("se3", [0.2, -0.1, 0.3, 0.3, -0.2, 0.4]),
}


@pytest.mark.parametrize("kind", ["so3", "se3"])
def test_exp(benchmark, kind):
    benchmark(groups.exp, ALGEBRA[kind])


@pytest.mark.parametrize("kind", ["so3", "se3"])
def test_log(benchmark, kind):
    benchmark(groups.log, groups.exp(ALGEBRA[kind]))


@pytest.mark.parametrize("kind", ["SO3", "SE3"])
def test_compose(benchmark, kind):
    rng = rng_from(1)
    a, b = random_group(kind, rng), random_group(kind, rng)
    benchmark(operator.matmul, a, b)


@pytest.mark.parametrize("kind", ["SO3", "SE3"])
def test_project_to_group(benchmark, kind):
    m = random_group(kind, rng_from(2)).matrix.copy()
    m[:3, :3] += 1e-10  # drift of the size one integrator step leaves
    benchmark(groups.project_to_group, m, kind)


def test_attitude_zeta_e(benchmark):
    rng = rng_from(3)
    y = systems.measure_attitude(random_rotation(rng))
    benchmark(systems.attitude_zeta_e, random_rotation(rng), y)


def test_zeta_e_numeric_slam6(benchmark):
    rng = rng_from(4)
    L = random_landmarks(rng, 6)
    prob = systems.slam_problem(L)
    y = systems.measure_landmarks(random_group("SE3", rng), L)
    S_est = random_group("SE3", rng)
    observer.zeta_e_numeric(prob, S_est, y)  # builds the per-problem probes before timing
    benchmark(observer.zeta_e_numeric, prob, S_est, y)


@pytest.mark.parametrize("n_landmarks", [6, 24])
def test_zeta_e_slam(benchmark, n_landmarks):
    """``observer.zeta_e`` of the SLAM problem, whichever gradient it registers."""
    rng = rng_from(10)
    L = random_landmarks(rng, n_landmarks)
    prob = systems.slam_problem(L)
    y = systems.measure_landmarks(random_group("SE3", rng), L)
    S_est = random_group("SE3", rng)
    observer.zeta_e(prob, S_est, y)  # builds any per-problem probes before timing
    benchmark(observer.zeta_e, prob, S_est, y)


def test_act_se3_on_landmarks12(benchmark):
    """The SLAM output action on 12 landmark columns, as ``zeta_e_numeric`` calls it."""
    rng = rng_from(8)
    a = actions.se3_on_landmarks(12)
    benchmark(actions.act, a, random_group("SE3", rng), a.sample_point(rng))


def test_act_attitude_direction_pair(benchmark):
    """The attitude output action on the direction pair (y2, y3)."""
    rng = rng_from(9)
    prob = systems.attitude_problem()
    benchmark(actions.act, prob.output_action, random_rotation(rng), systems.measure_attitude(random_rotation(rng)))


def test_lie_euler_attitude_step(benchmark):
    """One noiseless attitude observer step, as ``simulate_observer``
    takes it (plus integrate_system's fixed cost for a one-step run): the
    input is an AlgebraElement and both rates reach the integrator as
    coordinate vectors."""
    prob = systems.attitude_problem()

    def rate(t, state):
        om = AlgebraElement("so3", [np.sin(t), np.cos(2.0 * t), 0.5]).vec
        y = systems.measure_attitude(state["R"])
        return {"R": om, "Rhat": observer.preobserver_split_rate(prob, state["Rhat"], y, om)}

    rng = rng_from(5)
    state = {"R": random_rotation(rng), "Rhat": random_rotation(rng)}
    config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=1e-3)
    benchmark(integrate_system, rate, config, state, {"R": "left", "Rhat": "left"})


def test_rk4_cg_se3_step(benchmark):
    """One rk4_cg SE(3) pose step, as ``simulate_slam_poses`` takes it."""

    def rate(t, state):
        return {"S": AlgebraElement("se3", [0.3, -0.1, 0.2, np.sin(t), np.cos(2.0 * t), 0.5])}

    config = IntegratorConfig(method="rk4_cg", h=0.02, t_final=0.02)
    S0 = random_group("SE3", rng_from(6))
    benchmark(integrate_system, rate, config, {"S": S0}, {"S": "left"})


def test_write_csv_100_rows(benchmark, tmp_path):
    """``write_csv`` of 100 attitude rows; divide by 100 for the per-row cost."""
    rng = rng_from(7)
    rows = [
        {"t": 1e-3 * i, "state": random_rotation(rng).matrix.ravel(),
         "estimate": random_rotation(rng).matrix.ravel(), "Ve": rng.uniform(), "zeta_e_norm": rng.uniform()}
        for i in range(100)
    ]
    benchmark.extra_info["rows"] = len(rows)
    benchmark(cli.write_csv, tmp_path / "rows.csv", rows)
