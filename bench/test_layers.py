"""Layer micro-benchmarks: microseconds per call at each level of the stack.

Run from the repository root (``bench/`` is not in the Tier-1 testpaths):

    PYTHONPATH=src python -m pytest bench/ --benchmark-json=layers.json

``bench/merge.py`` folds the JSON of a parent run and of a change run into
one ``BENCH_<n>.json``.  Only public names are used, so the same file times
older commits too, except ``test_lie_euler_attitude_step``: it takes the
step with vector rates, which the integrator accepts since ``BENCH_10.json``,
and the layers that pass an input: since ``BENCH_21.json`` an input maps a
block's read times to stacks, ``u(ts)``, which older checkouts do not take.
Where a checkout lacks the stacked ``exp_matrix`` (before ``BENCH_12.json``),
or ``observer.error_columns`` (before ``BENCH_13.json``), their benchmarks
time the work they replace; ``write_csv`` is called with row dicts or columns,
and ``error_columns`` with matrix stacks or element lists, whichever its
signature takes.  The observer runs (since ``BENCH_15.json``; the 2,048-step
one since ``BENCH_25.json``) use only the public simulators.
"""

import inspect
import operator
from pathlib import Path

import numpy as np
import pytest

from bundleobs import actions, bundle, cli, groups, integrate, observer, systems
from bundleobs.errors import DimensionError
from bundleobs.groups import AlgebraElement, GroupElement
from bundleobs.integrate import IntegratorConfig, integrate_system
from bundleobs.sampling import random_group, random_landmarks, random_rotation, rng_from

SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

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


@pytest.mark.parametrize("kind, items", [("SE3", 200)], ids=["SE3-200"])
def test_project_stack(benchmark, kind, items):
    """``groups.project_stack`` of a stack of recovered poses, each with the drift of ``test_project_to_group``;
    ``us_per_row`` is per item."""
    rng = rng_from(2)
    ms = np.array([random_group(kind, rng).matrix for _ in range(items)])
    ms[:, :3, :3] += 1e-10
    benchmark(groups.project_stack, ms, kind)
    benchmark.extra_info["items"] = items


@pytest.mark.parametrize("kind, items", [("SO3", 512), ("SE3", 1024)], ids=["SO3-512", "SE3-1024"])
def test_check_stack(benchmark, kind, items):
    """``groups.check_stack`` of a clean stack, the check each block pass pays on its products (SO(3): 512
    rows, one block; SE(3): 1,024 rows); ``us_per_row`` is per item."""
    rng = rng_from(17)
    ms = np.array([random_group(kind, rng).matrix for _ in range(items)])
    benchmark(groups.check_stack, ms)
    benchmark.extra_info["items"] = items


@pytest.mark.parametrize("rows", [1001])
def test_givens_frames(benchmark, rows):
    """``bundle.givens_frames`` of a sphere trajectory's points, as ``sphere_splits`` takes them: the Givens
    construction and the checks of every row; ``us_per_row`` is per row."""
    q = np.random.default_rng(16).normal(size=(rows, 3))
    benchmark(bundle.givens_frames, q)
    benchmark.extra_info["items"] = rows


def test_attitude_zeta_e(benchmark):
    rng = rng_from(3)
    y = systems.measure_attitude(random_rotation(rng))
    benchmark(systems.attitude_zeta_e, random_rotation(rng).matrix, y.value)


@pytest.mark.parametrize("system", ["attitude", "slam"])
def test_follower_step(benchmark, system):
    """One serial observer correction as the block pass takes it, at fixed inputs: zeta_e's coordinates at the
    estimate's matrix, the checked ``exp_matrix`` of h times the gain-weighted correction, and
    ``integrate._chain`` by it and a fixed feed-forward factor (attitude: h = 1e-3, gain 1; SLAM: 24
    landmarks, h = 5e-3, gain 0.375, as ``slam_track``'s 24-landmark runs)."""
    rng = rng_from(15)
    if system == "attitude":
        prob, h, gain, kind = systems.attitude_problem(), 1e-3, 1.0, "SO3"
        y = systems.measure_attitude(random_rotation(rng)).value
    else:
        L = random_landmarks(rng, 24)
        prob, h, gain, kind = systems.slam_problem(L), 5e-3, 0.375, "SE3"
        y = systems.measure_landmarks(random_group(kind, rng), L).value
    m, E_b = random_group(kind, rng).matrix, groups.exp_matrix(h * rng.normal(size=3 if kind == "SO3" else 6))

    def step():
        E_s = groups.exp_matrix(h * (gain * observer.zeta_e_coords(prob, m, y)))
        return integrate._chain(m, [(E_s, E_b)])

    benchmark(step)


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
        return {"R": om, "Rhat": integrate.SplitRate(body=om, spatial=1.0 * observer.zeta_e(prob, state["Rhat"], y).vec)}

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


@pytest.mark.parametrize("kind, items", [("se3", 800), ("se3", 448)], ids=["se3", "se3-448"])
def test_exp_matrix_stack(benchmark, kind, items):
    """``groups.exp_matrix`` of a stack of se(3) vectors, ``us_per_item`` per vector: 800 normal draws, or
    448, the factors of one full rk4_cg block (64 steps of four final and three stage exponentials) of the
    slam_discrete twist at h = 0.02.  A checkout whose ``exp_matrix`` takes no stack times the loop of single
    calls."""
    if items == 800:
        vecs = np.random.default_rng(11).normal(size=(800, 6))
    else:
        h, stages, weights = 0.02, (2, 2, 1), (6, 3, 3, 6)
        ts = [i * h + d for i in range(64) for d in (0.0, *(h / s for s in stages))]
        twist = cli._omega_fn("standard", (0.3, -0.1, 0.2))(np.array(ts))
        final = [h / weights[e % 4] * twist[e] for e in range(len(ts))]
        vecs = np.array(final + [h / stages[e % 4] * twist[e] for e in range(len(ts)) if e % 4 < 3])
    try:
        groups.exp_matrix(vecs)
        fn = groups.exp_matrix
    except DimensionError:
        fn = lambda v: [groups.exp_matrix(x) for x in v]  # noqa: E731
    benchmark(fn, vecs)
    benchmark.extra_info["items"] = len(vecs)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_item"] = benchmark.stats.stats.median * 1e6 / len(vecs)


@pytest.mark.parametrize("steps, landmarks", [(200, 107)], ids=["200x107"])
def test_recover_pose_chain(benchmark, steps, landmarks):
    """``systems.recover_pose_chain`` of the measurements of a slam_discrete run (``simulate_slam_poses``,
    h = 0.02, the CLI's twist): the grams, crosses, checks, inverses and the projection of every pair;
    ``us_per_row`` is per recovered pose."""
    rng = rng_from(15)
    L, S0 = random_landmarks(rng, landmarks), random_group("SE3", rng)
    _, measurements = systems.simulate_slam_poses(S0, L, cli._omega_fn("standard", (0.3, -0.1, 0.2)), steps, 0.02)
    benchmark(systems.recover_pose_chain, measurements)
    benchmark.extra_info["items"] = steps


def test_rk4_cg_se3_open_loop_200_steps(benchmark):
    """200 rk4_cg SE(3) steps of a rate that reads only the time, as ``simulate_slam_poses``
    takes them: open-loop through ``integrate.Input``, the CLI's twist read once per block."""
    rate = integrate.Input(lambda ts: {"S": cli._omega_fn("standard", (0.3, -0.1, 0.2))(ts)})
    config = IntegratorConfig(method="rk4_cg", h=0.02, t_final=4.0)
    S0 = random_group("SE3", rng_from(6))
    benchmark(integrate_system, rate, config, {"S": S0}, {"S": "left"})


def test_cli_omega_block_of_64_reads(benchmark):
    """The CLI's standard omega read for one block of 64 ``lie_euler`` reads, as the block pass reads an
    input: one call on the block's read times; ``us_per_row`` is per read."""
    ts = np.arange(64) * 1e-3
    benchmark(cli._omega_fn("standard"), ts)
    benchmark.extra_info["items"] = 64


def test_attitude_observer_1000_steps(benchmark):
    """``simulate_attitude_observer``: 1,000 noiseless ``lie_euler`` steps, its V^e and ||zeta_e||
    columns included; ``us_per_row`` is per step."""
    scen = systems.AttitudeScenario(omega=cli._omega_fn("standard"))
    config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=1.0)
    R0 = random_rotation(rng_from(13))
    benchmark(systems.simulate_attitude_observer, R0, GroupElement.identity("SO3"), scen, config)
    benchmark.extra_info["items"] = 1000


def test_attitude_observer_2048_steps(benchmark):
    """``simulate_attitude_observer`` as above for 2,048 steps: four block passes of 512 steps, or 32 of
    64, so it shows what a block pass's fixed cost adds per step; ``us_per_row`` is per step."""
    scen = systems.AttitudeScenario(omega=cli._omega_fn("standard"))
    config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=2.048)
    R0 = random_rotation(rng_from(13))
    benchmark(systems.simulate_attitude_observer, R0, GroupElement.identity("SO3"), scen, config)
    benchmark.extra_info["items"] = 2048


def test_slam_observer_24_landmarks_200_steps(benchmark):
    """``simulate_slam_observer`` on 24 landmarks: 200 ``lie_euler`` steps with noise 0.005, as the
    noisy runs of ``slam_track`` take them; ``us_per_row`` is per step."""
    rng = rng_from(14)
    L = random_landmarks(rng, 24)
    S0, S_est0 = random_group("SE3", rng), random_group("SE3", rng)
    twist = cli._omega_fn("standard", (0.3, -0.1, 0.2))
    config = IntegratorConfig(method="lie_euler", h=5e-3, t_final=1.0)
    benchmark(systems.simulate_slam_observer, S0, S_est0, L, twist, 0.375, config, 0.005, 7)
    benchmark.extra_info["items"] = 200


def _observer_samples(system: str, rows: int) -> tuple:
    """(prob, times, G, G_est, measure) of ``rows`` random samples of the attitude or SLAM observer,
    G and G_est their (rows, k, k) stacks of true and estimate matrices."""
    rng = rng_from(12)
    if system == "attitude":
        prob, measure, kind = systems.attitude_problem(), systems.measure_attitude, "SO3"
    else:
        L = random_landmarks(rng, 24)
        prob, kind = systems.slam_problem(L), "SE3"
        measure = lambda S, amp, r: systems.measure_landmarks(S, L, amp, r)  # noqa: E731
    G, G_est = (np.array([random_group(kind, rng).matrix for _ in range(rows)]) for _ in range(2))
    return prob, np.arange(rows) * 1e-3, G, G_est, measure


def _per_sample_columns(prob, times, g, g_est, measure):
    """The V^e and ||zeta_e|| calls the step loop made per sample before ``error_columns``."""
    return [(prob.error_cost(observer.group_error(prob, a, b)), observer.zeta_e(prob, b, measure(a, 0.0, None)).norm())
            for a, b in zip(g, g_est)]


@pytest.mark.parametrize("system, rows", [("attitude", 10_001), ("slam24", 201)])
def test_error_columns(benchmark, system, rows):
    """``observer.error_columns`` over a run's rows (24 landmarks for SLAM), ``us_per_row`` per
    row; a checkout without it times the per-sample calls its step loop made instead."""
    prob, times, G, G_est, measure = _observer_samples(system, rows)
    fn = getattr(observer, "error_columns", _per_sample_columns)
    if "G" not in inspect.signature(fn).parameters:  # it takes lists of elements
        G, G_est = ([GroupElement(prob.group_kind, m) for m in ms] for ms in (G, G_est))
    benchmark(fn, prob, times, G, G_est, measure)
    benchmark.extra_info["rows"] = rows


def test_write_csv_100_rows(benchmark, tmp_path):
    """``write_csv`` of 100 attitude rows; divide by 100 for the per-row cost.  A checkout whose
    ``write_csv`` takes a list of row dicts (before ``BENCH_14.json``) gets the same rows that way."""
    rng = rng_from(7)
    rows = [
        {"t": 1e-3 * i, "state": random_rotation(rng).matrix.ravel(),
         "estimate": random_rotation(rng).matrix.ravel(), "Ve": rng.uniform(), "zeta_e_norm": rng.uniform()}
        for i in range(100)
    ]
    benchmark.extra_info["rows"] = len(rows)
    if "rows" in inspect.signature(cli.write_csv).parameters:
        benchmark(cli.write_csv, tmp_path / "rows.csv", rows)
    else:
        columns = [np.array([r[key] for r in rows]) for key in ("t", "state", "estimate", "Ve", "zeta_e_norm")]
        benchmark(cli.write_csv, tmp_path / "rows.csv", *columns)


def test_run_slam_discrete_demo(benchmark, tmp_path):
    """``cli.run_scenario`` on the slam_discrete demo: 50 rk4_cg steps, then the
    recovery, measurement and relative-pose row passes and the CSV."""
    assert benchmark(cli.run_scenario, SCENARIOS / "slam_discrete.scn", tmp_path) == 0


def test_run_sphere_split_demo(benchmark, tmp_path):
    """``cli.run_scenario`` on the sphere_split demo: 200 Euler steps, then the
    Givens split of every row and the CSV."""
    assert benchmark(cli.run_scenario, SCENARIOS / "sphere_split.scn", tmp_path) == 0
