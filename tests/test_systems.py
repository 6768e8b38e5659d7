"""Concrete systems: attitude, sphere, SLAM (continuous and discrete)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleobs import actions as ac
from bundleobs import bundle, groups, observer, systems
from bundleobs.actions import Point, act
from bundleobs.errors import (
    BundleobsError,
    DimensionError,
    NumericalBlowupError,
    ProjectionFailureError,
    RankDeficiencyError,
)
from bundleobs.groups import AlgebraElement, GroupElement, exp, hat, log
from bundleobs.integrate import IntegratorConfig, integrate_system
from bundleobs.sampling import random_algebra, random_group, random_landmarks, random_rotation, rng_from

E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestAttitudeCost:
    def test_zero_at_equal(self):
        rng = rng_from(0)
        y = systems.measure_attitude(random_rotation(rng))
        assert systems.attitude_cost(y, y) == 0.0

    def test_antipodal_half_turn(self):
        y = systems.measure_attitude(GroupElement.identity("SO3"))
        y_flip = systems.measure_attitude(exp(hat([np.pi, 0.0, 0.0])))
        assert abs(systems.attitude_cost(y, y_flip) - 8.0) <= 1e-12

    def test_definition_unfolding(self):
        rng = rng_from(1)
        R, R_est = random_rotation(rng), random_rotation(rng)
        y = systems.measure_attitude(R)
        y_est = systems.measure_attitude(R_est)
        E = R.matrix @ R_est.matrix.T
        direct = float(
            np.sum((E3 - E.T @ E3) ** 2) + np.sum((E2 - E.T @ E2) ** 2)
        )
        # cost on outputs equals the error-matrix form
        got = systems.attitude_cost(y, y_est)
        assert abs(got - direct) <= 1e-10

    def test_measurement_consistency_with_output_action(self):
        rng = rng_from(2)
        R = random_rotation(rng)
        y = systems.measure_attitude(R)
        out = act(systems.attitude_problem().output_action, R.inverse(),
                  Point(ac.DIRECTION_PAIR, (E2, E3)))
        assert ac.point_distance(y, out) <= 1e-12

    def test_noisy_measurement_stays_unit(self):
        rng = rng_from(3)
        y = systems.measure_attitude(random_rotation(rng), noise_amp=0.2, rng=rng)
        assert abs(np.linalg.norm(y.value[0]) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(y.value[1]) - 1.0) <= 1e-12


class TestAttitudeZetaE:
    def test_zero_at_zero_error(self):
        rng = rng_from(4)
        R_est = random_rotation(rng)
        y = systems.measure_attitude(R_est)
        assert systems.attitude_zeta_e(R_est, y).norm() <= 1e-12

    def test_matches_numeric_gradient(self):
        prob = systems.attitude_problem(analytic=False)
        rng = rng_from(5)
        for _ in range(30):
            R_est = random_rotation(rng)
            y = systems.measure_attitude(random_rotation(rng))
            ana = systems.attitude_zeta_e(R_est, y)
            num = observer.zeta_e_numeric(prob, R_est, y)
            assert np.linalg.norm(ana.vec - num.vec) <= 1e-6

    def test_closed_form_sum(self):
        rng = rng_from(6)
        R_est = random_rotation(rng)
        y = systems.measure_attitude(random_rotation(rng))
        y2, y3 = y.value
        expected = -2.0 * (np.cross(E2, R_est.matrix @ y2) + np.cross(E3, R_est.matrix @ y3))
        # the hand-written cross products do the same float operations
        np.testing.assert_array_equal(systems.attitude_zeta_e(R_est, y).vec, expected)


PLANAR = np.array(
    [
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
    ]
)


def _chain(rng, n_landmarks, length, noise):
    """Measurements M_k = S_k^-1 Lbar of random poses S_k, with uniform noise on the first three rows."""
    L = random_landmarks(rng, n_landmarks)
    chain = [groups.inverse_matrix(random_group("SE3", rng).matrix) @ L for _ in range(length)]
    for M in chain:
        M[:3] += rng.uniform(-noise, noise, size=M[:3].shape)
    return chain


def _recover_pair(M_k, M_k1):
    """``slam_discrete_recover`` of one pair written out with 2-D @ and an SVD per pair:
    the reference the stacked ``recover_pose_chain`` must match bit for bit."""
    gram = M_k1 @ M_k1.T
    if not (np.isfinite(gram).all() and np.isfinite(M_k @ M_k1.T).all()):
        raise NumericalBlowupError("non-finite")
    if np.linalg.cond(gram) >= 1e12:
        raise RankDeficiencyError("rank")
    S = M_k @ M_k1.T @ np.linalg.inv(gram)
    if not np.isfinite(S).all():
        raise NumericalBlowupError("non-finite")
    U, _, Vt = np.linalg.svd(S[:3, :3])
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    if np.linalg.norm(R - S[:3, :3]) > 0.5:
        raise ProjectionFailureError("far")
    out = np.eye(4)
    out[:3, :3], out[:3, 3] = R, S[:3, 3]
    return GroupElement("SE3", out).matrix


class TestStackedRecovery:
    """``recover_pose_chain`` recovers a whole chain at once; every pose must carry the
    bits of the per-pair code, and the first failing pair decides the error."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_landmarks=st.integers(4, 40),
        length=st.integers(1, 8),
        noise=st.sampled_from([0.0, 1e-3, 0.05]),
        bad=st.sampled_from([None, "planar", "huge", "far"]),
        where=st.integers(0, 7),
    )
    def test_chain_matches_per_pair_code(self, seed, n_landmarks, length, noise, bad, where):
        chain = _chain(rng_from(seed), n_landmarks, length, noise)
        if bad is not None and where < length:
            M = chain[where]
            M[:3] = {"planar": lambda m: m * [[1.0], [1.0], [0.0]], "huge": lambda m: m * 1e200,
                     "far": lambda m: 3.0 * m}[bad](M[:3])
        pairs = list(zip(chain, chain[1:]))
        expected = None
        with np.errstate(all="ignore"):
            for pair in pairs:
                try:
                    _recover_pair(*pair)
                except BundleobsError as exc:
                    expected = type(exc)
                    break
            if expected is not None:
                with pytest.raises(expected):
                    systems.recover_pose_chain(chain)
                return
            recovered = systems.recover_pose_chain(chain)
        assert len(recovered) == len(pairs)
        for S, pair in zip(recovered, pairs):
            assert S.matrix.tobytes() == _recover_pair(*pair).tobytes()
            assert systems.slam_discrete_recover(*pair).matrix.tobytes() == S.matrix.tobytes()


class TestSlamDiscrete:
    def test_equal_measurements_give_identity(self):
        rng = rng_from(7)
        M = random_landmarks(rng, 6)
        S = systems.slam_discrete_recover(M, M)
        np.testing.assert_allclose(S.matrix, np.eye(4), atol=1e-12)

    def test_construct_then_recover(self):
        rng = rng_from(8)
        S_true = random_group("SE3", rng)
        M_k1 = random_landmarks(rng, 6)
        M_k = S_true.matrix @ M_k1
        S = systems.slam_discrete_recover(M_k, M_k1)
        assert np.linalg.norm(S.matrix - S_true.matrix) <= 1e-9

    def test_coplanar_rejected(self):
        planar = np.array(
            [
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
                [1.0, 1.0, 1.0, 1.0],
            ]
        )
        with pytest.raises(RankDeficiencyError):
            systems.slam_discrete_recover(planar, planar)

    def test_too_few_landmarks(self):
        rng = rng_from(9)
        M = random_landmarks(rng, 3)
        with pytest.raises(DimensionError):
            systems.slam_discrete_recover(M, M)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_measurements(self, capfd):
        M = np.vstack([np.full((3, 6), 1e300), np.ones((1, 6))])
        with pytest.raises(NumericalBlowupError, match="non-finite"):
            systems.slam_discrete_recover(M, M)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("bad", ["planar", "huge"])
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_bad_pair_in_the_middle_of_a_chain(self, capfd, bad):
        chain = _chain(rng_from(11), 4, 10, 0.0)
        chain[5] = PLANAR if bad == "planar" else np.vstack([np.full((3, 4), 1e300), np.ones((1, 4))])
        expected = RankDeficiencyError if bad == "planar" else NumericalBlowupError
        with pytest.raises(expected):
            systems.recover_pose_chain(chain)
        assert capfd.readouterr().out == ""  # LAPACK never sees the non-finite Gram matrix

    @pytest.mark.filterwarnings("error", "ignore:overflow")  # no LAPACK or invalid-value warning
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1.7e308])
    @pytest.mark.parametrize("where", [0, 4])
    def test_bad_first_measurement_of_a_pair(self, capfd, value, where):
        # M_k non-finite, or so large that S^k overflows, while M_k+1 M_k+1^T stays finite
        chain = _chain(rng_from(13), 6, 6, 0.0)
        chain[where][0, 0] = value
        with pytest.raises(NumericalBlowupError):
            systems.slam_discrete_recover(chain[where], chain[where + 1])
        with pytest.raises(NumericalBlowupError):
            systems.recover_pose_chain(chain)
        assert capfd.readouterr().out == ""

    def test_earliest_bad_pair_decides_the_error(self):
        chain = _chain(rng_from(12), 4, 10, 0.0)
        chain[3], chain[6] = PLANAR, np.vstack([np.full((3, 4), np.nan), np.ones((1, 4))])
        with pytest.raises(RankDeficiencyError):
            systems.recover_pose_chain(chain)
        chain[3], chain[6] = chain[6], PLANAR
        with pytest.raises(NumericalBlowupError):
            systems.recover_pose_chain(chain)

    def test_chain_recovery_50_steps(self):
        rng = rng_from(10)
        L = random_landmarks(rng, 6)
        S0 = random_group("SE3", rng)

        def twist(t):
            return AlgebraElement("se3", np.array([0.3, -0.1, 0.2, np.sin(t), np.cos(2 * t), 0.5]))

        poses, measurements = systems.simulate_slam_poses(S0, L, twist, 50, 0.05)
        recovered = systems.recover_pose_chain(measurements)
        assert len(recovered) == 50
        worst = 0.0
        for k, Sk in enumerate(recovered):
            true_rel = poses[k].inverse() @ poses[k + 1]
            worst = max(worst, np.linalg.norm(Sk.matrix - true_rel.matrix))
        assert worst <= 1e-9


class TestSlamVectorField:
    def test_zero_input(self):
        rng = rng_from(11)
        p = ac.slam_action(5).sample_point(rng)
        dS, dL = systems.slam_vector_field(
            p, (AlgebraElement.zero("se3"), np.zeros((4, 5)))
        )
        assert np.linalg.norm(dS) == 0.0
        assert np.linalg.norm(dL) == 0.0

    def test_static_landmark_base_rate(self):
        rng = rng_from(12)
        sec = bundle.slam_bundle(6)
        p = sec.action.sample_point(rng)
        S, L = p.value
        V = random_algebra("se3", rng)
        base_rate, _ = bundle.reduce_system(
            systems.slam_vector_field, sec, p, (V, np.zeros((4, 6)))
        )
        expected = -V.matrix @ (S.inverse().matrix @ L)
        np.testing.assert_allclose(base_rate[1], expected, atol=1e-10)

    def test_inverse_pose_rate(self):
        # d/dt (S^-1) = -V S^-1 via finite differencing the exact flow
        rng = rng_from(13)
        S = random_group("SE3", rng)
        V = random_algebra("se3", rng)
        s = 1e-6
        Sp = (S @ exp(s * V)).inverse().matrix
        Sm = (S @ exp(-s * V)).inverse().matrix
        fd = (Sp - Sm) / (2 * s)
        np.testing.assert_allclose(fd, -V.matrix @ S.inverse().matrix, atol=1e-6)

    def test_input_shape_checked(self):
        rng = rng_from(14)
        p = ac.slam_action(5).sample_point(rng)
        with pytest.raises(DimensionError):
            systems.slam_vector_field(p, (AlgebraElement.zero("se3"), np.zeros((4, 3))))


class TestSlamLandmarkCost:
    def test_zero_at_equal(self):
        rng = rng_from(15)
        y = Point(ac.LANDMARKS, random_landmarks(rng, 6))
        assert systems.slam_landmark_cost(y, y) == 0.0

    def test_single_offset(self):
        rng = rng_from(16)
        L = random_landmarks(rng, 4)
        L2 = L.copy()
        L2[0, 0] += 1.0
        cost = systems.slam_landmark_cost(Point(ac.LANDMARKS, L), Point(ac.LANDMARKS, L2))
        assert abs(cost - 1.0) <= 1e-12

    def test_brute_force_sum(self):
        rng = rng_from(17)
        A, B = random_landmarks(rng, 5), random_landmarks(rng, 5)
        expected = sum(
            float(np.sum((A[:3, i] - B[:3, i]) ** 2)) for i in range(5)
        )
        got = systems.slam_landmark_cost(Point(ac.LANDMARKS, A), Point(ac.LANDMARKS, B))
        assert abs(got - expected) <= 1e-12

    def test_size_mismatch(self):
        rng = rng_from(18)
        with pytest.raises(DimensionError):
            systems.slam_landmark_cost(
                Point(ac.LANDMARKS, random_landmarks(rng, 4)),
                Point(ac.LANDMARKS, random_landmarks(rng, 5)),
            )


class TestSlamZetaE:
    """The analytic SLAM zeta_e against central differences: the SLAM twin of criterion 6."""

    def test_zero_at_zero_error(self):
        rng = rng_from(20)
        L = random_landmarks(rng, 6)
        S_est = random_group("SE3", rng)
        y = systems.measure_landmarks(S_est, L)
        assert observer.zeta_e(systems.slam_problem(L), S_est, y).norm() <= 1e-12

    def test_closed_form_sum(self):
        # a loop over landmarks with np.cross; the whole-array form sums in another order
        rng = rng_from(23)
        L = random_landmarks(rng, 12)
        S_est = random_group("SE3", rng)
        y = systems.measure_landmarks(random_group("SE3", rng), L, 0.05, rng)
        R, p = S_est.matrix[:3, :3], S_est.matrix[:3, 3]
        a = [R @ (R.T @ (L[:3, i] - p) - y.value[:3, i]) for i in range(12)]
        expected = 2.0 * np.concatenate([sum(a), sum(np.cross(L[:3, i], a[i]) for i in range(12))])
        np.testing.assert_allclose(systems.slam_zeta_e(L, S_est, y).vec, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_landmarks", [6, 12, 24])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_matches_numeric_gradient(self, n_landmarks, noise):
        rng = rng_from(21)
        L = random_landmarks(rng, n_landmarks)
        prob = systems.slam_problem(L)
        worst = 0.0
        for _ in range(100):
            S_est = random_group("SE3", rng)
            y = systems.measure_landmarks(random_group("SE3", rng), L, noise, rng)
            ana = observer.zeta_e(prob, S_est, y)
            num = observer.zeta_e_numeric(prob, S_est, y)
            worst = max(worst, float(np.linalg.norm(num.vec - ana.vec)) / max(ana.norm(), 1e-12))
        assert worst <= 1e-5

    @pytest.mark.parametrize("n_measured", [1, 5])
    def test_landmark_count_mismatch(self, n_measured):
        # a single measured column would otherwise broadcast against all six landmarks
        rng = rng_from(24)
        L = random_landmarks(rng, 6)
        y = systems.measure_landmarks(random_group("SE3", rng), L[:, :n_measured])
        with pytest.raises(DimensionError):
            observer.zeta_e(systems.slam_problem(L), random_group("SE3", rng), y)

    def test_observer_run_uses_no_finite_differences(self, monkeypatch):
        def numeric(*args):
            raise AssertionError("zeta_e_numeric on the SLAM observer's path")

        monkeypatch.setattr(observer, "zeta_e_numeric", numeric)
        L = random_landmarks(rng_from(22), 6)
        S0 = exp(AlgebraElement("se3", np.array([0.2, -0.1, 0.3, 0.3, -0.2, 0.4])))
        V = AlgebraElement("se3", np.array([0.1, 0.0, 0.05, 0.2, -0.1, 0.3]))
        config = IntegratorConfig(method="rk4_cg", h=1e-2, t_final=0.1)
        traj = systems.simulate_slam_observer(
            S0, GroupElement.identity("SE3"), L, lambda t: V, gain=1.5, config=config, noise_amp=0.01
        )
        assert len(traj.states) == 11 and np.all(np.diff(traj.extras["Ve"]) < 0.0)


class TestSlamObserver:
    def test_pose_estimate_converges(self):
        rng = rng_from(19)
        L = random_landmarks(rng, 6)
        S0 = exp(AlgebraElement("se3", np.array([0.2, -0.1, 0.3, 0.3, -0.2, 0.4])))
        config = IntegratorConfig(method="lie_euler", h=1e-2, t_final=12.0)
        traj = systems.simulate_slam_observer(
            S0,
            GroupElement.identity("SE3"),
            L,
            lambda t: AlgebraElement("se3", np.array([0.1, 0.0, 0.05, 0.2, -0.1, 0.3])),
            gain=1.5,
            config=config,
        )
        ve = traj.extras["Ve"]
        assert ve[-1] < 1e-7
        assert np.all(np.diff(ve) <= 1e-9)


class TestAttitudeConvergence:
    def test_sixty_degree_error(self):
        config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=10.0)
        scen = systems.AttitudeScenario(
            omega=lambda t: np.array([np.sin(t), np.cos(2 * t), 0.5]), gain=1.0
        )
        R0 = exp(hat(np.pi / 3 * np.array([0.0, 0.6, 0.8])))
        traj = systems.simulate_attitude_observer(
            R0, GroupElement.identity("SO3"), scen, config
        )
        last = traj.states[-1]
        e_g = observer.group_error(systems.attitude_problem(), last["R"], last["Rhat"])
        assert log(e_g).norm() < 1e-3
        assert np.all(np.diff(traj.extras["Ve"]) <= 1e-9)


class TestSharedNoiselessZetaE:
    """record and a noiseless rate share one zeta_e per state.

    The reference loops below measure and evaluate zeta_e afresh in every
    call; the simulators must give the same bits.
    """

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_attitude_matches_unshared_loop(self, method, noise):
        prob = systems.attitude_problem()
        config = IntegratorConfig(method=method, h=1e-2, t_final=0.5)
        omega = lambda t: np.array([np.sin(t), np.cos(2 * t), 0.5])
        scen = systems.AttitudeScenario(omega=omega, gain=1.5, noise_amp=noise, seed=3)
        state0 = {"R": exp(hat([0.3, -0.4, 0.5])), "Rhat": GroupElement.identity("SO3")}
        traj = systems.simulate_attitude_observer(state0["R"], state0["Rhat"], scen, config)
        rng = rng_from(3)

        def rate(t, state):
            om = omega(t)
            om_meas = om + rng.uniform(-noise, noise, size=3) if noise > 0 else om
            y = systems.measure_attitude(state["R"], noise, rng)
            est = observer.preobserver_split_rate(
                prob, state["Rhat"], y, AlgebraElement("so3", om_meas), 1.5
            )
            return {"R": AlgebraElement("so3", om), "Rhat": est}

        ref = integrate_system(rate, config, state0, sides={"R": "left", "Rhat": "left"})
        for s, r, zn in zip(traj.states, ref.states, traj.extras["zeta_e_norm"]):
            np.testing.assert_array_equal(s["Rhat"].matrix, r["Rhat"].matrix)
            assert zn == observer.zeta_e(prob, s["Rhat"], systems.measure_attitude(s["R"])).norm()

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("noise", [0.0, 0.005])
    def test_slam_matches_unshared_loop(self, method, noise):
        L = random_landmarks(rng_from(19), 6)
        prob = systems.slam_problem(L)
        config = IntegratorConfig(method=method, h=1e-2, t_final=0.2)
        V = AlgebraElement("se3", np.array([0.1, 0.0, 0.05, 0.2, -0.1, 0.3]))
        S0 = exp(AlgebraElement("se3", np.array([0.2, -0.1, 0.3, 0.3, -0.2, 0.4])))
        state0 = {"S": S0, "Shat": GroupElement.identity("SE3")}
        traj = systems.simulate_slam_observer(
            S0, state0["Shat"], L, lambda t: V, gain=1.5, config=config, noise_amp=noise, seed=3
        )
        rng = rng_from(3)

        def rate(t, state):
            V_meas = AlgebraElement("se3", V.vec + rng.uniform(-noise, noise, size=6)) if noise > 0 else V
            y = systems.measure_landmarks(state["S"], L, noise, rng)
            return {"S": V, "Shat": observer.preobserver_split_rate(prob, state["Shat"], y, V_meas, 1.5)}

        ref = integrate_system(rate, config, state0, sides={"S": "left", "Shat": "left"})
        for s, r, zn in zip(traj.states, ref.states, traj.extras["zeta_e_norm"]):
            np.testing.assert_array_equal(s["Shat"].matrix, r["Shat"].matrix)
            assert zn == observer.zeta_e(prob, s["Shat"], systems.measure_landmarks(s["S"], L)).norm()


class TestValidationPerStep:
    """A lie_euler attitude step validates each new matrix once: the stepped
    R and Rhat, and the recorded group error (its inverse is not validated)."""

    def test_attitude_checks_and_builds_at_most_three_per_step(self, monkeypatch):
        prob = systems.attitude_problem()
        state0 = {"R": exp(hat([0.3, -0.4, 0.5])), "Rhat": GroupElement.identity("SO3")}
        config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=0.1)
        counts = {"_check_rotation": 0, "GroupElement": 0}
        check, post_init = groups._check_rotation, GroupElement.__post_init__

        def counted_check(rows):
            counts["_check_rotation"] += 1
            return check(rows)

        def counted_post_init(self):
            counts["GroupElement"] += 1
            post_init(self)

        monkeypatch.setattr(groups, "_check_rotation", counted_check)
        monkeypatch.setattr(GroupElement, "__post_init__", counted_post_init)
        omega = lambda t: AlgebraElement("so3", [np.sin(t), np.cos(2.0 * t), 0.5])
        traj = systems.simulate_observer(prob, systems.measure_attitude, omega, state0, 1.0, config)
        n_steps = len(traj) - 1
        assert n_steps == 100
        # the initial sample records one group error before the first step
        for name, count in counts.items():
            assert count <= 3 * n_steps + 1, (name, count)
