"""Concrete systems: attitude, sphere, SLAM (continuous and discrete)."""

import numpy as np
import pytest

from bundleobs import actions as ac
from bundleobs import bundle, observer, systems
from bundleobs.actions import Point, act
from bundleobs.errors import DimensionError, NumericalBlowupError, RankDeficiencyError
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
