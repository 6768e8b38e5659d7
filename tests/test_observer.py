"""Gradient observer: cost, zeta_e, innovation, error dynamics."""

import dataclasses
import warnings

import numpy as np
import pytest

from bundleobs import actions as ac
from bundleobs import groups, observer
from bundleobs.actions import Point, act
from bundleobs.groups import AlgebraElement, GroupElement, Metric, adjoint, exp, hat, inner, log
from bundleobs.integrate import IntegratorConfig
from bundleobs.observer import ObserverProblem
from bundleobs.sampling import random_algebra, random_group, random_landmarks, random_rotation, rng_from
from bundleobs.systems import (
    AttitudeScenario,
    attitude_cost,
    attitude_problem,
    attitude_zeta_e,
    measure_attitude,
    measure_landmarks,
    simulate_attitude_observer,
    simulate_error_dynamics,
    slam_problem,
)


@pytest.fixture(scope="module")
def prob():
    return attitude_problem()


class TestGroupError:
    def test_equal_estimates(self, prob):
        rng = rng_from(0)
        g = random_rotation(rng)
        e = observer.group_error(prob, g, g)
        np.testing.assert_allclose(e.matrix, np.eye(3), atol=1e-12)

    def test_left_convention(self, prob):
        g = exp(hat([0.2, -0.1, 0.4]))
        e = observer.group_error(prob, g, GroupElement.identity("SO3"))
        np.testing.assert_allclose(e.matrix, g.matrix, atol=1e-15)

    def test_error_cost_matches_output_cost(self, prob):
        rng = rng_from(1)
        for _ in range(20):
            g, g_est = random_rotation(rng), random_rotation(rng)
            e = observer.group_error(prob, g, g_est)
            y, y_est = prob.output(g), prob.output(g_est)
            assert abs(prob.error_cost(e) - prob.cost(y, y_est)) <= 1e-10


class TestZetaE:
    def test_zero_at_zero_error(self, prob):
        rng = rng_from(2)
        g_est = random_rotation(rng)
        y = prob.output(g_est)
        assert observer.zeta_e_numeric(prob, g_est, y).norm() <= 1e-8

    def test_matches_analytic(self, prob):
        rng = rng_from(3)
        for _ in range(50):
            g_est = random_rotation(rng)
            y = measure_attitude(random_rotation(rng))
            num = observer.zeta_e_numeric(prob, g_est, y)
            ana = attitude_zeta_e(g_est, y)
            assert np.linalg.norm(num.vec - ana.vec) <= 1e-6

    def test_cost_scaling_scales_gradient(self, prob):
        scaled = ObserverProblem(
            group_kind="SO3",
            handedness="left",
            output_action=prob.output_action,
            y0=prob.y0,
            cost=lambda a, b: 3.0 * attitude_cost(a, b),
        )
        rng = rng_from(4)
        g_est = random_rotation(rng)
        y = measure_attitude(random_rotation(rng))
        z1 = observer.zeta_e_numeric(prob, g_est, y)
        z3 = observer.zeta_e_numeric(scaled, g_est, y)
        np.testing.assert_allclose(z3.vec, 3.0 * z1.vec, atol=1e-6)

    def test_g_independence(self, prob):
        # measurements generated by different g on the same error coset give
        # the same zeta_e
        rng = rng_from(5)
        e = exp(hat([0.4, -0.2, 0.3]))
        for _ in range(20):
            g_est = random_rotation(rng)
            g = e @ g_est  # left observed: e_g = g g_est^-1 fixed
            z = observer.zeta_e_numeric(prob, g_est, measure_attitude(g))
            g_est2 = random_rotation(rng)
            z2 = observer.zeta_e_numeric(prob, g_est2, measure_attitude(e @ g_est2))
            # zeta_e depends on the pair (g_est, y) only through e_g up to
            # conjugation-free matching of the cost level; compare V-levels
            assert abs(prob.error_cost(e) - attitude_cost(measure_attitude(g), prob.output(g_est))) <= 1e-10
            assert abs(z.norm() - z2.norm()) <= 1e-8


class TestInnovation:
    def test_zero_error(self, prob):
        rng = rng_from(6)
        g_est = random_rotation(rng)
        delta = observer.innovation(prob, g_est, prob.output(g_est), gain=2.0)
        assert delta.norm() <= 1e-8

    def test_identity_estimate(self, prob):
        rng = rng_from(7)
        y = measure_attitude(random_rotation(rng))
        g_est = GroupElement.identity("SO3")
        delta = observer.innovation(prob, g_est, y, gain=1.5)
        ze = observer.zeta_e(prob, g_est, y)
        np.testing.assert_allclose(delta.vec, -1.5 * ze.vec, atol=1e-12)

    def test_adjoint_transport(self, prob):
        rng = rng_from(8)
        g_est = random_rotation(rng)
        y = measure_attitude(random_rotation(rng))
        delta = observer.innovation(prob, g_est, y, gain=1.0)
        ze = observer.zeta_e(prob, g_est, y)
        np.testing.assert_allclose(delta.vec, -adjoint(g_est.inverse(), ze).vec, atol=1e-12)


class TestPreObserver:
    def test_pure_feedforward_at_zero_error(self, prob):
        rng = rng_from(9)
        g_est = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        rate = observer.preobserver_rate(prob, g_est, prob.output(g_est), zeta, gain=1.0)
        np.testing.assert_allclose(rate.vec, zeta.vec, atol=1e-8)

    def test_pure_correction_at_zero_feedforward(self, prob):
        rng = rng_from(10)
        g_est = random_rotation(rng)
        y = measure_attitude(random_rotation(rng))
        rate = observer.preobserver_rate(prob, g_est, y, AlgebraElement.zero("so3"), gain=1.0)
        delta = observer.innovation(prob, g_est, y, gain=1.0)
        np.testing.assert_allclose(rate.vec, -delta.vec, atol=1e-12)

    def test_error_dynamics_match_direct_flow(self, prob):
        # observer-derived error trajectory vs the autonomous flow
        # e' = e (-k zeta_e)^ over one second
        e0 = exp(hat([0.3, -0.5, 0.2]))
        config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=1.0)
        scen = AttitudeScenario(omega=lambda t: np.array([np.sin(t), np.cos(2 * t), 0.5]))
        R_est0 = exp(hat([0.1, 0.7, -0.3]))
        traj = simulate_attitude_observer(e0 @ R_est0, R_est0, scen, config)
        direct = simulate_error_dynamics(prob, e0, 1.0, config)
        worst = 0.0
        for s_obs, s_dir in zip(traj.states, direct.states):
            e_obs = observer.group_error(prob, s_obs["R"], s_obs["Rhat"])
            worst = max(worst, np.linalg.norm(e_obs.matrix - s_dir["e"].matrix))
        assert worst <= 1e-6

    def test_lyapunov_rate(self, prob):
        # d/dt V^e = -k <<zeta_e, zeta_e>> along the trajectory
        config = IntegratorConfig(method="rk4_cg", h=1e-3, t_final=2.0)
        scen = AttitudeScenario(omega=lambda t: np.array([np.sin(t), np.cos(2 * t), 0.5]))
        traj = simulate_attitude_observer(
            exp(hat([0.6, 0.0, 0.6])), GroupElement.identity("SO3"), scen, config
        )
        ve = traj.extras["Ve"]
        zn = traj.extras["zeta_e_norm"]
        h = config.h
        dv = (ve[2:] - ve[:-2]) / (2 * h)
        target = -(zn[1:-1] ** 2)
        mask = zn[1:-1] ** 2 > 1e-8
        rel = np.abs(dv[mask] - target[mask]) / np.abs(target[mask])
        assert rel.max() <= 1e-3

    def test_monotone_ve(self, prob):
        config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=3.0)
        scen = AttitudeScenario(omega=lambda t: np.array([0.3, -0.2, 0.1]))
        traj = simulate_attitude_observer(
            exp(hat([0.9, 0.2, -0.4])), GroupElement.identity("SO3"), scen, config
        )
        assert np.all(np.diff(traj.extras["Ve"]) <= 1e-9)


class TestProblemValidation:
    def test_degenerate_cost_warns(self):
        base = attitude_problem()

        def one_direction_cost(y, y_est):
            return float(np.sum((np.asarray(y.value[0]) - np.asarray(y_est.value[0])) ** 2))

        with pytest.warns(UserWarning):
            ObserverProblem(
                group_kind="SO3",
                handedness="left",
                output_action=base.output_action,
                y0=base.y0,
                cost=one_direction_cost,
            )

    def test_cost_symmetric_and_invariant(self, prob):
        rng = rng_from(11)
        for _ in range(20):
            a = measure_attitude(random_rotation(rng))
            b = measure_attitude(random_rotation(rng))
            assert abs(prob.cost(a, b) - prob.cost(b, a)) <= 1e-12
            g = random_rotation(rng)
            ga = act(prob.output_action, g, a)
            gb = act(prob.output_action, g, b)
            assert abs(prob.cost(ga, gb) - prob.cost(a, b)) <= 1e-10

    def test_error_cost_zero_at_identity(self, prob):
        assert prob.error_cost(GroupElement.identity("SO3")) == 0.0


def _zeta_e_rebuilding_probes(prob, g_est, y):
    """Reference zeta_e_numeric that rebuilds varphi_{exp(+-FD_STEP xi)}(y0) on every call."""
    dim = 3 if prob.algebra_kind == "so3" else 6
    g_inv = g_est.inverse()
    coords = np.empty(dim)
    for i in range(dim):
        xi = AlgebraElement(prob.algebra_kind, np.eye(dim)[i])
        f_plus = prob.cost(
            act(prob.output_action, g_inv, act(prob.output_action, exp(observer.FD_STEP * xi), prob.y0)),
            y,
        )
        f_minus = prob.cost(
            act(prob.output_action, g_inv, act(prob.output_action, exp(-observer.FD_STEP * xi), prob.y0)),
            y,
        )
        coords[i] = (f_plus - f_minus) / (2.0 * observer.FD_STEP)
    return coords / prob.metric.scale


class TestFdProbes:
    """zeta_e_numeric builds its perturbed outputs once per problem."""

    @staticmethod
    def _slam_case(prob, rng):
        g_est = random_group("SE3", rng)
        y = measure_landmarks(random_group("SE3", rng), prob.y0.value, 0.05, rng)
        return g_est, y

    @pytest.mark.parametrize("n_landmarks", [6, 24])
    def test_slam_matches_rebuilt_probes(self, n_landmarks):
        rng = rng_from(30 + n_landmarks)
        prob = slam_problem(random_landmarks(rng, n_landmarks))
        for _ in range(20):
            g_est, y = self._slam_case(prob, rng)
            num = observer.zeta_e_numeric(prob, g_est, y)
            assert np.array_equal(num.vec, _zeta_e_rebuilding_probes(prob, g_est, y))

    def test_attitude_matches_rebuilt_probes(self):
        rng = rng_from(31)
        prob = attitude_problem(analytic=False)
        for _ in range(50):
            g_est, y = random_rotation(rng), measure_attitude(random_rotation(rng), 0.05, rng)
            num = observer.zeta_e_numeric(prob, g_est, y)
            assert np.array_equal(num.vec, _zeta_e_rebuilding_probes(prob, g_est, y))

    def test_probes_built_once(self, monkeypatch):
        rng = rng_from(32)
        prob = slam_problem(random_landmarks(rng, 6))
        g_est, y = self._slam_case(prob, rng)
        observer.zeta_e_numeric(prob, g_est, y)
        assert len(prob.fd_probes) == 6 and prob.fd_probes is prob.fd_probes
        calls = []
        real_exp = groups.exp

        def counting_exp(zeta):
            calls.append(zeta)
            return real_exp(zeta)

        monkeypatch.setattr(groups, "exp", counting_exp)
        observer.zeta_e_numeric(prob, g_est, y)
        assert calls == []

    def test_each_problem_has_its_own_probes(self):
        rng = rng_from(33)
        L1, L2 = random_landmarks(rng, 6), random_landmarks(rng, 6)
        p1 = slam_problem(L1)
        g_est, y = self._slam_case(p1, rng)
        observer.zeta_e_numeric(p1, g_est, y)  # fills p1's cache first
        p2 = slam_problem(L2)
        moved = dataclasses.replace(p1, y0=Point(ac.LANDMARKS, L2))
        for prob in (p2, moved):
            assert prob.fd_probes is not p1.fd_probes
            assert not np.array_equal(prob.fd_probes[0][0].value, p1.fd_probes[0][0].value)
            num = observer.zeta_e_numeric(prob, g_est, y)
            assert np.array_equal(num.vec, _zeta_e_rebuilding_probes(prob, g_est, y))
        assert np.array_equal(
            observer.zeta_e_numeric(p1, g_est, y).vec, _zeta_e_rebuilding_probes(p1, g_est, y)
        )
