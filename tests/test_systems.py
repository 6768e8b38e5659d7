"""Concrete systems: attitude, sphere, SLAM (continuous and discrete)."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleobs import actions as ac
from bundleobs import bundle, groups, observer, systems
from bundleobs import integrate as integrate_module
from bundleobs.actions import Point, act
from bundleobs.errors import (
    BundleobsError,
    DimensionError,
    KindMismatchError,
    NumericalBlowupError,
    ProjectionFailureError,
    RankDeficiencyError,
)
from bundleobs.groups import AlgebraElement, GroupElement, exp, hat, log
from bundleobs.integrate import IntegratorConfig, SplitRate, integrate_system
from bundleobs.sampling import random_algebra, random_group, random_landmarks, random_rotation, random_unit, rng_from

E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestAttitudeCost:
    def test_zero_at_equal(self):
        rng = rng_from(0)
        y = systems.measure_attitude(random_rotation(rng)).value
        assert systems.attitude_cost(y, y) == 0.0

    def test_antipodal_half_turn(self):
        y = systems.measure_attitude(GroupElement.identity("SO3"))
        y_flip = systems.measure_attitude(exp(hat([np.pi, 0.0, 0.0])))
        assert abs(systems.attitude_cost(y.value, y_flip.value) - 8.0) <= 1e-12

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
        got = systems.attitude_cost(y.value, y_est.value)
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
        assert np.linalg.norm(systems.attitude_zeta_e(R_est.matrix, y.value)) <= 1e-12

    def test_matches_numeric_gradient(self):
        prob = systems.attitude_problem(analytic=False)
        rng = rng_from(5)
        for _ in range(30):
            R_est = random_rotation(rng)
            y = systems.measure_attitude(random_rotation(rng))
            ana = systems.attitude_zeta_e(R_est.matrix, y.value)
            num = observer.zeta_e_numeric(prob, R_est, y)
            assert np.linalg.norm(ana - num.vec) <= 1e-6

    def test_closed_form_sum(self):
        rng = rng_from(6)
        R_est = random_rotation(rng)
        y = systems.measure_attitude(random_rotation(rng))
        y2, y3 = y.value
        expected = -2.0 * (np.cross(E2, R_est.matrix @ y2) + np.cross(E3, R_est.matrix @ y3))
        # the hand-written cross products do the same float operations
        np.testing.assert_array_equal(systems.attitude_zeta_e(R_est.matrix, y.value), expected)


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
            assert S.tobytes() == _recover_pair(*pair).tobytes()
            assert systems.slam_discrete_recover(*pair).matrix.tobytes() == S.tobytes()


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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), log_eps=st.floats(-14.0, -1.0))
    def test_conditioning_bound_near_coplanar(self, seed, n, log_eps):
        # n landmarks at distances up to eps = 10**log_eps either side of a random plane, seen from two random
        # poses: recovery refuses exactly the pairs whose Gram matrix M M^T has cond >= 1e12, and otherwise
        # is off the true relative pose by at most 4 cond(M M^T) machine epsilons (Frobenius)
        rng = rng_from(seed)
        normal = random_unit(rng)
        u = np.cross(normal, random_unit(rng))
        u /= np.linalg.norm(u)
        plane = rng.normal(size=(3, 1)) + np.outer(u, rng.uniform(-1.0, 1.0, n)) \
            + np.outer(np.cross(normal, u), rng.uniform(-1.0, 1.0, n))
        L = np.vstack([plane + np.outer(normal, 10.0**log_eps * rng.uniform(-1.0, 1.0, n)), np.ones(n)])
        S = np.array([random_group("SE3", rng).matrix for _ in range(2)])
        M = groups.inverse_matrix(S) @ L
        cond = np.linalg.cond(M[1:] @ np.swapaxes(M[1:], 1, 2))[0]  # M_k+1 M_k+1^T as recover_pose_chain forms it
        if cond >= 1e12:
            with pytest.raises(RankDeficiencyError):
                systems.recover_pose_chain(M)
        else:
            err = np.linalg.norm(systems.recover_pose_chain(M)[0] - groups.inverse_matrix(S[0]) @ S[1])
            assert err <= 4.0 * cond * np.finfo(float).eps

    def test_chain_recovery_50_steps(self):
        rng = rng_from(10)
        L = random_landmarks(rng, 6)
        S0 = random_group("SE3", rng)

        def twist(ts):
            return np.column_stack([np.tile([0.3, -0.1, 0.2], (len(ts), 1)), np.sin(ts), np.cos(2 * ts),
                                    np.full_like(ts, 0.5)])

        poses, measurements = systems.simulate_slam_poses(S0, L, twist, 50, 0.05)
        recovered = systems.recover_pose_chain(measurements)
        assert len(recovered) == 50
        worst = 0.0
        for k, Sk in enumerate(recovered):
            true_rel = groups.inverse_matrix(poses[k]) @ poses[k + 1]
            worst = max(worst, np.linalg.norm(Sk - true_rel))
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
        y = Point(ac.LANDMARKS, random_landmarks(rng, 6)).value
        assert systems.slam_landmark_cost(y, y) == 0.0

    def test_single_offset(self):
        rng = rng_from(16)
        L = random_landmarks(rng, 4)
        L2 = L.copy()
        L2[0, 0] += 1.0
        cost = systems.slam_landmark_cost(L, L2)
        assert abs(cost - 1.0) <= 1e-12

    def test_brute_force_sum(self):
        rng = rng_from(17)
        A, B = random_landmarks(rng, 5), random_landmarks(rng, 5)
        expected = sum(
            float(np.sum((A[:3, i] - B[:3, i]) ** 2)) for i in range(5)
        )
        got = systems.slam_landmark_cost(A, B)
        assert abs(got - expected) <= 1e-12

    def test_size_mismatch(self):
        rng = rng_from(18)
        with pytest.raises(DimensionError):
            systems.slam_landmark_cost(random_landmarks(rng, 4), random_landmarks(rng, 5))


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
        np.testing.assert_allclose(systems.slam_zeta_e(L, S_est.matrix, y.value), expected, rtol=1e-12, atol=1e-12)

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
            S0, GroupElement.identity("SE3"), L, lambda ts: np.tile(V.vec, (len(ts), 1)), gain=1.5, config=config,
            noise_amp=0.01
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
            lambda ts: np.tile([0.1, 0.0, 0.05, 0.2, -0.1, 0.3], (len(ts), 1)),
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
            omega=lambda ts: np.column_stack([np.sin(ts), np.cos(2 * ts), np.full_like(ts, 0.5)]), gain=1.0
        )
        R0 = exp(hat(np.pi / 3 * np.array([0.0, 0.6, 0.8])))
        traj = systems.simulate_attitude_observer(
            R0, GroupElement.identity("SO3"), scen, config
        )
        last = traj.states[-1]
        e_g = observer.group_error(systems.attitude_problem(), last["R"], last["Rhat"])
        assert log(e_g).norm() < 1e-3
        assert np.all(np.diff(traj.extras["Ve"]) <= 1e-9)

    def test_long_run_keeps_arrays_not_elements(self):
        # criterion 7's 20-s run: its result holds two (20001, 3, 3) stacks (2.9 MiB) and four columns,
        # where one GroupElement per component and sample took about 14.8 MiB
        config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=20.0)
        scen = systems.AttitudeScenario(
            omega=lambda ts: np.column_stack([np.sin(ts), np.cos(2 * ts), np.full_like(ts, 0.5)]), gain=1.0)
        R0 = exp(hat(np.pi / 3 * np.array([0.0, 0.6, 0.8])))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = systems.simulate_attitude_observer(R0, GroupElement.identity("SO3"), scen, config)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(traj) == 20_001 and retained <= 4 * 2**20, retained / 2**20


class TestSharedNoiselessZetaE:
    """The observer's states and its zeta_e_norm column, computed after the run, have the bits
    of loops that measure and evaluate zeta_e afresh in every call, as the reference loops below do.
    """

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_attitude_matches_unshared_loop(self, method, noise):
        prob = systems.attitude_problem()
        config = IntegratorConfig(method=method, h=1e-2, t_final=0.5)
        omega = lambda ts: np.column_stack([np.sin(ts), np.cos(2 * ts), np.full_like(ts, 0.5)])
        scen = systems.AttitudeScenario(omega=omega, gain=1.5, noise_amp=noise, seed=3)
        state0 = {"R": exp(hat([0.3, -0.4, 0.5])), "Rhat": GroupElement.identity("SO3")}
        traj = systems.simulate_attitude_observer(state0["R"], state0["Rhat"], scen, config)
        rng = rng_from(3)

        def rate(t, state):
            om = omega(np.array([t]))[0]
            om_meas = om + rng.uniform(-noise, noise, size=3) if noise > 0 else om
            y = systems.measure_attitude(state["R"], noise, rng)
            est = SplitRate(body=AlgebraElement("so3", om_meas), spatial=1.5 * observer.zeta_e(prob, state["Rhat"], y).vec)
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
            S0, state0["Shat"], L, lambda ts: np.tile(V.vec, (len(ts), 1)), gain=1.5, config=config,
            noise_amp=noise, seed=3
        )
        rng = rng_from(3)

        def rate(t, state):
            V_meas = AlgebraElement("se3", V.vec + rng.uniform(-noise, noise, size=6)) if noise > 0 else V
            y = systems.measure_landmarks(state["S"], L, noise, rng)
            return {"S": V, "Shat": SplitRate(body=V_meas, spatial=1.5 * observer.zeta_e(prob, state["Shat"], y).vec)}

        ref = integrate_system(rate, config, state0, sides={"S": "left", "Shat": "left"})
        for s, r, zn in zip(traj.states, ref.states, traj.extras["zeta_e_norm"]):
            np.testing.assert_array_equal(s["Shat"].matrix, r["Shat"].matrix)
            assert zn == observer.zeta_e(prob, s["Shat"], systems.measure_landmarks(s["S"], L)).norm()


class TestValidationPerStep:
    """A lie_euler attitude step validates each new matrix once: the stepped
    R and Rhat.  The group errors of the V^e column are checked as a stack after the run."""

    def test_attitude_checks_and_builds_at_most_two_per_step(self, monkeypatch):
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
        omega = lambda ts: np.column_stack([np.sin(ts), np.cos(2.0 * ts), np.full_like(ts, 0.5)])
        traj = systems.simulate_observer(prob, systems.measure_attitude, omega, state0, 1.0, config)
        n_steps = len(traj) - 1
        assert n_steps == 100
        # the observer problem's construction checks a few elements before the run
        for name, count in counts.items():
            assert count <= 2 * n_steps + 10, (name, count)


def _reference_columns(prob, traj, true, est, measure):
    """The V^e and ||zeta_e|| columns, one sample at a time."""
    ve = [prob.error_cost(observer.group_error(prob, s[true], s[est])) for s in traj.states]
    zn = [observer.zeta_e(prob, s[est], measure(s[true], 0.0, None)).norm() for s in traj.states]
    return np.array(ve), np.array(zn)


def _no_reference(*args):
    raise AssertionError("the per-sample reference ran where the stacked pass should")


class TestStackedKernels:
    """Each row of a stacked kernel has the bits of the kernel's call on that item."""

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    @pytest.mark.parametrize("handedness", ["left", "right"])
    def test_group_error(self, kind, handedness):
        rng, prob = rng_from(40), types.SimpleNamespace(handedness=handedness)
        g, g_est = ([random_group(kind, rng) for _ in range(300)] for _ in range(2))
        E = observer.group_error(prob, *(np.array([x.matrix for x in xs]) for xs in (g, g_est)))
        want = np.array([observer.group_error(prob, a, b).matrix for a, b in zip(g, g_est)])
        assert E.tobytes() == want.tobytes()

    def test_attitude_cost(self):
        rng, y0 = rng_from(43), systems.attitude_problem().y0.value
        ys = [systems.measure_attitude(random_rotation(rng), 0.05, rng).value for _ in range(300)]
        got = systems.attitude_cost(tuple(np.array(y) for y in zip(*ys)), y0)
        assert got.tobytes() == np.array([systems.attitude_cost(y, y0) for y in ys]).tobytes()

    def test_slam_landmark_cost(self):
        rng = rng_from(44)
        L = random_landmarks(rng, 24)
        ys = np.array([systems.measure_landmarks(random_group("SE3", rng), L, 0.05, rng).value for _ in range(300)])
        got = systems.slam_landmark_cost(ys, L)
        assert got.tobytes() == np.array([systems.slam_landmark_cost(y, L) for y in ys]).tobytes()
        with pytest.raises(DimensionError):
            systems.slam_landmark_cost(ys, L[:, :5])

    def test_attitude_zeta_e(self):
        rng = rng_from(41)
        R_est, R = ([random_rotation(rng) for _ in range(500)] for _ in range(2))
        ys = [systems.measure_attitude(x) for x in R]
        Z = systems.attitude_zeta_e(np.array([x.matrix for x in R_est]), tuple(np.array(y) for y in zip(*(y.value for y in ys))))
        want = np.array([systems.attitude_zeta_e(a.matrix, y.value) for a, y in zip(R_est, ys)])
        assert Z.tobytes() == want.tobytes()

    def test_slam_zeta_e(self):
        rng = rng_from(42)
        L = random_landmarks(rng, 24)
        S_est, S = ([random_group("SE3", rng) for _ in range(300)] for _ in range(2))
        ys = [systems.measure_landmarks(x, L, 0.01, rng) for x in S]
        Z = systems.slam_zeta_e(L, np.array([x.matrix for x in S_est]), np.array([y.value for y in ys]))
        want = np.array([systems.slam_zeta_e(L, a.matrix, y.value) for a, y in zip(S_est, ys)])
        assert Z.tobytes() == want.tobytes()


class TestErrorColumns:
    """``observer.error_columns``: the V^e and ||zeta_e|| columns from stacked passes after the run,
    with the bits of the per-sample calls."""

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("system", ["attitude", "slam"])
    def test_columns_match_per_sample_calls(self, monkeypatch, system, method, noise, scale):
        monkeypatch.setattr(observer, "_CHUNK", 7)  # several chunks, the last one short
        monkeypatch.setattr(observer, "_sample_row", _no_reference)
        config = IntegratorConfig(method=method, h=0.05, t_final=1.2)
        if system == "attitude":
            prob, measure, kind, names = systems.attitude_problem(groups.Metric(scale)), systems.measure_attitude, "so3", ("R", "Rhat")
            xi0 = np.array([1.0, -0.5, 0.7])
        else:
            L = random_landmarks(rng_from(5), 24)
            prob = dataclasses.replace(systems.slam_problem(L), metric=groups.Metric(scale))
            measure = lambda S, *noise: systems.measure_landmarks(S, L, *noise)  # noqa: E731
            kind, names, xi0 = "se3", ("S", "Shat"), np.array([0.3, 0.2, -0.1, 1.0, -0.5, 0.7])
        u = lambda ts: np.column_stack([np.tile([0.2, 0.0, 0.1][:len(xi0) - 3], (len(ts), 1)), np.sin(ts),  # noqa: E731
                                        np.cos(2 * ts), np.full_like(ts, 0.5)])
        state0 = {names[0]: exp(AlgebraElement(kind, xi0)), names[1]: GroupElement.identity(prob.group_kind)}
        traj = systems.simulate_observer(prob, measure, u, state0, 1.5, config, noise, 3)
        assert len(traj) == 25
        ve, zn = _reference_columns(prob, traj, *names, measure)
        assert traj.extras["Ve"].tobytes() == ve.tobytes()
        assert traj.extras["zeta_e_norm"].tobytes() == zn.tobytes()

    def test_run_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(observer, "_sample_row", _no_reference)
        config = IntegratorConfig(method="lie_euler", h=1e-2, t_final=3.0)
        scen = systems.AttitudeScenario(
            omega=lambda ts: np.column_stack([np.sin(ts), np.cos(2 * ts), np.full_like(ts, 0.5)]), noise_amp=0.01)
        traj = systems.simulate_attitude_observer(exp(hat([0.9, 0.2, -0.4])), GroupElement.identity("SO3"), scen, config)
        assert len(traj) > 2 * observer._CHUNK
        ve, zn = _reference_columns(systems.attitude_problem(), traj, "R", "Rhat", systems.measure_attitude)
        assert traj.extras["Ve"].tobytes() == ve.tobytes()
        assert traj.extras["zeta_e_norm"].tobytes() == zn.tobytes()

    @staticmethod
    def _short_run(prob):
        config = IntegratorConfig(method="lie_euler", h=0.05, t_final=0.5)
        u = lambda ts: np.tile([0.3, -0.2, 0.1], (len(ts), 1))  # noqa: E731
        state0 = {"R": exp(hat([0.3, -0.4, 0.5])), "Rhat": GroupElement.identity("SO3")}
        traj = systems.simulate_observer(prob, systems.measure_attitude, u, state0, 1.0, config)
        return traj, _reference_columns(prob, traj, "R", "Rhat", systems.measure_attitude)

    def test_user_problem_on_direction_pairs_takes_the_stacked_pass(self, monkeypatch):
        # a problem built outside ``systems`` registers only its two terms, and those take stacks
        base = systems.attitude_problem()
        prob = observer.ObserverProblem(
            group_kind="SO3", handedness="left", output_action=base.output_action, y0=base.y0,
            cost=lambda a, b: 3.0 * systems.attitude_cost(a, b),
            zeta_e_analytic=lambda m, y: 3.0 * systems.attitude_zeta_e(m, y))
        monkeypatch.setattr(observer, "_sample_row", _no_reference)
        traj, (ve, zn) = self._short_run(prob)
        assert traj.extras["Ve"].tobytes() == ve.tobytes()
        assert traj.extras["zeta_e_norm"].tobytes() == zn.tobytes()

    def test_numeric_zeta_e_with_a_measure_takes_the_reference(self, monkeypatch):
        # zeta_e_numeric has no stacked form, so the run's ||zeta_e|| column comes one sample at a time
        prob, rows = systems.attitude_problem(analytic=False), []
        real_row = observer._sample_row
        monkeypatch.setattr(observer, "_sample_row", lambda *args: rows.append(args[1]) or real_row(*args))
        traj, (ve, zn) = self._short_run(prob)
        assert rows == list(traj.times)
        assert traj.extras["Ve"].tobytes() == ve.tobytes()
        assert traj.extras["zeta_e_norm"].tobytes() == zn.tobytes()

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_error_dynamics_column(self, monkeypatch, method):
        monkeypatch.setattr(observer, "_CHUNK", 4)
        monkeypatch.setattr(observer, "_sample_row", _no_reference)
        prob = systems.attitude_problem()
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        traj = systems.simulate_error_dynamics(prob, exp(hat([0.3, -0.5, 0.2])), 1.0, config)
        ve = np.array([prob.error_cost(s["e"]) for s in traj.states])
        assert traj.extras["Ve"].tobytes() == ve.tobytes() and "zeta_e_norm" not in traj.extras

    @pytest.mark.parametrize("chunk", [2, 128])
    def test_non_finite_ve_raises_at_first_bad_sample(self, monkeypatch, chunk):
        # V^e of a translation of 1e200 overflows; the group elements themselves are valid
        monkeypatch.setattr(observer, "_CHUNK", chunk)
        prob = systems.slam_problem(random_landmarks(rng_from(5), 6))
        far = GroupElement("SE3", np.block([[np.eye(3), np.full((3, 1), 1e200)], [np.zeros((1, 3)), 1.0]]))
        ident = GroupElement.identity("SE3")
        g = np.array([x.matrix for x in (ident, ident, ident, far, far)])
        with np.errstate(over="ignore"), pytest.raises(NumericalBlowupError) as err:
            observer.error_columns(prob, np.arange(5) * 0.1, g, np.array([ident.matrix] * 5))
        assert err.value.t == pytest.approx(0.3)

    def test_no_error_cost_or_group_error_inside_the_step_loop(self, monkeypatch):
        in_loop = [False]
        real_integrate, real_group_error, real_cost = systems.integrate_system, observer.group_error, observer.ObserverProblem.error_cost

        def integrate(*args, **kwargs):
            in_loop[0] = True
            try:
                return real_integrate(*args, **kwargs)
            finally:
                in_loop[0] = False

        def guarded(fn):
            def call(*args):
                assert not in_loop[0], f"{fn.__name__} inside the step loop"
                return fn(*args)
            return call

        monkeypatch.setattr(systems, "integrate_system", integrate)
        monkeypatch.setattr(observer, "group_error", guarded(real_group_error))
        monkeypatch.setattr(observer.ObserverProblem, "error_cost", guarded(real_cost))
        config = IntegratorConfig(method="rk4_cg", h=0.05, t_final=0.3)
        for noise in (0.0, 0.01):
            scen = systems.AttitudeScenario(omega=lambda ts: np.tile([0.3, -0.2, 0.1], (len(ts), 1)), noise_amp=noise)
            traj = systems.simulate_attitude_observer(exp(hat([0.3, -0.4, 0.5])), GroupElement.identity("SO3"), scen, config)
            assert len(traj.extras["Ve"]) == len(traj) == 7
        prob = systems.attitude_problem()
        for reference in (False, True):  # the stacked pass, then the per-sample reference
            if reference:
                monkeypatch.setattr(observer, "_stacked_columns", lambda *args: None)
            traj = systems.simulate_error_dynamics(prob, exp(hat([0.3, -0.5, 0.2])), 1.0, config)
            assert len(traj.extras["Ve"]) == 7


def _observer_case(system, seed, fail, fail_at):
    """(prob, measure, u, state0, calls) of an attitude, SLAM or right-observed attitude run, where
    ``calls`` lists each read that a stacked call measured, as its state's and its draws' bytes.  From
    t = fail_at on, u turns NaN (``nan_u``); from the ``fail_at``-th measured read on, the measurement is
    NaN (``nan_y``), or a stack that holds that read raises ValueError (``raise_y``)."""
    rng = rng_from(seed)
    kind = "se3" if system == "slam" else "so3"
    if system == "slam":
        L = random_landmarks(rng, 6)
        prob, base = systems.slam_problem(L), lambda S, *noise: systems.measure_landmarks(S, L, *noise)
    elif system == "attitude":
        prob, base = systems.attitude_problem(), systems.measure_attitude
    else:
        prob = observer.ObserverProblem(
            group_kind="SO3", handedness="right", output_action=ac.so3_on_direction_pair("right"),
            y0=Point(ac.DIRECTION_PAIR, (E2, E3)), cost=systems.attitude_cost)

        def base(R, amp, r=None):
            if isinstance(R, np.ndarray):  # a stack, with its block of draws or None
                y = [R @ E2, R @ E3] if amp is None else [R @ E2 + amp[:, :3], R @ E3 + amp[:, 3:]]
                return tuple(x / np.sqrt(groups.row_dot(x))[:, None] for x in y)
            y = [x + r.uniform(-amp, amp, size=3) if amp > 0.0 else x for x in prob.output(R).value]
            return Point(ac.DIRECTION_PAIR, tuple(x / np.linalg.norm(x) for x in y))

    calls = []

    def measure(g, *noise):
        if not isinstance(g, np.ndarray):
            return base(g, *noise)
        y = base(g, *noise)
        bad = np.arange(len(calls), len(calls) + len(g)) >= fail_at if fail in ("nan_y", "raise_y") else np.zeros(len(g), bool)
        if fail == "raise_y" and bad.any():
            raise ValueError(f"no measurement from read {fail_at} on")
        calls.extend((x.tobytes(), None if noise[0] is None else noise[0][i].tobytes()) for i, x in enumerate(g))
        if system == "slam":
            y[bad, :3] = np.nan
        else:
            y[0][bad] = np.nan  # the Point check rejects it
        return y

    amp, freq, phase = rng.normal(size=(3, 6 if kind == "se3" else 3))

    def u(ts):
        v = amp * np.sin(freq * ts[:, None] + phase)
        if fail == "nan_u":
            v[ts >= fail_at * 0.05] = np.nan
        return v

    state0 = {"g": random_group(prob.group_kind, rng), "ghat": random_group(prob.group_kind, rng)}
    return prob, measure, u, state0, calls


def _run_observer(wrap, case, config, noise):
    """(trajectory or exception, per-sample state bytes and the measured reads) of
    ``simulate_observer`` on a fresh ``case()``, with its Cascade as it is, or wrapped so that the
    general loop takes it."""
    real, samples = integrate_system, []

    def record(t, state):
        samples.append((t, *(x.matrix.tobytes() for x in state.values())))
        return {}

    def integrate(rate, config, state0, sides=None, _=None):
        assert isinstance(rate, integrate_module.Cascade)
        return real((lambda t, s: rate(t, s)) if wrap else rate, config, state0, sides, record)

    prob, measure, u, state0, calls = case()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "integrate_system", integrate)
        try:
            return systems.simulate_observer(prob, measure, u, state0, 1.5, config, noise, 11), (samples, calls)
        except Exception as exc:  # noqa: BLE001 -- compared below
            return exc, (samples, calls)


class _Built(Exception):
    """Stops ``simulate_observer`` once its Cascade is built."""


def _observer_sense(case, noise):
    """(the Cascade ``simulate_observer`` builds for ``case``, its generator), without running it."""
    prob, measure, u, state0, _ = case
    made = {}

    def integrate(rate, *args):
        made["rate"] = rate
        raise _Built

    def rng(seed):
        made["rng"] = rng_from(seed)
        return made["rng"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "integrate_system", integrate)
        mp.setattr(systems, "rng_from", rng)
        with pytest.raises(_Built):
            systems.simulate_observer(prob, measure, u, state0, 1.5, IntegratorConfig("lie_euler", 0.05, 0.5), noise, 11)
    return made["rate"], made["rng"]


class TestBlockSense:
    """``simulate_observer``'s sense of a block of reads gives the bytes of one-read blocks: the
    feed-forward, the measured rows and the generator's state after them."""

    @settings(max_examples=60, deadline=None)
    @given(
        system=st.sampled_from(["attitude", "slam", "right"]),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.01, 0.3]),
        block=st.sampled_from([1, 2, 4, integrate_module._BLOCK]),
        reads=st.integers(1, 70),
    )
    def test_a_block_is_its_one_read_blocks(self, system, seed, noise, block, reads):
        rng = rng_from(seed)
        kind = _observer_case(system, seed, None, 0)[0].group_kind
        G = np.array([random_group(kind, rng).matrix for _ in range(reads)])
        V = rng.normal(size=(reads, 3 if kind == "SO3" else 6))
        ts = 0.05 * np.arange(reads)
        runs = []
        for size in (block, 1):
            rate, gen = _observer_sense(_observer_case(system, seed, None, 0), noise)
            feeds, rows = [], []
            for i in range(0, reads, size):
                feed, ys = rate.sense(ts[i:i + size], {"g": V[i:i + size]}, {"g": G[i:i + size]})
                assert feed.spatial is None if system != "right" else feed.body is None
                feeds.append(feed.body if system != "right" else feed.spatial)
                rows += ys
            assert len(rows) == reads
            runs.append((np.concatenate(feeds).tobytes(),
                         [b"".join(np.asarray(x).tobytes() for x in (y if isinstance(y, tuple) else (y,))) for y in rows],
                         gen.bit_generator.state))
        assert runs[0] == runs[1]
        if noise == 0.0:
            assert runs[0][0] == V.tobytes()


class TestCascadeObserverRun:
    """``simulate_observer`` steps a ``Cascade``: the driven true state and the estimate's feed-forward
    in stacked blocks, only the correction serially.  It must give the bytes, samples and errors of
    the general loop running the same Cascade wrapped."""

    @settings(max_examples=60, deadline=None)
    @given(
        system=st.sampled_from(["attitude", "slam", "right"]),
        seed=st.integers(0, 2**16),
        method=st.sampled_from(["lie_euler", "rk4_cg"]),
        noise=st.sampled_from([0.0, 0.01]),
        n_steps=st.integers(1, 11),
        block=st.sampled_from([1, 3, 4, 128]),
        fail=st.sampled_from([None, None, "nan_u", "nan_y", "raise_y"]),
        fail_at=st.integers(0, 30),
    )
    def test_same_bytes_samples_and_errors_as_general_loop(self, system, seed, method, noise, n_steps, block, fail, fail_at):
        config = IntegratorConfig(method=method, h=0.05, t_final=n_steps * 0.05)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate_module, "_BLOCK", block)
            (got, (got_samples, got_calls)), (want, (want_samples, want_calls)) = (
                _run_observer(wrap, lambda: _observer_case(system, seed, fail, fail_at), config, noise) for wrap in (False, True))
        assert got_samples == want_samples
        # no read is measured twice, and each with the general loop's draws; a failing run's block
        # measures up to its end, past the read that fails
        assert len(set(got_calls)) == len(got_calls)
        assert set(want_calls) <= set(got_calls) if isinstance(want, Exception) else got_calls == want_calls
        if isinstance(want, Exception):
            assert (type(got), str(got), getattr(got, "t", None)) == (type(want), str(want), getattr(want, "t", None))
            return
        assert not isinstance(got, Exception), got
        assert got.times.tobytes() == want.times.tobytes()
        for key in ("Ve", "zeta_e_norm"):
            assert got.extras[key].tobytes() == want.extras[key].tobytes()
        for a, b in zip(got.states, want.states, strict=True):
            assert [x.matrix.tobytes() for x in a.values()] == [x.matrix.tobytes() for x in b.values()]

    @pytest.mark.parametrize("system", ["attitude", "slam", "right"])
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_clean_runs_take_no_general_step(self, monkeypatch, system, method):
        # the general loop's fallback gives the same bytes, so only this shows that the blocks ran
        monkeypatch.setattr(integrate_module, "_general_step", _no_reference)
        prob, measure, u, state0, _ = _observer_case(system, 2, None, 0)
        traj = systems.simulate_observer(prob, measure, u, state0, 1.5, IntegratorConfig(method, 0.05, 0.5), 0.01, 11)
        assert len(traj) == 11

    @pytest.mark.parametrize("system", ["attitude", "slam", "right"])
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_a_raising_measurement_is_not_sensed_again(self, monkeypatch, system, method):
        # the block's draws are taken once: its reads before the raising one keep them, one read at a time
        monkeypatch.setattr(integrate_module, "_BLOCK", 4)
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        (got, (got_samples, got_calls)), (want, (want_samples, want_calls)) = (
            _run_observer(wrap, lambda: _observer_case(system, 3, "raise_y", 6), config, 0.01) for wrap in (False, True))
        assert isinstance(want, ValueError) and (type(got), str(got)) == (type(want), str(want))
        assert got_samples == want_samples and len(got_samples) > 1
        assert got_calls == want_calls and len(want_calls) == 6

    def test_failures_are_reached(self):
        # the strategies above do produce each failure, not only clean runs
        config = IntegratorConfig(method="rk4_cg", h=0.05, t_final=0.5)
        for fail, cls in (("nan_u", NumericalBlowupError), ("nan_y", KindMismatchError), ("raise_y", ValueError)):
            got, (samples, _) = _run_observer(False, lambda: _observer_case("attitude", 1, fail, 9), config, 0.01)
            assert isinstance(got, cls) and 1 < len(samples) < 11, (fail, got)


class TestBlockLength:
    """A run's bytes and draws do not depend on the block length: 1,100 noisy observer steps cross
    block boundaries and end in a partial block, at 64 steps per block and at the shipped length."""

    @pytest.mark.parametrize("system", ["attitude", "slam"])
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_bytes_and_draws_do_not_depend_on_the_block_length(self, system, method):
        config = IntegratorConfig(method, 0.005, 5.5)  # 1,100 steps
        rng = rng_from(23)
        L = random_landmarks(rng, 6)
        g0, g_est0 = (random_group("SO3" if system == "attitude" else "SE3", rng) for _ in range(2))
        profile = lambda ts: np.column_stack([np.sin(ts), np.cos(2.0 * ts), np.full_like(ts, 0.5)])  # noqa: E731
        runs = []
        for block in (64, integrate_module._BLOCK):
            made = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(integrate_module, "_BLOCK", block)
                mp.setattr(integrate_module, "_general_step", _no_reference)
                mp.setattr(systems, "rng_from", lambda seed: made.append(rng_from(seed)) or made[-1])
                if system == "attitude":
                    traj = systems.simulate_attitude_observer(
                        g0, g_est0, systems.AttitudeScenario(profile, noise_amp=0.01, seed=5), config)
                else:
                    twist = lambda ts: np.column_stack([np.tile((0.3, -0.1, 0.2), (len(ts), 1)), profile(ts)])  # noqa: E731
                    traj = systems.simulate_slam_observer(g0, g_est0, L, twist, 0.375, config, 0.01, 5)
            runs.append(({k: a.tobytes() for k, a in traj.arrays.items()},
                         {k: a.tobytes() for k, a in traj.extras.items()}, made[0].bit_generator.state))
        assert len(traj) == 1101 and integrate_module._BLOCK > 64 and len(made) == 1
        assert runs[0] == runs[1]
