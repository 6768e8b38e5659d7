"""Lie-group integrators: stepping, order, projection, determinism."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundleobs.errors import ConfigError, KindMismatchError, NumericalBlowupError, ProjectionFailureError
from bundleobs.groups import AlgebraElement, GroupElement, exp, hat, log
from bundleobs.integrate import MAX_STEPS, IntegratorConfig, SplitRate, integrate_system, lie_step
from bundleobs.sampling import random_algebra, random_group, random_rotation, rng_from


def omega(t):
    return np.array([np.sin(t), np.cos(2.0 * t), 0.5])


def attitude_rate(t, state):
    return {"R": AlgebraElement("so3", omega(t))}


def endpoint(method, h, t_final=1.0):
    config = IntegratorConfig(method=method, h=h, t_final=t_final)
    traj = integrate_system(attitude_rate, config, {"R": GroupElement.identity("SO3")})
    return traj.states[-1]["R"]


class TestLieStep:
    def test_zero_rate(self):
        rng = rng_from(0)
        g = random_rotation(rng)
        out = lie_step(g, AlgebraElement.zero("so3"), 0.1, "left")
        np.testing.assert_allclose(out.matrix, g.matrix, atol=1e-15)

    def test_one_parameter_subgroup(self):
        zeta = hat([0.3, -0.1, 0.2])
        g = GroupElement.identity("SO3")
        for _ in range(10):
            g = lie_step(g, zeta, 0.05, "left")
        direct = lie_step(GroupElement.identity("SO3"), zeta, 0.5, "left")
        assert np.linalg.norm(g.matrix - direct.matrix) <= 1e-12

    def test_sides(self):
        rng = rng_from(1)
        g = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        left = lie_step(g, zeta, 0.1, "left")
        right = lie_step(g, zeta, 0.1, "right")
        np.testing.assert_allclose(left.matrix, g.matrix @ exp(0.1 * zeta).matrix, atol=1e-14)
        np.testing.assert_allclose(right.matrix, exp(0.1 * zeta).matrix @ g.matrix, atol=1e-14)

    def test_richardson_order_one(self):
        ref = endpoint("rk4_cg", 1e-4)
        e_h = np.linalg.norm(endpoint("lie_euler", 2e-2).matrix - ref.matrix)
        e_h2 = np.linalg.norm(endpoint("lie_euler", 1e-2).matrix - ref.matrix)
        assert 1.6 <= e_h / e_h2 <= 2.4  # halving h halves the error (order 1)


class TestIntegrateSystem:
    def test_zero_rate_constant(self):
        config = IntegratorConfig(method="lie_euler", h=0.1, t_final=1.0)
        traj = integrate_system(
            lambda t, s: {"R": AlgebraElement.zero("so3"), "x": np.zeros(2)},
            config,
            {"R": GroupElement.identity("SO3"), "x": np.array([1.0, 2.0])},
        )
        for s in traj.states:
            np.testing.assert_allclose(s["R"].matrix, np.eye(3))
            np.testing.assert_allclose(s["x"], [1.0, 2.0])

    def test_rk4_cg_beats_lie_euler(self):
        ref = endpoint("rk4_cg", 1e-4)
        e_euler = np.linalg.norm(endpoint("lie_euler", 1e-2).matrix - ref.matrix)
        e_rk4 = np.linalg.norm(endpoint("rk4_cg", 1e-2).matrix - ref.matrix)
        assert e_euler >= 10.0 * e_rk4

    def test_group_invariants_at_samples(self):
        config = IntegratorConfig(method="lie_euler", h=1e-2, t_final=5.0)
        traj = integrate_system(attitude_rate, config, {"R": GroupElement.identity("SO3")})
        for s in traj.states:
            R = s["R"].matrix
            assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-9

    def test_deterministic(self):
        config = IntegratorConfig(method="rk4_cg", h=1e-2, t_final=1.0)
        a = integrate_system(attitude_rate, config, {"R": GroupElement.identity("SO3")})
        b = integrate_system(attitude_rate, config, {"R": GroupElement.identity("SO3")})
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa["R"].matrix, sb["R"].matrix)

    def test_blowup_reports_time(self):
        config = IntegratorConfig(method="lie_euler", h=0.1, t_final=1.0)

        def rate(t, state):
            return {"x": np.array([np.inf]) if t > 0.4 else np.array([1.0])}

        with pytest.raises(NumericalBlowupError) as err:
            integrate_system(rate, config, {"x": np.array([0.0])})
        assert err.value.t is not None

    def test_split_rate_step(self):
        # g+ = exp(h * spatial) g exp(h * body)
        rng = rng_from(2)
        g = random_rotation(rng)
        body, spatial = random_algebra("so3", rng), random_algebra("so3", rng)
        config = IntegratorConfig(method="lie_euler", h=0.25, t_final=0.25)
        traj = integrate_system(
            lambda t, s: {"g": SplitRate(body=body, spatial=spatial)}, config, {"g": g}
        )
        expected = exp(0.25 * spatial) @ g @ exp(0.25 * body)
        np.testing.assert_allclose(traj.states[-1]["g"].matrix, expected.matrix, atol=1e-14)

    def test_no_drift_without_projection(self):
        config = IntegratorConfig(method="lie_euler", h=1e-2, t_final=2.0)
        traj = integrate_system(attitude_rate, config, {"R": GroupElement.identity("SO3")})
        assert len(traj.states) == 201
        for s in traj.states:
            R = s["R"].matrix
            assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12

    def test_times_grid(self):
        config = IntegratorConfig(method="lie_euler", h=0.25, t_final=1.0)
        traj = integrate_system(attitude_rate, config, {"R": GroupElement.identity("SO3")})
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(method="euler_maruyama", h=0.1, t_final=1.0)

    def test_nonpositive_step(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(method="lie_euler", h=0.0, t_final=1.0)

    def test_negative_horizon(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(method="lie_euler", h=0.1, t_final=-1.0)


def _state_rate(kind, split, t, g):
    """A time- and state-dependent rate, so every rk4_cg stage matters."""
    dim = 3 if kind == "so3" else 6
    base = np.sin(t + np.arange(dim)) + 0.3 * g.matrix.ravel()[:dim]
    xi = AlgebraElement(kind, base)
    if split:
        return SplitRate(body=xi, spatial=AlgebraElement(kind, 0.5 * np.cos(base)))
    return xi


def _gate(g):
    """One Björck step R <- R (3I - R^T R) / 2 on the rotation block when
    ||R^T R - I|| exceeds 1e-12; otherwise g as it is."""
    R = g.matrix[:3, :3]
    if np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12:
        return g
    m = g.matrix.copy()
    m[:3, :3] = 0.5 * (R @ (3.0 * np.eye(3) - R.T @ R))
    return GroupElement(g.kind, m)


def _reference(method, h, n_steps, g0, rate, side):
    """The stepping rule written with the public exp, @ and numpy, gated
    after every lie_euler step, rk4_cg stage and rk4_cg composition."""

    def step(g, r, w):
        if isinstance(r, SplitRate):
            return exp(w * r.spatial) @ g @ exp(w * r.body)
        return g @ exp(w * r) if side == "left" else exp(w * r) @ g

    g, out = g0, [g0]
    for i in range(1, n_steps + 1):
        t = (i - 1) * h
        if method == "lie_euler":
            g = _gate(step(g, rate(t, g), h))
        else:
            k1 = rate(t, g)
            k2 = rate(t + h / 2, _gate(step(g, k1, h / 2)))
            k3 = rate(t + h / 2, _gate(step(g, k2, h / 2)))
            k4 = rate(t + h, _gate(step(g, k3, h)))
            for w, k in ((h / 6, k1), (h / 3, k2), (h / 3, k3), (h / 6, k4)):
                g = step(g, k, w)
            g = _gate(g)
        out.append(g)
    return out


class TestSteppingRule:
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("side", ["left", "right", "split"])
    @pytest.mark.parametrize("kind", ["so3", "se3"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_bit_identical_to_reference(self, method, side, kind, seed):
        rng = rng_from(seed)
        g0 = random_rotation(rng) if kind == "so3" else random_group("SE3", rng)

        def rate(t, g):
            return _state_rate(kind, side == "split", t, g)

        config = IntegratorConfig(method=method, h=0.05, t_final=1.0)
        traj = integrate_system(
            lambda t, s: {"g": rate(t, s["g"])}, config, {"g": g0}, sides={"g": side}
        )
        expected = _reference(method, 0.05, 20, g0, rate, side)
        assert len(traj.states) == len(expected)
        for s, g in zip(traj.states, expected):
            assert s["g"].matrix.tobytes() == g.matrix.tobytes()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_lie_step_matches_reference(self, side):
        rng = rng_from(12)
        g = random_group("SE3", rng)
        xi = random_algebra("se3", rng)
        expected = g @ exp(0.1 * xi) if side == "left" else exp(0.1 * xi) @ g
        assert lie_step(g, xi, 0.1, side).matrix.tobytes() == expected.matrix.tobytes()

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            lie_step(GroupElement.identity("SE3"), AlgebraElement.zero("so3"), 0.1)
        config = IntegratorConfig(method="lie_euler", h=0.1, t_final=0.1)
        with pytest.raises(KindMismatchError):
            integrate_system(
                lambda t, s: {"g": SplitRate(spatial=AlgebraElement.zero("se3"))},
                config,
                {"g": GroupElement.identity("SO3")},
            )


def _drifted(kind, w, t, u, defect):
    """A rotation exp(w), stretched along its columns by 1 + s with |s| = defect / 2
    (so ||R^T R - I|| is about ``defect``), as SO(3) or with translation t as SE(3)."""
    R = exp(AlgebraElement("so3", w)).matrix @ np.diag(1.0 + 0.5 * defect * u / np.linalg.norm(u))
    if kind == "SO3":
        return R
    m = np.eye(4)
    m[:3, :3] = R
    m[:3, 3] = t + 0.0  # no -0.0, which the step's product with I would turn into 0.0
    return m


def _defect(m):
    R = m[:3, :3]
    return np.linalg.norm(R.T @ R - np.eye(3))


_vec3 = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)
_unit3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda u: np.linalg.norm(u) > 0.1
)
_kind = st.sampled_from(["SO3", "SE3"])


class TestDriftGate:
    """No shipped scenario drifts past 1e-12, so these build elements that have."""

    @settings(max_examples=200, deadline=None)
    @given(kind=_kind, w=_vec3, t=_vec3, u=_unit3, log_defect=st.floats(np.log10(2e-12), np.log10(9e-10)))
    def test_bjorck_step_restores_rotation(self, kind, w, t, u, log_defect):
        m = _drifted(kind, w, t, u, 10.0**log_defect)
        defect = _defect(m)
        assume(1.5e-12 <= defect <= 0.95e-9)
        g = GroupElement(kind, m)
        out = lie_step(g, AlgebraElement.zero(g.algebra_kind), 1.0)
        assert _defect(out.matrix) <= 1e-14
        assert np.linalg.det(out.matrix[:3, :3]) > 0
        assert np.linalg.norm(out.matrix - g.matrix) <= 2.0 * defect
        if kind == "SE3":
            assert out.matrix[:, 3].tobytes() == g.matrix[:, 3].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(kind=_kind, w=_vec3, t=_vec3, u=_unit3, defect=st.floats(0.0, 5e-13))
    def test_small_drift_passes_through(self, kind, w, t, u, defect):
        g = GroupElement(kind, _drifted(kind, w, t, u, defect))
        assert _defect(g.matrix) <= 1e-12
        out = lie_step(g, AlgebraElement.zero(g.algebra_kind), 1.0)
        assert out.matrix.tobytes() == g.matrix.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(kind=_kind, w=_vec3, t=_vec3, u=_unit3, log_defect=st.floats(np.log10(1.2e-9), -6.0))
    def test_large_drift_still_rejected(self, kind, w, t, u, log_defect):
        m = _drifted(kind, w, t, u, 10.0**log_defect)
        assume(_defect(m) > 1.05e-9)
        with pytest.raises(ProjectionFailureError):
            GroupElement(kind, m)


class TestBlowup:
    CASES = {
        "non_finite": np.array([0.1, np.nan, 0.0, 0.2, 0.1, 0.0]),
        "translation_overflow": np.array([1e308, 1e308, 0.0, 0.1, 0.2, 0.3]),
        "translation_grows": np.array([3e307, 3e307, 3e307, 0.0, 0.0, 0.0]),
    }

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("side", ["left", "right", "split"])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("h", [1, 2])
    def test_se3_blowup(self, method, side, case, h):
        xi = AlgebraElement("se3", self.CASES[case])
        r = SplitRate(body=xi, spatial=xi) if side == "split" else xi
        config = IntegratorConfig(method=method, h=h, t_final=8.0)
        with pytest.raises(NumericalBlowupError):
            integrate_system(
                lambda t, s: {"S": r}, config, {"S": GroupElement.identity("SE3")}, sides={"S": side}
            )

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_non_finite_rate_reports_time(self, method):
        config = IntegratorConfig(method=method, h=0.1, t_final=1.0)

        def rate(t, state):
            return {"R": AlgebraElement("so3", [np.inf if t > 0.25 else 1.0, 0.0, 0.0])}

        with pytest.raises(NumericalBlowupError) as err:
            integrate_system(rate, config, {"R": GroupElement.identity("SO3")})
        assert err.value.t is not None and err.value.t <= 0.3 + 1e-12


class TestStepLimit:
    @pytest.mark.parametrize("h, t_final", [(1e-300, 1e-290), (1e-300, 1e10), (1e-7, 1.0)])
    def test_too_many_steps(self, h, t_final):
        with pytest.raises(ConfigError, match="steps"):
            IntegratorConfig(method="lie_euler", h=h, t_final=t_final)

    def test_limit_accepted(self):
        config = IntegratorConfig(method="lie_euler", h=1.0, t_final=float(MAX_STEPS))
        assert round(config.t_final / config.h) == MAX_STEPS
