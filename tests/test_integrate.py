"""Lie-group integrators: stepping, order, projection, determinism."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundleobs import integrate
from bundleobs.errors import ConfigError, KindMismatchError, NumericalBlowupError, ProjectionFailureError
from bundleobs.groups import AlgebraElement, GroupElement, exp, hat, log
from bundleobs.integrate import MAX_STEPS, Input, IntegratorConfig, SplitRate, integrate_system, lie_step
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


def _as_vectors(r):
    """The same rate with every AlgebraElement replaced by its coordinate vector."""
    if isinstance(r, SplitRate):
        return SplitRate(body=r.body.vec.copy(), spatial=r.spatial.vec.copy())
    return r.vec.copy()


class TestVectorRates:
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("side", ["left", "right", "split"])
    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_same_bytes_as_algebra_elements(self, method, side, kind):
        rng = rng_from(21)
        g0 = random_rotation(rng) if kind == "so3" else random_group("SE3", rng)
        config = IntegratorConfig(method=method, h=0.05, t_final=1.0)
        trajs = [
            integrate_system(
                lambda t, s, conv=conv: {"g": conv(_state_rate(kind, side == "split", t, s["g"]))},
                config, {"g": g0}, sides={"g": side},
            )
            for conv in (lambda r: r, _as_vectors)
        ]
        for a, b in zip(*(traj.states for traj in trajs)):
            assert a["g"].matrix.tobytes() == b["g"].matrix.tobytes()

    def test_lists_are_coordinates(self):
        g = random_group("SE3", rng_from(22))
        xi = [0.1, -0.2, 0.3, 0.2, 0.1, -0.4]
        assert lie_step(g, xi, 0.1).matrix.tobytes() == lie_step(g, AlgebraElement("se3", xi), 0.1).matrix.tobytes()

    @pytest.mark.parametrize("kind, length", [("SO3", 6), ("SO3", 2), ("SE3", 3), ("SE3", 7)])
    def test_wrong_length_raises_kind_mismatch(self, kind, length):
        g = GroupElement.identity(kind)
        with pytest.raises(KindMismatchError):
            lie_step(g, np.zeros(length), 0.1)
        config = IntegratorConfig(method="lie_euler", h=0.1, t_final=0.1)
        with pytest.raises(KindMismatchError):
            integrate_system(lambda t, s: {"g": SplitRate(spatial=np.zeros(length))}, config, {"g": g})

    def test_matrix_rate_raises_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            lie_step(GroupElement.identity("SO3"), np.zeros((3, 3)), 0.1)


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


def _open_loop_case(seed, spec, fail, fail_at):
    """Initial state, sides and u(t) for the components in ``spec``, each (kind, side,
    rate as vectors): SO3, SE3, or vectors of length 1 or 3, whose side is ignored.
    From t = fail_at on, the first component, a group one, turns bad as ``fail``
    says: NaN coordinates, a wrong length or an angle whose exponential overflows."""
    rng = rng_from(seed)
    state0, sides, parts = {}, {}, {}
    for i, (kind, side, vectors) in enumerate(spec):
        name = f"c{i}"
        dim = {"SO3": 3, "SE3": 6, "vec1": 1, "vec3": 3}[kind]
        amp, freq, phase = rng.normal(size=(3, dim))
        if kind.startswith("vec"):
            state0[name] = rng.normal(size=dim)
        else:
            state0[name] = random_group(kind, rng)
            sides[name] = "left" if side == "split" else side
        parts[name] = (kind, side, vectors, amp, freq, phase)

    def u(t):
        out = {}
        for name, (kind, side, vectors, amp, freq, phase) in parts.items():
            x = amp * np.sin(freq * t + phase)
            if name == "c0" and fail is not None and t >= fail_at:
                x = {"nan": np.full(len(x), np.nan), "length": np.zeros(len(x) + 1),
                     "angle": np.full(len(x), 1e200)}[fail]
            if kind.startswith("vec"):
                out[name] = np.cos(x)
                continue
            wrap = (lambda v: v) if vectors or fail == "length" else (lambda v, k=kind: AlgebraElement(k.lower(), v))
            out[name] = SplitRate(body=wrap(x), spatial=wrap(0.5 * np.cos(x))) if side == "split" else wrap(x)
        return out

    return state0, sides, u


def _run(rate, config, state0, sides):
    """(trajectory or exception, record calls) of integrate_system with a counting record."""
    calls = []

    def record(t, state):
        calls.append(t)
        return {"sum": float(sum(np.sum(v.matrix if isinstance(v, GroupElement) else v) for v in state.values()))}

    try:
        return integrate_system(rate, config, state0, sides, record), calls
    except Exception as exc:  # noqa: BLE001 -- the class is compared
        return exc, calls


_SIDES = st.sampled_from(["left", "right", "split"])
_GROUP_COMPONENT = st.tuples(st.sampled_from(["SO3", "SE3"]), _SIDES, st.booleans())
_COMPONENT = st.tuples(st.sampled_from(["SO3", "SE3", "vec1", "vec3"]), _SIDES, st.booleans())


class TestOpenLoop:
    """``Input(u)`` is stepped open-loop, from stacked exponentials; it must give the
    bytes, record calls and errors of the general loop running ``lambda t, s: u(t)``."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["lie_euler", "rk4_cg"]),
        spec=st.tuples(_GROUP_COMPONENT, st.lists(_COMPONENT, max_size=2)).map(lambda c: [c[0], *c[1]]),
        h=st.sampled_from([0.05, 0.1, 0.3]),
        n_steps=st.integers(1, 9),
        block=st.sampled_from([1, 2, 4, integrate._BLOCK]),
        fail=st.sampled_from([None, None, "nan", "length", "angle"]),
        fail_step=st.integers(0, 8),
        fail_offset=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_same_bytes_and_errors_as_general_loop(
        self, seed, method, spec, h, n_steps, block, fail, fail_step, fail_offset
    ):
        state0, sides, u = _open_loop_case(seed, spec, fail, (fail_step % n_steps + fail_offset) * h)
        config = IntegratorConfig(method=method, h=h, t_final=n_steps * h)
        with np.errstate(over="ignore"), mock.patch.object(integrate, "_BLOCK", block):
            got, got_calls = _run(Input(u), config, state0, sides)
            want, want_calls = _run(lambda t, s: u(t), config, state0, sides)
        if isinstance(want, Exception):
            assert type(got) is type(want), (got, want)
            assert getattr(got, "t", None) == getattr(want, "t", None)
            if fail != "angle":  # an overflowing exponential may stop the block before its records
                assert got_calls == want_calls
            return
        assert not isinstance(got, Exception), got
        assert got_calls == want_calls
        assert got.times.tobytes() == want.times.tobytes()
        assert got.extras["sum"].tobytes() == want.extras["sum"].tobytes()
        for a, b in zip(got.states, want.states, strict=True):
            for name in state0:
                x, y = a[name], b[name]
                if isinstance(y, GroupElement):
                    assert x.kind == y.kind and x.matrix.tobytes() == y.matrix.tobytes()
                else:
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("fail_at", [0.0, 0.25, 0.3, 0.35])
    def test_non_finite_rate_reports_the_same_time(self, method, fail_at):
        def u(t):
            return {"S": AlgebraElement("se3", [0.1, 0.0, np.inf if t >= fail_at else 0.2, 0.3, 0.0, 0.1])}

        config = IntegratorConfig(method=method, h=0.1, t_final=1.0)
        errors = []
        for rate in (Input(u), lambda t, s: u(t)):
            with pytest.raises(NumericalBlowupError) as err:
                integrate_system(rate, config, {"S": GroupElement.identity("SE3")})
            errors.append(err.value.t)
        assert errors[0] == errors[1] and errors[0] >= fail_at

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("side", ["left", "right", "split"])
    @pytest.mark.parametrize("case", sorted(TestBlowup.CASES))
    def test_blowup_cases_still_raise(self, method, side, case):
        xi = AlgebraElement("se3", TestBlowup.CASES[case])
        r = SplitRate(body=xi, spatial=xi) if side == "split" else xi
        config = IntegratorConfig(method=method, h=2, t_final=8.0)
        with pytest.raises(NumericalBlowupError):
            integrate_system(Input(lambda t: {"S": r}), config, {"S": GroupElement.identity("SE3")}, {"S": side})

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_overflowing_stage_exponential_raises(self, kind):
        # h |w| = 1e103 overflows theta ** 3 only in the rk4_cg stage exponential exp(h k3);
        # the largest exponent of the composition is h |w| / 3
        w = [0.0, 0.0, 1e104] if kind == "so3" else [1.0, 0.0, 0.0, 0.0, 0.0, 1e104]
        state0 = {"g": GroupElement.identity(kind.upper())}
        config = IntegratorConfig(method="rk4_cg", h=0.1, t_final=0.1)
        for rate in (Input(lambda t: {"g": w}), lambda t, s: {"g": w}):
            with pytest.raises(NumericalBlowupError, match="overflows"):
                integrate_system(rate, config, state0)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("side", ["left", "split"])
    def test_overflowing_stage_state_raises(self, side):
        # only the stage state m exp(h k1 / 2) overflows: the composition's velocities cancel
        m = np.eye(4)
        m[0, 3] = 1.7e308

        def u(t):
            v = np.array([2e307 if t % 1.0 == 0.0 else -2e307, 0.0, 0.0, 0.0, 0.0, 0.0])
            return {"S": SplitRate(body=v, spatial=np.zeros(6)) if side == "split" else v}

        config = IntegratorConfig(method="rk4_cg", h=1.0, t_final=1.0)
        for rate in (Input(u), lambda t, s: u(t)):
            with pytest.raises(NumericalBlowupError):
                integrate_system(rate, config, {"S": GroupElement("SE3", m)})

    def test_input_is_a_rate(self):
        u = lambda t: {"x": np.array([t])}  # noqa: E731
        assert Input(u)(0.5, {"x": np.zeros(1)})["x"][0] == 0.5

    def test_blocks_bound_the_stacks(self):
        config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=2.0)
        traj = integrate_system(Input(lambda t: {"x": np.ones(2)}), config, {"x": np.zeros(2)})
        assert len(traj) == 2001 and traj.states[-1]["x"].base.shape[0] <= integrate._BLOCK + 1
