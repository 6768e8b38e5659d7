"""Lie-group integrators: stepping, order, projection, determinism."""

from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bundleobs import groups, integrate
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
    """Initial state, sides and u(ts) for the components in ``spec``, each (kind, side,
    rate as arrays, else as nested lists): SO3, SE3, or vectors of length 1 or 3, whose side is
    ignored.  From t = fail_at on, the first component, a group one, turns bad as ``fail``
    says: NaN coordinates, a wrong length (the whole stack of a block that reaches t) or an
    angle whose exponential overflows; "vector_nan" turns the first vector component, if
    there is one, NaN instead."""
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
    target = next((n for n, part in parts.items() if part[0].startswith("vec")), None) if fail == "vector_nan" else "c0"

    def u(ts):
        out = {}
        for name, (kind, side, vectors, amp, freq, phase) in parts.items():
            x = amp * np.sin(freq * ts[:, None] + phase)
            bad = (ts >= fail_at) & (name == target)
            if fail == "length" and bad.any():
                x = np.zeros((len(ts), x.shape[1] + 1))
            elif fail in ("nan", "vector_nan", "angle"):
                x[bad] = 1e200 if fail == "angle" else np.nan
            if kind.startswith("vec"):
                out[name] = np.cos(x)
                continue
            wrap = (lambda v: v) if vectors or fail == "length" else (lambda v: v.tolist())
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
        fail=st.sampled_from([None, None, "nan", "length", "angle", "vector_nan"]),
        fail_step=st.integers(0, 8),
        fail_offset=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(seed=0, method="rk4_cg", spec=[("SO3", "left", False), ("vec3", "left", False)], h=0.1,
             n_steps=5, block=integrate._BLOCK, fail="vector_nan", fail_step=2, fail_offset=0.5)
    def test_same_bytes_and_errors_as_general_loop(
        self, seed, method, spec, h, n_steps, block, fail, fail_step, fail_offset
    ):
        state0, sides, u = _open_loop_case(seed, spec, fail, (fail_step % n_steps + fail_offset) * h)
        config = IntegratorConfig(method=method, h=h, t_final=n_steps * h)
        with np.errstate(over="ignore"), mock.patch.object(integrate, "_BLOCK", block):
            got, got_calls = _run(Input(u), config, state0, sides)
            want, want_calls = _run(lambda t, s: Input(u)(t, s), config, state0, sides)
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
        def u(ts):
            x = np.tile([0.1, 0.0, 0.2, 0.3, 0.0, 0.1], (len(ts), 1))
            x[ts >= fail_at, 2] = np.inf
            return {"S": x}

        config = IntegratorConfig(method=method, h=0.1, t_final=1.0)
        errors = []
        for rate in (Input(u), lambda t, s: Input(u)(t, s)):
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

        def u(ts):
            x = np.tile(xi.vec, (len(ts), 1))
            return {"S": SplitRate(body=x, spatial=x) if side == "split" else x}

        config = IntegratorConfig(method=method, h=2, t_final=8.0)
        with pytest.raises(NumericalBlowupError):
            integrate_system(Input(u), config, {"S": GroupElement.identity("SE3")}, {"S": side})

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_overflowing_stage_exponential_raises(self, kind):
        # h |w| = 1e103 overflows theta ** 3 only in the rk4_cg stage exponential exp(h k3);
        # the largest exponent of the composition is h |w| / 3
        w = [0.0, 0.0, 1e104] if kind == "so3" else [1.0, 0.0, 0.0, 0.0, 0.0, 1e104]
        state0 = {"g": GroupElement.identity(kind.upper())}
        config = IntegratorConfig(method="rk4_cg", h=0.1, t_final=0.1)
        for rate in (Input(lambda ts: {"g": np.tile(w, (len(ts), 1))}), lambda t, s: {"g": w}):
            with pytest.raises(NumericalBlowupError, match="overflows"):
                integrate_system(rate, config, state0)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("side", ["left", "split"])
    def test_overflowing_stage_state_raises(self, side):
        # only the stage state m exp(h k1 / 2) overflows: the composition's velocities cancel
        m = np.eye(4)
        m[0, 3] = 1.7e308

        def u(ts):
            v = np.zeros((len(ts), 6))
            v[:, 0] = np.where(ts % 1.0 == 0.0, 2e307, -2e307)
            return {"S": SplitRate(body=v, spatial=np.zeros((len(ts), 6))) if side == "split" else v}

        config = IntegratorConfig(method="rk4_cg", h=1.0, t_final=1.0)
        for rate in (Input(u), lambda t, s: Input(u)(t, s)):
            with pytest.raises(NumericalBlowupError):
                integrate_system(rate, config, {"S": GroupElement("SE3", m)})

    def test_input_is_a_rate(self):
        u = lambda ts: {"x": ts[:, None]}  # noqa: E731
        assert Input(u)(0.5, {"x": np.zeros(1)})["x"][0] == 0.5


_EXP_MATRIX = groups.exp_matrix


def _drifting_exp_matrix(vec, by=1e-8):
    """``exp_matrix`` with entry (0, 0) of each result moved by ``by`` where its vector is marked
    (x[0] == 2 x[1] != 0, which scaling by a step weight keeps): by default a drift the constructor
    rejects; 1e-11 gives one between the drift gate and the constructor's tolerance."""
    out = _EXP_MATRIX(vec)
    rows, ms = np.reshape(vec, (-1, np.shape(vec)[-1])), out.reshape(-1, *out.shape[-2:])
    ms[(rows[:, 0] == 2.0 * rows[:, 1]) & (rows[:, 1] != 0.0), 0, 0] += by
    return out


def _marked(v):
    v = np.array(v, dtype=float)
    v[1] = v[1] or 0.5
    v[0] = 2.0 * v[1]
    return v


def _cascade_case(seed, kind, hand, noise, follower_first, fail, fail_at):
    """A Cascade whose u drives ``g`` and whose follower ``x`` (of the same kind) takes a noisy
    feed-forward and a correction towards the sensed direction of g; the correction is on the
    spatial side, or on the body side when ``hand`` is right, as for a right-observed system.
    ``sense`` takes blocks of reads and draws each block's noise at once, each read's feed-forward
    noise before its measurement's.  The feed-forward is affine in the rate, so each row has the bits of
    a one-read block's, which another kernel of a stack need not give.  From t = fail_at on, ``fail``
    makes u NaN, the measurement NaN, or marks the rate of g (``drift_g``) or the correction of x
    (``drift_x``) for ``_drifting_exp_matrix``."""
    rng = rng_from(seed)
    dim = 3 if kind == "SO3" else 6
    amp, freq, phase = rng.normal(size=(3, dim))
    g0, x0 = random_group(kind, rng), random_group(kind, rng)
    state0 = {"x": x0, "g": g0} if follower_first else {"g": g0, "x": x0}
    axis = np.array([0.0, 0.6, 0.8])

    def u(ts):
        v = amp * np.sin(freq * ts[:, None] + phase)
        for i in np.flatnonzero(ts >= fail_at) if fail in ("nan_u", "drift_g") else ():
            v[i] = np.full(dim, np.nan) if fail == "nan_u" else _marked(v[i])
        return {"g": v}

    def sense(ts, rates, states):
        feed, y = 0.5 * rates["g"] + 0.25, np.swapaxes(states["g"][:, :3, :3], 1, 2) @ axis
        if noise > 0.0:
            d = rng.uniform(-noise, noise, size=(len(ts), dim + 3))
            feed, y = feed + d[:, :dim], y + d[:, dim:]
        if fail == "nan_y":
            y[ts >= fail_at] = np.nan
        return SplitRate(body=feed) if hand == "left" else SplitRate(spatial=feed), list(y)

    def follow(t, m, y):
        c = 0.8 * np.resize(np.cross(m[:3, :3].T @ axis, y), dim)
        return _marked(c) if fail == "drift_x" and t >= fail_at else c

    return state0, integrate.Cascade(u, sense, follow)


class TestCascade:
    """A ``Cascade`` steps its driven components and its followers' feed-forward in stacked blocks
    and only the feedback serially; it must give the bytes, record calls and errors of the general
    loop running it wrapped, ``lambda t, s: cascade(t, s)``."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["lie_euler", "rk4_cg"]),
        kind=st.sampled_from(["SO3", "SE3"]),
        hand=st.sampled_from(["left", "right"]),
        noise=st.sampled_from([0.0, 0.01]),
        follower_first=st.booleans(),
        n_steps=st.integers(1, 9),
        block=st.sampled_from([1, 2, 4, integrate._BLOCK]),
        fail=st.sampled_from([None, None, "nan_u", "nan_y", "drift_g", "drift_x"]),
        fail_at=st.sampled_from([0.0, 0.05, 0.125, 0.2, 0.35]),
    )
    def test_same_bytes_records_and_errors_as_general_loop(
        self, seed, method, kind, hand, noise, follower_first, n_steps, block, fail, fail_at
    ):
        config = IntegratorConfig(method=method, h=0.05, t_final=n_steps * 0.05)
        with mock.patch.object(integrate, "_BLOCK", block), mock.patch.object(groups, "exp_matrix", _drifting_exp_matrix):
            state0, cascade = _cascade_case(seed, kind, hand, noise, follower_first, fail, fail_at)
            got, got_calls = _run(cascade, config, state0, {})
            state0, cascade = _cascade_case(seed, kind, hand, noise, follower_first, fail, fail_at)
            want, want_calls = _run(lambda t, s: cascade(t, s), config, state0, {})
        assert got_calls == want_calls
        if isinstance(want, Exception):
            assert (type(got), str(got), getattr(got, "t", None)) == (type(want), str(want), getattr(want, "t", None))
            return
        assert not isinstance(got, Exception), got
        assert got.times.tobytes() == want.times.tobytes()
        assert got.extras["sum"].tobytes() == want.extras["sum"].tobytes()
        for a, b in zip(got.states, want.states, strict=True):
            assert list(a) == list(b) == list(state0)
            assert [x.matrix.tobytes() for x in a.values()] == [x.matrix.tobytes() for x in b.values()]

    @pytest.mark.parametrize("fail, cls", [("nan_u", NumericalBlowupError), ("nan_y", NumericalBlowupError),
                                           ("drift_g", ProjectionFailureError), ("drift_x", ProjectionFailureError)])
    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_each_failure_stops_the_run_where_injected(self, fail, cls, method):
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        with mock.patch.object(integrate, "_BLOCK", 4), mock.patch.object(groups, "exp_matrix", _drifting_exp_matrix):
            got, calls = _run(_cascade_case(3, "SE3", "left", 0.01, False, fail, 0.2)[1], config,
                              _cascade_case(3, "SE3", "left", 0.01, False, fail, 0.2)[0], {})
        assert isinstance(got, cls) and len(calls) in (4, 5), (got, calls)

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("hand", ["left", "right"])
    def test_clean_runs_take_no_general_step(self, method, hand):
        # a failing block falls back to the general loop with its bytes, so equal bytes alone do not
        # show that the block path ran
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        state0, cascade = _cascade_case(4, "SE3", hand, 0.01, True, None, 1.0)
        with mock.patch.object(integrate, "_BLOCK", 3), \
                mock.patch.object(integrate, "_general_step", side_effect=AssertionError("general step")):
            integrate_system(cascade, config, state0)
            integrate_system(Input(lambda ts: {"g": np.ones((len(ts), 6)), "v": np.ones((len(ts), 2))}), config,
                             {"g": GroupElement.identity("SE3"), "v": np.zeros(2)})

    def test_call_merges_feed_and_feedback(self):
        state0, cascade = _cascade_case(5, "SO3", "right", 0.0, False, None, 1.0)
        rates = cascade(0.1, state0)
        feed, ys = cascade.sense(np.array([0.1]), {"g": np.array([rates["g"]])}, {"g": state0["g"].matrix[None]})
        assert list(rates) == ["g", "x"] and rates["g"] is not None
        assert rates["x"].spatial.tobytes() == feed.spatial[0].tobytes()
        assert rates["x"].body.tobytes() == cascade.follow(0.1, state0["x"].matrix, ys[0]).tobytes()

    def test_rows_must_have_one_read_bits(self):
        # the block pass gives the general loop's bytes only if each sensed row has the bits of a one-read block's
        def sense(ts, rates, states):
            return SplitRate(body=rates["g"] + 1e-9 * (len(ts) > 1)), [None] * len(ts)

        config = IntegratorConfig(method="lie_euler", h=0.05, t_final=0.5)
        state0 = {"g": GroupElement.identity("SO3"), "x": GroupElement.identity("SO3")}
        u = lambda ts: {"g": np.column_stack([np.full_like(ts, 0.3), np.sin(ts), np.full_like(ts, 0.5)])}  # noqa: E731
        cascade = integrate.Cascade(u, sense, lambda t, m, y: np.zeros(3))
        got, want = (integrate_system(r, config, state0) for r in (cascade, lambda t, s: cascade(t, s)))
        assert got.arrays["g"].tobytes() == want.arrays["g"].tobytes()
        assert got.arrays["x"].tobytes() != want.arrays["x"].tobytes()

    def test_array_components_take_the_block_path(self):
        cascade = integrate.Cascade(lambda ts: {"v": np.ones((len(ts), 2))},
                                    lambda t, r, s: (SplitRate(body=np.tile([0.1, 0, 0], (len(t), 1))), [None] * len(t)),
                                    lambda t, m, y: np.array([0, 0, 0.2]))
        config = IntegratorConfig(method="rk4_cg", h=0.1, t_final=0.3)
        with mock.patch.object(integrate, "_general_step", side_effect=AssertionError("general step")):
            traj = integrate_system(cascade, config, {"v": np.zeros(2), "x": GroupElement.identity("SO3")})
        want = integrate_system(lambda t, s: cascade(t, s), config, {"v": np.zeros(2), "x": GroupElement.identity("SO3")})
        assert traj.states[-1]["v"].tobytes() == want.states[-1]["v"].tobytes()
        assert traj.states[-1]["x"].matrix.tobytes() == want.states[-1]["x"].matrix.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["lie_euler", "rk4_cg"]),
           n_steps=st.integers(1, 140), block=st.sampled_from([1, 2, 4, integrate._BLOCK]))
    @example(seed=0, method="rk4_cg", n_steps=128, block=integrate._BLOCK)
    def test_vector_stage_states_take_the_block_path(self, seed, method, n_steps, block):
        # u drives x (R^3) and R (SO(3)); the follower Rhat reads x at every read, so an rk4_cg block
        # must sense x at its stage states with the general loop's bits
        rng = rng_from(seed)
        amp, freq, phase = rng.normal(size=(3, 6))
        state0 = {"x": rng.normal(size=3), "R": random_rotation(rng), "Rhat": random_rotation(rng)}
        cascade = integrate.Cascade(lambda ts: {"x": (v := amp * np.sin(freq * ts[:, None] + phase))[:, :3], "R": v[:, 3:]},
                                    lambda ts, r, s: (SplitRate(body=r["R"]), list(s["x"])),
                                    lambda t, m, y: 0.5 * np.cross(m[:, 0], y))
        config = IntegratorConfig(method=method, h=0.01, t_final=n_steps * 0.01)
        with mock.patch.object(integrate, "_BLOCK", block):
            with mock.patch.object(integrate, "_general_step", side_effect=AssertionError("general step")):
                got = integrate_system(cascade, config, state0)
            want = integrate_system(lambda t, s: cascade(t, s), config, state0)
        assert len(got) == n_steps + 1
        for name in state0:
            assert got.arrays[name].tobytes() == want.arrays[name].tobytes()


def _signed_zero_exp_matrix(vec):
    """``exp_matrix`` with entry (0, 0) of each result moved by 1e-14 where its first coordinate is -0.0."""
    out = _EXP_MATRIX(vec)
    rows, ms = np.reshape(vec, (-1, np.shape(vec)[-1])), out.reshape(-1, *out.shape[-2:])
    ms[(rows[:, 0] == 0.0) & np.signbit(rows[:, 0]), 0, 0] += 1e-14
    return out


class TestSharedExponentials:
    """A follower's feed-forward stack with the bytes of a driven component's takes that component's
    stacked exponentials; one equal only in value (-0.0 against 0.0) takes its own."""

    @staticmethod
    def _cascade(zero):
        def sense(ts, rates, states):
            feed = rates["g"].copy()
            feed[:, 0] = zero
            return SplitRate(body=feed), [None] * len(ts)

        u = lambda ts: {"g": np.column_stack([np.zeros_like(ts), np.sin(ts), np.full_like(ts, 0.5)])}  # noqa: E731
        return integrate.Cascade(u, sense, lambda t, m, y: np.array([0.0, 0.0, 0.1]))

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_bytes_decide_what_is_shared(self, method, zero):
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        state0 = {"g": GroupElement.identity("SO3"), "x": GroupElement.identity("SO3")}
        stacked = []

        def counted(vec):
            stacked.append(np.ndim(vec) == 2)
            return _signed_zero_exp_matrix(vec)

        with mock.patch.object(integrate, "_BLOCK", 4), mock.patch.object(groups, "exp_matrix", counted):
            got = integrate_system(self._cascade(zero), config, state0)
            blocks = sum(stacked)
            want = integrate_system(lambda t, s, c=self._cascade(zero): c(t, s), config, state0)
        assert np.array_equal(np.float64(zero), 0.0)  # equal in value either way
        assert blocks == 3 * (1 if np.signbit(zero) == np.signbit(0.0) else 2)  # 10 steps in 3 blocks
        for name in state0:
            assert got.arrays[name].tobytes() == want.arrays[name].tobytes()


def _stored(rate, config, state0, sides=None):
    """(trajectory, copies of the state dicts that each sample's record call saw)."""
    seen = []

    def record(t, state):
        seen.append({k: np.array(x.matrix if isinstance(x, GroupElement) else x) for k, x in state.items()})
        return {}

    return integrate_system(rate, config, state0, sides, record), seen


class TestStorage:
    """A Trajectory keeps each component as one (n + 1, ...) stack with the bits of the states the
    steps made, and rebuilds a sample's dict from the stacks on access."""

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("loop", ["input", "cascade", "general"])
    def test_each_component_is_one_stack_of_the_stepped_states(self, method, loop):
        config = IntegratorConfig(method=method, h=0.01, t_final=1.5)  # 150 steps: three blocks, the last short
        sides = None
        if loop == "cascade":
            state0, rate = _cascade_case(6, "SE3", "left", 0.01, False, None, 2.0)
        else:
            spec = [("SO3", "left", False), ("SE3", "split", True), ("vec3", "left", False)]
            state0, sides, u = _open_loop_case(6, spec, None, 0.0)
            rate = Input(u) if loop == "input" else (lambda t, s: Input(u)(t, s))
        traj, seen = _stored(rate, config, state0, sides)
        assert len(traj) == len(seen) == 151 and list(traj.arrays) == list(state0)
        for name, x in state0.items():
            shape = np.shape(x.matrix if isinstance(x, GroupElement) else x)
            assert traj.arrays[name].shape == (151, *shape)
            assert traj.arrays[name].tobytes() == np.array([s[name] for s in seen]).tobytes()
        last = traj.states[-1]
        assert all(isinstance(last[k], GroupElement) == isinstance(x, GroupElement) for k, x in state0.items())
        with pytest.raises(IndexError):
            traj.states[151]

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_a_drifting_driven_chain_takes_the_general_loop(self, method):
        # from t = 0.3 on, every exponential of the driven g drifts by 1e-11, past the drift gate: the
        # block holding step 6 (steps 4-7) and the last one (8-9) must take the general loop, which
        # settles each step by a Björck step
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        drift = lambda vec: _drifting_exp_matrix(vec, by=1e-11)  # noqa: E731
        runs = []
        for wrap in (lambda c: c, lambda c: lambda t, s: c(t, s)):
            state0, cascade = _cascade_case(3, "SO3", "left", 0.0, False, "drift_g", 0.3)
            with mock.patch.object(integrate, "_BLOCK", 4), mock.patch.object(groups, "exp_matrix", drift), \
                    mock.patch.object(integrate, "_general_step", wraps=integrate._general_step) as general:
                runs.append((*_stored(wrap(cascade), config, state0), general.call_count))
        (got, seen, general_steps), (want, _, _) = runs
        assert general_steps == 6
        for name in ("g", "x"):
            assert got.arrays[name].tobytes() == want.arrays[name].tobytes()
            assert got.arrays[name].tobytes() == np.array([s[name] for s in seen]).tobytes()

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_a_drifting_follower_takes_the_general_loop(self, method):
        # from t = 0.3 on, the follower's correction is marked, so its exponential drifts: by 1e-11, past
        # the drift gate, the follower's matrix after step 6 (lie_euler; step 5 for rk4_cg, whose last read
        # is at t = 0.3) is the first above the gate, in the middle of the block of steps 4-7.  That block
        # and the last one (8-9) must take the general loop, which settles each step by a Björck step: 6
        # general steps.  By 1e-8, past the constructor's tolerance, the general loop raises at that step,
        # after 3 (lie_euler) or 2 (rk4_cg) general steps, with the general loop's error and records.
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        first = 6 if method == "lie_euler" else 5
        for by in (1e-11, 1e-8):
            runs = []
            for wrap in (lambda c: c, lambda c: lambda t, s: c(t, s)):
                state0, cascade = _cascade_case(3, "SO3", "left", 0.0, False, "drift_x", 0.3)
                with mock.patch.object(integrate, "_BLOCK", 4), \
                        mock.patch.object(groups, "exp_matrix", lambda vec: _drifting_exp_matrix(vec, by)), \
                        mock.patch.object(integrate, "_general_step", wraps=integrate._general_step) as general:
                    runs.append((*_run(wrap(cascade), config, state0, {}), general.call_count))
            (got, got_calls, general_steps), (want, want_calls, _) = runs
            assert got_calls == want_calls
            if by == 1e-8:
                assert isinstance(want, ProjectionFailureError)
                assert (type(got), str(got), getattr(got, "t", None)) == (type(want), str(want), getattr(want, "t", None))
                assert general_steps == first - 4 + 1 and len(got_calls) == first + 1
                continue
            assert general_steps == 6
            assert got.extras["sum"].tobytes() == want.extras["sum"].tobytes()
            for name in ("g", "x"):
                assert got.arrays[name].tobytes() == want.arrays[name].tobytes()
            # the follower's steps before the first drifting one are the ones the block path gave (as a
            # drift-free run shows), and the drifting ones were settled below the gate by the general loop
            clean = integrate_system(_cascade_case(3, "SO3", "left", 0.0, False, None, 0.3)[1], config, state0)
            assert got.arrays["x"][:first + 1].tobytes() == clean.arrays["x"][:first + 1].tobytes()
            assert got.arrays["x"][first + 1].tobytes() != clean.arrays["x"][first + 1].tobytes()
            assert max(GroupElement("SO3", m).defect for m in got.arrays["x"]) <= groups._DRIFT_TOL


def _recorded(rate, config, state0, sides=None):
    """(trajectory, per record call: t, the mapping's type, whether writing to it raised TypeError (None for
    a dict), and each (key, value type, bits) in order)."""
    seen = []

    def record(t, state):
        locked = None  # a state dict is the run's own; only a mapping is written to
        if not isinstance(state, dict):
            try:
                state["probe"] = 0.0
                locked = False
            except TypeError:
                locked = True
        bits = [(k, type(v), (v.kind, v.matrix.tobytes()) if isinstance(v, GroupElement) else (v.dtype, v.tobytes()))
                for k, v in state.items()]
        seen.append((t, type(state), locked, bits))
        return {}

    return integrate_system(rate, config, state0, sides, record), seen


class TestBlockRecord:
    """On the block path ``record`` gets, per sample, a read-only mapping over the trajectory's arrays that
    builds each value on access; it must give what the general loop's state dict gives."""

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("loop", ["input", "cascade"])
    def test_block_mapping_matches_the_general_loops_dict(self, method, loop):
        config = IntegratorConfig(method=method, h=0.01, t_final=1.5)  # 150 steps: three blocks, the last short
        sides = None
        if loop == "cascade":
            state0, rate = _cascade_case(6, "SE3", "left", 0.01, True, None, 2.0)
            wrapped = _cascade_case(6, "SE3", "left", 0.01, True, None, 2.0)[1]
        else:
            spec = [("SO3", "left", False), ("vec3", "left", False), ("SE3", "split", True)]
            state0, sides, u = _open_loop_case(6, spec, None, 0.0)
            rate, wrapped = Input(u), (lambda t: Input(u)(t, {}))
        with mock.patch.object(integrate, "_general_step", side_effect=AssertionError("general step")):
            got, got_seen = _recorded(rate, config, state0, sides)
        want, want_seen = _recorded(lambda t, s: wrapped(t, s) if loop == "cascade" else wrapped(t), config, state0,
                                    sides)
        assert len(got_seen) == len(want_seen) == 151
        for (t, kind, locked, bits), (t_want, kind_want, locked_want, bits_want) in zip(got_seen, want_seen):
            assert t == t_want and bits == bits_want
            assert [k for k, _, _ in bits] == list(state0)
            assert all(isinstance(state0[k], GroupElement) == (cls is GroupElement) for k, cls, _ in bits)
            assert kind_want is dict and locked_want is None
        assert got_seen[0][1] is dict  # the initial sample is the state dict, in either loop
        assert all(issubclass(kind, Mapping) and locked for _, kind, locked, _ in got_seen[1:])
        assert type(got.states[75]) is dict  # a Trajectory's sample is still a dict

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_the_carried_state_holds_the_constructors_defect(self, method):
        # the driven g drifts past the gate from t = 0.3 on, so the block of steps 4-7 takes the general loop;
        # its first step starts from the state the block pass carried out of steps 0-3
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        state0, cascade = _cascade_case(3, "SE3", "left", 0.0, False, "drift_g", 0.3)
        with mock.patch.object(integrate, "_BLOCK", 4), \
                mock.patch.object(groups, "exp_matrix", lambda vec: _drifting_exp_matrix(vec, by=1e-11)), \
                mock.patch.object(integrate, "_general_step", wraps=integrate._general_step) as general:
            traj = integrate_system(cascade, config, state0)
        carried = general.call_args_list[0].args[3]
        assert general.call_args_list[0].args[2] == 4 * 0.05 and list(carried) == list(state0)
        for name, g in carried.items():
            assert isinstance(g, GroupElement) and g.matrix.tobytes() == traj.arrays[name][4].tobytes()
            assert g.defect == GroupElement(g.kind, g.matrix).defect


class TestBlockReads:
    """An Input's or a Cascade's ``u`` is read once per block, on the block's read times as one (k,) array;
    a bad stack hands the block to the general loop, which reads ``u`` one read at a time and raises at the
    bad read, as a wrapped rate does."""

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("loop", ["input", "cascade"])
    def test_u_is_read_once_per_block(self, method, loop):
        n_steps = 2 * integrate._BLOCK + 22  # blocks of _BLOCK, _BLOCK and 22 steps
        config = IntegratorConfig(method=method, h=0.01, t_final=n_steps * 0.01)
        sides = None
        if loop == "cascade":
            state0, rate = _cascade_case(6, "SE3", "left", 0.01, False, None, 2.0)
        else:
            spec = [("SO3", "left", False), ("SE3", "split", True), ("vec3", "left", False)]
            state0, sides, u = _open_loop_case(6, spec, None, 0.0)
            rate = Input(u)
        calls = []

        def counted(ts):
            calls.append(ts)
            return rate.u(ts)

        counted_rate = Input(counted) if loop == "input" else integrate.Cascade(counted, rate.sense, rate.follow)
        with mock.patch.object(integrate, "_general_step", side_effect=AssertionError("general step")):
            integrate_system(counted_rate, config, state0, sides)
        stages = [0.01 / d for d in integrate._STAGES[method][0]]
        reads = 1 + len(stages)
        blocks = (integrate._BLOCK, integrate._BLOCK, 22)
        assert [(type(ts), ts.shape) for ts in calls] == [(np.ndarray, (k * reads,)) for k in blocks]
        times = [i * 0.01 + d for i in range(n_steps) for d in (0.0, *stages)]
        assert np.concatenate(calls).tobytes() == np.array(times).tobytes()

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("bad", ["shape", "nan", "inf", "vector_nan"])
    @pytest.mark.parametrize("j", [0, 5, 13, 27])
    def test_a_bad_row_raises_at_its_read(self, method, bad, j):
        # blocks of 4 steps; the bad row is the one at t_j, the time of read j (mod the run's reads)
        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        stages = [0.05 / d for d in integrate._STAGES[method][0]]
        times = [i * 0.05 + d for i in range(10) for d in (0.0, *stages)]
        j %= len(times)
        t_j = times[j]

        def u(ts):
            g, v = np.tile([0.1, -0.2, 0.3], (len(ts), 1)), np.tile([1.0, 2.0], (len(ts), 1))
            if bad == "shape" and (ts == t_j).any():
                g = np.zeros((len(ts), 4))
            (v if bad == "vector_nan" else g)[ts == t_j, 1] = np.inf if bad == "inf" else np.nan
            return {"g": g, "v": v}

        state0 = {"g": GroupElement.identity("SO3"), "v": np.zeros(2)}
        with mock.patch.object(integrate, "_BLOCK", 4):
            got, got_calls = _run(Input(u), config, state0, None)
            want, want_calls = _run(lambda t, s: Input(u)(t, s), config, state0, None)
        assert (type(got), str(got), getattr(got, "t", None)) == (type(want), str(want), getattr(want, "t", None))
        assert got_calls == want_calls and len(got_calls) == 1 + times.index(t_j) // (1 + len(stages))
        if bad == "shape":
            assert isinstance(got, KindMismatchError) and "(4,)" in str(got)
        else:
            assert isinstance(got, NumericalBlowupError) and got.t == t_j
            assert str(got) == f"non-finite rate for component {'v' if bad == 'vector_nan' else 'g'!r} at t={t_j:.6g}"

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("short", ["g", "v"])
    def test_a_stack_of_one_row_takes_the_general_loop(self, method, short):
        # a (1, d) stack for a longer block would broadcast on the block path; the general loop reads its row 0
        def u(ts):
            g, v = np.tile([0.1, -0.2, 0.3], (len(ts), 1)), np.tile([1.0, 2.0], (len(ts), 1))
            return {"g": g[:1] if short == "g" else g, "v": v[:1] if short == "v" else v}

        config = IntegratorConfig(method=method, h=0.05, t_final=0.5)
        state0 = {"g": GroupElement.identity("SO3"), "v": np.zeros(2)}
        with mock.patch.object(integrate, "_general_step", wraps=integrate._general_step) as general:
            got = integrate_system(Input(u), config, state0)
        want = integrate_system(lambda t, s: Input(u)(t, s), config, state0)
        assert general.call_count == 10
        for name in state0:
            assert got.arrays[name].tobytes() == want.arrays[name].tobytes()

    @pytest.mark.parametrize("loop", ["block", "wrapped"])
    def test_a_vector_follower_raises_kind_mismatch(self, loop):
        cascade = integrate.Cascade(lambda ts: {"g": np.ones((len(ts), 3))},
                                    lambda ts, r, s: (SplitRate(body=np.zeros((len(ts), 3))), [None] * len(ts)),
                                    lambda t, m, y: np.zeros(3))
        state0 = {"g": GroupElement.identity("SO3"), "x": np.zeros(3)}
        config = IntegratorConfig(method="rk4_cg", h=0.1, t_final=0.5)
        rate = cascade if loop == "block" else (lambda t, s: cascade(t, s))
        got, calls = _run(rate, config, state0, None)
        assert isinstance(got, KindMismatchError) and "'x'" in str(got) and calls == [0.0], (got, calls)

    @pytest.mark.parametrize("loop", ["block", "wrapped"])
    def test_a_cascade_without_a_follower_raises_kind_mismatch(self, loop):
        cascade = integrate.Cascade(lambda ts: {"g": np.ones((len(ts), 3))},
                                    lambda ts, r, s: (SplitRate(body=np.zeros((len(ts), 3))), [None] * len(ts)),
                                    lambda t, m, y: np.zeros(3))
        config = IntegratorConfig(method="rk4_cg", h=0.1, t_final=0.5)
        rate = cascade if loop == "block" else (lambda t, s: cascade(t, s))
        got, calls = _run(rate, config, {"g": GroupElement.identity("SO3")}, None)
        assert isinstance(got, KindMismatchError) and "does not drive" in str(got) and calls == [0.0], (got, calls)

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    @pytest.mark.parametrize("loop", ["input", "wrapped", "plain"])
    @pytest.mark.parametrize("width", [1, 4])
    def test_a_vector_rate_of_the_wrong_length_raises_kind_mismatch(self, method, loop, width):
        # a (1,) row would broadcast onto the (3,) state; the block pass rejects the stack, the general loop the row
        u = lambda ts: {"g": np.zeros((len(ts), 3)), "v": np.ones((len(ts), width))}  # noqa: E731
        rate = {"input": Input(u), "wrapped": lambda t, s: Input(u)(t, s),
                "plain": lambda t, s: {"g": np.zeros(3), "v": np.ones(width)}}[loop]
        state0 = {"g": GroupElement.identity("SO3"), "v": np.zeros(3)}
        got, calls = _run(rate, IntegratorConfig(method=method, h=0.1, t_final=0.3), state0, None)
        assert isinstance(got, KindMismatchError) and calls == [0.0], (got, calls)
        assert str(got) == f"a rate of shape ({width},) for 'v' of shape (3,)"
