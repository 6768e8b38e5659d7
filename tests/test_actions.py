"""Group actions: laws, generators, equivariance certification."""

import numpy as np
import pytest

from bundleobs import actions as ac
from bundleobs.actions import Point, act
from bundleobs.errors import KindMismatchError
from bundleobs.groups import AlgebraElement, GroupElement, adjoint, exp, hat, inverse_matrix
from bundleobs.sampling import random_algebra, random_group, random_landmarks, random_rotation, rng_from
from bundleobs.systems import E2, E3, attitude_vector_field


class TestAct:
    def test_identity(self):
        a = ac.so3_on_r3()
        p = Point(ac.R3, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(act(a, GroupElement.identity("SO3"), p).value, p.value)

    def test_quarter_turn(self):
        a = ac.so3_on_r3()
        g = exp(hat([0.0, 0.0, np.pi / 2]))
        out = act(a, g, Point(ac.R3, np.array([1.0, 0.0, 0.0])))
        np.testing.assert_allclose(out.value, [0.0, 1.0, 0.0], atol=1e-12)

    def test_slam_right_action_matrix_oracle(self):
        rng = rng_from(0)
        a = ac.slam_action(4)
        S = random_group("SE3", rng)
        L = random_landmarks(rng, 4)
        g = random_group("SE3", rng)
        out = act(a, g, Point(ac.LANDMARK_TUPLE, (S.matrix, L)))
        S_out, L_out = out.value
        gi = np.linalg.inv(g.matrix)
        np.testing.assert_allclose(S_out, gi @ S.matrix, atol=1e-12)
        np.testing.assert_allclose(L_out, gi @ L, atol=1e-12)

    def test_kind_mismatch(self):
        a = ac.so3_on_r3()
        with pytest.raises(KindMismatchError):
            act(a, GroupElement.identity("SO3"), Point(ac.S2, np.array([1.0, 0.0, 0.0])))

    def test_action_laws(self):
        for a in (ac.so3_on_r3(), ac.so3_on_s2(), ac.slam_action(5),
                  ac.group_translation("SO3", "left"), ac.group_translation("SE3", "right")):
            assert ac.check_action_laws(a) <= 1e-10


def _apply_today(name, g, p):
    """The point map of each shipped action, written out: the expected value of act(a, g, p)."""
    G = g.matrix
    if name in ("so3_on_r3", "se3_on_landmarks"):
        return G @ p.value
    if name == "so3_on_s2":
        v = G @ p.value
        return v / np.linalg.norm(v)
    if name.startswith("so3_on_direction_pair"):
        M = G if name.endswith("left") else G.T
        return (M @ p.value[0], M @ p.value[1])
    if name.startswith("trivial"):
        return p.value
    if name.endswith("left_translation"):
        return G @ p.value
    if name.endswith("right_translation"):
        return p.value @ G
    S, L = p.value
    gi = g.inverse().matrix
    return (gi @ S, gi @ L)


SHIPPED_ACTIONS = [
    ac.so3_on_r3(),
    ac.so3_on_s2(),
    ac.so3_on_direction_pair("left"),
    ac.so3_on_direction_pair("right"),
    ac.trivial_action("SE3", ac.LANDMARKS, "right", lambda rng: Point(ac.LANDMARKS, random_landmarks(rng, 6))),
    ac.group_translation("SO3", "left"),
    ac.group_translation("SO3", "right"),
    ac.group_translation("SE3", "left"),
    ac.group_translation("SE3", "right"),
    ac.slam_action(5),
    ac.se3_on_landmarks(12),
]


class TestSingleMap:
    """Each action defines one map, ``lift``; act rebuilds the point from it."""

    @pytest.mark.parametrize("a", SHIPPED_ACTIONS, ids=lambda a: a.name + "_" + a.group_kind)
    def test_act_equals_written_out_map(self, a):
        rng = rng_from(8)
        for _ in range(20):
            p = a.sample_point(rng)
            g = random_group(a.group_kind, rng)
            out = act(a, g, p)
            assert out.kind == a.point_kind
            expected = _apply_today(a.name, g, p)
            got = out.value
            if isinstance(expected, tuple):
                assert len(got) == len(expected)
                for x, y in zip(got, expected):
                    np.testing.assert_array_equal(x, y)
            else:
                np.testing.assert_array_equal(got, expected)
            if a.point_kind == ac.GROUP:
                assert out.value.shape == g.matrix.shape
            if a.point_kind == ac.LANDMARK_TUPLE:
                assert out.value[0].shape == (4, 4)

    @pytest.mark.parametrize("a", [
        ac.so3_on_direction_pair("left"), ac.so3_on_direction_pair("right"), ac.se3_on_landmarks(12),
        ac.trivial_action("SE3", ac.LANDMARKS, "right", lambda rng: Point(ac.LANDMARKS, random_landmarks(rng, 6))),
    ], ids=lambda a: a.name)
    def test_lift_of_a_stack_is_the_stack_of_lifts(self, a):
        # error_columns lifts y0 by stacks of matrices; each row must have the bits of its own call
        rng = rng_from(9)
        t = a.sample_point(rng).value
        G = np.array([random_group(a.group_kind, rng).matrix for _ in range(300)])
        got, want = a.lift(G, t), [a.lift(m, t) for m in G]
        if isinstance(t, tuple):
            for i, x in enumerate(got):
                assert x.tobytes() == np.array([w[i] for w in want]).tobytes()
        else:
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("a", SHIPPED_ACTIONS, ids=lambda a: a.name + "_" + a.group_kind)
    def test_kind_mismatch(self, a):
        rng = rng_from(10)
        other = "SE3" if a.group_kind == "SO3" else "SO3"
        g, p = random_group(a.group_kind, rng), a.sample_point(rng)
        wrong_kind = Point(ac.S2, np.array([1.0, 0.0, 0.0])) if a.point_kind == ac.R3 else Point(
            ac.R3, np.array([1.0, 2.0, 3.0])
        )
        cases = [(random_group(other, rng), p), (g, wrong_kind)]
        if a.point_kind == ac.GROUP:
            cases.append((g, Point(ac.GROUP, random_group(other, rng).matrix)))
        for g_case, p_case in cases:
            with pytest.raises(KindMismatchError):
                act(a, g_case, p_case)


class TestGenerator:
    def test_e3_axis_at_e1(self):
        a = ac.so3_on_r3()
        zeta = AlgebraElement("so3", np.array([0.0, 0.0, 1.0]))
        out = ac.infinitesimal_generator(a, zeta, Point(ac.R3, np.array([1.0, 0.0, 0.0])))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_parallel_axis_vanishes(self):
        a = ac.so3_on_r3()
        q = np.array([0.4, -0.8, 1.2])
        out = ac.infinitesimal_generator(a, AlgebraElement("so3", 2.0 * q), Point(ac.R3, q))
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)

    def test_isotropy_at_e1(self):
        a = ac.so3_on_r3()
        p = Point(ac.R3, np.array([1.0, 0.0, 0.0]))
        zeta = AlgebraElement("so3", np.array([0.7, 0.0, 0.0]))
        assert np.linalg.norm(ac.infinitesimal_generator(a, zeta, p)) <= 1e-12

    def test_slam_closed_form(self):
        rng = rng_from(1)
        a = ac.slam_action(5)
        p = a.sample_point(rng)
        zeta = random_algebra("se3", rng)
        S, L = p.value
        W = zeta.matrix
        gen = ac.infinitesimal_generator(a, zeta, p)
        np.testing.assert_allclose(gen[0], -W @ S, atol=1e-10)
        np.testing.assert_allclose(gen[1], -W @ L, atol=1e-10)

    def test_generator_linearity(self):
        rng = rng_from(2)
        a = ac.so3_on_s2()
        p = a.sample_point(rng)
        z, e = random_algebra("so3", rng), random_algebra("so3", rng)
        lhs = ac.infinitesimal_generator(a, AlgebraElement("so3", 2.0 * z.vec - 0.5 * e.vec), p)
        rhs = 2.0 * np.asarray(ac.infinitesimal_generator(a, z, p)) - 0.5 * np.asarray(
            ac.infinitesimal_generator(a, e, p)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    @pytest.mark.parametrize("a", SHIPPED_ACTIONS, ids=lambda a: a.name + "_" + a.group_kind)
    def test_closed_form_matches_central_difference(self, a):
        """Each closed-form generator against (act(exp(eps zeta), p) - act(exp(-eps zeta), p)) / (2 eps)
        at eps = 1e-6, whose truncation (eps^2) and rounding (1e-16 / eps) errors stay below the
        1e-7 relative tolerance; a wrong sign or factor misses it by about the generator's norm."""
        rng, eps = rng_from(17), 1e-6
        for _ in range(20):
            p = a.sample_point(rng)
            zeta = random_algebra(a.group_kind.lower(), rng)
            fwd, back = (act(a, exp(s * zeta), p).value for s in (eps, -eps))
            fd = ac.tangent_map(lambda f, b: (f - b) / (2.0 * eps), fwd, back)
            gen = ac.infinitesimal_generator(a, zeta, p)
            assert ac.tangent_norm(ac.tangent_map(np.subtract, gen, fd)) <= 1e-7 * max(1.0, ac.tangent_norm(gen))


class TestEquivarianceVF:
    def test_attitude_right_translation(self):
        state = ac.group_translation("SO3", "right")

        def X(p, u):
            return attitude_vector_field(p, AlgebraElement("so3", u))

        def psi(g, u):
            return g.inverse().matrix @ u

        res = ac.check_equivariance_vf(
            X, state, psi, samples=100, seed=42, sample_input=lambda rng: rng.normal(size=3)
        )
        assert res <= 1e-12

    def test_attitude_left_translation_identity_input(self):
        state = ac.group_translation("SO3", "left")

        def X(p, u):
            return attitude_vector_field(p, AlgebraElement("so3", u))

        res = ac.check_equivariance_vf(
            X, state, None, samples=100, seed=42, sample_input=lambda rng: rng.normal(size=3)
        )
        assert res <= 1e-12

    def test_broken_field_detected(self):
        state = ac.group_translation("SO3", "right")
        offset = hat([1.0, 0.5, -0.2]).matrix

        def X(p, u):
            return attitude_vector_field(p, AlgebraElement("so3", u)) + offset

        res = ac.check_equivariance_vf(
            X, state, lambda g, u: g.inverse().matrix @ u,
            samples=50, seed=42, sample_input=lambda rng: rng.normal(size=3),
        )
        assert res > 0.1

    def test_zero_field(self):
        state = ac.group_translation("SO3", "right")
        res = ac.check_equivariance_vf(lambda p, u: np.zeros((3, 3)), state, None, samples=20)
        assert res == 0.0

    def test_bad_sample_count(self):
        # every certifier refuses to pass on no sample, not only this one
        a = ac.so3_on_r3()
        certifiers = [
            lambda n: ac.check_action_laws(a, samples=n),
            lambda n: ac.check_equivariance_vf(lambda p, u: 0, a, samples=n),
            lambda n: ac.check_equivariance_output(lambda p: p, a, a, samples=n),
            lambda n: ac.check_ad_equivariance(a, samples=n),
        ]
        for certify in certifiers:
            for n in (0, -5):
                with pytest.raises(ValueError, match="need at least one sample"):
                    certify(n)


class TestEquivarianceOutput:
    def test_attitude_output(self):
        state = ac.group_translation("SO3", "right")
        out = ac.so3_on_direction_pair("right")

        def H(p):
            R = p.value
            return Point(ac.DIRECTION_PAIR, (R.T @ np.array([0.0, 1.0, 0.0]),
                                             R.T @ np.array([0.0, 0.0, 1.0])))

        assert ac.check_equivariance_output(H, state, out, samples=100) <= 1e-12

    def test_slam_output(self):
        slam = ac.slam_action(6)
        out = ac.trivial_action(
            "SE3", ac.LANDMARKS, "right", lambda rng: Point(ac.LANDMARKS, random_landmarks(rng, 6))
        )

        def H(p):
            S, L = p.value
            return Point(ac.LANDMARKS, inverse_matrix(S) @ L)

        assert ac.check_equivariance_output(H, slam, out, samples=100) <= 1e-12

    def test_constant_output_counterexample(self):
        state = ac.group_translation("SO3", "right")
        out = ac.so3_on_direction_pair("right")
        y_fixed = Point(ac.DIRECTION_PAIR, (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])))
        assert ac.check_equivariance_output(lambda p: y_fixed, state, out, samples=50) > 0


class TestAdEquivariance:
    @pytest.mark.parametrize(
        "action",
        [ac.so3_on_r3(), ac.so3_on_s2(), ac.group_translation("SO3", "left"), ac.slam_action(5),
         ac.so3_on_direction_pair("left"), ac.so3_on_direction_pair("right")],
        ids=lambda a: a.name,
    )
    def test_generators(self, action):
        assert ac.check_ad_equivariance(action, samples=100, seed=42) <= 1e-8

    def test_manual_left_case(self):
        rng = rng_from(3)
        a = ac.so3_on_r3()
        p = a.sample_point(rng)
        g = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        lifted = g.matrix @ np.asarray(ac.infinitesimal_generator(a, zeta, p))
        direct = ac.infinitesimal_generator(a, adjoint(g, zeta), act(a, g, p))
        np.testing.assert_allclose(lifted, direct, atol=1e-8)


class TestPointValidation:
    @pytest.mark.parametrize("kind", [ac.R3, ac.S2, ac.LANDMARKS, ac.DIRECTION_PAIR, ac.LANDMARK_TUPLE])
    def test_the_callers_arrays_are_copied(self, kind):
        # a point keeps its own frozen arrays, as a group point does: writing into the caller's arrays after
        # building it must leave it as built, homogeneous row and unit norms included
        L = np.vstack([np.arange(12.0).reshape(3, 4), np.ones((1, 4))])
        args = {ac.R3: [E3.copy()], ac.S2: [E3.copy()], ac.LANDMARKS: [L], ac.DIRECTION_PAIR: [E2.copy(), E3.copy()],
                ac.LANDMARK_TUPLE: [np.eye(4), L]}[kind]
        p = Point(kind, args[0] if len(args) == 1 else tuple(args))
        before = [np.array(x) for x in (p.value if isinstance(p.value, tuple) else [p.value])]
        for x in args:
            x[-1] = 2.0
        after = p.value if isinstance(p.value, tuple) else [p.value]
        assert all(a.tobytes() == b.tobytes() and not a.flags.writeable for a, b in zip(after, before))

    def test_s2_unit_norm_enforced(self):
        with pytest.raises(Exception):
            Point(ac.S2, np.array([1.0, 1.0, 0.0]))

    def test_landmark_homogeneous_row(self):
        with pytest.raises(Exception):
            Point(ac.LANDMARKS, np.vstack([np.zeros((3, 4)), 2.0 * np.ones((1, 4))]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_s2_rejects_non_finite(self, bad):
        # abs(nan - 1) > 1e-12 is False, so the unit-norm check must fail closed
        with pytest.raises(KindMismatchError, match="unit norm"):
            Point(ac.S2, np.full(3, bad))
        with pytest.raises(KindMismatchError, match="unit norm"):
            Point(ac.S2, np.array([1.0, 0.0, bad]))

    @pytest.mark.parametrize("slot", [0, 1])
    def test_direction_pair_rejects_nan(self, slot):
        pair = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        pair[slot] = np.full(3, np.nan)
        with pytest.raises(KindMismatchError, match="unit 3-vectors"):
            Point(ac.DIRECTION_PAIR, tuple(pair))

    @pytest.mark.parametrize("kind, value", [
        (ac.DIRECTION_PAIR, (np.array([1.0, 0.0, 0.0]),)),
        (ac.DIRECTION_PAIR, (np.array([1.0, 0.0, 0.0]),) * 3),
        (ac.DIRECTION_PAIR, 5.0),
        (ac.LANDMARK_TUPLE, (1, 2, 3)),
        (ac.LANDMARK_TUPLE, (GroupElement.identity("SE3"), np.ones((4, 3)))),
        (ac.GROUP, GroupElement.identity("SO3")),
        (ac.GROUP, np.eye(2)),
    ], ids=["pair_of_one", "pair_of_three", "pair_scalar", "tuple_of_three", "tuple_pose_element", "group_element",
            "group_2x2"])
    def test_payload_of_another_form(self, kind, value):
        # a payload is raw arrays only, in its kind's arity and shape
        with pytest.raises(KindMismatchError):
            Point(kind, value)


class TestPointStackCheck:
    """``check_point_stack`` raises the class the Point constructor raises for a bad point."""

    def test_direction_pairs(self):
        rng = rng_from(16)
        pairs = [random_rotation(rng).matrix[:, 1:].T for _ in range(5)]
        y2, y3 = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        assert ac.check_point_stack(ac.DIRECTION_PAIR, (y2, y3))[0] is y2
        y3[2] *= 1.0 + 1e-11
        with pytest.raises(KindMismatchError):
            Point(ac.DIRECTION_PAIR, (y2[2], y3[2]))
        with pytest.raises(KindMismatchError):
            ac.check_point_stack(ac.DIRECTION_PAIR, (y2, y3))

    @pytest.mark.parametrize("slot", [0, 1])
    def test_direction_pairs_reject_nan(self, slot):
        rng = rng_from(18)
        pairs = [random_rotation(rng).matrix[:, 1:].T for _ in range(5)]
        y = [np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])]
        y[slot][3, 1] = np.nan
        with pytest.raises(KindMismatchError, match="unit 3-vectors"):
            ac.check_point_stack(ac.DIRECTION_PAIR, tuple(y))

    @pytest.mark.parametrize("kind, make", [
        (ac.LANDMARKS, lambda Y, y2, y3: Y[:, :3]),
        (ac.LANDMARKS, lambda Y, y2, y3: Y[0]),
        (ac.DIRECTION_PAIR, lambda Y, y2, y3: (y2,)),
        (ac.DIRECTION_PAIR, lambda Y, y2, y3: (y2, y3[:-1])),
        (ac.DIRECTION_PAIR, lambda Y, y2, y3: (y2[:, :, None], y3[:, :, None])),
    ], ids=["landmarks_without_last_row", "landmarks_unstacked", "pair_of_one", "pairs_of_unlike_length",
            "pair_of_columns"])
    def test_stack_of_another_shape(self, kind, make):
        # refused for its first point, as the constructor refuses the point, not by an IndexError or a broadcast
        rng = rng_from(19)
        Y = np.array([random_landmarks(rng, 6) for _ in range(4)])
        y2, y3 = (np.array([random_rotation(rng).matrix[:, i] for _ in range(4)]) for i in (1, 2))
        with pytest.raises(KindMismatchError) as info:
            ac.check_point_stack(kind, make(Y, y2, y3))
        assert info.value.row == 0

    def test_landmarks(self):
        rng = rng_from(17)
        Y = np.array([random_landmarks(rng, 6) for _ in range(4)])
        assert ac.check_point_stack(ac.LANDMARKS, Y) is Y
        Y[1, 3, 4] = 1.0 + 1e-15
        with pytest.raises(KindMismatchError):
            Point(ac.LANDMARKS, Y[1])
        with pytest.raises(KindMismatchError):
            ac.check_point_stack(ac.LANDMARKS, Y)
