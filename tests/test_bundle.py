"""Cross-sections, fiber/base coordinates, splitting, system reduction."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundleobs import actions as ac
from bundleobs import bundle
from bundleobs.actions import Point, act
from bundleobs.errors import BundleobsError, NotFiberInjectiveError, OriginError
from bundleobs.groups import AlgebraElement, GroupElement, exp, hat
from bundleobs.sampling import random_algebra, random_group, random_landmarks, random_rotation, rng_from
from bundleobs.systems import slam_vector_field, sphere_vector_field

E1 = np.array([1.0, 0.0, 0.0])


class TestGivensSection:
    def test_on_section_already(self):
        r, R = bundle.givens_section([5.0, 0.0, 0.0])
        assert r == 5.0
        np.testing.assert_allclose(R.matrix, np.eye(3), atol=1e-15)

    def test_plane_case(self):
        r, R = bundle.givens_section([3.0, 4.0, 0.0])
        assert abs(r - 5.0) <= 1e-12
        np.testing.assert_allclose(R.matrix @ E1, [0.6, 0.8, 0.0], atol=1e-12)

    def test_axis_case(self):
        r, R = bundle.givens_section([0.0, 0.0, -2.0])
        assert abs(r - 2.0) <= 1e-12
        np.testing.assert_allclose(R.matrix @ E1, [0.0, 0.0, -1.0], atol=1e-12)

    def test_origin_excluded(self):
        with pytest.raises(OriginError):
            bundle.givens_section([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("q", [(1.0, 5e-324, 5e-324), (1.0, 1e-320, -1e-320), (-3.0, 5e-324, -2e-310)])
    def test_subnormal_pair_gives_a_frame(self, q):
        # hypot(5e-324, 5e-324) rounds to 5e-324: the pair is scaled before the division
        r, R = bundle.givens_section(q)
        assert r == abs(q[0])
        assert np.linalg.norm(R.matrix.T @ R.matrix - np.eye(3)) <= 1e-15
        assert np.linalg.norm(np.asarray(q) - r * (R.matrix @ E1)) <= 1e-15

    def test_random_reconstruction(self):
        rng = rng_from(0)
        for _ in range(200):
            q = rng.normal(size=3) * rng.uniform(0.1, 5.0)
            r, R = bundle.givens_section(q)
            assert np.linalg.norm(q - r * (R.matrix @ E1)) <= 1e-12
            assert np.linalg.norm(R.matrix.T @ R.matrix - np.eye(3)) <= 1e-12


class TestSphereSplit:
    def test_radial_motion(self):
        q = np.array([0.3, -1.1, 0.7])
        hor, ver = bundle.sphere_split(q, q / np.linalg.norm(q))
        assert abs(hor - 1.0) <= 1e-12
        assert ver.norm() <= 1e-12

    def test_tangent_at_e1(self):
        hor, ver = bundle.sphere_split(E1, np.array([0.0, 1.0, 0.0]))
        assert abs(hor) <= 1e-15
        r, R = bundle.givens_section(E1)
        rec = hor * R.matrix @ E1 + r * R.matrix @ ver.matrix @ E1
        np.testing.assert_allclose(rec, [0.0, 1.0, 0.0], atol=1e-12)

    def test_random_reconstruction(self):
        rng = rng_from(1)
        for _ in range(200):
            q = rng.normal(size=3) * rng.uniform(0.2, 4.0)
            v = rng.normal(size=3)
            hor, ver = bundle.sphere_split(q, v)
            r, R = bundle.givens_section(q)
            rec = hor * R.matrix @ E1 + r * R.matrix @ ver.matrix @ E1
            assert np.linalg.norm(rec - v) <= 1e-10

    def test_ver_in_coset_subspace(self):
        hor, ver = bundle.sphere_split([1.0, 2.0, 3.0], [0.5, -0.5, 0.1])
        assert ver.vec[0] == 0.0

    def test_origin_excluded(self):
        with pytest.raises(OriginError):
            bundle.sphere_split([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def _split_row(q, v):
    """The sphere split of one point written out per row, with 2-D @: the reference
    the stacked ``givens_frames`` and ``sphere_splits`` must match bit for bit."""
    r = float(np.linalg.norm(q))
    if r <= 1e-12:
        raise OriginError("the origin is excluded from the sphere bundle")

    def pair(a, b):
        h = math.hypot(a, b)
        if 0.0 < h < sys.float_info.min:  # subnormal: divide by the larger magnitude first
            a, b = a / max(abs(a), abs(b)), b / max(abs(a), abs(b))
            h = math.hypot(a, b)
        return (1.0, 0.0) if h == 0.0 else (a / h, b / h)

    x, y, z = q.tolist()
    c2, s2 = pair(y, z)
    c1, s1 = pair(x, math.hypot(y, z))
    R2 = np.array([[1.0, 0.0, 0.0], [0.0, c2, s2], [0.0, -s2, c2]])
    R1 = np.array([[c1, s1, 0.0], [-s1, c1, 0.0], [0.0, 0.0, 1.0]])
    R = GroupElement("SO3", R2.T @ R1.T).matrix
    w = R.T @ v
    u = (w - np.array([float(w[0]), 0.0, 0.0])) / r
    return r, R, float(w[0]), np.array([0.0, -u[2], u[1]])


def _first_failure(fn, items):
    """The exception class of the first item ``fn`` fails on, or None."""
    for item in items:
        try:
            fn(*item)
        except BundleobsError as exc:
            return type(exc)
    return None


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e3, 1e3, allow_subnormal=False))
_VEC = st.tuples(_COORD, _COORD, _COORD)
# values the per-row code fails on (the origin, an overflowing hypot, non-finite
# coordinates) and subnormal pairs, whose rounded hypot the section scales around
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1.7e308, -1.3e308, math.inf, -math.inf, math.nan])


class TestStackedSplit:
    """``sphere_splits`` runs the split of a whole trajectory at once; every row must
    carry the bits of the per-row code, points on the coordinate axes included."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_VEC, _VEC), min_size=1, max_size=8))
    @example(rows=[((0.0, 0.0, -2.0), (1.0, 0.0, 0.0)), ((-0.0, 3.0, -0.0), (0.0, -1.0, 0.5)),
                   ((5.0, -0.0, 0.0), (-0.0, 0.0, -0.0))])
    @example(rows=[((1.0, 5e-324, 5e-324), (0.0, 1.0, 0.0)), ((-2.0, 1e-320, -3e-321), (1.0, 0.5, 0.0))])
    def test_rows_match_per_row_code(self, rows):
        q = np.array([p for p, _ in rows])
        q[np.linalg.norm(q, axis=1) <= 1e-9, 0] = 1.0  # keep off the origin
        v = np.array([u for _, u in rows])
        stacked = bundle.sphere_splits(q, v)
        for i in range(len(q)):
            expected = _split_row(q[i], v[i])
            for got, want in zip(stacked, expected):
                assert np.asarray(got[i]).tobytes() == np.asarray(want, dtype=float).tobytes()
            hor, ver = bundle.sphere_split(q[i], v[i])
            r, R = bundle.givens_section(q[i])
            assert (r, R.matrix.tobytes(), hor, ver.vec.tobytes()) == (
                expected[0], expected[1].tobytes(), expected[2], expected[3].tobytes())

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(_COORD, _SPECIAL), _SPECIAL, st.one_of(_COORD, _SPECIAL)),
                         min_size=1, max_size=6))
    @example(rows=[(1.0, 5e-324, 5e-324), (0.0, 0.0, 0.0)])
    @example(rows=[(1.0, 2.0, 3.0), (1.7e308, 1.0, 5.39e307), (math.inf, 0.0, 0.0)])
    def test_failing_rows_fail_in_order(self, rows):
        q = np.array(rows)
        v = np.ones_like(q)
        with np.errstate(all="ignore"):
            expected = _first_failure(_split_row, zip(q, v))
            if expected is None:
                bundle.sphere_splits(q, v)
            else:
                with pytest.raises(expected):
                    bundle.sphere_splits(q, v)


class TestSlamSection:
    def test_identity_pose(self):
        rng = rng_from(2)
        L = random_landmarks(rng, 4)
        p = Point(ac.LANDMARK_TUPLE, (GroupElement.identity("SE3"), L))
        bp = bundle.slam_section(p)
        np.testing.assert_allclose(bp.fiber.matrix, np.eye(4))
        S_base, L_base = bp.base.value.value
        np.testing.assert_allclose(L_base, L, atol=1e-12)

    def test_reconstruction(self):
        rng = rng_from(3)
        sec = bundle.slam_bundle(4)
        S = random_group("SE3", rng)
        L = random_landmarks(rng, 4)
        p = Point(ac.LANDMARK_TUPLE, (S, L))
        assert sec.reconstruction_residual(p) <= 1e-12
        assert bundle.slam_section(p).fiber.is_close(S, 1e-12)

    def test_orbit_invariant_base(self):
        rng = rng_from(4)
        sec = bundle.slam_bundle(6)
        p = sec.action.sample_point(rng)
        g = random_group("SE3", rng)
        b1 = sec.base_of(p)
        b2 = sec.base_of(act(sec.action, g, p))
        assert ac.point_distance(b1.value, b2.value) <= 1e-12


class TestAssociatedSection:
    def test_slam_output_reproduces_identity_slot_section(self):
        rng = rng_from(5)
        s_p = bundle.slam_bundle(6)

        def H(p):
            S, L = p.value
            return Point(ac.LANDMARK_TUPLE, (S, L))

        derived = bundle.associated_section_from_output(H, s_p, s_p.action)
        for _ in range(100):
            p = s_p.action.sample_point(rng)
            assert np.linalg.norm(derived.fiber_of(p).matrix - s_p.fiber_of(p).matrix) <= 1e-8

    def test_identity_output_map(self):
        sb = bundle.sphere_bundle()
        derived = bundle.associated_section_from_output(lambda p: p, sb, sb.action)
        rng = rng_from(6)
        for _ in range(20):
            p = sb.action.sample_point(rng)
            assert np.linalg.norm(derived.fiber_of(p).matrix - sb.fiber_of(p).matrix) <= 1e-10

    def test_constant_output_rejected(self):
        sb = bundle.sphere_bundle()
        fixed = Point(ac.R3, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(NotFiberInjectiveError):
            bundle.associated_section_from_output(lambda p: fixed, sb, sb.action)


class TestReduceSystem:
    def test_sphere_matches_split(self):
        rng = rng_from(7)
        sb = bundle.sphere_bundle()
        q = rng.normal(size=3)
        v = rng.normal(size=3)
        base_rate, fiber_rate = bundle.reduce_system(
            lambda p, u: sphere_vector_field(p, u), sb, Point(ac.R3, q), v
        )
        hor, ver = bundle.sphere_split(q, v)
        assert abs(base_rate - hor) <= 1e-12
        np.testing.assert_allclose(fiber_rate.vec, ver.vec, atol=1e-12)

    def test_slam_closed_forms(self):
        rng = rng_from(8)
        sec = bundle.slam_bundle(6)
        p = sec.action.sample_point(rng)
        S, L = p.value
        V = random_algebra("se3", rng)
        vbar = np.vstack([rng.normal(size=(3, 6)), np.zeros((1, 6))])
        base_rate, fiber_rate = bundle.reduce_system(slam_vector_field, sec, p, (V, vbar))
        Sinv = S.inverse().matrix
        np.testing.assert_allclose(base_rate[0], np.zeros((4, 4)), atol=1e-12)
        np.testing.assert_allclose(base_rate[1], -V.matrix @ (Sinv @ L) + vbar, atol=1e-10)
        np.testing.assert_allclose(fiber_rate.vec, V.vec, atol=1e-10)

    def test_zero_field(self):
        sb = bundle.sphere_bundle()
        base_rate, fiber_rate = bundle.reduce_system(
            lambda p, u: np.zeros(3), sb, Point(ac.R3, np.array([1.0, -2.0, 0.5])), None
        )
        assert abs(base_rate) <= 1e-12
        assert fiber_rate.norm() <= 1e-12


class TestBundleProperties:
    def test_sphere_orbit_invariance(self):
        rng = rng_from(9)
        sb = bundle.sphere_bundle()
        for _ in range(100):
            p = sb.action.sample_point(rng)
            g = random_rotation(rng)
            assert abs(sb.base_of(act(sb.action, g, p)).value - sb.base_of(p).value) <= 1e-10

    def test_sphere_fiber_equivariance_on_section_point(self):
        # compare cosets by acting on the section point, as isotropy about e1
        # makes raw matrix comparison ill-posed
        rng = rng_from(10)
        sb = bundle.sphere_bundle()
        for _ in range(100):
            p = sb.action.sample_point(rng)
            g = random_rotation(rng)
            gp = act(sb.action, g, p)
            sigma = sb.section(sb.base_of(p))
            lhs = act(sb.action, sb.fiber_of(gp), sigma)
            rhs = act(sb.action, g @ sb.fiber_of(p), sigma)
            assert ac.point_distance(lhs, rhs) <= 1e-10

    def test_slam_fiber_antiequivariance(self):
        # right bundle: fiber_of(act(h, p)) = h^-1 fiber_of(p) for the
        # identity-slot section (free action, so raw comparison is fine)
        rng = rng_from(11)
        sec = bundle.slam_bundle(5)
        for _ in range(50):
            p = sec.action.sample_point(rng)
            h = random_group("SE3", rng)
            lhs = sec.fiber_of(act(sec.action, h, p))
            rhs = h.inverse() @ sec.fiber_of(p)
            assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-10

    def test_section_is_right_inverse_of_base(self):
        sb = bundle.sphere_bundle()
        b = bundle.BaseCoordinate("radius", 2.5)
        assert abs(sb.base_of(sb.section(b)).value - 2.5) <= 1e-12

    def test_flow_commutes_with_projection(self):
        # Euler-integrate the full sphere system and, in lockstep, the base
        # rate from reduce_system; final radius must match the projection of
        # the final state.
        h = 1e-3
        sb = bundle.sphere_bundle()
        q = np.array([1.0, 0.5, -0.3])
        r = sb.base_of(Point(ac.R3, q)).value

        def v(t):
            return np.array([np.sin(t), 0.4, -0.2 * np.cos(t)])

        def rates(t, q):
            vel = v(t)
            base_rate, _ = bundle.reduce_system(
                lambda p, u: sphere_vector_field(p, u), sb, Point(ac.R3, q), vel
            )
            return vel, base_rate

        t = 0.0
        for _ in range(1000):
            k1q, k1r = rates(t, q)
            k2q, k2r = rates(t + h / 2, q + h / 2 * k1q)
            k3q, k3r = rates(t + h / 2, q + h / 2 * k2q)
            k4q, k4r = rates(t + h, q + h * k3q)
            q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            r = r + h / 6 * (k1r + 2 * k2r + 2 * k3r + k4r)
            t += h
        assert abs(r - sb.base_of(Point(ac.R3, q)).value) <= 1e-6

    def test_decompose_roundtrip(self):
        rng = rng_from(12)
        sb = bundle.sphere_bundle()
        p = sb.action.sample_point(rng)
        bp = bundle.decompose(sb, p)
        rebuilt = act(sb.action, bp.fiber, sb.section(bp.base))
        assert ac.point_distance(rebuilt, p) <= 1e-10
