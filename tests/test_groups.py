"""Group/algebra primitives: hat/vee, exp/log, adjoint, metric, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleobs.errors import (
    BranchAmbiguityError,
    DimensionError,
    KindMismatchError,
    NumericalBlowupError,
    ProjectionFailureError,
)
from bundleobs.groups import (
    AlgebraElement,
    GroupElement,
    Metric,
    adjoint,
    bracket,
    exp,
    exp_matrix,
    hat,
    inner,
    log,
    project_stack,
    project_to_group,
    vee,
)
from bundleobs.groups import _PI_EXCLUSION, _SMALL_ANGLE
from bundleobs.sampling import random_algebra, random_group, random_rotation, rng_from


def series_exp(m: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestHatVee:
    def test_zero(self):
        assert np.array_equal(hat([0.0, 0.0, 0.0]).matrix, np.zeros((3, 3)))

    def test_e3_basis(self):
        m = hat([0.0, 0.0, 1.0]).matrix
        expected = np.zeros((3, 3))
        expected[0, 1] = -1.0
        expected[1, 0] = 1.0
        assert np.array_equal(m, expected)

    def test_cross_product_oracle(self):
        rng = rng_from(0)
        v = np.array([0.3, -1.2, 2.0])
        m = hat(v).matrix
        for _ in range(20):
            w = rng.normal(size=3)
            np.testing.assert_allclose(m @ w, np.cross(v, w), atol=1e-14)

    def test_antisymmetric(self):
        rng = rng_from(1)
        for _ in range(10):
            m = hat(rng.normal(size=3)).matrix
            assert np.linalg.norm(m + m.T) <= 1e-12

    def test_vee_roundtrip_bit_identical(self):
        v = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(vee(hat(v)), v)
        v6 = np.array([1.0, 2.0, 3.0, 0.1, -0.2, 0.3])
        assert np.array_equal(vee(hat(v6)), v6)

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            hat([1.0, 2.0])


class TestExp:
    def test_zero_is_identity(self):
        assert np.array_equal(exp(AlgebraElement.zero("so3")).matrix, np.eye(3))
        assert np.array_equal(exp(AlgebraElement.zero("se3")).matrix, np.eye(4))

    def test_half_turn(self):
        R = exp(hat([0.0, 0.0, np.pi])).matrix
        np.testing.assert_allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_series_oracle_so3(self):
        zeta = hat([0.1, -0.2, 0.3])
        np.testing.assert_allclose(exp(zeta).matrix, series_exp(zeta.matrix), atol=1e-12)

    def test_series_oracle_se3(self):
        zeta = hat([0.5, -1.0, 0.25, 0.1, -0.2, 0.3])
        np.testing.assert_allclose(exp(zeta).matrix, series_exp(zeta.matrix), atol=1e-12)

    def test_small_angle_fallback(self):
        zeta = hat([1e-9, -2e-9, 3e-10])
        np.testing.assert_allclose(exp(zeta).matrix, series_exp(zeta.matrix), atol=1e-16)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalBlowupError):
            exp(AlgebraElement("so3", np.array([np.inf, 0.0, 0.0])))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("angle", [1e160, 1e105])  # |w|^2 overflows; theta ** 3 overflows
    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_overflowing_angle_raises_blowup(self, kind, angle):
        vec = np.array([angle, 0.0, 0.0]) if kind == "so3" else np.array([1.0, 0, 0, angle, 0, 0])
        with pytest.raises(NumericalBlowupError, match="overflows"):
            exp(AlgebraElement(kind, vec))

    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_huge_finite_angle_still_a_rotation(self, kind):
        vec = np.array([1e101, 0.0, 0.0]) if kind == "so3" else np.array([1.0, 0, 0, 1e101, 0, 0])
        R = exp(AlgebraElement(kind, vec)).matrix[:3, :3]
        assert np.all(np.isfinite(R)) and np.linalg.det(R) > 0

    def test_so3_equals_se3_rotation_block(self):
        rng = rng_from(13)
        for scale in (1e-8, 1e-3, 1.0, 3.0):
            for _ in range(20):
                w = scale * rng.normal(size=3)
                se3 = exp(AlgebraElement("se3", np.concatenate([rng.normal(size=3), w])))
                np.testing.assert_array_equal(exp(AlgebraElement("so3", w)).matrix, se3.matrix[:3, :3])


_UNIT_AXIS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda u: np.linalg.norm(u) > 0.1)
_STACK_ANGLE = st.one_of(
    st.floats(0.0, 0.99 * _SMALL_ANGLE),  # Taylor branch
    st.floats(_SMALL_ANGLE, 3.0),  # generic
    st.floats(-12.0, -2.0).map(lambda e: math.pi + math.copysign(10.0**e, e + 7.0)),  # near pi, both sides
    st.floats(10.0, 1e6),  # many turns
    st.none(),  # a zero row
)


class TestStackedExp:
    """``exp_matrix`` of a (k, 3) or (k, 6) stack: every item has the bits of its own call."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.sampled_from([3, 6]),
           rows=st.lists(st.tuples(_UNIT_AXIS, _STACK_ANGLE, st.floats(-5.0, 5.0)), min_size=1, max_size=10))
    def test_items_match_single_calls(self, dim, rows):
        vecs = []
        for axis, angle, shift in rows:
            w = np.zeros(3) if angle is None else np.array(axis) / np.linalg.norm(axis) * angle
            rho = np.zeros(3) if angle is None else shift * np.array(axis[::-1])
            vecs.append(w if dim == 3 else np.concatenate([rho, w]))
        stack = np.array(vecs)
        out = exp_matrix(stack)
        assert out.shape == (len(vecs), 3, 3) if dim == 3 else (len(vecs), 4, 4)
        for item, vec in zip(out, vecs):
            assert item.tobytes() == exp_matrix(vec).tobytes()

    @pytest.mark.parametrize("dim", [3, 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises(self, dim, bad):
        stack = np.full((5, dim), 0.25)
        stack[3, -1] = bad
        with pytest.raises(NumericalBlowupError):
            exp_matrix(stack)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("dim", [3, 6])
    def test_overflowing_angle_row_raises(self, dim):
        stack = np.full((4, dim), 0.25)
        stack[2, -3:] = 1e200
        with pytest.raises(NumericalBlowupError):
            exp_matrix(stack)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (0,), (4,)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(DimensionError):
            exp_matrix(np.zeros(shape))


class TestLog:
    def test_identity(self):
        assert np.array_equal(log(GroupElement.identity("SO3")).vec, np.zeros(3))
        assert np.array_equal(log(GroupElement.identity("SE3")).vec, np.zeros(6))

    def test_roundtrip_example(self):
        v = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(log(exp(hat(v))).vec, v, atol=1e-10)

    def test_branch_exclusion_near_pi(self):
        g = exp(hat([np.pi - 1e-8, 0.0, 0.0]))
        with pytest.raises(BranchAmbiguityError):
            log(g)

    def test_near_pi_outside_exclusion(self):
        v = (np.pi - 1e-4) * np.array([0.0, 0.6, 0.8])
        np.testing.assert_allclose(log(exp(hat(v))).vec, v, atol=1e-9)

    def test_exp_log_roundtrip_property(self):
        rng = rng_from(11)
        worst = 0.0
        for _ in range(200):
            w = rng.uniform(0.0, np.pi - 0.1) * (lambda u: u / np.linalg.norm(u))(
                rng.normal(size=3)
            )
            v = np.concatenate([rng.normal(size=3), w])
            worst = max(worst, float(np.linalg.norm(log(exp(hat(v))).vec - v)))
        assert worst <= 1e-9

    def test_homomorphism_on_commuting(self):
        rng = rng_from(12)
        for _ in range(20):
            zeta = random_algebra("so3", rng)
            a, b = rng.uniform(-0.8, 0.8, size=2)
            lhs = exp(a * zeta) @ exp(b * zeta)
            rhs = exp((a + b) * zeta)
            assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-10


class TestAdjoint:
    def test_identity(self):
        zeta = hat([0.1, 0.2, 0.3])
        np.testing.assert_allclose(adjoint(GroupElement.identity("SO3"), zeta).vec, zeta.vec)

    def test_inverse_composition(self):
        rng = rng_from(2)
        g = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        back = adjoint(g.inverse(), adjoint(g, zeta))
        np.testing.assert_allclose(back.vec, zeta.vec, atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = rng_from(3)
        g = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        s = 1e-6
        conj = lambda t: g.matrix @ exp(t * zeta).matrix @ g.inverse().matrix
        fd = (conj(s) - conj(-s)) / (2 * s)
        np.testing.assert_allclose(adjoint(g, zeta).matrix, fd, atol=1e-6)

    def test_bracket_equivariance(self):
        rng = rng_from(4)
        for kind in ("so3", "se3"):
            g = random_rotation(rng) if kind == "so3" else None
            if g is None:
                from bundleobs.sampling import random_group

                g = random_group("SE3", rng)
            z, e = random_algebra(kind, rng), random_algebra(kind, rng)
            lhs = adjoint(g, bracket(z, e))
            rhs = bracket(adjoint(g, z), adjoint(g, e))
            assert np.linalg.norm(lhs.vec - rhs.vec) <= 1e-10

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            adjoint(GroupElement.identity("SO3"), AlgebraElement.zero("se3"))


class TestInner:
    def test_unit_basis(self):
        zeta = hat([1.0, 0.0, 0.0])
        assert inner(Metric(), zeta, zeta) == 1.0

    def test_symmetry(self):
        rng = rng_from(5)
        m = Metric()
        for _ in range(100):
            z, e = random_algebra("so3", rng), random_algebra("so3", rng)
            assert inner(m, z, e) == inner(m, e, z)

    def test_ad_invariance(self):
        rng = rng_from(6)
        m = Metric()
        for _ in range(50):
            g = random_rotation(rng)
            z, e = random_algebra("so3", rng), random_algebra("so3", rng)
            assert abs(inner(m, adjoint(g, z), adjoint(g, e)) - inner(m, z, e)) <= 1e-12

    def test_positive_definite(self):
        z = hat([0.3, -0.4, 0.1])
        assert inner(Metric(), z, z) > 0
        assert inner(Metric(), AlgebraElement.zero("so3"), AlgebraElement.zero("so3")) == 0.0


class TestProjectToGroup:
    def test_exact_element_fixed(self):
        rng = rng_from(7)
        g = random_rotation(rng)
        np.testing.assert_allclose(project_to_group(g.matrix, "SO3").matrix, g.matrix, atol=1e-14)

    def test_small_perturbation(self):
        rng = rng_from(8)
        m = np.eye(3) + 1e-4 * hat(rng.normal(size=3)).matrix
        g = project_to_group(m, "SO3")
        assert np.linalg.norm(g.matrix.T @ g.matrix - np.eye(3)) <= 1e-12

    def test_far_matrix_rejected(self):
        with pytest.raises(ProjectionFailureError):
            project_to_group(np.diag([1.0, 1.0, -1.0]), "SO3")

    def test_distance_threshold(self):
        # (1 + s) Q projects onto Q at Frobenius distance s sqrt(3)
        Q = random_rotation(rng_from(12)).matrix
        for dist, accepted in ((0.45, True), (0.55, False)):
            m = (1.0 + dist / np.sqrt(3.0)) * Q
            if accepted:
                np.testing.assert_allclose(project_to_group(m, "SO3").matrix, Q, atol=1e-12)
            else:
                with pytest.raises(ProjectionFailureError):
                    project_to_group(m, "SO3")

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, kind, value):
        # LAPACK's SVD may not return on an infinite entry
        m = np.eye(3 if kind == "SO3" else 4)
        m[0, 0] = value
        with pytest.raises(NumericalBlowupError):
            project_to_group(m, kind)
        with pytest.raises(NumericalBlowupError):  # after the finite items before it
            project_stack(np.stack([np.eye(len(m)), m, np.diag([1.0, 1.0, -1.0] + [1.0] * (len(m) - 3))]), kind)

    def test_se3_bottom_row_reset(self):
        rng = rng_from(9)
        from bundleobs.sampling import random_group

        g = random_group("SE3", rng)
        m = g.matrix.copy()
        m[:3, :3] += 1e-5 * rng.normal(size=(3, 3))
        proj = project_to_group(m, "SE3")
        assert np.array_equal(proj.matrix[3], np.array([0.0, 0.0, 0.0, 1.0]))


class TestInvariants:
    def test_bad_rotation_rejected(self):
        with pytest.raises(ProjectionFailureError):
            GroupElement("SO3", np.eye(3) * 1.5)

    def test_reflection_rejected(self):
        # orthogonal, so only the determinant test can reject it
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ProjectionFailureError):
            GroupElement("SO3", flip)
        m = np.eye(4)
        m[:3, :3] = flip
        with pytest.raises(ProjectionFailureError):
            GroupElement("SE3", m)

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    def test_orthogonality_threshold(self, kind):
        # scale a rotation so that ||R^T R - I||_F lands 5 % either side of 1e-9
        Q = random_rotation(rng_from(11)).matrix
        for target, accepted in ((0.95e-9, True), (1.05e-9, False)):
            # ||s^2 Q^T Q - I|| ~ sqrt(3) (s^2 - 1)
            R = Q * np.sqrt(1.0 + target / np.sqrt(3.0))
            defect = np.linalg.norm(R.T @ R - np.eye(3))
            assert (defect <= 1e-9) == accepted
            m = R
            if kind == "SE3":
                m = np.eye(4)
                m[:3, :3] = R
            if accepted:
                np.testing.assert_array_equal(GroupElement(kind, m).matrix, m)
            else:
                with pytest.raises(ProjectionFailureError):
                    GroupElement(kind, m)

    def test_nonfinite_matrix_rejected(self):
        m = np.eye(3)
        m = m.copy()
        m[0, 0] = np.nan
        with pytest.raises(NumericalBlowupError):
            GroupElement("SO3", m)

    def test_unknown_kind(self):
        with pytest.raises(KindMismatchError):
            GroupElement("SU2", np.eye(2))

    def test_matmul_stays_on_group(self):
        rng = rng_from(10)
        g = random_rotation(rng)
        h = random_rotation(rng)
        gh = g @ h
        assert np.linalg.norm(gh.matrix.T @ gh.matrix - np.eye(3)) <= 1e-9


# rotation angles of each branch of exp and log: the small-angle Taylor series,
# the generic closed form, and the near-pi axis from the symmetric part, kept
# outside the 1e-7 exclusion band (twice its width, so rounding in exp cannot
# push the recovered angle into it)
_BRANCHES = {
    "taylor": (0.0, _SMALL_ANGLE),
    "generic": (_SMALL_ANGLE, math.pi - 1e-3),
    "near_pi": (math.pi - 1e-3, math.pi - 2.0 * _PI_EXCLUSION),
}
_axis = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda u: np.linalg.norm(u) > 0.1
)


@st.composite
def _rotation_vector(draw):
    lo, hi = _BRANCHES[draw(st.sampled_from(sorted(_BRANCHES)))]
    theta = draw(st.floats(lo, hi))
    u = draw(_axis)
    return theta * u / np.linalg.norm(u)


class TestExpLogProperties:
    @settings(max_examples=300, deadline=None)
    @given(w=_rotation_vector())
    def test_so3_roundtrip(self, w):
        out = log(exp(AlgebraElement("so3", w))).vec
        assert np.linalg.norm(out - w) <= 1e-12 * np.linalg.norm(w)

    @settings(max_examples=300, deadline=None)
    @given(w=_rotation_vector(), rho=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    def test_se3_roundtrip(self, w, rho):
        out = log(exp(AlgebraElement("se3", np.concatenate([rho, w])))).vec
        assert np.linalg.norm(out[3:] - w) <= 1e-12 * np.linalg.norm(w)
        # Just above the Taylor threshold, (1 - cos t) / t^2 in V cancels to an
        # absolute error of about eps / t^2, so V rho carries about eps |rho| / t
        # wherever exp or log took the generic branch.
        theta, r = max(np.linalg.norm(w), np.linalg.norm(out[3:])), np.linalg.norm(rho)
        cancellation = 1e-15 * r / theta if theta >= _SMALL_ANGLE else 0.0
        assert np.linalg.norm(out[:3] - rho) <= 1e-12 * (1.0 + r) + cancellation


class TestProjectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["SO3", "SE3"]),
        seed=st.integers(0, 2**32 - 1),
        size=st.floats(0.0, 0.25),
    )
    def test_idempotent(self, kind, seed, size):
        rng = rng_from(seed)
        m = random_group(kind, rng).matrix.copy()
        m[:3, :3] += size * rng.uniform(-1.0, 1.0, size=(3, 3)) / 3.0  # Frobenius distance <= size
        once = project_to_group(m, kind)
        twice = project_to_group(once.matrix, kind)
        assert np.linalg.norm(twice.matrix - once.matrix) <= 1e-14
        if kind == "SE3":
            assert twice.matrix[:3, 3].tobytes() == once.matrix[:3, 3].tobytes()


class TestMetricValidation:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_or_non_finite(self, scale):
        with pytest.raises(ValueError, match="positive"):
            Metric(scale)

    def test_accepts_positive_finite(self):
        assert Metric(2.5).scale == 2.5
